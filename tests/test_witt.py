import pytest

from gkit import cohen as C
from gkit import witt as W
from gkit.basefield import PrimeParams
from gkit.errors import IndexOutOfRange, LengthMismatch
from gkit.polys import ElemDomain, SparsePoly
from gkit.rings import FieldRing, IntegerRing, SymbolicRing
from gkit.sampling import (
    rand_ambient_elem,
    rand_cohen,
    rand_field_elem,
    rand_int_witt,
    rand_nonzero_field_elem,
)


def _eval_every_term(poly, ring, values):
    """The slow path: every term of poly at values, zero inputs included."""
    acc = ring.zero()
    for exps, c in poly.terms.items():
        term = ring.from_int(c)
        for x, e in zip(values, exps):
            if e:
                term = term * x**e
        acc = acc + term
    return acc


def _with_zeros(rng, ring, N, sample):
    """A length-N vector whose entries are each forced to zero at random."""
    return W.WittVector(
        ring, tuple(ring.zero() if rng.randrange(2) else sample() for _ in range(N))
    )


def test_structure_polys_small_cases():
    sp = W.structure_polys(2, 2)
    dom = ElemDomain(0, 1)
    x0 = SparsePoly.variable(dom, 4, 0)
    x1 = SparsePoly.variable(dom, 4, 1)
    y0 = SparsePoly.variable(dom, 4, 2)
    y1 = SparsePoly.variable(dom, 4, 3)
    assert sp.sums[0] == x0 + y0
    assert sp.prods[0] == x0 * y0
    assert sp.sums[1] == x1 + y1 - x0 * y0
    assert sp.prods[1] == x0 * x0 * y1 + y0 * y0 * x1 + (x1 * y1).scale(2)


@pytest.mark.parametrize("p,N", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_ghost_oracle(p, N, rng):
    """Ghost components turn Witt operations into plain integer arithmetic,
    also on vectors with zero entries."""
    ring = IntegerRing(p)
    nonzero = lambda: rng.choice([-1, 1]) * rng.randrange(1, 20)

    def draw(zeros):
        if zeros:
            return _with_zeros(rng, ring, N, nonzero)
        return rand_int_witt(rng, ring, N, 20)

    for zeros in [False] * 25 + [True] * 25:
        u, v = draw(zeros), draw(zeros)
        s, m, n, pu = W.witt_add(u, v), W.witt_mul(u, v), W.witt_neg(u), W.p_times(u)
        for r in range(N):
            gu, gv = W.ghost(r, u), W.ghost(r, v)
            assert W.ghost(r, s) == gu + gv
            assert W.ghost(r, m) == gu * gv
            assert W.ghost(r, n) == -gu
            assert W.ghost(r, pu) == p * gu


def test_ghost_examples():
    ring = IntegerRing(3)
    assert W.ghost(1, W.WittVector(ring, (2, 1))) == 11
    ring2 = IntegerRing(2)
    assert W.ghost(2, W.WittVector(ring2, (1, 1, 1))) == 7
    assert W.ghost(0, W.WittVector(ring2, (5, 9, 3))) == 5
    with pytest.raises(IndexOutOfRange):
        W.ghost(3, W.WittVector(ring2, (1, 1, 1)))


def test_add_examples(params2, k2):
    ring = IntegerRing(2)
    s = W.witt_add(W.WittVector(ring, (1, 0)), W.WittVector(ring, (1, 0)))
    assert s.entries == (2, -1)
    one, zero = params2.one(), params2.zero()
    u = W.WittVector(k2, (one, zero))
    assert W.witt_add(u, u).entries == (zero, one)
    assert W.witt_neg(u).entries == (one, one)
    assert W.witt_add(u, W.witt_neg(u)).is_zero()


def test_length_mismatch(k2, params2):
    u = W.WittVector(k2, (params2.one(),))
    v = W.WittVector(k2, (params2.one(), params2.zero()))
    with pytest.raises(LengthMismatch):
        W.witt_add(u, v)


def test_verschiebung_frobenius_examples(params2, k2):
    t, one, zero = params2.gen(0), params2.one(), params2.zero()
    assert W.verschiebung(W.WittVector(k2, (t, one))).entries == (zero, t, one)
    assert W.frobenius(W.WittVector(k2, (t, one))).entries == (t * t, one)
    # p*(t,0) = (0, t^2)
    assert W.p_times(W.WittVector(k2, (t, zero))).entries == (zero, t * t)


def test_vf_identities_random(params2, k2, rng):
    N = 3
    for _ in range(40):
        u = W.WittVector(k2, tuple(rand_field_elem(rng, params2) for _ in range(N)))
        v = W.WittVector(k2, tuple(rand_field_elem(rng, params2) for _ in range(N - 1)))
        # u * V(v) = V(F(u) v)
        lhs = W.witt_mul(u, W.verschiebung(v))
        rhs = W.verschiebung(W.witt_mul(W.frobenius(u).truncate(N - 1), v))
        assert lhs == rhs
        # p u = V(F(u)), truncated back to length N
        assert W.p_times(u) == W.verschiebung(W.frobenius(u)).truncate(N)
        # F(V(u)) = p u one length shorter
        vu = W.verschiebung(u)
        assert W.frobenius(vu).truncate(N) == W.p_times(u)


def test_frobenius_ghost_compat_over_integers(rng):
    ring = IntegerRing(3)
    for _ in range(20):
        u = rand_int_witt(rng, ring, 3, 9)
        fu = W.frobenius(u)  # length 2 over a ring without p-th power
        assert len(fu) == 2
        for r in range(2):
            assert W.ghost(r, fu) == W.ghost(r + 1, u)


def test_teichmuller(params2, k2):
    t, zero = params2.gen(0), params2.zero()
    T = W.teichmuller(k2, t, 3)
    assert W.witt_mul(T, T).entries == (t * t, zero, zero)
    assert W.witt_mul(W.teichmuller(k2, params2.one(), 3), T) == T
    assert W.witt_mul(W.witt_zero(k2, 3), T).is_zero()


def test_ring_laws_random(params2, k2, rng):
    for _ in range(15):
        u = W.WittVector(k2, tuple(rand_field_elem(rng, params2) for _ in range(2)))
        v = W.WittVector(k2, tuple(rand_field_elem(rng, params2) for _ in range(2)))
        w = W.WittVector(k2, tuple(rand_field_elem(rng, params2) for _ in range(2)))
        assert W.witt_add(u, v) == W.witt_add(v, u)
        assert W.witt_mul(u, v) == W.witt_mul(v, u)
        assert W.witt_add(W.witt_add(u, v), w) == W.witt_add(u, W.witt_add(v, w))
        assert W.witt_mul(W.witt_mul(u, v), w) == W.witt_mul(u, W.witt_mul(v, w))
        lhs = W.witt_mul(u, W.witt_add(v, w))
        rhs = W.witt_add(W.witt_mul(u, v), W.witt_mul(u, w))
        assert lhs == rhs


def test_vn_decompose(params2, k2, etale_ring, rng):
    """The V^N decomposition ring.digits_iter: y = sum over m in [0, p^N - 1]^d
    of t^m * y_m^{p^N}, zero y_m left out."""
    t = params2.gen(0)
    assert k2.digits_iter(t**3 + t**2, 1) == {(0,): t, (1,): t}
    assert k2.digits_iter(t, 2) == {(1,): params2.one()}
    assert k2.digits_iter(params2.zero(), 2) == {}
    # reconstruction over k and over the etale extension
    for ring, N in ((k2, 2), (etale_ring, 1)):
        for _ in range(20):
            y = rand_ambient_elem(rng, ring)
            total = ring.zero()
            for m, yi in ring.digits_iter(y, N).items():
                assert not ring.is_zero(yi)
                total = total + ring.scalar(ring.params.monomial(m)) * ring.pth_power(yi, N)
            assert total == y


def test_cache_is_shared():
    a = W.structure_polys(2, 3)
    b = W.structure_polys(2, 3)
    assert a is b


def _symbolic_sampler(rng, params):
    ring = SymbolicRing(params, ["a", "b"])

    def sample():
        # c0 + c1*a or c0 + c1*b with nonzero c1: never zero
        c0 = rand_field_elem(rng, params, max_deg=1)
        c1 = rand_nonzero_field_elem(rng, params, max_deg=1)
        var = ring.variable(rng.choice(ring.symbols))
        return ring.scalar(c0) + ring.scalar(c1) * var

    return ring, sample


def _k_sampler(rng, ring, N):
    """Vectors over k: entries that are zero, fractions with small
    denominators (rarely a p^i-th power at entry i), and fractions whose
    denominator at entry i is a p^i-th power.  While p^(N-1) <= 9, one
    vector in four is the image of a random Cohen element instead (beyond,
    its top entry has degree in the thousands)."""
    params = ring.params

    def entry(i):
        kind = rng.randrange(3)
        if kind == 0:
            return rand_field_elem(rng, params, max_deg=1)
        num = rand_field_elem(rng, params, max_deg=1, with_denominator=False)
        return num / rand_nonzero_field_elem(rng, params, max_deg=1).pth_power(i)

    def vector():
        if ring.char_p ** (N - 1) <= 9 and rng.randrange(4) == 0:
            return C.to_witt(rand_cohen(rng, ring, N, density=0.3, max_deg=1))
        return W.WittVector(ring, [ring.zero() if rng.randrange(4) == 0 else entry(i)
                                   for i in range(N)])

    return vector


# draws per case where 12 would take seconds: the every-term evaluation
# grows with the structure polynomials
ENGINE_DRAWS = {("k2", 2, 5): 6, ("k3", 3, 4): 6, ("k5", 5, 3): 6, ("k7", 7, 3): 3}


@pytest.mark.parametrize(
    "which,p,N",
    [("k2", 2, 4), ("k3", 3, 3), ("etale_ring", 2, 3), ("sym2", 2, 3), ("sym3", 3, 2),
     ("k2", 2, 1), ("k2", 2, 5), ("k3", 3, 4), ("k5", 5, 3), ("k7", 7, 3), ("k22", 2, 3),
     ("int", 2, 4), ("int", 3, 3), ("int", 5, 3)],
)
def test_zero_entries_match_every_term_evaluation(which, p, N, rng, request):
    """witt_add/witt_sub/witt_mul/witt_neg, which run on ghost components
    over every ring, agree with evaluating every term of the integer
    structure polynomials, on vectors with zero entries: over the integers
    by the exact ghost peel, and over k, etale Q and k[z] by the engine on
    lifts.  The polynomials are the independent oracle."""
    if which == "int":
        ring = IntegerRing(p)
        draw = lambda: _with_zeros(rng, ring, N, lambda: rng.choice([-1, 1]) * rng.randrange(1, 20))
    elif which.startswith("sym"):
        ring, _sample = _symbolic_sampler(rng, request.getfixturevalue(f"params{p}"))
        draw = lambda: _with_zeros(rng, ring, N, _sample)
    elif which.startswith("k"):
        ring = FieldRing(PrimeParams(p, 2 if which == "k22" else 1))
        draw = _k_sampler(rng, ring, N)
    else:
        ring = request.getfixturevalue(which)
        draw = lambda: _with_zeros(rng, ring, N, lambda: rand_ambient_elem(rng, ring, max_deg=1))
    sp = W.structure_polys(p, N)
    zeros = [ring.zero()] * N
    for _ in range(ENGINE_DRAWS.get((which, p, N), 12)):
        u, v = draw(), draw()
        uv = list(u.entries) + list(v.entries)
        neg_v = [_eval_every_term(q, ring, list(v.entries) + zeros) for q in sp.negs]
        for got, polys, values in (
            (W.witt_add(u, v), sp.sums, uv),
            (W.witt_sub(u, v), sp.sums, list(u.entries) + neg_v),
            (W.witt_mul(u, v), sp.prods, uv),
            (W.witt_neg(u), sp.negs, list(u.entries) + zeros),
        ):
            want = W.WittVector(ring, [_eval_every_term(q, ring, values) for q in polys])
            assert got == want


def test_integer_rings_carry_their_prime():
    """Two live integer rings with different primes stay apart: each ghost
    map and each Witt sum uses the ring's own p."""
    z2, z3 = IntegerRing(2), IntegerRing(3)
    assert z2 != z3 and IntegerRing(2) == z2
    assert hash(IntegerRing(3)) == hash(z3)
    u2, u3 = W.WittVector(z2, (1, 0)), W.WittVector(z3, (1, 0))
    assert W.ghost(1, W.WittVector(z2, (2, 1))) == 2**2 + 2
    assert W.ghost(1, W.WittVector(z3, (2, 1))) == 2**3 + 3
    # (1, 0) + (1, 0) = (2, (1 + 1 - 2^p) / p)
    assert W.witt_add(u2, u2).entries == (2, -1)
    assert W.witt_add(u3, u3).entries == (2, -2)
    with pytest.raises(LengthMismatch):
        W.witt_add(u2, u3)
