import pytest

from gkit import cohen as C
from gkit import witt as W
from gkit.errors import LevelMismatch, NotInCohen, NotInImage
from gkit.rings import multi_indices
from gkit.sampling import rand_ambient_elem, rand_cohen
from gkit.witt import WittVector


def test_to_witt_examples(params2, k2):
    t, one, zero = params2.gen(0), params2.one(), params2.zero()
    a = t + one
    assert C.to_witt(C.CohenElem.single(k2, 2, 0, (1,), one)).entries == (t, zero)
    assert C.to_witt(C.CohenElem.single(k2, 2, 0, (0,), a)).entries == (a * a, zero)
    assert C.to_witt(C.CohenElem.single(k2, 2, 1, (0,), a)).entries == (zero, a * a)


def test_extract_examples(params2, k2):
    t, one, zero = params2.gen(0), params2.one(), params2.zero()
    assert C.extract(WittVector(k2, (t, zero))) == C.CohenElem.single(k2, 2, 0, (1,), one)
    assert C.extract(WittVector(k2, (t * t, zero))) == C.CohenElem.single(k2, 2, 0, (0,), t)
    with pytest.raises(NotInCohen):
        C.extract(WittVector(k2, (zero, t)))


def test_ring_op_examples(params2, k2):
    t, one = params2.gen(0), params2.one()
    tau = C.CohenElem.single(k2, 2, 0, (1,), one)
    assert C.cohen_mul(tau, tau) == C.CohenElem.single(k2, 2, 0, (0,), t)
    assert C.cohen_add(tau, tau) == C.CohenElem.single(k2, 2, 1, (0,), t)
    assert C.cohen_add(tau, C.cohen_neg(tau)).is_zero()


@pytest.mark.parametrize("fixture,level", [("k2", 2), ("k2", 3), ("k3", 2), ("k3", 3)])
def test_roundtrip_random(fixture, level, rng, request):
    ring = request.getfixturevalue(fixture)
    for _ in range(40):
        c = rand_cohen(rng, ring, level)
        assert C.extract(C.to_witt(c)) == c


def test_roundtrip_random_d2(params22, rng):
    from gkit.rings import FieldRing

    ring = FieldRing(params22)
    for _ in range(20):
        c = rand_cohen(rng, ring, 2)
        assert C.extract(C.to_witt(c)) == c


def test_closure_random(k2, rng):
    for _ in range(25):
        a = rand_cohen(rng, k2, 3)
        b = rand_cohen(rng, k2, 3)
        # never raises NotInCohen: the canonical forms are a subring
        s = C.cohen_add(a, b)
        m = C.cohen_mul(a, b)
        assert C.cohen_sub(s, b) == a
        assert C.extract(C.to_witt(m)) == m


def test_etale_ambient_roundtrip(etale_ring, rng):
    for _ in range(20):
        c = rand_cohen(rng, etale_ring, 2)
        assert C.extract(C.to_witt(c)) == c


@pytest.mark.parametrize("level,triples", [(2, 8), (3, 2)])
def test_etale_ambient_ring_ops(etale_ring, level, triples, rng):
    """Ring identities of the model over an etale ambient."""
    for _ in range(triples):
        a, b, c = (rand_cohen(rng, etale_ring, level) for _ in range(3))
        assert C.cohen_sub(C.cohen_add(a, b), b) == a
        assert C.cohen_add(a, C.cohen_neg(a)).is_zero()
        ab_ac = C.cohen_add(C.cohen_mul(a, b), C.cohen_mul(a, c))
        assert C.cohen_mul(a, C.cohen_add(b, c)) == ab_ac
        assert C.residue(C.cohen_mul(a, b)) == C.residue(a) * C.residue(b)
        assert C.p_pow_times(a, 1) == C.cohen_add(a, a)
        low = [C.truncate_level(x, level - 1) for x in (a, b, C.cohen_add(a, b))]
        assert low[2] == C.cohen_add(low[0], low[1])


def test_ver_embed(params2, k2, rng):
    a = params2.gen(0) + params2.one()
    c1 = C.CohenElem.single(k2, 1, 0, (0,), a)
    assert C.ver_embed(c1, 2) == C.CohenElem.single(k2, 2, 1, (0,), a)
    assert C.ver_embed(C.CohenElem.zero(k2, 1), 3).is_zero()
    with pytest.raises(LevelMismatch):
        C.ver_embed(C.CohenElem.zero(k2, 3), 2)
    # additive on random pairs
    for _ in range(20):
        x = rand_cohen(rng, k2, 2)
        y = rand_cohen(rng, k2, 2)
        lhs = C.ver_embed(C.cohen_add(x, y), 3)
        rhs = C.cohen_add(C.ver_embed(x, 3), C.ver_embed(y, 3))
        assert lhs == rhs


def test_p_division_examples(params2, k2):
    t, one = params2.gen(0), params2.one()
    target = C.CohenElem.single(k2, 2, 1, (0,), t)
    assert C.solve_p_division(target, 1) == C.CohenElem.single(k2, 2, 0, (1,), one)
    assert C.solve_p_division(C.CohenElem.zero(k2, 2), 1).is_zero()
    a = t + one
    target2 = C.CohenElem.single(k2, 2, 1, (0,), a * a)
    got = C.solve_p_division(target2, 1)
    assert C.p_pow_times(got, 1) == target2
    with pytest.raises(NotInImage):
        C.solve_p_division(C.CohenElem.single(k2, 2, 0, (0,), one), 1)


def test_p_division_carries(params2, k2):
    # the dividend whose digits interact through Witt carries
    t = params2.gen(0)
    x = t**3 + t**2
    target = C.CohenElem.single(k2, 3, 1, (0,), x)
    got = C.solve_p_division(target, 1)
    assert C.p_pow_times(got, 1) == target
    deep = C.CohenElem.single(k2, 3, 2, (0,), t)
    got2 = C.solve_p_division(deep, 2)
    assert C.p_pow_times(got2, 2) == deep


@pytest.mark.parametrize("ring_fixture", ["k2", "etale_ring"])
def test_p_division_random(ring_fixture, rng, request):
    ring = request.getfixturevalue(ring_fixture)
    for _ in range(25):
        low = rand_cohen(rng, ring, 2)
        target = C.ver_embed(low, 3)
        got = C.solve_p_division(target, 1)
        assert C.p_pow_times(got, 1) == target


def test_residue(params2, k2, rng):
    t, one = params2.gen(0), params2.one()
    assert C.residue(C.CohenElem.single(k2, 2, 0, (1,), one)) == t
    a = t + one
    assert C.residue(C.CohenElem.single(k2, 2, 0, (0,), a)) == a.pth_power(1)
    # residue is a ring homomorphism with kernel p C
    for _ in range(20):
        x = rand_cohen(rng, k2, 2)
        y = rand_cohen(rng, k2, 2)
        assert C.residue(C.cohen_add(x, y)) == C.residue(x) + C.residue(y)
        assert C.residue(C.cohen_mul(x, y)) == C.residue(x) * C.residue(y)
        assert C.residue(C.p_pow_times(x, 1)).is_zero()


def test_residue_kernel_is_p_image(params2, k2, rng):
    for _ in range(20):
        x = rand_cohen(rng, k2, 3)
        killed = C.CohenElem(
            k2, 3, {(j, i): v for (j, i), v in x.coords.items() if j >= 1}
        )
        assert C.residue(killed).is_zero()
        div = C.solve_p_division(killed, 1)
        assert C.p_pow_times(div, 1) == killed


def test_exact_sequence_shadow(params2, k2, rng):
    """Subtracting the canonical representative of the position-0 digits
    lands every element of C_{n+2} in the embedded C_{n+1}."""
    for _ in range(20):
        x = rand_cohen(rng, k2, 3)
        rep = C.CohenElem(
            k2, 3, {(j, i): v for (j, i), v in x.coords.items() if j == 0}
        )
        tail = C.cohen_sub(x, rep)
        assert tail.support_min_position() >= 1


def test_witt_span_fills_cohen(params2, k2, rng):
    """Every canonical form is a W_{n+1}(k)-combination of the Teichmuller
    lifts of the p-basis monomials t^m, m in [0, p^n - 1]^d."""
    level = 3
    n = level - 1
    p, d = params2.p, params2.d
    for _ in range(10):
        c = rand_cohen(rng, k2, level)
        total = W.witt_zero(k2, level)
        for mono in multi_indices(p**n, d):
            entries = []
            for j in range(level):
                bound = p ** (n - j)
                ok = all(comp < bound for comp in mono)
                entries.append(c.coords.get((j, mono), params2.zero()) if ok else params2.zero())
            w = WittVector(k2, tuple(entries))
            image = WittVector(k2, tuple(e.pth_power(n) for e in w.entries))
            gen = W.teichmuller(k2, params2.monomial(mono), level)
            total = W.witt_add(total, W.witt_mul(image, gen))
        assert total == C.to_witt(c)


def test_teich_lift(params2, k2, rng):
    t = params2.gen(0)
    for _ in range(10):
        v = rand_ambient_elem(rng, k2)
        lifted = C.teich_lift(k2, 3, v)
        assert C.residue(lifted) == v
    # multiplicative on p-basis monomials
    assert C.cohen_mul(C.teich_lift(k2, 3, t), C.teich_lift(k2, 3, t)) == C.teich_lift(
        k2, 3, t * t
    )


def test_d0_is_plain_witt():
    from gkit.basefield import PrimeParams
    from gkit.rings import FieldRing

    params = PrimeParams(3, 0)
    ring = FieldRing(params)
    two = params.from_int(2)
    c = C.extract(WittVector(ring, (two, params.one(), two)))
    assert c.coords == {
        (0, ()): two.pth_root().pth_root(),
        (1, ()): params.one(),
        (2, ()): two,
    }
    assert C.to_witt(c).entries == (two, params.one(), two)


# -- the model (Z/p^{n+1})[t]_(p) against the Witt route ---------------------
#
# Over k the ring operations run in the model; these tests compare them with
# the Witt-vector route they replace: to_witt of the result against the Witt
# operation on the to_witt images.

ORACLE_CASES = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (2, 2, 2)]
# the Witt route costs seconds per op at (2, 1, 4) and (3, 1, 3)
ORACLE_DRAWS = {(2, 1, 4): 2, (3, 1, 3): 2}


def _oracle_ring(p, d):
    from gkit.basefield import PrimeParams
    from gkit.rings import FieldRing

    return FieldRing(PrimeParams(p, d))


def _oracle_draws(p, d, level):
    """Seeded pairs; the first element always has a coordinate with a
    denominator that is not 1."""
    import random

    from gkit.sampling import rand_nonzero_field_elem

    rng = random.Random(1000 * p + 100 * d + level)
    ring = _oracle_ring(p, d)
    params = ring.params
    out = []
    for _ in range(ORACLE_DRAWS.get((p, d, level), 4)):
        a = rand_cohen(rng, ring, level)
        coords = dict(a.coords)
        slot = rng.choice(C.slot_indices(ring, level))
        t = params.gen(rng.randrange(d))
        coords[slot] = rand_nonzero_field_elem(rng, params) / (t + params.one())
        out.append((C.CohenElem(ring, level, coords), rand_cohen(rng, ring, level)))
    assert any(not x.den.is_constant() for a, _ in out for x in a.coords.values())
    return ring, out


@pytest.mark.parametrize("p,d,level", ORACLE_CASES)
def test_model_ring_ops_match_witt_route(p, d, level):
    ring, draws = _oracle_draws(p, d, level)
    params = ring.params
    t, one = params.gen(0), params.one()
    # coprime to t + 1
    c = C.CohenElem.single(ring, level, level - 1, (0,) * d, (t * t + t + one).inverse())
    square = C.cohen_mul(c, c)
    tw = C.to_witt
    for a, b in draws:
        assert tw(C.cohen_add(a, b)) == W.witt_add(tw(a), tw(b))
        assert tw(C.cohen_sub(a, b)) == W.witt_sub(tw(a), tw(b))
        prod = C.cohen_mul(a, b)
        assert tw(prod) == W.witt_mul(tw(a), tw(b))
        assert tw(C.cohen_neg(a)) == W.witt_neg(tw(a))
        # results carry the model they were peeled from into the next op,
        # here over two different denominators
        assert tw(C.cohen_add(prod, square)) == W.witt_add(tw(prod), tw(square))


def _witt_from_int(ring, level, value):
    one = C.to_witt(C.CohenElem.single(ring, level, 0, (0,) * ring.params.d, ring.one()))
    acc = W.witt_zero(ring, level)
    for _ in range(abs(value)):
        acc = W.witt_add(acc, one)
    return W.witt_neg(acc) if value < 0 else acc


@pytest.mark.parametrize("p,d,level", ORACLE_CASES)
def test_model_from_int_matches_repeated_witt_adds(p, d, level):
    ring = _oracle_ring(p, d)
    q = p**level
    for value in (0, 1, -1, p, -p - 1, q, q + 2, -q, -(q + 1), 2 * q + 1):
        got = C.cohen_from_int(ring, level, value)
        assert C.to_witt(got) == _witt_from_int(ring, level, value), value


def test_from_int_over_other_ambients(etale_ring, params2):
    from gkit.rings import SymbolicRing

    sym = SymbolicRing(params2, ["u"])
    for ring in (etale_ring, sym):
        for value in (-5, 3, 9):
            got = C.cohen_from_int(ring, 3, value)
            assert C.to_witt(got) == _witt_from_int(ring, 3, value)


@pytest.mark.parametrize("p,d,level", ORACLE_CASES)
def test_model_p_division_multiplies_back(p, d, level):
    ring, draws = _oracle_draws(p, d, level)
    for a, _ in draws:
        for e in range(1, level):
            target = C.CohenElem(ring, level, {s: x for s, x in a.coords.items() if s[0] >= e})
            got = C.solve_p_division(target, e)
            assert C.p_pow_times(got, e) == target
            w = C.to_witt(got)
            for _ in range(e):
                w = W.p_times(w)
            assert w == C.to_witt(target)


@pytest.mark.parametrize("p,d,level", ORACLE_CASES)
def test_model_truncation_matches_witt_route(p, d, level):
    ring, draws = _oracle_draws(p, d, level)
    for a, b in draws:
        for c in (a, C.cohen_mul(a, b)):
            for low in range(1, level + 1):
                want = C.extract(C.to_witt(c).truncate(low))
                assert C.truncate_level(c, low) == want


# -- the model over k[z] against the Witt route ------------------------------
#
# Over a symbolic ambient the model substitutes z = w^{p^n}; these tests
# compare each operation with extract(witt_op(to_witt(.), to_witt(.))).

SYMBOLIC_CASES = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)]


def _symbolic_draws(p, d, level, nsyms):
    """Seeded pairs over k[u] or k[u, v]; the first element always has a
    coefficient with a denominator that is not 1."""
    import random

    from gkit.basefield import PrimeParams
    from gkit.rings import SymbolicRing
    from gkit.sampling import rand_nonzero_field_elem

    rng = random.Random(10000 * nsyms + 1000 * p + 100 * d + level)
    params = PrimeParams(p, d)
    ring = SymbolicRing(params, ["u", "v"][:nsyms])
    slots = C.slot_indices(ring, level)

    def monomial():
        out = ring.one()
        for s in ring.symbols:
            out = out * ring.variable(s) ** rng.randrange(3)
        return out

    def coordinate():
        out = ring.zero()
        for _ in range(rng.randrange(1, 3)):
            out = out + ring.scalar(rand_nonzero_field_elem(rng, params, max_deg=1)) * monomial()
        return out

    def elem():
        coords = {s: coordinate() for s in slots if rng.random() < 0.4}
        return C.CohenElem(ring, level, coords)

    out = []
    for _ in range(3):
        a = elem()
        coords = dict(a.coords)
        t = params.gen(rng.randrange(d))
        frac = rand_nonzero_field_elem(rng, params, max_deg=1) / (t + params.one())
        coords[rng.choice(slots)] = ring.scalar(frac) * monomial()
        out.append((C.CohenElem(ring, level, coords), elem()))
    return ring, out


def _symbol_power(x, q):
    """x(z) -> x(z^q): the symbols to the q-th power, coefficients kept."""
    from gkit.polys import SparsePoly

    return SparsePoly(x.domain, x.nvars, {tuple(q * a for a in e): c for e, c in x.terms.items()})


def _witt_p_division(target, e):
    """The Witt route of solve_p_division: p^e shifts a Witt vector by e and
    raises its entries to the p^e-th power (symbols included), so the bottom
    entries of a solution are the e-fold p-th roots of the target's entries
    e.., and the rest is free."""
    from gkit.polys import SparsePoly

    ring, level, p = target.ring, target.level, target.ring.char_p
    w = C.to_witt(target)
    forced = []
    for j in range(level - e):
        entry = w[j + e]
        for _ in range(e):
            assert all(a % p == 0 for x in entry.terms for a in x)
            roots = {tuple(a // p for a in x): c.pth_root() for x, c in entry.terms.items()}
            entry = SparsePoly(ring.domain, ring.nvars, roots)
        forced.append(entry)
    padded = WittVector(ring, tuple(forced) + (ring.zero(),) * e)
    return C.extract(padded, max_position=level - 1 - e)


@pytest.mark.parametrize("nsyms", [1, 2])
@pytest.mark.parametrize("p,d,level", SYMBOLIC_CASES)
def test_symbolic_model_matches_witt_route(p, d, level, nsyms):
    ring, draws = _symbolic_draws(p, d, level, nsyms)
    tw = C.to_witt
    for a, b in draws:
        assert C.cohen_add(a, b) == C.extract(W.witt_add(tw(a), tw(b)))
        assert C.cohen_sub(a, b) == C.extract(W.witt_sub(tw(a), tw(b)))
        assert C.cohen_mul(a, b) == C.extract(W.witt_mul(tw(a), tw(b)))
        assert C.cohen_neg(a) == C.extract(W.witt_neg(tw(a)))
        for e in range(1, level):
            # repeated Witt addition: the symbolic ring has no Frobenius
            assert C.p_pow_times(a, e) == C.extract(W.int_times(p**e, tw(a)))
            # p^e divides an element supported at positions >= e whose
            # symbols occur to p^e-th powers
            low = C.truncate_level(b, level - e)
            low = C.CohenElem(ring, level - e, {s: _symbol_power(x, p**e) for s, x in low.coords.items()})
            target = C.ver_embed(low, level)
            got = C.solve_p_division(target, e)
            assert got == _witt_p_division(target, e)
            assert C.p_pow_times(got, e) == target
        for low in range(1, level):
            assert C.truncate_level(a, low) == C.extract(tw(a).truncate(low))


def test_symbolic_p_division_outside_the_image(params2):
    """Over F_2(t)[u], x_1(0) = t*u is p times nothing: p*c puts the symbols
    of c's position-0 coordinates to the p-th power.  x_1(0) = t*u^2 is p
    times x_0(1) = u."""
    from gkit.rings import SymbolicRing

    ring = SymbolicRing(params2, ["u"])
    t, u = ring.scalar(params2.gen(0)), ring.variable("u")
    with pytest.raises(NotInImage):
        C.solve_p_division(C.CohenElem.single(ring, 2, 1, (0,), t * u), 1)
    target = C.CohenElem.single(ring, 2, 1, (0,), t * u * u)
    got = C.solve_p_division(target, 1)
    assert got == C.CohenElem.single(ring, 2, 0, (1,), u)
    assert C.p_pow_times(got, 1) == target


# -- the model over etale Q against the Witt route ---------------------------
#
# Over Q = k[y]/(g) the model is C_{n+1}(k)[Y]/(G), Y = L*y with L the lcm of
# g's denominators; these tests compare each operation with the Witt route
# kept here: extract(witt_op(to_witt(.), to_witt(.))).  The last three cases
# have L != 1.


def _etale_case(p, d, coeffs):
    """Q = k[y]/(g), coeffs(t, one, zero) giving g's coefficients from the
    constant term up."""
    from gkit.basefield import EtaleAlgebra, PrimeParams
    from gkit.rings import EtaleRing

    params = PrimeParams(p, d)
    g = coeffs(params.gen(0), params.one(), params.zero())
    return EtaleRing(EtaleAlgebra(params, g))


ETALE_CASES = [
    pytest.param((2, 1, lambda t, o, z: [t, o, o]), 2, id="y2+y+t-p2-level2"),
    pytest.param((2, 1, lambda t, o, z: [t, o, o]), 3, id="y2+y+t-p2-level3"),
    pytest.param((3, 1, lambda t, o, z: [-t, -o, z, o]), 2, id="y3-y-t-p3"),
    pytest.param((2, 2, lambda t, o, z: [t, o, o]), 2, id="y2+y+t1-d2"),
    pytest.param((2, 1, lambda t, o, z: [t, o]), 2, id="degree-1-y+t"),
    pytest.param((2, 1, lambda t, o, z: [z, o + t, o]), 2, id="split-y2+(1+t)y"),
    pytest.param((2, 1, lambda t, o, z: [o / t, z, o / t, o]), 2, id="y3+y2/t+1/t-level2"),
    pytest.param((2, 1, lambda t, o, z: [o / t, z, o / t, o]), 3, id="y3+y2/t+1/t-level3"),
    pytest.param((2, 1, lambda t, o, z: [t, o / (t + o), o]), 3, id="y2+y/(t+1)+t-level3"),
]


def _etale_draws(case, level, pairs=2):
    """Seeded pairs over Q; the first element always has a coordinate with
    a denominator that is not 1."""
    import random

    from gkit.sampling import rand_nonzero_field_elem

    ring = _etale_case(*case)
    q, params = ring.algebra, ring.params
    rng = random.Random(level + sum(map(ord, repr(q))))
    out = []
    for _ in range(pairs):
        a = rand_cohen(rng, ring, level, density=0.4, max_deg=1)
        coords = dict(a.coords)
        frac = rand_nonzero_field_elem(rng, params, max_deg=1) / (params.gen(0) + params.one())
        coords[rng.choice(C.slot_indices(ring, level))] = q.from_coords([frac] * q.deg)
        b = rand_cohen(rng, ring, level, density=0.4, max_deg=1)
        out.append((C.CohenElem(ring, level, coords), b))
    return ring, out


@pytest.mark.parametrize("case,level", ETALE_CASES)
def test_etale_model_ring_ops_match_witt_route(case, level):
    ring, draws = _etale_draws(case, level)
    params = ring.params
    t, one = params.gen(0), params.one()
    # coprime to t and to t + 1
    x = ring.algebra.from_k((t * t + t + one).inverse())
    square = C.cohen_mul(*[C.CohenElem.single(ring, level, level - 1, (0,) * params.d, x)] * 2)
    tw = C.to_witt
    for a, b in draws:
        assert C.cohen_add(a, b) == C.extract(W.witt_add(tw(a), tw(b)))
        assert C.cohen_sub(a, b) == C.extract(W.witt_sub(tw(a), tw(b)))
        prod = C.cohen_mul(a, b)
        assert prod == C.extract(W.witt_mul(tw(a), tw(b)))
        assert C.cohen_neg(a) == C.extract(W.witt_neg(tw(a)))
        # results carry the model they were peeled from into the next op,
        # here over two different dens
        assert prod.model[1] != square.model[1]
        assert C.cohen_add(prod, square) == C.extract(W.witt_add(tw(prod), tw(square)))


@pytest.mark.parametrize("case,level", ETALE_CASES)
def test_etale_model_p_division_and_truncation_match_witt_route(case, level):
    ring, draws = _etale_draws(case, level)
    tw = C.to_witt

    def p_times(w, e):
        for _ in range(e):
            w = W.p_times(w)
        return w

    for a, _ in draws:
        for e in range(1, level):
            assert C.p_pow_times(a, e) == C.extract(p_times(tw(a), e))
            target = C.CohenElem(ring, level, {s: x for s, x in a.coords.items() if s[0] >= e})
            got = C.solve_p_division(target, e)
            assert p_times(tw(got), e) == tw(target)
            assert C.p_pow_times(got, e) == target
        for low in range(1, level):
            assert C.truncate_level(a, low) == C.extract(C.to_witt(a).truncate(low))
