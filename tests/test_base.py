import pytest

from gkit import base as B
from gkit import cohen as C
from gkit.errors import NotAUnit, NotEisenstein, TypeMismatch
from gkit.sampling import rand_cohen, rand_field_elem, rand_nonzero_field_elem


def test_make_unramified(params2, base_unram2):
    assert base_unram2.r == 1
    assert base_unram2.e == 1
    assert base_unram2.decompose_module() == [2]
    alg = base_unram2.algebra()
    assert alg.from_int(4).is_zero()  # p^m = 0
    assert not alg.from_int(2).is_zero()


def test_make_eisenstein(params3, base_eis_p3):
    assert base_eis_p3.e == 2
    assert base_eis_p3.nilpotency == 4
    assert base_eis_p3.decompose_module() == [2, 2]
    alg = base_eis_p3.algebra()
    pi = alg.pi()
    assert (pi * pi - alg.p()).is_zero()
    assert (pi**4).is_zero() and not (pi**3).is_zero()


def test_degenerate_eisenstein(params2, k2):
    # E = pi^2 - p collapses to pi^2 at depth m = 1
    zero = C.CohenElem.zero(k2, 1)
    base = B.make_eisenstein(params2, 1, [zero, zero])
    assert base.nilpotency == 2
    pi = base.algebra().pi()
    assert (pi * pi).is_zero() and not pi.is_zero()


def test_not_eisenstein(params3, k3):
    one = C.cohen_from_int(k3, 2, 1)
    zero = C.CohenElem.zero(k3, 2)
    with pytest.raises(NotEisenstein):
        B.make_eisenstein(params3, 2, [one, zero])  # unit constant term
    with pytest.raises(NotEisenstein):
        B.make_eisenstein(params3, 2, [zero, one])  # unit middle coefficient
    with pytest.raises(NotEisenstein):
        B.make_eisenstein(params3, 2, [zero, zero])  # constant term p^2 | 0


def test_nilpotency_sharpness(base_unram2, base_eis_p3):
    for base in (base_unram2, base_eis_p3):
        alg = base.algebra()
        x = alg.p() if base.e == 1 else alg.pi()
        power = alg.one()
        for _ in range(base.nilpotency - 1):
            power = power * x
        assert not power.is_zero()
        assert (power * x).is_zero()


def test_structure_map_examples(params2, k2, base_unram2):
    one = params2.one()
    # level r+1 = m: the identity
    c = rand_cohen(__import__("random").Random(3), k2, 2)
    assert B.structure_map(base_unram2, c).components[0] == c
    # the p-basis monomial generator goes to its canonical lift
    tau = C.CohenElem.single(k2, 2, 0, (1,), one)
    got = B.structure_map(base_unram2, tau)
    assert got == base_unram2.algebra().teich(params2.gen(0))


def test_structure_map_is_ring_hom(params2, k2, base_unram2, rng):
    for _ in range(15):
        a = rand_cohen(rng, k2, 3)
        b = rand_cohen(rng, k2, 3)
        sm = lambda x: B.structure_map(base_unram2, x)
        assert (sm(C.cohen_add(a, b)) - (sm(a) + sm(b))).is_zero()
        assert (sm(C.cohen_mul(a, b)) - (sm(a) * sm(b))).is_zero()
    # induces the identity on residue fields
    for _ in range(10):
        v = rand_field_elem(rng, params2)
        lift = C.teich_lift(k2, 3, v)
        assert B.structure_map(base_unram2, lift).residue() == v


def test_structure_map_eisenstein(params3, k3, base_eis_p3, rng):
    for _ in range(10):
        a = rand_cohen(rng, k3, 3)
        b = rand_cohen(rng, k3, 3)
        sm = lambda x: B.structure_map(base_eis_p3, x)
        assert (sm(C.cohen_add(a, b)) - (sm(a) + sm(b))).is_zero()
        assert (sm(C.cohen_mul(a, b)) - (sm(a) * sm(b))).is_zero()


def test_graded_pieces_rank_one(base_unram2, base_eis_p3, rng):
    """I^i/I^{i+1} is one-dimensional over k, with the explicit basis
    pi^(i mod e) p^(i div e)."""
    for base in (base_unram2, base_eis_p3):
        params = base.params
        for i in range(base.nilpotency):
            c = rand_nonzero_field_elem(rng, params)
            g = B.graded_unit(base, i, c)
            assert g.val() == i
            assert g.graded_coefficient(i) == c
            # additive in the coefficient
            c2 = rand_nonzero_field_elem(rng, params)
            s = B.graded_unit(base, i, c2) + g
            if not s.is_zero() and s.val() == i:
                assert s.graded_coefficient(i) == c + c2


def test_unit_inversion(base_eis_p3, rng):
    alg = base_eis_p3.algebra()
    params = base_eis_p3.params
    for _ in range(10):
        u = alg.teich(rand_nonzero_field_elem(rng, params)) + alg.pi() * alg.teich(
            rand_field_elem(rng, params)
        )
        assert (u * u.inverse() - alg.one()).is_zero()
    with pytest.raises(NotAUnit):
        alg.pi().inverse()


def test_quotients(base_eis_p3):
    alg = base_eis_p3.algebra()
    pi = alg.pi()
    x = alg.one() + pi + alg.p()
    # mod I^2 the p-term dies
    assert x.reduce_mod(2) == (alg.one() + pi).reduce_mod(2)
    assert not x.reduce_mod(3) == (alg.one() + pi).reduce_mod(3)
    # quotient arithmetic agrees with reducing the full computation
    y = pi + alg.p()
    assert (x * y).reduce_mod(3) == x.reduce_mod(3) * y.reduce_mod(3)
    with pytest.raises(TypeMismatch):
        x + x.reduce_mod(2)


def test_canonical_lift_of_k(params2, base_unram2):
    assert B.canonical_lift(params2, base_unram2) is base_unram2.algebra()


def test_canonical_lift_etale(etale_q, base_unram2, rng):
    lift = B.canonical_lift(etale_q, base_unram2)
    # reduction recovers the defining polynomial
    assert lift.reduction_coeffs() == etale_q.coeffs
    # the lifted relation holds
    y = lift.gen()
    terms = lift.from_base(base_unram2.algebra().zero())
    acc = lift.zero()
    power = lift.one()
    for c in lift.coeffs[:-1]:
        acc = acc + power * lift.from_base(c)
        power = power * y
    acc = acc + power  # monic top
    assert acc.is_zero()
    # products reduce to products in Q
    q = etale_q
    got = (y * y).residue()
    assert got == q.gen() * q.gen()


def test_lifts_over_different_g_neither_compare_nor_mix(params2, base_unram2):
    """The lifts L1, L2 of y^2 + y + t and y^2 + y + (t + 1) over C_2(F_2(t))
    are different algebras: their generators differ, do not multiply, and
    hash by (base, Q) like equal lifts built twice."""
    from gkit.basefield import EtaleAlgebra

    t, one = params2.gen(0), params2.one()

    def lift(c):
        return B.canonical_lift(EtaleAlgebra(params2, [c, one, one]), base_unram2)

    l1, l1_again, l2 = lift(t), lift(t), lift(t + one)
    assert l1.gen() != l2.gen()
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeMismatch):
            op(l1.gen(), l2.gen())
    assert l1 == l1_again and l1 != l2 and l1 != l1.reduce_mod(1)
    assert l1.gen() == l1_again.gen() and hash(l1.gen()) == hash(l1_again.gen())
    assert len({l1.gen(), l1_again.gen(), l2.gen(), l1.one()}) == 3


def test_canonical_lift_base_change(etale_q, base_unram2):
    lift = B.canonical_lift(etale_q, base_unram2)
    lower = lift.reduce_mod(1)
    direct = B.canonical_lift(etale_q, base_unram2.quotient(1))
    assert [c.components for c in lower.coeffs] == [
        c.components for c in direct.coeffs
    ]


def test_canonical_lift_symbolic(base_unram2):
    from gkit.rings import SymbolicRing

    ring = SymbolicRing(base_unram2.params, ["u", "v"])
    alg = B.canonical_lift(ring, base_unram2)
    assert alg is base_unram2.algebra(ring)
    u = alg.from_component(C.CohenElem.single(ring, 2, 0, (0,), ring.variable("u")))
    v = alg.from_component(C.CohenElem.single(ring, 2, 0, (0,), ring.variable("v")))
    assert ((u + v) - (v + u)).is_zero()


def test_unsupported_lift(base_unram2):
    from gkit.errors import UnsupportedAlgebra

    with pytest.raises(UnsupportedAlgebra):
        B.canonical_lift(42, base_unram2)


# -- BaseElem products in the model against the Witt route -------------------


def _witt_op(op, *elems):
    return C.extract(op(*[C.to_witt(c) for c in elems]))


def _witt_route_mul(x, y):
    """The convolution and E-reduction of BaseElem.__mul__, each Cohen
    operation done as extract(witt_op(to_witt(.), to_witt(.)))."""
    from gkit import witt as W

    e = x.base.e
    zero = C.CohenElem.zero(x.algebra.ring, x.base.m)
    conv = [zero] * (2 * e - 1)
    for i, a in enumerate(x.components):
        for j, b in enumerate(y.components):
            conv[i + j] = _witt_op(W.witt_add, conv[i + j], _witt_op(W.witt_mul, a, b))
    for deg in range(2 * e - 2, e - 1, -1):
        c, conv[deg] = conv[deg], zero
        for i, ecoef in enumerate(x.algebra._ecoeffs):
            conv[deg - e + i] = _witt_op(W.witt_sub, conv[deg - e + i], _witt_op(W.witt_mul, c, ecoef))
    return B.BaseElem(x.algebra, conv[:e])


def _check_against_witt_route(x, y):
    assert x * y == _witt_route_mul(x, y)
    for j in (1, x.base.nilpotency - 1):
        xq, yq = x.reduce_mod(j), y.reduce_mod(j)
        assert xq * yq == _witt_route_mul(xq, yq)
    assert _witt_route_mul(x, x.inverse()) == x.algebra.one()


def test_eisenstein_mul_and_inverse_match_witt_route(base_eis_p3, rng):
    from gkit.sampling import rand_base_elem

    alg = base_eis_p3.algebra()
    for _ in range(4):
        x, y = (
            rand_base_elem(rng, base_eis_p3)
            + alg.teich(rand_nonzero_field_elem(rng, base_eis_p3.params))
            for _ in range(2)
        )
        _check_against_witt_route(x, y)


def test_deep_eisenstein_mul_and_inverse_match_witt_route(base_eis_p3_deep, params3):
    """m = 3: the Witt route costs seconds per op on dense elements, so the
    operands are a + pi*b built from a few small teich lifts."""
    alg = base_eis_p3_deep.algebra()
    t, one = params3.gen(0), params3.one()
    for a, b in ((one, t), (t + one, one + one), (t, (t + one).inverse())):
        x = alg.teich(a) + alg.pi() * alg.teich(b)
        y = alg.teich(b + one) + alg.pi() * alg.teich(a) + alg.p()
        _check_against_witt_route(x, y)


def test_eisenstein_with_fractional_coefficient_matches_witt_route(params2, k2, rng):
    """E = pi^2 + p*teich(1/(t+1))*pi - p: the reduction by E brings in a
    denominator of its own."""
    from gkit.sampling import rand_base_elem

    t, one = params2.gen(0), params2.one()
    c1 = C.p_pow_times(C.teich_lift(k2, 2, (t + one).inverse()), 1)
    c0 = C.cohen_neg(C.cohen_from_int(k2, 2, 2))
    base = B.make_eisenstein(params2, 2, [c0, c1])
    alg = base.algebra()
    for _ in range(4):
        x = rand_base_elem(rng, base) + alg.teich(rand_nonzero_field_elem(rng, params2))
        y = rand_base_elem(rng, base) + alg.one()
        _check_against_witt_route(x, y)


def test_symbolic_eisenstein_mul_matches_witt_route(base_eis_p3, params3):
    """The Greenberg transform's products: BaseElem over k[u, v] on the
    Eisenstein base (p = 3, m = 2), generic coordinates times k-constants."""
    import random

    from gkit.rings import SymbolicRing
    from gkit.sampling import rand_base_elem

    rng = random.Random(3)
    ring = SymbolicRing(params3, ["u", "v"])
    alg = base_eis_p3.algebra(ring)
    u, v = ring.variable("u"), ring.variable("v")
    slots = C.slot_indices(ring, 2)

    def generic():
        comps = []
        for _ in range(base_eis_p3.e):
            coords = {s: ring.scalar(rand_nonzero_field_elem(rng, params3, 1)) * rng.choice((u, v, u * v))
                      for s in slots if rng.random() < 0.5}
            comps.append(C.CohenElem(ring, 2, coords))
        return alg.from_components(comps)

    for _ in range(3):
        x, y = generic(), generic()
        const = alg.embed(rand_base_elem(rng, base_eis_p3))
        assert x * y == _witt_route_mul(x, y)
        assert x * const == _witt_route_mul(x, const)
        assert (x * y) * x == _witt_route_mul(_witt_route_mul(x, y), x)


def test_no_base_algebra_over_an_etale_ring(base_unram2, etale_ring):
    from gkit.errors import UnsupportedAlgebra

    with pytest.raises(UnsupportedAlgebra):
        base_unram2.algebra(etale_ring)
    # the canonical lifting of an etale ring works over k instead
    assert isinstance(B.canonical_lift(etale_ring, base_unram2), B.LiftedEtale)


def test_lazy_peel_agrees_with_an_eager_peel(params3, base_unram2, base_eis_p3, rng):
    """Seeded chains of mul, add, sub, neg, **, inverse and scale_p.  Over
    C_2(F_2(t)), C_3(F_3(t)) and Eisenstein pi^2 - p (m = 2) every result
    keeps its model vector unpeeled, and its zero test, components, ==,
    hash and CLI JSON agree with an eager peel of the same vector.  On a
    quotient whose pi^1 component keeps fewer than m positions every result
    is peeled at once, and equals the full-base result reduced."""
    from gkit.cli import base_elem_to_json
    from gkit.sampling import rand_base_elem

    def eager(x):
        return B.BaseElem(x.algebra, [C.from_model(*c.model, c.ring, c.level) for c in x.components])

    def chain(x, y):
        u = x.scale_p(1) + x.algebra.teich(rand_nonzero_field_elem(rng, x.base.params, 1))
        steps = [x * y, x + y, x - y, -x, x**3, u.inverse(), y.scale_p(1), x - x, x * y - y * x]
        steps.append(((steps[0] + steps[4]) * steps[5] - steps[3]) ** 2)
        return steps

    for base in (base_unram2, B.make_unramified(params3, 3), base_eis_p3):
        for _ in range(3):
            x, y = (rand_base_elem(rng, base, max_deg=1) for _ in range(2))
            for r in chain(x, y):
                assert all(c._coords is None for c in r.components)
                want = eager(r)
                assert r.is_zero() == want.is_zero()
                assert base_elem_to_json(r) == base_elem_to_json(want)
                assert r.components == want.components
                assert r == want and hash(r) == hash(want)
    quotient = base_eis_p3.quotient(3)
    assert quotient.component_bound(1) < quotient.m
    for _ in range(3):
        x, y = (rand_base_elem(rng, base_eis_p3, max_deg=1) for _ in range(2))
        rng_state = rng.getstate()
        full = chain(x, y)
        rng.setstate(rng_state)
        for r, f in zip(chain(x.reduce_mod(3), y.reduce_mod(3)), full):
            assert all(c._coords is not None for c in r.components)
            assert r == f.reduce_mod(3)


# -- the canonical lifting of an etale Q against Cohen arithmetic over Q -----


def _into_lift(c, lift):
    """A Cohen element over Q = lift.q as an element of its canonical
    lifting over C_level(k): slot (j, i) with coordinate x goes to
    p^j * lift(x)^(p^(n-j)) * teich(t^i), lift(x) lifting x's k-coordinates."""
    alg, params = lift.base.algebra(), lift.q.params
    n = c.level - 1
    acc = lift.zero()
    for (j, i), x in c.coords.items():
        x_lift = lift.from_coords(alg.teich(a) for a in x.coords)
        t_i = alg.teich(params.monomial(i)).scale_p(j)
        acc = acc + x_lift ** (params.p ** (n - j)) * lift.from_base(t_i)
    return acc


def _out_of_lift(z, ring, level):
    """The canonical coordinates of an element of the lifting, position by
    position: the graded coefficient j of each coordinate gives an element
    of Q, whose (n - j)-fold digits are the slots at position j; their
    image is subtracted before the next position."""
    q, n = z.algebra.q, level - 1
    coords = {}
    for j in range(level):
        residual = q.from_coords(c.graded_coefficient(j) for c in z.coords)
        row = {(j, i): v for i, v in ring.digits_iter(residual, n - j).items()}
        coords.update(row)
        z = z - _into_lift(C.CohenElem(ring, level, row), z.algebra)
    assert z.is_zero()
    return C.CohenElem(ring, level, coords)


def _lift_cases():
    """(Q, level) pairs; g is given by its coefficients a*t_1 + b, as (a, b)
    pairs from the constant term up."""
    from gkit.basefield import EtaleAlgebra, PrimeParams

    def algebra(p, d, coeffs):
        params = PrimeParams(p, d)
        t = params.gen(0)
        return EtaleAlgebra(params, [params.from_int(a) * t + params.from_int(b)
                                     for a, b in coeffs])

    artin_schreier = [(1, 0), (0, 1), (0, 1)]  # y^2 + y + t
    params = PrimeParams(2, 1)
    t, one = params.gen(0), params.one()
    fractional = EtaleAlgebra(params, [t, one / (t + one), one])  # y^2 + y/(t+1) + t
    return [
        pytest.param(algebra(2, 1, artin_schreier), 2, id="y2+y+t-p2-level2"),
        pytest.param(algebra(2, 1, artin_schreier), 3, id="y2+y+t-p2-level3"),
        pytest.param(algebra(3, 1, artin_schreier), 2, id="y2+y+t-p3-level2"),
        pytest.param(algebra(3, 1, artin_schreier), 3, id="y2+y+t-p3-level3"),
        pytest.param(fractional, 3, id="y2+y/(t+1)+t-level3"),
        pytest.param(algebra(3, 1, [(-1, 0), (0, -1), (0, 0), (0, 1)]), 2, id="y3-y-t-p3"),
        pytest.param(algebra(2, 1, [(1, 0), (0, 1)]), 2, id="degree-1-y+t"),
        pytest.param(algebra(2, 1, [(0, 0), (1, 1), (0, 1)]), 2, id="split-y2+(1+t)y"),
        pytest.param(algebra(2, 2, artin_schreier), 2, id="y2+y+t1-d2"),
    ]


@pytest.mark.parametrize("q,level", _lift_cases())
def test_lifted_etale_arithmetic_matches_cohen_arithmetic(q, level):
    """Sums and products in the canonical lifting A[y]/(g~) over
    A = C_level(k), read back as canonical coordinates, equal cohen_add and
    cohen_mul over Q, which run in the Cohen model C_level(k)[Y]/(G)."""
    import random

    from gkit.rings import EtaleRing
    from gkit.sampling import rand_cohen

    ring = EtaleRing(q)
    lift = B.canonical_lift(q, B.make_unramified(q.params, level))
    rng = random.Random(2026)
    for _ in range(2):
        a, b = (rand_cohen(rng, ring, level, density=0.5, max_deg=1) for _ in range(2))
        la, lb = _into_lift(a, lift), _into_lift(b, lift)
        assert _out_of_lift(la, ring, level) == a
        assert _out_of_lift(la + lb, ring, level) == C.cohen_add(a, b)
        assert _out_of_lift(la * lb, ring, level) == C.cohen_mul(a, b)
