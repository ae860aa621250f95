"""The model layer's work-saving routes against test-local copies of the
routes they replaced: `cohen.to_models` with every denominator power built
eagerly and every factor multiplied in, `SparsePoly.pow`/`mul` through
binary `_int_mul` chains, `cohen.extract` subtracting each position's
realization in two passes, and `BaseAlgebra.one` built on every call."""

import random

import pytest

from gkit import cohen as C
from gkit import polys as P
from gkit import units as U
from gkit import witt as W
from gkit.base import make_eisenstein, make_unramified
from gkit.basefield import PrimeParams
from gkit.errors import NotInCohen, ResourceLimit
from gkit.polys import SparsePoly, ZmodDomain, exact_div, lift_power, pad, poly_lcm, shift
from gkit.rings import FieldRing, SymbolicRing
from gkit.sampling import rand_base_elem, rand_cohen, rand_field_elem, rand_nonzero_field_elem
from gkit.witt import WittVector

# -- to_models ----------------------------------------------------------------


def _eager_to_models(elems):
    """to_models as it was: den^(p^j - 1) for every j <= n first, then
    every coordinate times its cofactor and that power, 1 or not."""
    ring, level = elems[0].ring, elems[0].level
    params = ring.params
    p, n = params.p, level - 1
    dom = ZmodDomain(p**level)
    nvars, cap = ring.model_nvars, ring.monomial_cap
    one = params._one_poly()
    fracs = [None if c.model is not None else
             {slot: ring.fraction(x) for slot, x in c.coords.items()} for c in elems]
    dens = [c.model[1] for c in elems if c.model is not None]
    dens += [b for f in fracs if f for _, b in f.values()]
    den = poly_lcm(dens, one)
    den_powers = [one]
    for _ in range(n):
        den_powers.append(den_powers[-1].pow(p) * den.pow(p - 1))
    nums = []
    for c, f in zip(elems, fracs):
        if f is None:
            num, d = c.model
            if d != den:
                num = num.mul(lift_power(exact_div(den, d), dom, p**n, nvars, cap), cap)
            nums.append(num)
            continue
        num = SparsePoly.zero(dom, nvars)
        for (j, i), (v, b) in f.items():
            w = v * pad(exact_div(den, b), nvars) * pad(den_powers[j], nvars)
            power = ring.reduce_model(lift_power(w, dom, p ** (n - j), cap=cap))
            num = num + shift(power, i, p**j)
        nums.append(num)
    return nums, den


def _sparse_cohen(rng, ring, level, with_den, filled=3):
    """A few filled slots, so that level 4 at p = 5 stays small; with_den
    puts a denominator t + 1 into one of them."""
    params = ring.params
    slots = rng.sample(C.slot_indices(ring, level), min(filled, len(C.slot_indices(ring, level))))
    coords = {s: rand_field_elem(rng, params, with_denominator=with_den) for s in slots}
    if with_den:  # a polynomial plus 1/(t + 1): its denominator is t + 1
        one = params.one()
        coords[slots[0]] = rand_field_elem(rng, params, with_denominator=False) + \
            one / (params.gen(0) + one)
    return C.CohenElem(ring, level, coords)


def _same_models(elems):
    (nums, den), (want, want_den) = C.to_models(elems), _eager_to_models(elems)
    assert den == want_den
    assert [(x.domain, x.nvars, x.terms) for x in nums] == \
           [(x.domain, x.nvars, x.terms) for x in want]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_to_models_matches_the_eager_route(p, level):
    rng = random.Random(100 * p + level)
    ring = FieldRing(PrimeParams(p, 1))
    for with_den in (False, True):
        for _ in range(3):
            elems = [_sparse_cohen(rng, ring, level, with_den) for _ in range(2)]
            if with_den:
                assert not C.to_models(elems)[1].is_constant()
            else:
                assert C.to_models(elems)[1].is_constant()
            _same_models(elems)
            _same_models(elems[:1])


def test_to_models_matches_the_eager_route_over_two_variables_and_symbols():
    rng = random.Random(7)
    params = PrimeParams(3, 2)
    ring = FieldRing(params)
    for level in (1, 2, 3):
        for with_den in (False, True):
            _same_models([_sparse_cohen(rng, ring, level, with_den) for _ in range(2)])
    params = PrimeParams(2, 1)
    sym = SymbolicRing(params, ["z", "w"])
    t, one = params.gen(0), params.one()
    x = sym.variable("z") * sym.scalar(t / (t + one)) + sym.scalar(t)
    y = sym.variable("w") * sym.variable("z") + sym.scalar(one)
    for level in (1, 2, 3):
        _same_models([C.CohenElem(sym, level, {(0, (level - 1,)): x, (level - 1, (0,)): y}),
                      C.CohenElem(sym, level, {(0, (0,)): y})])


@pytest.mark.parametrize("kind", ["unramified", "eisenstein"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_to_models_matches_the_eager_route_on_base_components(kind, p):
    """Products keep their models, so their components mix kept models
    with coordinate elements, and Eisenstein bases add E's coefficients."""
    rng = random.Random(10 * p + len(kind))
    params = PrimeParams(p, 1)
    k = FieldRing(params)
    for m in (1, 2, 3):
        if kind == "unramified":
            base = make_unramified(params, m)
        else:
            base = make_eisenstein(params, m, [C.cohen_neg(C.cohen_from_int(k, m, p)),
                                               C.CohenElem.zero(k, m)])
        alg = base.algebra()
        if kind == "eisenstein":
            _same_models(list(alg._ecoeffs))
        for _ in range(2):
            x = rand_base_elem(rng, base, density=0.3)
            y = alg.from_components([_sparse_cohen(rng, k, m, True) for _ in range(base.e)])
            prod = x * y
            assert all(c.model is not None for c in prod.components)
            _same_models(list(prod.components) + list(x.components) + list(y.components))


# -- pow and mul on one-term operands -------------------------------------------


def _chained_mul(f, g, cap=None):
    """SparsePoly.mul over Z/q as it was: the dense kernel when it applies
    and no cap is set, else _int_mul, whose cap is checked after each row
    of the longer operand."""
    dom = f.domain
    if not f.terms or not g.terms:
        return SparsePoly(dom, f.nvars, {})
    if cap is None and len(f.terms) + len(g.terms) > 16:
        active = P._active_vars(f) | P._active_vars(g)
        if len(active) == 1:
            (v,) = active
            da, db = f.degree_in(v), g.degree_in(v)
            if da + db <= 8 * (len(f.terms) + len(g.terms)):
                out = P._dense_mul(P._to_dense(f, v), P._to_dense(g, v), dom.q)
                return P._from_dense(out, dom, f.nvars, v)
    a, b = f.terms, g.terms
    if len(a) < len(b):
        a, b = b, a
    return SparsePoly(dom, f.nvars, P._int_mul(a, b, dom.q, f.nvars, cap))


def _chained_pow(f, n, cap=None):
    """SparsePoly.pow as it was: binary powering through _chained_mul."""
    if cap is not None and n and len(f.terms) > cap:
        raise ResourceLimit(f"intermediate polynomial exceeded {cap} monomials")
    result, base = None, f
    while n:
        if n & 1:
            result = base if result is None else _chained_mul(result, base, cap)
        n >>= 1
        if n:
            base = _chained_mul(base, base, cap)
    return SparsePoly.constant(f.domain, f.nvars, f.domain.one) if result is None else result


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except ResourceLimit as exc:
        return "ResourceLimit", str(exc)
    return out.domain, out.nvars, out.terms


def _rand_poly(rng, dom, nvars, nterms):
    terms = {}
    while len(terms) < nterms:
        terms[tuple(rng.randrange(25) for _ in range(nvars))] = rng.randrange(1, dom.q)
    return SparsePoly(dom, nvars, terms)


DOMAINS = [P.FpDomain(2), P.FpDomain(3), ZmodDomain(4), ZmodDomain(8), ZmodDomain(9),
           ZmodDomain(27), ZmodDomain(125)]
CAPS = [None, 0, 1, 2, 3, 5, 50]


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_one_term_pow_and_mul_match_the_chained_route(nvars):
    rng = random.Random(nvars)
    for dom in DOMAINS:
        p = next(r for r in range(2, dom.q + 1) if dom.q % r == 0)
        monomials = [_rand_poly(rng, dom, nvars, 1) for _ in range(3)]
        # a multiple of p: some of its powers and products vanish modulo q
        monomials.append(SparsePoly(dom, nvars, {(1,) * nvars: p % dom.q or 1}))
        monomials.append(SparsePoly.constant(dom, nvars, 1))
        others = [_rand_poly(rng, dom, nvars, size) for size in (1, 2, 3, 5, 20)]
        for f in monomials:
            for n in (0, 1, 2, 3, p, p**2, 7, 12):
                for cap in CAPS:
                    assert _outcome(f.pow, n, cap) == _outcome(_chained_pow, f, n, cap)
            for g in others:
                for cap in CAPS:
                    # a 5-term g at cap 3 trips inside the chained product,
                    # after its fourth row
                    want = _outcome(_chained_mul, f, g, cap)
                    assert _outcome(f.mul, g, cap) == want
                    assert _outcome(g.mul, f, cap) == want
        for g in others:  # the chained route still serves longer operands
            for n in (0, 1, 2, 3):
                assert _outcome(g.pow, n, 50) == _outcome(_chained_pow, g, n, 50)


def test_lift_powers_of_constants_are_one_pass():
    """The constants lift_power raises in the model are single terms: the
    result is c^e modulo q, the empty polynomial when that vanishes."""
    dom = ZmodDomain(27)
    c = SparsePoly.constant(P.FpDomain(3), 2, 2)
    assert lift_power(c, dom, 9).terms == {(0, 0): pow(2, 9, 27)}
    assert lift_power(c, dom, 9, nvars=3).terms == {(0, 0, 0): pow(2, 9, 27)}
    assert SparsePoly.constant(dom, 1, 3).pow(3).terms == {}
    assert SparsePoly.constant(dom, 1, 3).pow(0).terms == {(0,): 1}


# -- extract --------------------------------------------------------------------


def _two_pass_extract(w, max_position=None):
    """extract as it was: each position's realization summed by to_witt,
    then Witt-subtracted."""
    ring = w.ring
    level = len(w)
    n = level - 1
    p = ring.char_p
    top = n if max_position is None else max_position
    residual = w
    coords = {}
    for j in range(top + 1):
        entry = residual[j]
        if ring.is_zero(entry):
            continue
        part = {}
        for m, cval in sorted(ring.digits_iter(entry, n).items()):
            if any(comp % p**j for comp in m):
                raise NotInCohen(f"position {j}: digit at index {m} is not divisible by p^{j}")
            part[(j, tuple(comp // p**j for comp in m))] = cval
        coords.update(part)
        residual = W.witt_sub(residual, C.to_witt(C.CohenElem(ring, level, part)))
        assert ring.is_zero(residual[j])
    if max_position is None and not residual.is_zero():
        raise NotInCohen("nonzero residual after the last position")
    return C.CohenElem(ring, level, coords)


def _extract_outcome(fn, *args):
    try:
        return fn(*args)
    except NotInCohen as exc:
        return "NotInCohen", str(exc)


@pytest.mark.parametrize("p,d,level", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)])
def test_extract_matches_the_two_pass_route(p, d, level):
    rng = random.Random(1000 * p + 10 * d + level)
    ring = FieldRing(PrimeParams(p, d))
    for _ in range(4):
        w = C.to_witt(rand_cohen(rng, ring, level, density=0.4))
        assert C.extract(w) == _two_pass_extract(w)
        for top in range(level):
            assert C.extract(w, top) == _two_pass_extract(w, top)
        # entries off the subring: both refuse with the same message
        off = WittVector(ring, [rand_field_elem(rng, ring.params) for _ in range(level)])
        assert _extract_outcome(C.extract, off) == _extract_outcome(_two_pass_extract, off)


def test_extract_matches_the_two_pass_route_over_etale_q(etale_ring, rng):
    for level in (2, 3):
        for _ in range(2):
            w = C.to_witt(rand_cohen(rng, etale_ring, level, density=0.4))
            assert C.extract(w) == _two_pass_extract(w)


def test_witt_sub_of_several_vectors_is_repeated_subtraction(k2, rng):
    vs = [C.to_witt(rand_cohen(rng, k2, 3)) for _ in range(4)]
    acc = vs[0]
    for v in vs[1:]:
        acc = W.witt_sub(acc, v)
    assert W.witt_sub(*vs) == acc
    assert W.witt_sub(vs[0]) == vs[0]


# -- BaseAlgebra.one ------------------------------------------------------------


def test_one_is_built_once_and_stays_one(params3, base_unram3_p3, base_eis_p3_deep, rng):
    k = FieldRing(params3)
    sym = SymbolicRing(params3, ["z"])
    algebras = [base_unram3_p3.algebra(), base_eis_p3_deep.algebra(),
                base_eis_p3_deep.quotient(3).algebra(), base_unram3_p3.algebra(sym)]
    for alg in algebras:
        one = alg.one()
        assert alg.one() is one
        fresh = alg.from_component(C.teich_lift(alg.ring, alg.base.m, alg.ring.one()))
        if alg.ring == k:
            x = rand_base_elem(rng, alg.base) + alg.teich(rand_nonzero_field_elem(rng, params3))
            assert x * one == x and one * x == x and (x - one) + one == x
            assert (x ** 0) is one
            if x.is_unit():
                assert x * x.inverse() == one
        else:
            z = alg.teich(sym.variable("z"))
            assert z * one == z
        [c.coords for c in one.components]  # read every coordinate
        assert one == fresh
        assert [c.sorted_coords() for c in one.components] == \
               [c.sorted_coords() for c in fresh.components]
        assert alg.one() is one


def test_one_serves_the_unit_solver(params3, base_eis_p3_deep):
    alg = base_eis_p3_deep.algebra()
    one = alg.one()
    v = one + alg.teich(params3.gen(0)).scale_p(2)
    u = U.p_power_solve(v, 2)
    assert u ** 3 == v
    assert alg.one() is one
    assert one == alg.from_component(C.teich_lift(alg.ring, alg.base.m, alg.ring.one()))
