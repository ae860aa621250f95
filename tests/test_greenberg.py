import os

import pytest

from gkit import base as B
from gkit import cli
from gkit import greenberg as G
from gkit.errors import NotASolution, ResourceLimit, TypeMismatch
from gkit.polys import SparsePoly, eval_terms
from gkit.rings import SymbolicRing, multi_indices
from gkit.sampling import (
    rand_base_elem,
    rand_etale_elem,
    rand_field_elem,
    rand_nonzero_field_elem,
)


def eval_poly(q, values, embed=lambda c: c):
    """A polynomial over k at ring elements; ``embed`` carries coefficients."""
    return eval_terms(q.terms, values, embed, q.domain.zero)


@pytest.fixture
def worked_example(params2, base_unram2):
    alg = base_unram2.algebra()
    tau = alg.teich(params2.gen(0))
    X = G.AffinePresentation(
        base_unram2, ["x"], [{(2,): alg.one(), (0,): -(tau * tau)}]
    )
    return X, tau


def test_worked_example_equations(worked_example):
    X, _ = worked_example
    pres = G.greenberg_transform(X)
    assert list(pres.symbols) == ["zx.0.0.0", "zx.0.1.0", "zx.1.0.0"]
    eqs = pres.equation_strings()
    assert eqs[0] == "zx.0.0.0^2 + t*zx.0.1.0^2 + t"
    assert eqs[1] == "0"
    assert eqs[2] == "t*zx.0.0.0^2 + t^2*zx.0.1.0^2 + t^2"


def test_worked_example_solutions(worked_example, params2, rng):
    X, tau = worked_example
    pres = G.greenberg_transform(X)
    zero, one = params2.zero(), params2.one()
    # {a=0, b=1, c free} solves the system, c genuinely free
    for c in [zero, one, params2.gen(0), rand_field_elem(rng, params2)]:
        assert pres.is_solution([zero, one, c])
    # and nothing else does: substituting a = alpha, b = 1 + beta turns the
    # binding equation into alpha^2 + t beta^2, zero only at alpha = beta = 0
    ring = SymbolicRing(params2, ["alpha", "beta", "c"])
    alpha, beta = ring.variable("alpha"), ring.variable("beta")
    shifted = pres.equations[0].substitute(
        {0: alpha, 1: beta + ring.one()}
    )
    expected = alpha * alpha + ring.scalar(params2.gen(0)) * (beta * beta)
    assert shifted == expected
    # small search window: no further solutions
    t = params2.gen(0)
    window = [zero, one, t, t + one]
    for a in window:
        for b in window:
            if pres.is_solution([a, b, zero]):
                assert a == zero and b == one


def test_worked_example_point_bijection(worked_example, params2, k2, rng):
    X, tau = worked_example
    pres = G.greenberg_transform(X)
    alg = X.base.algebra()
    # X(A) = { teich(t) + p*eta }: transport round-trips
    from gkit.sampling import rand_cohen

    for _ in range(10):
        eta = alg.from_component(rand_cohen(rng, k2, 2))
        point = tau + eta.scale_p(1)
        coords = G.point_to_coords(X, pres, [point])
        assert coords[0] == params2.zero() and coords[1] == params2.one()
        back = G.coords_to_point(X, pres, coords)
        assert (back[0] - point).is_zero()
    with pytest.raises(NotASolution):
        G.point_to_coords(X, pres, [alg.one()])


def test_point_transfer_checks_lengths(worked_example):
    """Both transfers refuse a point or a coordinate list of the wrong
    length, at stage 0 and at stage 1, with the CLI's messages."""
    X, tau = worked_example
    pres = G.greenberg_transform(X)
    for pres in (pres, pres.restricted()):
        coords = G.point_to_coords(X, pres, [tau])
        n = len(pres.symbols)
        for point in ([tau, tau], []):
            with pytest.raises(TypeMismatch, match="^expected 1 coordinates$"):
                G.point_to_coords(X, pres, point)
        for wrong in (coords + coords[:1], coords[:-1]):
            with pytest.raises(TypeMismatch, match=f"^expected {n} coordinates, got {len(wrong)}$"):
                G.coords_to_point(X, pres, wrong)


def test_is_solution_checks_the_number_of_values(worked_example, params2):
    """A value list shorter or longer than the symbol list is refused,
    not evaluated as if the missing values were zero or the extra ones
    absent."""
    X, _ = worked_example
    pres = G.greenberg_transform(X)
    zero, one = params2.zero(), params2.one()
    assert len(pres.symbols) == 3 and pres.is_solution([zero, one, zero])
    for values in ([zero, one], [zero, one, zero, one]):
        with pytest.raises(TypeMismatch, match=f"^{len(values)} values for 3 symbols$"):
            pres.is_solution(values)


def test_nullity_counts_free_unknowns(params2):
    from gkit.linalg import nullity

    zero, one, t = params2.zero(), params2.one(), params2.gen(0)
    assert nullity([], 3, zero) == 3
    assert nullity([], 0, zero) == 0
    assert nullity([[zero, zero]], 2, zero) == 2
    assert nullity([[one, t], [t, t * t]], 2, zero) == 1
    assert nullity([[one, zero], [zero, t]], 2, zero) == 0


def test_linear_pinning(params2, base_unram2):
    alg = base_unram2.algebra()
    tau = alg.teich(params2.gen(0))
    X = G.AffinePresentation(base_unram2, ["x"], [{(1,): alg.one(), (0,): -tau}])
    pres = G.greenberg_transform(X)
    zero, one = params2.zero(), params2.one()
    assert pres.is_solution([zero, one, zero])
    assert not pres.is_solution([zero, one, one])
    assert not pres.is_solution([one, one, zero])


def test_affine_line_dimension(base_unram2, base_eis_p3):
    for base, expected in ((base_unram2, 3), (base_eis_p3, 8)):
        X = G.AffinePresentation(base, ["x"], [])
        pres = G.greenberg_transform(X)
        # dim = e * sum over positions j of p^((m-1-j) d)
        assert len(pres.symbols) == expected
        assert pres.equations == []


def test_transform_functoriality(worked_example, params2, base_unram2):
    X, tau = worked_example
    alg = base_unram2.algebra()
    Y = G.AffinePresentation(base_unram2, ["x"], [{(1,): alg.one(), (0,): -tau}])
    both = X.conjunction(Y)
    pres = G.greenberg_transform(both)
    px, py = G.greenberg_transform(X), G.greenberg_transform(Y)
    assert pres.equation_strings() == px.equation_strings() + py.equation_strings()


def test_random_schemes_roundtrip(params2, params3, base_unram2, base_eis_p3, rng):
    for base in (base_unram2, base_eis_p3):
        alg = base.algebra()
        params = base.params
        for _ in range(4):
            target = rand_base_elem(rng, base)
            # linear: x + y - target has points (s, target - s)
            lin = G.AffinePresentation(
                base, ["x", "y"],
                [{(1, 0): alg.one(), (0, 1): alg.one(), (0, 0): -target}],
            )
            # quadratic: y = x^2 + target x has points (s, s^2 + target s)
            quad = G.AffinePresentation(
                base, ["x", "y"],
                [{(0, 1): alg.one(), (2, 0): -alg.one(), (1, 0): -target}],
            )
            for X, mk in (
                (lin, lambda s: [s, target - s]),
                (quad, lambda s: [s, s * s + target * s]),
            ):
                pres = G.greenberg_transform(X)
                for _ in range(3):
                    s = rand_base_elem(rng, base)
                    point = mk(s)
                    coords = G.point_to_coords(X, pres, point)
                    assert pres.is_solution(coords)
                    back = G.coords_to_point(X, pres, coords)
                    assert all((u - v).is_zero() for u, v in zip(back, point))


def test_weil_restrict_worked_example(params2):
    ring = SymbolicRing(params2, ["z"])
    z = ring.variable("z")
    t = params2.gen(0)
    g = z * z + z + ring.scalar(t)
    symbols, equations, children = G.weil_restrict(params2, ["z"], [g])
    assert symbols == ["z.s0", "z.s1"]
    from gkit.rings import format_sym_poly

    strs = [format_sym_poly(q, symbols) for q in equations]
    assert strs == ["z.s0^2 + t*z.s1^2 + z.s0 + t", "z.s1"]
    assert children == [[0, 1]]


def test_weil_restrict_affine_line(params2, params22):
    symbols, equations, _ = G.weil_restrict(params2, ["z"], [])
    assert symbols == ["z.s0", "z.s1"] and equations == []
    symbols2, _, _ = G.weil_restrict(params22, ["z"], [])
    assert symbols2 == ["z.s0_0", "z.s0_1", "z.s1_0", "z.s1_1"]


def test_weil_restrict_counit(params2, rng):
    """Precomposing with relative Frobenius recovers the digit reassembly:
    g^[p](sum z_i^p t^i) = sum G_i(z)^p t^i exactly, where g^[p] raises the
    k-coefficients of g to the p-th power."""
    ring = SymbolicRing(params2, ["z"])
    z = ring.variable("z")
    t = params2.gen(0)
    g = z * z + z + ring.scalar(t)
    symbols, equations, _ = G.weil_restrict(params2, ["z"], [g])
    for _ in range(50):
        z0 = rand_field_elem(rng, params2)
        z1 = rand_field_elem(rng, params2)
        arg = z0.pth_power() + z1.pth_power() * t
        lhs = arg * arg + arg + t.pth_power()  # coefficient t twisted
        parts = [eval_poly(q, [z0, z1]) for q in equations]
        rhs = parts[0].pth_power() + parts[1].pth_power() * t
        assert lhs == rhs
    # the affine-line case is the bare digit formula: restriction has no
    # equations and reassembly is a bijection of points
    syms_line, eqs_line, _ = G.weil_restrict(params2, ["z"], [])
    assert eqs_line == []
    for _ in range(10):
        v = rand_field_elem(rng, params2)
        from gkit.basefield import pbasis_expand

        dig = pbasis_expand(v)
        assert dig[(0,)].pth_power() + dig[(1,)].pth_power() * t == v
    # the presentation tower is untwisted: each stage-0 equation q of
    # x - teich(t^2 + 1) over C_2 satisfies q(sum z_i^p t^i) = sum Q_i(z)^p t^i
    # with Q_0, Q_1 its two stage-1 equations
    base = B.make_unramified(params2, 2)
    alg = base.algebra()
    X = G.AffinePresentation(
        base, ["x"], [{(1,): alg.one(), (0,): -alg.teich(t * t + params2.one())}]
    )
    pres0, pres1 = G.greenberg_transform(X, stage=0), G.greenberg_transform(X, stage=1)
    for _ in range(20):
        zs = [rand_field_elem(rng, params2) for _ in pres1.symbols]
        args = [zs[2 * v].pth_power() + zs[2 * v + 1].pth_power() * t for v in range(3)]
        for j, q in enumerate(pres0.equations):
            parts = [eval_poly(pres1.equations[2 * j + i], zs) for i in range(2)]
            assert eval_poly(q, args) == parts[0].pth_power() + parts[1].pth_power() * t


def _twisted_algebra_eval(algebra, coeffs, point):
    """Evaluate a univariate polynomial (coefficients in the etale algebra)
    at the element sum point[i] T^i of Q[T]/(T^p - t); returns the
    T-coordinates of the value."""
    params = algebra.params
    p = params.p
    t_emb = algebra.from_k(params.gen(0))
    zero = algebra.zero()

    def tmul(x, y):
        out = [zero] * p
        for i, a in enumerate(x):
            if a.is_zero():
                continue
            for j, b in enumerate(y):
                if b.is_zero():
                    continue
                k, term = i + j, a * b
                while k >= p:
                    k -= p
                    term = term * t_emb
                out[k] = out[k] + term
        return out

    acc = [zero] * p
    power = [algebra.one()] + [zero] * (p - 1)
    for c in coeffs:
        acc = [a + x * c for a, x in zip(acc, power)]
        power = tmul(power, point)
    return acc


def test_weil_restrict_etale_base_change(params2, etale_q):
    """Restricting a separable equation: k-solutions of the output biject
    with roots of the input over the twisted algebra k[T]/(T^p - t); for
    the worked example both live inside the etale extension."""
    ring = SymbolicRing(params2, ["z"])
    z = ring.variable("z")
    t, one = params2.gen(0), params2.one()
    g = z * z + z + ring.scalar(t)
    symbols, equations, _ = G.weil_restrict(params2, ["z"], [g])
    # over k there are no solutions on either side (small search window)
    window = [params2.zero(), one, t, t + one]
    assert not any(
        all(eval_poly(q, [a, b]).is_zero() for q in equations)
        for a in window
        for b in window
    )
    # over Q the restricted solutions are exactly (y, 0) and (y + 1, 0),
    # matching the two roots of g in Q inside Q[T]/(T^2 - t)
    y = etale_q.gen()
    roots = [y, y + etale_q.one()]
    for r in roots:
        vals = [r, etale_q.zero()]
        for q in equations:
            assert eval_poly(q, vals, etale_q.from_k).is_zero()
        # and r + 0*T is a root of g in the twisted algebra
        coeffs = [etale_q.from_k(t), etale_q.one(), etale_q.one()]
        value = _twisted_algebra_eval(etale_q, coeffs, [r, etale_q.zero()])
        assert all(v.is_zero() for v in value)
    # a non-solution stays a non-solution after transport
    bad = [y, etale_q.one()]
    assert not all(
        eval_poly(q, bad, etale_q.from_k).is_zero() for q in equations
    )
    value = _twisted_algebra_eval(
        etale_q, [etale_q.from_k(t), etale_q.one(), etale_q.one()], bad
    )
    assert not all(v.is_zero() for v in value)


def test_smooth_tower_has_free_fibers(base_unram2):
    X = G.AffinePresentation(base_unram2, ["x"], [])
    p0 = G.greenberg_transform(X, stage=0)
    p1 = G.greenberg_transform(X, stage=1)
    p2 = G.greenberg_transform(X, stage=2)
    assert len(p1.symbols) == 2 * len(p0.symbols)
    assert len(p2.symbols) == 2 * len(p1.symbols)
    assert p1.equations == [] and p2.equations == []


def test_stage_transport(worked_example, params2, rng):
    X, tau = worked_example
    alg = X.base.algebra()
    pres1 = G.greenberg_transform(X, stage=1)
    point = [tau + alg.p()]
    coords = G.point_to_coords(X, pres1, point)
    assert pres1.is_solution(coords)
    back = G.coords_to_point(X, pres1, coords)
    assert (back[0] - point[0]).is_zero()


def test_stage_points_biject_and_reassemble(params2, params22, base_unram2, base_eis_p3, rng):
    """At stages 1 and 2, over C_2 and C_3 at p = 2, Eisenstein pi^2 - p at
    p = 3 and a d = 2 base, on schemes with coefficients outside F_p: every
    point pushes to a solution, pulls back to itself, and its stage-(s+1)
    coordinates reassemble to the stage-s ones by z = sum_i z_i^p t^i."""
    t = params2.gen(0)
    alg2 = base_unram2.algebra()
    root = alg2.teich(t * t + params2.one())
    cases = [(G.AffinePresentation(base_unram2, ["x"], [{(1,): alg2.one(), (0,): -root}]), [root])]
    for base in (base_unram2, B.make_unramified(params2, 3), base_eis_p3,
                 B.make_unramified(params22, 2)):
        alg, u = base.algebra(), base.params.gen(0)
        c = alg.teich(u) + alg.p() * alg.teich(u + base.params.one())
        s, target = rand_base_elem(rng, base), rand_base_elem(rng, base)
        # c*(x - s), and c*(y - x^2 - target*x) over C_2 only (its stage-2
        # system over the other bases has 10^4 terms or more); c is a unit
        # outside F_p
        cases.append((G.AffinePresentation(base, ["x"], [{(1,): c, (0,): -(c * s)}]), [s]))
        if base is base_unram2:
            quad = G.AffinePresentation(
                base, ["x", "y"], [{(0, 1): c, (2, 0): -c, (1, 0): -(c * target)}]
            )
            cases.append((quad, [s, s * s + target * s]))
    for X, point in cases:
        params = X.base.params
        idxs = multi_indices(params.p, params.d)
        below = G.point_to_coords(X, G.greenberg_transform(X, stage=0), point)
        for stage in (1, 2):
            pres = G.greenberg_transform(X, stage=stage)
            coords = G.point_to_coords(X, pres, point)
            assert pres.is_solution(coords)
            back = G.coords_to_point(X, pres, coords)
            assert all((a - b).is_zero() for a, b in zip(back, point))
            for v, z in enumerate(below):
                children = coords[v * len(idxs) : (v + 1) * len(idxs)]
                assert z == sum(
                    (zi.pth_power() * params.monomial(i) for zi, i in zip(children, idxs)),
                    params.zero(),
                )
            below = coords


def test_ga_frob_examples(params2, rng):
    t, one = params2.gen(0), params2.one()
    f = t**3 + t**2
    assert G.ga_frob_section(f) == t
    assert G.ga_frob_coker_coords(f) == [t]
    assert G.ga_frob_section(t).is_zero()
    assert G.ga_frob_coker_coords(t) == [one]
    for _ in range(20):
        g = rand_field_elem(rng, params2)
        assert G.ga_frob_section(g.pth_power()) == g
        assert all(v.is_zero() for v in G.ga_frob_coker_coords(g.pth_power()))


def test_graded_kernel_additive(params2, base_unram2, rng):
    samples = [params2.gen(0), params2.one(), rand_field_elem(rng, params2)]
    report = G.graded_kernel_check(base_unram2, "additive", 0, samples)
    assert report["pass"]
    assert report["freed_slots"] == [{"component": 0, "position": 1, "index": [0]}]
    assert report["symbolic"]["kernel_symbols"] == 1


def test_graded_kernel_multiplicative(params2, base_unram2, rng):
    samples = [params2.gen(0), params2.one(), rand_field_elem(rng, params2)]
    report = G.graded_kernel_check(base_unram2, "multiplicative", 0, samples)
    assert report["pass"]
    assert report["symbolic"]["linear"]
    assert report["symbolic"]["solution_dim"] == 1


def test_graded_kernel_top_is_trivial(params2, base_unram2):
    report = G.graded_kernel_check(base_unram2, "additive", base_unram2.r, [params2.one()])
    assert report["trivial"] and report["pass"]


def test_graded_kernel_eisenstein(params3, base_eis_p3, rng):
    samples = [params3.gen(0), params3.one()]
    for i in range(base_eis_p3.r):
        report = G.graded_kernel_check(base_eis_p3, "additive", i, samples)
        assert report["pass"], report


def test_graded_kernel_fibre_has_one_dimension_per_freed_slot(params2, params3, base_unram2, base_eis_p3):
    """Greenberg's structure theorem for G_a and G_m, smooth of relative
    dimension 1: over the identity, each level step's fibre is linear with
    one dimension per freed slot, over unramified (p, m) = (2, 2), (2, 3),
    (3, 2) and Eisenstein pi^2 - p at p = 3, at every i <= r."""
    bases = [base_unram2, B.make_unramified(params2, 3), B.make_unramified(params3, 2), base_eis_p3]
    for base in bases:
        samples = [base.params.gen(0), base.params.one()]
        for group in ("additive", "multiplicative"):
            for i in range(base.r + 1):
                report = G.graded_kernel_check(base, group, i, samples)
                assert report["pass"] and report["symbolic"]["linear"], report
                assert report["symbolic"]["solution_dim"] == len(report["freed_slots"]), report


def unit_locus_agrees(X, g_equation, point):
    """g(P) is a unit in A iff the position-0 coordinates of its canonical
    form are not all zero; returns (unit?, position-0 part nonzero?)."""
    algebra = X.base.algebra()
    value = eval_terms(g_equation, point, algebra.embed, algebra.zero())
    return value.is_unit(), any(j == 0 for j, _ in value.components[0].coords)


def test_unit_locus(worked_example, params2, base_unram2):
    X, tau = worked_example
    alg = base_unram2.algebra()
    g = {(1,): alg.one()}  # the coordinate function x
    assert unit_locus_agrees(X, g, [tau]) == (True, True)
    line = G.AffinePresentation(base_unram2, ["x"], [])
    assert unit_locus_agrees(line, g, [alg.p()]) == (False, False)
    assert unit_locus_agrees(line, g, [alg.one() + alg.p()]) == (True, True)


def test_resource_limits(base_unram2):
    alg = base_unram2.algebra()
    X = G.AffinePresentation(base_unram2, ["x", "y"], [])
    with pytest.raises(ResourceLimit):
        G.greenberg_transform(X, symbol_cap=3)
    tau = alg.teich(base_unram2.params.gen(0))
    Y = G.AffinePresentation(
        base_unram2, ["x"], [{(4,): alg.one(), (0,): -(tau * tau)}]
    )
    with pytest.raises(ResourceLimit):
        G.greenberg_transform(Y, monomial_cap=1)


def test_symbol_count_is_the_listed_slots(base_unram2, base_eis_p3, base_unram3_p3,
                                          base_eis_p3_deep):
    """check_stage_symbols counts the slots that _slots lists: the cap
    admits exactly that many symbols at stage 0 and p^d times as many at
    stage 1, over unramified, Eisenstein and truncated bases."""
    bases = [base_unram2, base_eis_p3, base_unram3_p3, base_eis_p3_deep,
             base_unram3_p3.quotient(2), base_eis_p3_deep.quotient(3), base_eis_p3_deep.quotient(4),
             B.make_unramified(B.PrimeParams(2, 2, ["s", "t"]), 2)]
    for base in bases:
        X = G.AffinePresentation(base, ["x", "y"], [])
        n_0 = 2 * len(G._slots(base))
        assert len(G.check_stage_symbols(X, 0, symbol_cap=n_0)) == n_0
        with pytest.raises(ResourceLimit, match=f"^{n_0} symbols exceed the cap {n_0 - 1}$"):
            G.check_stage_symbols(X, 0, symbol_cap=n_0 - 1)
        n_1 = n_0 * base.params.p ** base.params.d
        G.check_stage_symbols(X, 1, symbol_cap=n_1)
        with pytest.raises(ResourceLimit, match=f"^{n_1} symbols"):
            G.check_stage_symbols(X, 1, symbol_cap=n_1 - 1)


def test_transform_deterministic(worked_example):
    X, _ = worked_example
    a = G.greenberg_transform(X)
    b = G.greenberg_transform(X)
    assert a.equation_strings() == b.equation_strings()
    assert a.symbols == b.symbols


def test_monomial_cap_bounds_the_model(params2):
    """The cap counts the monomials of the Cohen model's numerators: a
    two-variable quadratic over C_3 builds products of about 50 of them."""
    base = B.make_unramified(params2, 3)
    alg = base.algebra()
    tau = alg.teich(params2.gen(0))
    X = G.AffinePresentation(
        base, ["x", "y"], [{(1, 1): alg.one(), (2, 0): tau, (0, 0): -alg.one()}]
    )
    want = G.greenberg_transform(X, monomial_cap=None).equation_strings()
    assert G.greenberg_transform(X).equation_strings() == want
    with pytest.raises(ResourceLimit, match="exceeded 40 monomials"):
        G.greenberg_transform(X, monomial_cap=40)


def _per_term_substitute(q, mapping):
    """The per-term substitution that `SparsePoly.substitute` replaced:
    each term is its coefficient times cached powers of the mapped
    polynomials and powers of the unmapped variables."""
    dom, n = q.domain, q.nvars
    out = SparsePoly.zero(dom, n)
    power_cache = {}
    for exps, c in q.sorted_terms():
        factor = SparsePoly.constant(dom, n, c)
        for v, e in enumerate(exps):
            if e == 0:
                continue
            if v in mapping:
                if (v, e) not in power_cache:
                    power_cache[v, e] = mapping[v].pow(e)
                factor = factor * power_cache[v, e]
            else:
                factor = factor * SparsePoly.variable(dom, n, v, e)
        out = out + factor
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_substitute_matches_the_per_term_route(p, params2, params3, rng):
    """`SparsePoly.substitute` over k[z] equals the per-term route on
    seeded polynomials, with mapped and unmapped variables, zero-valued
    and constant mappings, the empty mapping and the empty polynomial."""
    params = params2 if p == 2 else params3
    ring = SymbolicRing(params, ["a", "b", "c", "d"])

    def rand_poly(terms, deg=2):
        return SparsePoly(ring.domain, ring.nvars, {
            tuple(rng.randrange(deg + 1) for _ in range(ring.nvars)): rand_nonzero_field_elem(rng, params)
            for _ in range(terms)})

    for _ in range(6):
        q = rand_poly(5)
        for mapping in (
            {},
            {0: rand_poly(3), 2: rand_poly(2)},
            {1: ring.zero(), 3: rand_poly(2, deg=1)},
            {v: ring.scalar(rand_field_elem(rng, params)) for v in range(ring.nvars)},
            {v: ring.zero() for v in range(ring.nvars)},
        ):
            assert q.substitute(mapping) == _per_term_substitute(q, mapping)
            assert ring.zero().substitute(mapping) == ring.zero()


def _substitution_restrict(params, symbols, equations):
    """The restriction route of reference: substitute z_v -> sum_i t^i z_{v,i}
    over k with `SparsePoly.substitute`, then split every coefficient into
    its t-digits with `SymbolicRing.digits1`."""
    new_symbols, _, _ = G.weil_restrict(params, symbols, [])
    ring = SymbolicRing(params, new_symbols)
    idxs = multi_indices(params.p, params.d)
    n, size = ring.nvars, len(idxs)
    unit = lambda j: tuple(int(k == j) for k in range(n))
    substitution = {
        v: SparsePoly(ring.domain, n, {unit(v * size + k): params.monomial(i) for k, i in enumerate(idxs)})
        for v in range(len(symbols))
    }
    out = []
    for q in equations:
        lifted = SparsePoly(ring.domain, n, {e + (0,) * (n - len(e)): c for e, c in q.terms.items()})
        digits = ring.digits1(lifted.substitute(substitution))
        out.extend(digits.get(i, ring.zero()) for i in idxs)
    return new_symbols, out


def test_restriction_matches_the_substitution_route(params2, params3, params22, base_eis_p3, rng):
    """Stages 1 and 2 over C_2 and stage 1 over Eisenstein pi^2 - p, on
    schemes whose coefficients have denominators (teich(1/(t+1)),
    t1/(t2+1)), equal the stage below restricted by the reference route;
    so does `weil_restrict` on seeded fractional systems, twisted first,
    also at p = 3, d = 2."""
    from gkit import cohen as C
    from gkit.basefield import PrimeParams
    from gkit.rings import FieldRing

    params32 = PrimeParams(3, 2, ["t1", "t2"])
    k22 = FieldRing(params22)
    eis22 = B.make_eisenstein(
        params22, 2, [C.cohen_neg(C.cohen_from_int(k22, 2, 2)), C.CohenElem.zero(k22, 2)])
    cases = [(B.make_unramified(params, 2), 2) for params in (params2, params3, params22)]
    cases += [(base_eis_p3, 1), (eis22, 1)]
    for base, top in cases:
        params, alg = base.params, base.algebra()
        t1, one = params.gen(0), params.one()
        frac = t1 * (params.gen(params.d - 1) + one).inverse()
        c = alg.teich((t1 + one).inverse()) + alg.p() * alg.teich(frac)
        X = G.AffinePresentation(base, ["x"], [{(1,): c, (0,): -(c * rand_base_elem(rng, base))}])
        below = G.greenberg_transform(X, stage=0)
        for stage in range(1, top + 1):
            pres = G.greenberg_transform(X, stage=stage)
            assert (list(pres.symbols), pres.equations) == _substitution_restrict(
                params, list(below.symbols), below.equations)
            below = pres
    for params in (params2, params3, params22, params32):
        ring = SymbolicRing(params, ["u", "v"])
        u, v = ring.variable("u"), ring.variable("v")
        for _ in range(3):
            c1, c2, c3 = (ring.scalar(rand_field_elem(rng, params)) for _ in range(3))
            frac = ring.scalar(params.gen(0) * (params.gen(params.d - 1) + params.one()).inverse())
            eqs = [c1 * u * u * v + frac * v + c2, c3 * u + frac]
            twisted = [ring.twist(q, 1) for q in eqs]
            symbols, equations, _ = G.weil_restrict(params, ["u", "v"], eqs)
            assert (symbols, equations) == _substitution_restrict(params, ["u", "v"], twisted)


def test_restriction_cap_counts_monomials_in_the_new_symbols(params2):
    """A coefficient with ten t-terms restricts to 20 terms in (t, z) but to
    two monomials in z_0, z_1; the cap counts the latter, summed over the
    terms of the equation."""
    ring = SymbolicRing(params2, ["z"])
    z, t = ring.variable("z"), params2.gen(0)
    wide = ring.scalar(sum((t**i for i in range(10)), params2.zero()))
    assert len(G.weil_restrict(params2, ["z"], [wide * z], monomial_cap=2)[1]) == 2
    with pytest.raises(ResourceLimit, match="exceeded 1 monomials"):
        G.weil_restrict(params2, ["z"], [wide * z], monomial_cap=1)
    G.weil_restrict(params2, ["z"], [wide * z * z + z + wide], monomial_cap=5)
    with pytest.raises(ResourceLimit, match="exceeded 4 monomials"):
        G.weil_restrict(params2, ["z"], [wide * z * z + z + wide], monomial_cap=4)


_LARGE_P_RESTRICTION = """
import sys
from gkit import greenberg
from gkit.basefield import PrimeParams
from gkit.errors import ResourceLimit
from gkit.rings import SymbolicRing

params = PrimeParams(4294967291, 1)
z = SymbolicRing(params, ["z"]).variable("z")
try:
    greenberg.weil_restrict(params, ["z"], [z], symbol_cap=5000)
except ResourceLimit as exc:
    print(repr(str(exc)))
"""


def test_symbol_cap_is_checked_before_the_refined_symbols_are_listed():
    """At p = 4294967291 one symbol has p refinements, a list of some
    hundreds of GiB: the cap refuses it from the count alone.  Run in a
    child limited to 1 GiB of address space, so that listing them fails
    fast instead of filling the machine."""
    import resource
    import subprocess
    import sys
    import time

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _LARGE_P_RESTRICTION],
                          capture_output=True, text=True, preexec_fn=limit)
    assert time.monotonic() - start < 5
    assert proc.stderr == "", proc.stderr
    assert proc.stdout == "'4294967291 symbols exceed the cap 5000'\n"


def _is_solution_per_term(pres, values):
    """The per-term route: each equation evaluated in k with gcd-normalised
    fractions."""
    return all(eval_poly(q, values).is_zero() for q in pres.equations)


GOLDEN_PUSHES = os.path.join(os.path.dirname(__file__), "golden", "greenberg.gk")
# fraction coefficients over Eisenstein pi^2 - p at p = 3, stages 1 and 2
FRACTION_PUSHES = """
base { p = 3; pbasis = [t]; }
ring B = eisenstein(2, E = pi^2 - p);
scheme F over B { vars [x]; eqs [ teich(1/(t + 1))*(x - teich(t/(t^2 + 2)) - pi*teich(1/t)) ]; }
point push F (teich(t/(t^2 + 2)) + pi*teich(1/t)) --stage 1;
point push F (teich(t/(t^2 + 2)) + pi*teich(1/t)) --stage 2;
"""


@pytest.mark.parametrize("script,pushes", [("golden", 7), ("fractions", 2)])
def test_is_solution_matches_the_per_term_route(script, pushes, rng, monkeypatch):
    """The cleared-numerator check agrees with evaluating every equation in
    k: on each point push of the scripts (solutions) and on seeded
    perturbations of them, one coordinate shifted or a nonzero one set to
    zero."""
    if script == "golden":
        with open(GOLDEN_PUSHES) as fh:
            text = fh.read()
    else:
        text = FRACTION_PUSHES
    checked = []
    is_solution = G.GreenbergPresentation.is_solution

    def spy(pres, values):
        checked.append((pres, list(values)))
        return is_solution(pres, values)

    monkeypatch.setattr(G.GreenbergPresentation, "is_solution", spy)
    session = cli.run_script(text, cli.SessionConfig())
    assert all(r["status"] == "ok" for r in session.results if r["cmd"] == "point.push")
    assert len(checked) == pushes
    for pres, values in checked:
        assert is_solution(pres, values) and _is_solution_per_term(pres, values)
        for _ in range(4):
            bad = list(values)
            v = rng.randrange(len(bad))
            if rng.randrange(2) and not bad[v].is_zero():
                bad[v] = pres.params.zero()
            else:
                bad[v] = bad[v] + rand_nonzero_field_elem(rng, pres.params)
            assert is_solution(pres, bad) == _is_solution_per_term(pres, bad)
