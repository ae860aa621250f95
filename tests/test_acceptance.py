"""Acceptance suite: one test per criterion, each printing its pass line
and enforcing its runtime budget.

Scale: p in {2, 3}, d in {1, 2}, Witt/Cohen levels <= 3, Eisenstein degree
<= 2.  Everything asserted is exact; randomized parts are seeded.
"""

import json
import random
import subprocess
import sys
import time

from gkit import base as B
from gkit import cohen as C
from gkit import greenberg as G
from gkit import units as U
from gkit import witt as W
from gkit.basefield import EtaleAlgebra, PrimeParams, pbasis_expand
from gkit.errors import NotInCohen
from gkit.polys import eval_terms
from gkit.rings import EtaleRing, FieldRing, IntegerRing, SymbolicRing
from gkit.sampling import (
    rand_base_elem,
    rand_cohen,
    rand_etale_elem,
    rand_field_elem,
    rand_int_witt,
    rand_nonzero_field_elem,
)

SEED = 20260810


def eval_poly(q, values, embed=lambda c: c):
    """A polynomial over k at ring elements; ``embed`` carries coefficients."""
    return eval_terms(q.terms, values, embed, q.domain.zero)


def _report(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"PASS criterion {num}: {label} ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_ghost_oracle():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    for p, max_n in ((2, 4), (3, 3)):
        for N in range(1, max_n + 1):
            ring = IntegerRing(p)
            for _ in range(200):
                u = rand_int_witt(rng, ring, N, 50)
                v = rand_int_witt(rng, ring, N, 50)
                s, m, n = W.witt_add(u, v), W.witt_mul(u, v), W.witt_neg(u)
                for r in range(N):
                    gu, gv = W.ghost(r, u), W.ghost(r, v)
                    assert W.ghost(r, s) == gu + gv
                    assert W.ghost(r, m) == gu * gv
                    assert W.ghost(r, n) == -gu
    _report(1, "ghost oracle, 200 pairs per (p, N)", t0, 30)


def test_criterion_2_vf_identities():
    t0 = time.monotonic()
    rng = random.Random(SEED + 1)
    configs = [(2, 1, 40), (3, 1, 40), (2, 2, 20)]
    total = 0
    for p, d, count in configs:
        params = PrimeParams(p, d)
        ring = FieldRing(params)
        N = 3
        for _ in range(count):
            u = W.WittVector(ring, tuple(rand_field_elem(rng, params) for _ in range(N)))
            v = W.WittVector(ring, tuple(rand_field_elem(rng, params) for _ in range(N - 1)))
            lhs = W.witt_mul(u, W.verschiebung(v))
            rhs = W.verschiebung(W.witt_mul(W.frobenius(u).truncate(N - 1), v))
            assert lhs == rhs
            assert W.p_times(u) == W.verschiebung(W.frobenius(u)).truncate(N)
            total += 1
    assert total == 100
    _report(2, "V-F identities, 100 pairs", t0, 30)


def test_criterion_3_digit_expansion():
    t0 = time.monotonic()
    rng = random.Random(SEED + 2)
    params = PrimeParams(2, 1, ["t"])
    t, one = params.gen(0), params.one()
    q = EtaleAlgebra(params, [t, one, one])
    idxs = params.digit_indices()
    zero_idx = (0,)
    for i in range(500):
        f = rand_field_elem(rng, params, 3)
        exp = pbasis_expand(f)
        assert exp.reconstruct() == f
        # uniqueness: rebuild from prescribed digits
        digits = {j: rand_field_elem(rng, params) for j in idxs}
        g = params.zero()
        for j, v in digits.items():
            g = g + v.pth_power() * params.monomial(j)
        got = pbasis_expand(g)
        assert all(got[j] == digits[j] for j in idxs)
        # Frobenius section
        sec = pbasis_expand(f.pth_power())
        assert sec[zero_idx] == f
        assert all(v.is_zero() for j, v in sec.digits.items() if j != zero_idx)
    for i in range(500):
        f = rand_etale_elem(rng, q)
        exp = pbasis_expand(f)
        assert exp.reconstruct() == f
        sec = pbasis_expand(f.pth_power(1))
        assert sec[zero_idx] == f
    _report(3, "digit expansion on 500 + 500 elements", t0, 30)


def test_criterion_4_cohen_canonical_form():
    t0 = time.monotonic()
    rng = random.Random(SEED + 3)
    configs = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (2, 2, 1)]
    total = 0
    for p, d, n in configs:
        params = PrimeParams(p, d)
        ring = FieldRing(params)
        level = n + 1
        for i in range(40):
            c = rand_cohen(rng, ring, level)
            assert C.extract(C.to_witt(c)) == c
            total += 1
            if i < 8:
                other = rand_cohen(rng, ring, level)
                try:
                    C.cohen_add(c, other)
                    C.cohen_mul(c, other)
                except NotInCohen as exc:  # pragma: no cover
                    raise AssertionError(f"closure violated: {exc}")
    assert total == 200
    params = PrimeParams(2, 1, ["t"])
    ring = FieldRing(params)
    try:
        C.extract(W.WittVector(ring, (params.zero(), params.gen(0))))
        raise AssertionError("(0, t) must be rejected")
    except NotInCohen:
        pass
    _report(4, "canonical form roundtrip on 200 coordinate sets", t0, 60)


def test_criterion_5_exact_p_division():
    t0 = time.monotonic()
    rng = random.Random(SEED + 4)
    done = 0
    # Q = k: p = 2 at level 3 with exponents 1 and 2, p = 3 at level 3
    for p, count, exps in ((2, 40, (1, 2)), (3, 20, (1,))):
        params = PrimeParams(p, 1, ["t"])
        ring = FieldRing(params)
        for i in range(count):
            e = exps[i % len(exps)]
            low = rand_cohen(rng, ring, 3 - e)
            target = C.ver_embed(low, 3)
            got = C.solve_p_division(target, e)
            assert C.p_pow_times(got, e) == target
            done += 1
    # Q = k[y]/(y^2 + y + t)
    params = PrimeParams(2, 1, ["t"])
    t, one = params.gen(0), params.one()
    qring = EtaleRing(EtaleAlgebra(params, [t, one, one]))
    for _ in range(40):
        low = rand_cohen(rng, qring, 2)
        target = C.ver_embed(low, 3)
        got = C.solve_p_division(target, 1)
        assert C.p_pow_times(got, 1) == target
        done += 1
    assert done == 100
    _report(5, "exact p-division on 100 targets over k and etale Q", t0, 60)


def test_criterion_6_residue_flatness():
    t0 = time.monotonic()
    rng = random.Random(SEED + 5)
    params = PrimeParams(2, 1, ["t"])
    ring = FieldRing(params)
    for _ in range(100):
        x = rand_cohen(rng, ring, 3)
        # forward: p-multiples land in the kernel of the residue
        assert C.residue(C.p_pow_times(x, 1)).is_zero()
        # backward: residue zero means an exact p-division exists
        killed = C.CohenElem(
            ring, 3, {(j, i): v for (j, i), v in x.coords.items() if j >= 1}
        )
        assert C.residue(killed).is_zero()
        div = C.solve_p_division(killed, 1)
        assert C.p_pow_times(div, 1) == killed
        # and elements with nonzero residue are not p-multiples
        if not C.residue(x).is_zero():
            assert x.support_min_position() == 0
    _report(6, "residue kernel = p-image on 100 elements", t0, 30)


def _eisenstein_base_p2(params):
    ring = FieldRing(params)
    minus_p = C.cohen_neg(C.cohen_from_int(ring, 2, 2))
    return B.make_eisenstein(params, 2, [minus_p, C.CohenElem.zero(ring, 2)])


def test_criterion_7_point_bijection():
    t0 = time.monotonic()
    rng = random.Random(SEED + 6)
    params = PrimeParams(2, 1, ["t"])
    t, zero, one = params.gen(0), params.zero(), params.one()
    base = B.make_unramified(params, 2)
    alg = base.algebra()
    tau = alg.teich(t)
    X = G.AffinePresentation(base, ["x"], [{(2,): alg.one(), (0,): -(tau * tau)}])
    pres = G.greenberg_transform(X)
    assert pres.equation_strings()[0] == "zx.0.0.0^2 + t*zx.0.1.0^2 + t"
    # solution set is exactly {a = 0, b = 1, c free}: (i) membership with a
    # formal free coordinate, (ii) the binding equation is alpha^2 + t beta^2
    # after centering, which has only the trivial zero by digit uniqueness
    for c in (zero, one, t, rand_field_elem(rng, params)):
        assert pres.is_solution([zero, one, c])
    ring = SymbolicRing(params, ["alpha", "beta", "c"])
    alpha, beta = ring.variable("alpha"), ring.variable("beta")
    centered = pres.equations[0].substitute({0: alpha, 1: beta + ring.one()})
    assert centered == ring.add(
        ring.mul(alpha, alpha), ring.mul(ring.scalar(t), ring.mul(beta, beta))
    )
    window = [zero, one, t, t + one]
    solutions = [
        (a, b) for a in window for b in window if pres.is_solution([a, b, zero])
    ]
    assert solutions == [(zero, one)]
    # transfer round-trips with X(A) = { teich(t) + p eta }
    fring = FieldRing(params)
    for _ in range(10):
        point = tau + alg.from_component(rand_cohen(rng, fring, 2)).scale_p(1)
        coords = G.point_to_coords(X, pres, [point])
        assert coords[0] == zero and coords[1] == one
        assert (G.coords_to_point(X, pres, coords)[0] - point).is_zero()
    # 20 seeded random linear/quadratic schemes over both base families
    schemes = 0
    for family in (base, _eisenstein_base_p2(params)):
        falg = family.algebra()
        for j in range(10):
            target = rand_base_elem(rng, family)
            if j % 2 == 0:
                X2 = G.AffinePresentation(
                    family,
                    ["x", "y"],
                    [{(1, 0): falg.one(), (0, 1): falg.one(), (0, 0): -target}],
                )
                mk = lambda s: [s, target - s]
            else:
                X2 = G.AffinePresentation(
                    family,
                    ["x", "y"],
                    [{(0, 1): falg.one(), (2, 0): -falg.one(), (1, 0): -target}],
                )
                mk = lambda s: [s, s * s + target * s]
            pres2 = G.greenberg_transform(X2)
            for _ in range(10):
                point = mk(rand_base_elem(rng, family))
                coords = G.point_to_coords(X2, pres2, point)
                assert pres2.is_solution(coords)
                back = G.coords_to_point(X2, pres2, coords)
                assert all((u - v).is_zero() for u, v in zip(back, point))
            schemes += 1
    assert schemes == 20
    _report(7, "point bijection: worked example + 20 random schemes", t0, 120)


def test_criterion_8_weil_restriction():
    t0 = time.monotonic()
    rng = random.Random(SEED + 7)
    params = PrimeParams(2, 1, ["t"])
    t, one, zero = params.gen(0), params.one(), params.zero()
    ring = SymbolicRing(params, ["z"])
    z = ring.variable("z")
    g = ring.add(ring.add(ring.mul(z, z), z), ring.scalar(t))
    symbols, equations, _ = G.weil_restrict(params, ["z"], [g])
    from gkit.rings import format_sym_poly

    assert [format_sym_poly(q, symbols) for q in equations] == [
        "z.s0^2 + t*z.s1^2 + z.s0 + t",
        "z.s1",
    ]
    # (i) etale base change: solutions biject with roots of g over the
    # twisted algebra; here both sets are the two roots in Q
    q = EtaleAlgebra(params, [t, one, one])
    y = q.gen()
    for r in (y, y + q.one()):
        assert all(
            eval_poly(eq, [r, q.zero()], q.from_k).is_zero()
            for eq in equations
        )
    assert not all(
        eval_poly(eq, [y, q.one()], q.from_k).is_zero() for eq in equations
    )
    window = [zero, one, t, t + one]
    assert not any(
        all(eval_poly(eq, [a, b]).is_zero() for eq in equations)
        for a in window
        for b in window
    )
    # (ii) the affine line restricts to p^d variables and no equations
    for d in (1, 2):
        pd = PrimeParams(2, d)
        syms, eqs, _ = G.weil_restrict(pd, ["z"], [])
        assert len(syms) == 2**d and eqs == []
    # (iii) counit digit formula on 50 random points
    for _ in range(50):
        z0 = rand_field_elem(rng, params)
        z1 = rand_field_elem(rng, params)
        arg = z0.pth_power() + z1.pth_power() * t
        lhs = arg * arg + arg + t.pth_power()
        parts = [eval_poly(eq, [z0, z1]) for eq in equations]
        assert lhs == parts[0].pth_power() + parts[1].pth_power() * t
    _report(8, "Weil restriction along Frobenius", t0, 30)


def test_criterion_9_unit_filtration():
    t0 = time.monotonic()
    rng = random.Random(SEED + 8)
    params = PrimeParams(3, 1, ["t"])
    kring = FieldRing(params)
    solved = 0
    # unramified m = 3, n = 1: targets of level n + e = 2
    base = B.make_unramified(params, 3)
    alg = base.algebra()
    one = alg.one()
    for i in range(60):
        c = rand_field_elem(rng, params)
        v = one + alg.teich(c).scale_p(2)
        u = U.p_power_solve(v, 1)
        assert (U.p_power(u) - v).is_zero()
        lvl = U.unit_level(u)
        assert lvl is None or lvl >= 1
        solved += 1
        if i < 5 and not (v - one).is_zero():
            # uniqueness below the truncation tail I^{em-e}
            w = rand_nonzero_field_elem(rng, params)
            u2 = u * (one + B.graded_unit(base, 1, w))
            assert not (U.p_power(u2) - v).is_zero()
    # Eisenstein e = 2, m = 2, n = 2: level n + e = 4 meets the nilpotency
    # bound, so the only target is 1 (solved canonically)
    minus_p = C.cohen_neg(C.cohen_from_int(FieldRing(params), 2, 3))
    degenerate = B.make_eisenstein(params, 2, [minus_p, C.CohenElem.zero(FieldRing(params), 2)])
    dalg = degenerate.algebra()
    for _ in range(20):
        u = U.p_power_solve(dalg.one(), 2)
        assert (u - dalg.one()).is_zero()
        solved += 1
    # the same family one level deeper has genuine level-4 targets
    minus_p3 = C.cohen_neg(C.cohen_from_int(kring, 3, 3))
    deep = B.make_eisenstein(params, 3, [minus_p3, C.CohenElem.zero(kring, 3)])
    deep_alg = deep.algebra()
    for _ in range(20):
        c = rand_nonzero_field_elem(rng, params)
        v = deep_alg.one() + deep_alg.teich(c).scale_p(2)
        u = U.p_power_solve(v, 2)
        assert (U.p_power(u) - v).is_zero()
        lvl = U.unit_level(u)
        assert lvl is not None and lvl >= 2
        solved += 1
    assert solved == 100
    # sharpness witness at p = 2, n = e = 1
    params2 = PrimeParams(2, 1, ["t"])
    base2 = B.make_unramified(params2, 3)
    u, u2 = U.p_power_kernel_witness(base2)
    assert not (u - u2).is_zero()
    assert U.unit_level(u2) == 1
    assert (U.p_power(u) - U.p_power(u2)).is_zero()
    _report(9, "unit filtration p-power on 100 targets + witness", t0, 60)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    script = tmp_path / "worked.gk"
    script.write_text(
        "base { p = 2; pbasis = [t]; }\n"
        "ring A = unramified(2);\n"
        "scheme X over A { vars [x]; eqs [ x^2 - teich(t)^2 ]; }\n"
        "greenberg X --stage 0;\n"
        "point push X (teich(t));\n"
        "selftest --seed 11;\n"
    )

    def run():
        return subprocess.run(
            [sys.executable, "-m", "gkit.cli", "--script", str(script), "--seed", "11"],
            capture_output=True,
        )

    a, b = run(), run()
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    c = subprocess.run(
        [sys.executable, "-m", "gkit.cli", "selftest", "--seed", "11"], capture_output=True
    )
    d = subprocess.run(
        [sys.executable, "-m", "gkit.cli", "selftest", "--seed", "11"], capture_output=True
    )
    assert c.stdout == d.stdout and c.returncode == 0
    report = json.loads(c.stdout.splitlines()[0])["report"]
    assert report["ok"]
    _report(10, "byte-identical reruns of selftest and the worked script", t0, 120)
