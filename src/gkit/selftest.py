"""Embedded invariant suites behind the `selftest` command.

Smaller and faster than the full acceptance run, but exercising the same
identities: the ghost oracle, Verschiebung/Frobenius relations, digit
expansion, Cohen canonical forms, exact p-division, and the unit
filtration.  Deterministic for a fixed seed.
"""

import random

from . import cohen, units, witt
from .base import make_unramified
from .basefield import EtaleAlgebra, PrimeParams, pbasis_expand
from .errors import NotInCohen
from .rings import EtaleRing, FieldRing, IntegerRing
from .sampling import (
    rand_ambient_elem,
    rand_cohen,
    rand_field_elem,
    rand_int_witt,
)


def _suite_ghost(rng, counts):
    for p, maxN in ((2, 3), (3, 2)):
        ring = IntegerRing(p)
        for N in range(1, maxN + 1):
            for _ in range(10):
                u = rand_int_witt(rng, ring, N, 9)
                v = rand_int_witt(rng, ring, N, 9)
                s = witt.witt_add(u, v)
                m = witt.witt_mul(u, v)
                n = witt.witt_neg(u)
                ok = True
                for r in range(N):
                    gu, gv = witt.ghost(r, u), witt.ghost(r, v)
                    ok &= witt.ghost(r, s) == gu + gv
                    ok &= witt.ghost(r, m) == gu * gv
                    ok &= witt.ghost(r, n) == -gu
                counts["ghost_oracle"][ok] += 1


def _suite_vf(rng, counts):
    for p, d in ((2, 1), (3, 1)):
        params = PrimeParams(p, d)
        K = FieldRing(params)
        N = 3
        for _ in range(10):
            u = witt.WittVector(K, tuple(rand_field_elem(rng, params) for _ in range(N)))
            v = witt.WittVector(K, tuple(rand_field_elem(rng, params) for _ in range(N - 1)))
            lhs = witt.witt_mul(u, witt.verschiebung(v))
            fu = witt.frobenius(u).truncate(N - 1)
            rhs = witt.verschiebung(witt.witt_mul(fu, v))
            ok = lhs == rhs
            ok &= witt.p_times(u) == witt.verschiebung(witt.frobenius(u)).truncate(N)
            counts["vf_identities"][ok] += 1


def _suite_digits(rng, counts):
    params = PrimeParams(2, 1)
    t, one = params.gen(0), params.one()
    q = EtaleAlgebra(params, [t, one, one])
    for _ in range(25):
        f = rand_field_elem(rng, params, 3)
        exp = pbasis_expand(f)
        ok = exp.reconstruct() == f
        g = f.pth_power()
        sec = pbasis_expand(g)
        ok &= sec[(0,)] == f and all(
            v.is_zero() for i, v in sec.digits.items() if i != (0,)
        )
        counts["digit_expansion"][ok] += 1
    qring = EtaleRing(q)
    for _ in range(10):
        f = rand_ambient_elem(rng, qring)
        ok = pbasis_expand(f).reconstruct() == f
        counts["digit_expansion"][ok] += 1


def _suite_cohen(rng, counts):
    params = PrimeParams(2, 1)
    K = FieldRing(params)
    for level in (2, 3):
        for _ in range(8):
            c = rand_cohen(rng, K, level)
            ok = cohen.extract(cohen.to_witt(c)) == c
            d = rand_cohen(rng, K, level)
            try:
                cohen.cohen_add(c, d)
                cohen.cohen_mul(c, d)
            except NotInCohen:
                ok = False
            counts["cohen_canonical"][ok] += 1
    t = params.gen(0)
    rejected = False
    try:
        cohen.extract(witt.WittVector(K, (params.zero(), t)))
    except NotInCohen:
        rejected = True
    counts["cohen_canonical"][rejected] += 1


def _suite_pdiv(rng, counts):
    params = PrimeParams(2, 1)
    K = FieldRing(params)
    for _ in range(10):
        low = rand_cohen(rng, K, 2)
        target = cohen.ver_embed(low, 3)
        got = cohen.solve_p_division(target, 1)
        counts["p_division"][cohen.p_pow_times(got, 1) == target] += 1


def _suite_units(rng, counts):
    params = PrimeParams(3, 1)
    base = make_unramified(params, 3)
    alg = base.algebra()
    one = alg.one()
    for _ in range(10):
        c = rand_field_elem(rng, params)
        v = one + alg.teich(c).scale_p(2)
        u = units.p_power_solve(v, 1)
        ok = (units.p_power(u) - v).is_zero()
        lvl = units.unit_level(u)
        ok &= lvl is None or lvl >= 1
        counts["unit_filtration"][ok] += 1


_SUITES = (
    _suite_ghost,
    _suite_vf,
    _suite_digits,
    _suite_cohen,
    _suite_pdiv,
    _suite_units,
)


def run_selftest(seed=0):
    rng = random.Random(seed)
    counts = {
        name: {True: 0, False: 0}
        for name in (
            "ghost_oracle",
            "vf_identities",
            "digit_expansion",
            "cohen_canonical",
            "p_division",
            "unit_filtration",
        )
    }
    for suite in _SUITES:
        suite(rng, counts)
    report = {"seed": seed, "suites": {}, "ok": True}
    for name, c in counts.items():
        report["suites"][name] = {"pass": c[True], "fail": c[False]}
        if c[False]:
            report["ok"] = False
    return report
