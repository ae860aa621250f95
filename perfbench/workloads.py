"""The three workloads: seeded inputs, timed ops and their output checks.

Each workload has ``setup()`` (the cost a user pays before the first op:
bases, Eisenstein validation, one warm-up op per (p, N)) and
``round(state, rng, shapes)`` (one round of ops with their inputs,
generated before timing).  Every round has the same op mix for every seed.
Operand shapes (sizes, degrees, which slot gets which degree) come from
``shapes``, a generator seeded with the workload name and restarted every
round, and values from ``rng``, seeded with the workload seed: op costs,
which span three decades, then stay close between seeds and rounds, and
seeds differ in the values.

Op properties counted in the shares: ``p3`` (p = 3), ``d2`` (two p-basis
variables), ``level3`` (Cohen level >= 3), ``eis`` (Eisenstein base),
``bigp`` (the large prime) and ``stage1`` (restriction stage >= 1).
"""

import io
import random

from gkit import base, basefield, cli, cohen, dsl, units, witt
from gkit.basefield import BaseFieldElem, EtaleAlgebra, PrimeParams
from gkit.errors import GkitError
from gkit.polys import SparsePoly
from gkit.rings import FieldRing

from harness import Group, Op

PROPS = ("p3", "d2", "level3", "eis", "bigp", "stage1")
BIG_PRIME = 4294967291


def _props(p=2, d=1, level=0, eis=False, bigp=False, stage=0):
    return {
        "p3": p == 3,
        "d2": d == 2,
        "level3": level >= 3,
        "eis": eis,
        "bigp": bigp,
        "stage1": stage >= 1,
    }


def _single(kind, props, fn, check, known_defect=None):
    """A group of one op whose check sees only that op's output."""
    return Group([Op(kind, props, lambda ctx: fn(), known_defect)],
                 lambda ctx, outs: [check(outs[0])])


# ---------------------------------------------------------------------------
# Random inputs and an F_p polynomial oracle independent of gkit.polys
# ---------------------------------------------------------------------------


def rand_terms(rng, p, d, nterms, max_deg):
    """A dict exponent-tuple -> nonzero coefficient mod p."""
    terms = {}
    while len(terms) < nterms:
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(d))
        terms[exps] = rng.randrange(1, p)
    return terms


def rand_fraction(rng, params, nterms, max_deg, den_terms=0, den_deg=1):
    """A nonzero element of k with about ``nterms`` numerator terms; the
    denominator is 1 when ``den_terms`` is 0."""
    p, d = params.p, params.d
    num = SparsePoly(params.domain, d, rand_terms(rng, p, d, nterms, max_deg))
    if den_terms:
        den_t = rand_terms(rng, p, d, den_terms, den_deg)
        den_t[(0,) * d] = rng.randrange(1, p)
        den = SparsePoly(params.domain, d, den_t)
    else:
        den = SparsePoly.constant(params.domain, d, 1)
    return BaseFieldElem(params, num, den)


def _fraction(k, num, den):
    return BaseFieldElem(k, SparsePoly(k.domain, k.d, num), SparsePoly(k.domain, k.d, den))


def naive_mul(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def naive_add(a, b, p):
    out = dict(a)
    for e, c in b.items():
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def frob(a, p):
    """f^p for f over F_p: coefficients are fixed, exponents scale by p."""
    return {tuple(x * p for x in e): c for e, c in a.items()}


def frac(x):
    return dict(x.num.terms), dict(x.den.terms)


def same_fraction(n1, d1, n2, d2, p):
    """n1/d1 == n2/d2 by exact cross-multiplication."""
    return naive_mul(n1, d2, p) == naive_mul(n2, d1, p)


def eval_mod(terms, point, p):
    acc = 0
    for exps, c in terms.items():
        term = c
        for x, e in zip(point, exps):
            term = term * pow(x, e, p) % p
        acc = (acc + term) % p
    return acc


def same_at_points(n1, d1, n2, d2, p, points):
    """n1/d1 == n2/d2 at every point; for large p, Schwartz-Zippel makes a
    false agreement at three random points negligible."""
    for pt in points:
        if eval_mod(n1, pt, p) * eval_mod(d2, pt, p) % p != (
            eval_mod(n2, pt, p) * eval_mod(d1, pt, p) % p
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# cohen_k
# ---------------------------------------------------------------------------

UNRAMIFIED = ((2, 2), (2, 3), (3, 2), (3, 3))
# BaseElem.inverse on C_3(F_3(t)) takes tens of seconds per op, and its
# BaseElem.mul repeats cohen_mul there at several times the cost
BASE_OPS_ON = ((2, 2), (2, 3), (3, 2))


class CohenK:
    """k-valued element arithmetic through the Witt-carry route."""

    name = "cohen_k"

    def setup(self):
        st = {"params": {p: PrimeParams(p, 1) for p in (2, 3)}}
        st["ring"] = {p: FieldRing(st["params"][p]) for p in (2, 3)}
        st["unram"] = {(p, m): base.make_unramified(st["params"][p], m) for p, m in UNRAMIFIED}
        k3 = st["ring"][3]
        st["eis"] = {
            m: base.make_eisenstein(
                st["params"][3], m,
                [cohen.cohen_neg(cohen.cohen_from_int(k3, m, 3)), cohen.CohenElem.zero(k3, m)],
            )
            for m in (2, 3)
        }
        for p, m in UNRAMIFIED:
            one = cohen.teich_lift(st["ring"][p], m, st["ring"][p].one())
            cohen.cohen_add(one, one)
        return st

    def _cohen(self, rng, shapes, ring, level, min_position=0):
        """Nonzero coordinates in fixed, evenly spaced slots, each of one
        shape: c1*t^a + c2 with the exponents a a shuffle of 1, 2, 1, ..,
        the first coordinate over t + c3.  A coordinate at index i enters
        the Witt vector times t^(i p^j) and is raised to the p^n-th power,
        so slots and degrees set an op's cost; fixing them keeps costs
        close between seeds, which then differ in coefficients and in
        where each degree sits."""
        k = ring.params
        slots = [s for s in cohen.slot_indices(ring, level) if s[0] >= min_position]
        filled = min(3 if (level, ring.char_p) == (3, 2) else 2, len(slots))
        exps = [1 + n % 2 for n in range(filled)]
        shapes.shuffle(exps)
        coords = {}
        for n in range(filled):
            num = {(exps[n],): rng.randrange(1, k.p), (0,): rng.randrange(1, k.p)}
            den = {(1,): 1, (0,): rng.randrange(1, k.p)} if n == 0 else {(0,): 1}
            coords[slots[n * len(slots) // filled]] = _fraction(k, num, den)
        return cohen.CohenElem(ring, level, coords)

    def _unit(self, rng, shapes, b):
        comps = [self._cohen(rng, shapes, b.field_ring, b.m) for _ in range(b.e)]
        c0 = dict(comps[0].coords)
        c0.setdefault((0, (0,)), b.params.from_int(rng.randrange(1, b.params.p)))
        comps[0] = cohen.CohenElem(b.field_ring, b.m, c0)
        return b.algebra().from_components(comps)

    def _ppow_target(self, rng, b):
        alg = b.algebra()
        k = b.params
        c = _fraction(k, {(1,): rng.randrange(1, k.p), (0,): rng.randrange(1, k.p)}, {(0,): 1})
        return alg.one() + alg.teich(c).scale_p(2)

    def round(self, st, rng, shapes):
        groups = []
        # The solves take most of a round's time, so their operands come
        # from ``shapes`` alone, the same for every seed; the seed draws the
        # other values.
        for p, m in UNRAMIFIED:
            ring = st["ring"][p]
            props = _props(p=p, level=m)
            a, b = self._cohen(rng, shapes, ring, m), self._cohen(rng, shapes, ring, m)
            groups.append(_single("cohen_add", props, lambda a=a, b=b: cohen.cohen_add(a, b),
                                  lambda r, a=a, b=b: _witt_diff(r, witt.witt_add, a, b)))
            a, b = self._cohen(rng, shapes, ring, m), self._cohen(rng, shapes, ring, m)
            groups.append(_single("cohen_mul", props, lambda a=a, b=b: cohen.cohen_mul(a, b),
                                  lambda r, a=a, b=b: _witt_diff(r, witt.witt_mul, a, b)))
            a = self._cohen(rng, shapes, ring, m)
            groups.append(_single("cohen_neg", props, lambda a=a: cohen.cohen_neg(a),
                                  lambda r, a=a: _witt_diff(r, witt.witt_neg, a)))
            a = self._cohen(rng, shapes, ring, m)
            groups.append(_single("extract_to_witt", props,
                                  lambda a=a: cohen.extract(cohen.to_witt(a)),
                                  lambda r, a=a: r == a))
            t = self._cohen(rng, shapes, ring, m, min_position=1)
            groups.append(_single("solve_p_division", props,
                                  lambda t=t: cohen.solve_p_division(t, 1),
                                  lambda r, t=t: cohen.p_pow_times(r, 1) == t))
            if (p, m) in BASE_OPS_ON:
                bse = st["unram"][(p, m)]
                x, y = self._unit(rng, shapes, bse), self._unit(rng, shapes, bse)
                groups.append(_single("base_mul", props, lambda x=x, y=y: x * y,
                                      lambda r, x=x, y=y: _witt_diff(
                                          r.components[0], witt.witt_mul,
                                          x.components[0], y.components[0])))
                x = self._unit(shapes, shapes, bse)
                groups.append(_single("base_inverse", props, lambda x=x: x.inverse(),
                                      lambda r, x=x: (x * r - x.algebra.one()).is_zero()))
        eis2 = st["eis"][2]
        props = _props(p=3, level=2, eis=True)
        x, y = self._unit(rng, shapes, eis2), self._unit(rng, shapes, eis2)
        groups.append(_single("base_mul", props, lambda x=x, y=y: x * y,
                              lambda r, x=x, y=y: r == y * x
                              and r.residue() == x.residue() * y.residue()))
        x = self._unit(shapes, shapes, eis2)
        groups.append(_single("base_inverse", props, lambda x=x: x.inverse(),
                              lambda r, x=x: (x * r - x.algebra.one()).is_zero()))
        for b, n, props in (
            (st["unram"][(3, 3)], 1, _props(p=3, level=3)),
            (st["eis"][3], 2, _props(p=3, level=3, eis=True)),
        ):
            for _ in range(2):
                v = self._ppow_target(shapes, b)
                groups.append(_single("p_power_solve", props,
                                      lambda v=v, n=n: units.p_power_solve(v, n),
                                      lambda r, v=v: (r ** 3 - v).is_zero()))
        return groups


def _witt_diff(result, witt_op, *args):
    """The Witt-route differential: to_witt(op(a, b)) == witt_op(to_witt(a), to_witt(b))."""
    return cohen.to_witt(result) == witt_op(*[cohen.to_witt(a) for a in args])


# ---------------------------------------------------------------------------
# field_k
# ---------------------------------------------------------------------------

SMALL_FIELDS = ((2, 1), (2, 2), (3, 1), (3, 2))


class FieldK:
    """Base-field arithmetic with no Witt or Cohen code."""

    name = "field_k"

    def setup(self):
        st = {"params": {(p, d): PrimeParams(p, d) for p, d in SMALL_FIELDS}}
        st["params"][(BIG_PRIME, 1)] = PrimeParams(BIG_PRIME, 1)
        st["etale"] = {}
        for p in (2, 3):
            k = st["params"][(p, 1)]
            q = EtaleAlgebra(k, [k.gen(0), k.one(), k.one()])  # y^2 + y + t
            q.digit_matrix()
            st["etale"][p] = q
        for k in st["params"].values():
            x = k.gen(0) + k.one()
            (x * x).inverse()
        return st

    def _elem(self, rng, shapes, k):
        if k.d == 1:
            return rand_fraction(rng, k, shapes.randrange(6, 10), 12, shapes.randrange(2, 4), 4)
        return rand_fraction(rng, k, shapes.randrange(4, 7), 4, shapes.randrange(2, 4), 2)

    def _factor(self, rng, shapes, k):
        """A nonconstant polynomial; mul and add operands are built from
        shared factors so the gcds in the op have something to cancel."""
        while True:
            terms = rand_terms(rng, k.p, k.d, shapes.randrange(2, 4), 3 if k.d == 1 else 2)
            if any(any(e) for e in terms):
                return terms

    def round(self, st, rng, shapes):
        groups = []
        for p, d in SMALL_FIELDS:
            k = st["params"][(p, d)]
            props = _props(p=p, d=d)
            f, g, h, u, v = (self._factor(rng, shapes, k) for _ in range(5))
            a, b = _fraction(k, naive_mul(f, g, p), h), _fraction(k, naive_mul(h, u, p),
                                                                  naive_mul(g, v, p))
            groups.append(_single("mul", props, lambda a=a, b=b: a * b,
                                  lambda r, a=a, b=b, p=p: _exact_mul(r, a, b, p)))
            a, b = _fraction(k, f, naive_mul(g, h, p)), _fraction(k, u, naive_mul(g, v, p))
            groups.append(_single("add", props, lambda a=a, b=b: a + b,
                                  lambda r, a=a, b=b, p=p: _exact_add(r, a, b, p)))
            a = self._elem(rng, shapes, k)
            groups.append(_single("inverse", props, lambda a=a: a.inverse(),
                                  lambda r, a=a, k=k: _exact_mul(r, a, k.one(), k.p, inverse=True)))
            a = self._elem(rng, shapes, k)
            groups.append(_single("pth_power", props, lambda a=a: a.pth_power(),
                                  lambda r, a=a, p=p: _is_frobenius(r, a, p)))
            a = self._elem(rng, shapes, k)
            ap = BaseFieldElem(k, SparsePoly(k.domain, d, frob(a.num.terms, p)),
                               SparsePoly(k.domain, d, frob(a.den.terms, p)))
            groups.append(_single("pth_root", props, lambda ap=ap: basefield.pth_root(ap),
                                  lambda r, ap=ap, p=p: _is_frobenius(ap, r, p)))
            a = self._elem(rng, shapes, k)
            groups.append(_single("pbasis_expand", props,
                                  lambda a=a: basefield.pbasis_expand(a),
                                  lambda r, a=a, p=p: _digits_ok(r, a, p)))
        for p in (2, 3):
            q = st["etale"][p]
            x = q.from_coords([self._elem(rng, shapes, q.params) for _ in range(q.deg)])
            groups.append(_single("etale_digits", _props(p=p),
                                  lambda x=x: basefield.pbasis_expand(x),
                                  lambda r, x=x: r.reconstruct() == x))
        k = st["params"][(BIG_PRIME, 1)]
        props = _props(p=BIG_PRIME, bigp=True)
        points = [(rng.randrange(BIG_PRIME),) for _ in range(3)]
        for kind in ("mul", "add", "inverse"):
            a = rand_fraction(rng, k, shapes.randrange(40, 49), 60, shapes.randrange(2, 5), 4)
            b = rand_fraction(rng, k, shapes.randrange(40, 49), 60, shapes.randrange(2, 5), 4)
            if kind == "mul":
                fn, want = (lambda a=a, b=b: a * b), (lambda a=a, b=b: _big_mul(a, b))
            elif kind == "add":
                fn, want = (lambda a=a, b=b: a + b), (lambda a=a, b=b: _big_add(a, b))
            else:
                fn, want = (lambda a=a: a.inverse()), (lambda a=a: (frac(a)[1], frac(a)[0]))
            # The dense univariate product packs coefficients into 8-byte
            # slots; at this prime their sums overflow a slot, so products
            # (and sums, which multiply across denominators) come out wrong.
            # Only that is excused: a returned value that fails the check.
            groups.append(_single("big_" + kind, props, fn,
                                  lambda r, want=want: same_at_points(
                                      *frac(r), *want(), BIG_PRIME, points),
                                  None if kind == "inverse" else _returned_value))
        return groups


def _returned_value(out):
    return not isinstance(out, GkitError)


def _exact_mul(r, a, b, p, inverse=False):
    """r == a * b, or r == b / a when ``inverse``, by cross-multiplication."""
    (nr, dr), (na, da), (nb, db) = frac(r), frac(a), frac(b)
    if inverse:
        return same_fraction(naive_mul(nr, na, p), naive_mul(dr, da, p), nb, db, p)
    return same_fraction(nr, dr, naive_mul(na, nb, p), naive_mul(da, db, p), p)


def _exact_add(r, a, b, p):
    (nr, dr), (na, da), (nb, db) = frac(r), frac(a), frac(b)
    num = naive_add(naive_mul(na, db, p), naive_mul(nb, da, p), p)
    return same_fraction(nr, dr, num, naive_mul(da, db, p), p)


def _is_frobenius(r, a, p):
    """r == a^p."""
    (nr, dr), (na, da) = frac(r), frac(a)
    return same_fraction(nr, dr, frob(na, p), frob(da, p), p)


def _digits_ok(expansion, a, p):
    """Each digit against an independent expansion: with a = n/d,
    n d^(p-1) = sum_i P_i^p t^i, and digit i must equal P_i / d."""
    num, den = frac(a)
    u = num
    for _ in range(p - 1):
        u = naive_mul(u, den, p)
    parts = {}
    for exps, c in u.items():
        idx = tuple(e % p for e in exps)
        parts.setdefault(idx, {})[tuple(e // p for e in exps)] = c
    return all(same_fraction(*frac(f), parts.get(i, {}), den, p) for i, f in expansion.items())


def _big_mul(a, b):
    (na, da), (nb, db) = frac(a), frac(b)
    return naive_mul(na, nb, BIG_PRIME), naive_mul(da, db, BIG_PRIME)


def _big_add(a, b):
    (na, da), (nb, db) = frac(a), frac(b)
    num = naive_add(naive_mul(na, db, BIG_PRIME), naive_mul(nb, da, BIG_PRIME), BIG_PRIME)
    return num, naive_mul(da, db, BIG_PRIME)


# ---------------------------------------------------------------------------
# greenberg_sym
# ---------------------------------------------------------------------------

# (p, p-basis, ring declaration, number of scheme variables, degree, stage).
# Sized so a script takes about a second at most: a one-variable linear
# scheme over C_3 with two p-basis variables, or stage 2 over the
# Eisenstein base, takes tens of seconds to minutes.  Degree "square" is
# x^2 - P^2 with P's first Witt coordinate linear in the p-basis: at
# stage >= 1 over C_2 its push succeeds, so a push/pull round trip runs
# past stage 0 (the other stage >= 1 pushes fail, see GreenbergSym).
RINGS = {  # ring declaration -> (Cohen level, Eisenstein)
    "unramified(2)": (2, False),
    "unramified(3)": (3, False),
    "eisenstein(2, E = pi^2 - p)": (2, True),
}
SCRIPTS = (
    (2, ["t"], "unramified(2)", 2, 2, 2),
    (2, ["t"], "unramified(2)", 1, 1, 0),
    (2, ["t"], "unramified(2)", 1, "square", 1),
    (2, ["t1", "t2"], "unramified(2)", 1, "square", 2),
    (2, ["t1", "t2"], "unramified(2)", 2, 1, 1),
    (2, ["t1", "t2"], "unramified(2)", 1, 2, 0),
    (2, ["t"], "unramified(3)", 1, 2, 0),
    (2, ["t"], "unramified(3)", 1, 1, 1),
    (3, ["t"], "eisenstein(2, E = pi^2 - p)", 1, 1, 0),
    (3, ["t"], "eisenstein(2, E = pi^2 - p)", 1, 1, 1),
)


def _k_expr(rng, shapes, names, p, degree):
    """``c1*mono + c2`` in script syntax with ``mono`` of total degree
    ``degree``, split at random over the p-basis names."""
    if len(names) == 1:
        parts = [degree]
    else:
        first = shapes.randrange(degree + 1)
        parts = [first, degree - first]
    mono = "*".join(f"{n}^{e}" for n, e in zip(names, parts) if e)
    return f"{rng.randrange(1, p)}*{mono} + {rng.randrange(1, p)}"


def _ring_expr(rng, shapes, names, p):
    a = shapes.randrange(1, 3)
    return (f"teich({_k_expr(rng, shapes, names, p, a)})"
            f" + p*teich({_k_expr(rng, shapes, names, p, 3 - a)})")


def script_statements(rng, shapes, config):
    """(kind, text) of each statement of one generated script; the pull
    statement's text is a function of the push output, filled in at run
    time."""
    p, names, ring_decl, nvars, degree, stage = config
    variables = ["x", "y"][:nvars]
    point = [_ring_expr(rng, shapes, names, p) for _ in variables]
    if degree == "square":
        point = [f"teich({_k_expr(rng, shapes, names, p, 1)})"
                 f" + p*teich({_k_expr(rng, shapes, names, p, shapes.randrange(1, 3))})"]
        eqs = [f"x^2 - ({point[0]})^2"]
    elif nvars == 1:
        (P,) = point
        if degree == 1:
            eqs = [f"teich({_k_expr(rng, shapes, names, p, 1)})*(x - ({P}))"]
        else:
            eqs = [f"(x - ({P}))*(x - ({_ring_expr(rng, shapes, names, p)}))"]
    else:
        P, Q = point
        a = _k_expr(rng, shapes, names, p, 1)
        if degree == 1:
            eqs = [f"x - ({P}) + teich({a})*(y - ({Q}))", f"y - ({Q})"]
        else:
            eqs = [f"x*y - ({P})*({Q})", f"(x - ({P}))*teich({a}) + y^2 - ({Q})^2"]
    return [
        ("base", f"base {{ p = {p}; pbasis = [{', '.join(names)}]; }}"),
        ("ring", f"ring A = {ring_decl};"),
        ("scheme",
         f"scheme X over A {{ vars [{', '.join(variables)}]; eqs [ {', '.join(eqs)} ]; }}"),
        ("greenberg", f"greenberg X --stage {stage};"),
        ("point_push", f"point push X ({', '.join(point)}) --stage {stage};"),
        ("point_pull",
         lambda ctx: f"point pull X ({', '.join(ctx['push']['coords'])}) --stage {stage};"),
    ]


class StatementFailed(GkitError):
    """A command statement that returned an error record; ``error`` is the
    record's error payload."""

    def __init__(self, cmd, error):
        super().__init__(f"{cmd}: {error}")
        self.error = error


# The one failure a stage >= 1 push is excused: point_to_coords' own final
# check, although the point solves the scheme.
PUSH_DEFECT = {"type": "NotASolution",
               "message": "transported coordinates fail the emitted system"}


def _push_defect(out):
    return isinstance(out, StatementFailed) and out.error == PUSH_DEFECT


def _statement(ctx, source):
    """Parse and execute one statement the way ``cli.run_script`` does,
    then emit its JSON line."""
    text = source(ctx) if callable(source) else source
    ((kind, payload),) = cli.parse(text)
    session = ctx.setdefault("session", cli.Session(cli.SessionConfig()))
    ctx.setdefault("texts", []).append(text)
    if kind == "base":
        session.declare_base(payload)
    elif kind == "ring":
        session.declare_ring(payload)
    elif kind == "scheme":
        session.declare_scheme(payload)
    else:
        record = session.run_command(payload)
        out = io.StringIO()
        cli._emit([record], out)
        ctx.setdefault("lines", []).append(out.getvalue())
        if record["status"] != "ok":
            raise StatementFailed(record["cmd"], record["error"])
        if record["cmd"] == "point.push":
            ctx["push"] = record
            ctx["push_vector"] = payload["vector"]
        return record
    return None


def _script_check(ctx, outputs):
    """Statement status, is_solution on the pushed coordinates, pull of
    push, and byte-identical JSON when the whole script runs again."""
    oks = [True] * len(outputs)
    session = ctx["session"]
    push, pull = outputs[-2], outputs[-1]
    stage = push["stage"]
    scheme = session.scheme("X")
    pres = session.presentation("X", stage)
    values = [cli.eval_k(dsl.Parser(s).parse_expr(), session.params) for s in push["coords"]]
    oks[-2] = pres.is_solution(values)
    point = [cli.eval_base_elem(ast, session, scheme.base) for ast in ctx["push_vector"]]
    oks[-1] = pull["point"] == [cli.base_elem_to_json(v) for v in point]
    again = cli.run_script("\n".join(ctx["texts"]), cli.SessionConfig())
    out = io.StringIO()
    cli._emit(again.results, out)
    if out.getvalue() != "".join(ctx["lines"]):
        lines = out.getvalue().splitlines(keepends=True)
        commands = [i for i, o in enumerate(outputs) if o is not None]
        for n, i in enumerate(commands):
            if n >= len(lines) or lines[n] != ctx["lines"][n]:
                oks[i] = False
    return oks


class GreenbergSym:
    """Generated scripts through the CLI: declarations, transform, points."""

    name = "greenberg_sym"

    def setup(self):
        warm = {}
        for p, names, ring_decl, *_ in SCRIPTS:
            warm[(p, tuple(names), ring_decl)] = (
                f"base {{ p = {p}; pbasis = [{', '.join(names)}]; }}\n"
                f"ring A = {ring_decl};\n"
                "scheme W over A { vars [x]; eqs [ x - 1 ]; }\n"
                "greenberg W --stage 0;\n"
            )
        for text in warm.values():
            cli.run_script(text, cli.SessionConfig())
        return {}

    def round(self, st, rng, shapes):
        groups = []
        for config in SCRIPTS:
            p, names, ring_decl, _, degree, stage = config
            level, eis = RINGS[ring_decl]
            props = _props(p=p, d=len(names), level=level, eis=eis, stage=stage)
            # At stage >= 1 every push of the linear and quadratic scripts
            # fails point_to_coords' own final check (NotASolution) although
            # the point solves the scheme: over C_2(F_2(t)), x - teich(t^2 + 1)
            # pushes at stage 0 but not at stage 1.  Those failures are
            # counted, not designed out; the "square" scripts must push.
            excused = stage >= 1 and degree != "square"
            ops = [
                Op(kind, props, lambda ctx, src=src: _statement(ctx, src),
                   _push_defect if excused and kind == "point_push" else None)
                for kind, src in script_statements(rng, shapes, config)
            ]
            groups.append(Group(ops, _script_check))
        return groups


WORKLOADS = {w.name: w for w in (CohenK(), GreenbergSym(), FieldK())}
ROUNDS_PER_SEED = 12


def make_rounds(workload, state, seed):
    """``ROUNDS_PER_SEED`` rounds of inputs: values from the seed, shapes
    from the workload name, the same shapes every round, so a run's op mix
    does not depend on how many rounds it completes."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.round(state, rng, random.Random(f"{workload.name}:shapes"))
            for _ in range(ROUNDS_PER_SEED)]

