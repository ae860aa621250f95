"""The twisted Greenberg transform of affine schemes over a supported base,
as explicit polynomial systems over k.

Given X = Spec A[x_1..x_v]/(f_1..f_w), each variable is replaced by the
generic point of the scheme of elements of A: one Cohen component per
module summand, with a fresh symbol for every canonical coordinate slot.
One list, `_slots(base)`, enumerates the (w, j, i) slots that survive
modulo I^trunc; the symbol names, the equation order, point transfer both
ways and the slots a level step frees are all read off it.  Evaluating
each f in base-ring arithmetic over the symbolic polynomial ring and
reading off canonical coordinates yields one k-equation per slot.  The
k-solutions of the output system biject with X(A); `point_to_coords` and
`coords_to_point` transport points both ways.

Weil restriction along the absolute Frobenius expands a system over k into
p^d times as many variables.  Stage s of the transform is Res_F applied s
times to the system (Kato's tower, whose limit is the relatively perfect
transform): R -> Y(R tensor_{k,F} k), with k-points mapped by
z = sum_i z_i^p t^i, so points move between stages by digit expansion.
`GreenbergPresentation.restricted` builds stage s + 1 from stage s on F_p
numerators.  The public `weil_restrict` computes Res_F(Y^(p)), the
restriction of the Frobenius twist of its input.
"""

import functools
import itertools
import math
import operator

from . import cohen, linalg
from .base import ArtinianBase, graded_unit
from .basefield import BaseFieldElem, DigitExpansion, pbasis_expand
from .errors import NotASolution, ResourceLimit, TypeMismatch
from .polys import SparsePoly, eval_terms, exact_div, poly_lcm
from .rings import SymbolicRing, format_sym_poly, multi_indices

DEFAULT_MONOMIAL_CAP = 20_000
DEFAULT_SYMBOL_CAP = 5_000


class AffinePresentation:
    """An affine scheme over A: variables and equations with BaseElem
    coefficients (as dicts exponent-tuple -> coefficient)."""

    def __init__(self, base: ArtinianBase, variables, equations):
        self.base = base
        self.variables = tuple(variables)
        self.equations = [dict(eq) for eq in equations]

    def evaluate(self, eq_index, algebra, values):
        return eval_terms(self.equations[eq_index], values, algebra.embed, algebra.zero())

    def evaluate_all(self, algebra, values):
        return [self.evaluate(i, algebra, values) for i in range(len(self.equations))]

    def conjunction(self, other):
        """The fiber product over the ambient affine space: same variables,
        union of equations."""
        if other.base != self.base or other.variables != self.variables:
            raise TypeMismatch("conjunction needs matching base and variables")
        return AffinePresentation(
            self.base, self.variables, self.equations + other.equations
        )


class GreenbergPresentation:
    """The emitted polynomial system over k.

    symbols: ordered coordinate names.  At stage 0, symbol
    n * len(_slots(base)) + k is slot k = (w, j, i) of variable n, named
    z<var>.<j>.<i1_.._id>.<w>; each restriction stage appends .s<i1_.._id>,
    the child of symbol v at digit position k being v * p^d + k.
    equations: SparsePoly over k in those symbols, one per slot of each
    input equation, in slot order, then split p^d-fold per stage.
    """

    def __init__(self, base, variables, symbols, equations, stage):
        self.base = base
        self.params = base.params
        self.variables = variables
        self.symbols = tuple(symbols)
        self.equations = equations
        self.stage = stage

    def equation_strings(self):
        return [format_sym_poly(q, self.symbols) for q in self.equations]

    def to_json(self):
        return {
            "symbols": list(self.symbols),
            "equations": self.equation_strings(),
            "stage": self.stage,
        }

    def restricted(self, monomial_cap=DEFAULT_MONOMIAL_CAP, symbol_cap=DEFAULT_SYMBOL_CAP):
        """The next stage: one Weil restriction of this system, Res_F(Y)."""
        symbols = _refined_symbols(self.params, self.symbols, symbol_cap)
        equations = _restrict(SymbolicRing(self.params, symbols), self.equations, monomial_cap)
        return GreenbergPresentation(self.base, self.variables, symbols, equations, self.stage + 1)

    def is_solution(self, values):
        """Whether a full symbol assignment (k-elements) solves every
        equation, tested on cleared numerators in F_p[t].  Write each value
        as a_v / B over the lcm B of the values' denominators; an equation
        sum_e (n_e / d_e) z^e of degree deg, with L the lcm of its d_e,
        vanishes iff sum_e (L / d_e) n_e prod_v a_v^{e_v} B^{deg - |e|}
        does.  Terms are summed per denominator d_e before the cofactor
        L / d_e is applied, and a term with a positive exponent on a zero
        value is skipped.  A list whose length is not the number of symbols
        raises TypeMismatch."""
        if len(values) != len(self.symbols):
            raise TypeMismatch(f"{len(values)} values for {len(self.symbols)} symbols")
        one = self.params._one_poly()
        B = poly_lcm([x.den for x in values], one)
        bases = [x.num if x.den == B else x.num * exact_div(B, x.den) for x in values] + [B]
        powers = {}

        def power(v, e):  # bases[v]^e, B being the last base
            if (v, e) not in powers:
                powers[v, e] = bases[v].pow(e)
            return powers[v, e]

        for q in self.equations:
            terms = []
            for exps, c in q.terms.items():
                support = list(itertools.compress(range(len(exps)), exps))
                if all(bases[v].terms for v in support):
                    terms.append((support, exps, sum(exps), c))
            deg = max((size for _, _, size, _ in terms), default=0)
            groups = {}
            for support, exps, size, c in terms:
                term = c.num * power(-1, deg - size)
                for v in support:
                    term = term * power(v, exps[v])
                groups[c.den] = groups[c.den] + term if c.den in groups else term
            L = poly_lcm(groups, one)
            total = SparsePoly.zero(one.domain, one.nvars)
            for d, part in groups.items():
                total = total + (part if d == L else part * exact_div(L, d))
            if not total.is_zero():
                return False
        return True


def _slots(base):
    """The (w, j, i) coordinate slots of one variable that survive modulo
    I^trunc, in equation order: (j, i) outer, component w inner."""
    return [(w, j, i) for j, i in cohen.slot_indices(base.field_ring, base.m)
            for w in range(base.e) if j < base.component_bound(w)]


def _word(i):
    return "_".join(str(c) for c in i) if i else "0"


def _check_symbol_cap(count, symbol_cap):
    if symbol_cap is not None and count > symbol_cap:
        raise ResourceLimit(f"{count} symbols exceed the cap {symbol_cap}")


def check_stage_symbols(X: AffinePresentation, stage, symbol_cap=DEFAULT_SYMBOL_CAP):
    """Stage 0's symbols, after raising, before any stage or slot list is
    built, the ResourceLimit of the first stage s <= ``stage`` of X's
    transform with more than ``symbol_cap`` symbols: stage s has
    n_0 * (p^d)^s of them, n_0 those of stage 0, counted per variable as
    the slots at each position j < component_bound(w) of each component
    w, the ones ``_slots`` lists."""
    base, d = X.base, X.base.params.d
    n_0 = len(X.variables) * sum(cohen.index_bound(base.field_ring, base.m, j) ** d
                                 for w in range(base.e) for j in range(base.component_bound(w)))
    size = base.params.p ** d
    for s in range(stage + 1):
        _check_symbol_cap(n_0 * size ** s, symbol_cap)
    return [f"z{var}.{j}.{_word(i)}.{w}" for var in X.variables for w, j, i in _slots(base)]


def greenberg_transform(
    X: AffinePresentation,
    stage=0,
    monomial_cap=DEFAULT_MONOMIAL_CAP,
    symbol_cap=DEFAULT_SYMBOL_CAP,
):
    base = X.base
    symbols = check_stage_symbols(X, stage, symbol_cap)
    slots = _slots(base)
    ring = SymbolicRing(base.params, symbols, monomial_cap=monomial_cap)
    algebra = base.algebra(ring)
    generic = _point(algebra, slots, [ring.variable(s) for s in symbols], len(X.variables))
    equations = []
    for eq_index in range(len(X.equations)):
        equations += _coords(X.evaluate(eq_index, algebra, generic), slots, ring.zero())
    pres = GreenbergPresentation(base, X.variables, symbols, equations, 0)
    for _ in range(stage):
        pres = pres.restricted(monomial_cap, symbol_cap)
    return pres


def _coords(elem, slots, zero):
    """The coordinates of an element at ``slots``."""
    return [elem.components[w].coords.get((j, i), zero) for w, j, i in slots]


def _point(algebra, slots, coords, nvars):
    """The point of ``nvars`` variables whose variable n has coordinate
    coords[n * len(slots) + k] at slot k."""
    point, size = [], len(slots)
    for n in range(nvars):
        comps = [{} for _ in range(algebra.base.e)]
        for (w, j, i), c in zip(slots, coords[n * size : (n + 1) * size]):
            comps[w][j, i] = c
        point.append(algebra.from_components(
            [cohen.CohenElem(algebra.ring, algebra.base.m, c) for c in comps]))
    return point


# ---------------------------------------------------------------------------
# Point transfer
# ---------------------------------------------------------------------------


def point_to_coords(X: AffinePresentation, pres: GreenbergPresentation, point):
    """Coordinates of an A-valued solution; verifies the equations first."""
    if len(point) != len(X.variables):
        raise TypeMismatch(f"expected {len(X.variables)} coordinates")
    algebra = X.base.algebra()
    values = [algebra.embed(v) if v.algebra is not algebra else v for v in point]
    for idx, res in enumerate(X.evaluate_all(algebra, values)):
        if not res.is_zero():
            raise NotASolution(f"equation {idx} does not vanish at the point")
    slots, zero = _slots(X.base), X.base.params.zero()
    coords = [c for value in values for c in _coords(value, slots, zero)]
    for _ in range(pres.stage):  # stage 0 lists no digit indices, p^d may not fit
        idxs = multi_indices(X.base.params.p, X.base.params.d)
        coords = [pbasis_expand(c)[i] for c in coords for i in idxs]
    if not pres.is_solution(coords):
        raise NotASolution("transported coordinates fail the emitted system")
    return coords


def coords_to_point(X: AffinePresentation, pres: GreenbergPresentation, coords):
    """Rebuild the A-valued point from coordinates; inverse of
    point_to_coords on solutions."""
    coords = list(coords)
    if len(coords) != len(pres.symbols):
        raise TypeMismatch(f"expected {len(pres.symbols)} coordinates, got {len(coords)}")
    params = X.base.params
    for _ in range(pres.stage):  # as in point_to_coords
        idxs = multi_indices(params.p, params.d)
        coords = [
            DigitExpansion(params, dict(zip(idxs, coords[v : v + len(idxs)]))).reconstruct()
            for v in range(0, len(coords), len(idxs))
        ]
    algebra = X.base.algebra()
    point = _point(algebra, _slots(X.base), coords, len(X.variables))
    for idx, res in enumerate(X.evaluate_all(algebra, point)):
        if not res.is_zero():
            raise NotASolution(f"equation {idx} does not vanish at the rebuilt point")
    return point


# ---------------------------------------------------------------------------
# Weil restriction along the absolute Frobenius
# ---------------------------------------------------------------------------


def weil_restrict(params, symbols, equations, monomial_cap=None, symbol_cap=None):
    """One restriction stage for a polynomial system Y over k: Res_F(Y^(p)),
    the restriction of the Frobenius twist of Y, whose k-solutions z are the
    solutions sum_i z_i^p t^i of Y with its k-coefficients raised to the
    p-th power.  The presentation tower restricts Y itself, Res_F(Y).
    ``monomial_cap`` counts monomials in the new symbols.  Returns (new
    symbols, new equations, children) where children[v] lists the indices
    of the p^d refinements of old symbol v in digit order.
    """
    ring = SymbolicRing(params, _refined_symbols(params, symbols, symbol_cap))
    size = params.p ** params.d
    children = [list(range(v * size, (v + 1) * size)) for v in range(len(symbols))]
    twisted = [ring.twist(q, 1) for q in equations]
    return list(ring.symbols), _restrict(ring, twisted, monomial_cap), children


def _refined_symbols(params, symbols, symbol_cap):
    """Symbol v's child at digit position k is v * p^d + k, named v.s<i>;
    the cap is checked before any is listed."""
    _check_symbol_cap(len(symbols) * params.p ** params.d, symbol_cap)
    idxs = multi_indices(params.p, params.d)
    return [f"{name}.s{_word(i)}" for name in symbols for i in idxs]


def _restrict(ring, equations, monomial_cap):
    """Res_F(Y) in the refined symbols of ``ring``.  Since
    q(sum_i z_i^p t^i) = sum_i Q_i(z)^p t^i, substitute z_v -> sum_i t^i z_{v,i}
    into q and split every coefficient into its t-digits: digit i is Q_i.
    On F_p numerators: (sum_i t^i z_{v,i})^e has terms b t^s z^a, b in F_p,
    and z^a fixes e, so z^a gets b t^s N / D from one term N / D of q (the
    cap counts these z^a); as N / D = N D^{p-1} / D^p, digit i of its
    coefficient is t^{(x - i)/p} over the terms t^x of b t^s N D^{p-1}
    with x = i mod p, over D."""
    params = ring.params
    p, d = params.p, params.d
    idxs = multi_indices(p, d)
    size = len(idxs)
    block = SparsePoly(params.domain, size, {tuple(int(j == k) for j in range(size)): 1 for k in range(size)})

    @functools.cache
    def power(e):  # (z_0 + .. + z_{size-1})^e over F_p as triples (a, b, s), s the t-weight of z^a
        return [(a, b, tuple(sum(c * i[m] for c, i in zip(a, idxs)) for m in range(d)))
                for a, b in block.pow(e, cap=monomial_cap).terms.items()]

    @functools.cache
    def factor(exps):  # prod_v (sum_i t^i z_{v,i})^{e_v} as triples (a, b, s)
        return [(tuple(itertools.chain.from_iterable(a for a, _, _ in blocks)),
                 math.prod(b for _, b, _ in blocks) % p,
                 tuple(sum(s[m] for _, _, s in blocks) for m in range(d)))
                for blocks in itertools.product(*map(power, exps))]

    out = []
    for q in equations:
        digits, dens, count = {}, {}, 0  # digits: i -> z^a -> t-exponents -> F_p
        for exps, c in q.terms.items():
            count += math.prod(len(power(e)) for e in exps)
            if monomial_cap is not None and count > monomial_cap:
                raise ResourceLimit(f"intermediate polynomial exceeded {monomial_cap} monomials")
            num = c.num if c.den.is_constant() else c.num * c.den.pow(p - 1)
            for z, b, s in factor(exps):
                dens[z] = c.den
                for y, a in num.terms.items():
                    x = tuple(map(operator.add, y, s))
                    part = digits.setdefault(tuple(v % p for v in x), {}).setdefault(z, {})
                    part[tuple(v // p for v in x)] = a * b % p
        out += [SparsePoly(ring.domain, ring.nvars, {
            z: BaseFieldElem(params, SparsePoly(params.domain, d, t), dens[z])
            for z, t in digits.get(i, {}).items()}) for i in idxs]
    return out


# ---------------------------------------------------------------------------
# The additive group along Frobenius
# ---------------------------------------------------------------------------


def ga_frob_section(f):
    """Left inverse to Frobenius on the additive group: the digit at 0."""
    return pbasis_expand(f)[(0,) * f.params.d]


def ga_frob_coker_coords(f):
    """The p^d - 1 complementary digits (lexicographic nonzero indices)."""
    dig = pbasis_expand(f)
    zero_idx = (0,) * f.params.d
    return [dig[i] for i in multi_indices(f.params.p, f.params.d) if i != zero_idx]


# ---------------------------------------------------------------------------
# Graded kernel of the tower
# ---------------------------------------------------------------------------


def graded_kernel_check(base: ArtinianBase, group, i, samples):
    """Compare the kernel of the transform over A/I^{i+2} -> A/I^{i+1} with
    the rank-one graded piece I^{i+1}/I^{i+2}, on points and on symbols.

    ``samples`` is a list of k-elements used as test coordinates; the report
    records the explicit isomorphism and what was verified.
    """
    if group not in ("additive", "multiplicative"):
        raise TypeMismatch(f"unsupported group {group!r}")
    level = i + 1
    j2 = min(i + 2, base.trunc)
    j1 = min(i + 1, base.trunc)
    A2 = base.quotient(j2)
    A1 = base.quotient(j1)
    alg2 = A2.algebra()
    report = {
        "group": group,
        "i": i,
        "quotients": [j2, j1],
        "trivial": j2 == j1,
        "checked": 0,
        "pass": True,
    }
    freed = sorted(set(_slots(A2)) - set(_slots(A1)))
    report["freed_slots"] = [
        {"component": w, "position": j, "index": list(ix)} for w, j, ix in freed
    ]
    if j2 == j1:
        report["kernel"] = "trivial"
    else:
        w0, s = level % base.e, level // base.e
        report["kernel"] = f"I^{level}/I^{level + 1} = k via pi^{w0} p^{s} teich(-)"
        ok = True
        seen = []
        for c in samples:
            rep = graded_unit(A2, level, c).reduce_mod(j2)
            elem = rep if group == "additive" else alg2.one() + rep
            # lands in the kernel: trivial in A/I^{i+1}
            down = elem.reduce_mod(j1)
            if group == "additive":
                ok &= down.is_zero()
            else:
                ok &= (down - down.algebra.one()).is_zero()
            if not c.is_zero():
                ok &= not rep.is_zero()
                ok &= rep.graded_coefficient(level) == c
            seen.append(rep)
            report["checked"] += 1
        # group law matches addition of graded coefficients
        for a, b in zip(seen, seen[1:]):
            ca, cb = a.graded_coefficient(level), b.graded_coefficient(level)
            if group == "additive":
                ok &= (a + b).graded_coefficient(level) == ca + cb
            else:
                prod = (alg2.one() + a) * (alg2.one() + b)
                ok &= (prod - alg2.one()).graded_coefficient(level) == ca + cb
        report["pass"] = bool(ok)
    _symbolic_kernel_report(A2, group, freed, report)
    return report


def _symbolic_kernel_report(A2, group, freed, report):
    """One symbolic stage, by Greenberg's structure theorem: over the
    identity of G_a = A^1 or G_m = {x y = 1}, both smooth of relative
    dimension 1, pinning every coordinate but the freed ones leaves a
    linear system whose solutions form one dimension per freed slot."""
    alg = A2.algebra()
    if group == "additive":
        X, identity = AffinePresentation(A2, ["x"], []), [alg.zero()]
    else:
        one = alg.one()
        X = AffinePresentation(A2, ["x", "y"], [{(1, 1): one, (0, 0): -one}])
        identity = [one, one]
    pres = greenberg_transform(X)
    coords = point_to_coords(X, pres, identity)
    slots, freed = _slots(A2), set(freed)
    free = [k for k in range(len(coords)) if slots[k % len(slots)] in freed]
    ring = SymbolicRing(A2.params, pres.symbols)
    pinned = {k: ring.scalar(c) for k, c in enumerate(coords) if k not in free}
    zero = A2.params.zero()
    rows, linear = [], True
    for q in pres.equations:
        row = [zero] * len(free)
        for exps, c in q.substitute(pinned).terms.items():
            if sum(exps) == 1:
                row[free.index(exps.index(1))] = c
            elif sum(exps) > 1:
                linear = False
        rows.append(row)
    solution_dim = linalg.nullity(rows, len(free), zero)
    report["symbolic"] = {
        "kernel_symbols": len(free),
        "linear": linear,
        "solution_dim": solution_dim if linear else None,
    }
    report["pass"] = report["pass"] and linear and solution_dim == len(freed)
