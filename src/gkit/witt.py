"""Truncated p-typical Witt vectors over any supported coefficient ring.

Over k = F_p(t_1..t_d), `witt_add`, `witt_sub`, `witt_mul`, `witt_neg` and
`witt_sum` run on ghost components of lifts (the ghost engine below): the
entries are put over one denominator D as numerators in F_p[t], their
ghost components are computed on lifts to (Z/p^(m+1))[T], added or
multiplied componentwise, and the result's entries are peeled back one
position at a time.  Every other ring (the integers, etale extensions of
k, and k[z]) evaluates the universal structure polynomials, built once per
(p, N) by the classical ghost-component recursion over the integers

    S_n = (w_n(x) + w_n(y) - sum_{i<n} p^i S_i^{p^(n-i)}) / p^n,

with every division checked to be exact.  Over the integers the ghost maps
are injective, which makes them an independent oracle for the construction;
over F_p-algebras the mod-p reductions of the same polynomials are used
(they are much smaller).  They are evaluated with the one polynomial
evaluator, `polys.eval_terms`, which skips a term with a positive exponent
on a zero entry, and they remain the reference the engine is tested
against.

Sizes grow quickly with N.  Measured term counts of the full integer
polynomials:

    p=2: S = [2, 3, 8, 40]        P = [1, 3, 9, 51]
    p=3: S = [2, 4, 24]           P = [1, 3, 13]

Envelope.  The largest polynomial is the top sum S_{N-1}, whose terms are
among the monomials of weighted degree p^{N-1} when x_i and y_i weigh p^i;
`monomial_bound(p, N)` counts them.  Building takes time roughly in
proportion to that count (measured: (1009, 2) with 1012 monomials in 1.0 s,
(2, 6) with 23400 in 4.3 s, (3, 5) with 115602 in 38 s), so
`structure_polys` refuses, with ResourceLimit and before building, any
(p, N) whose count exceeds MAX_MONOMIALS = 1200.  Admitted are N = 1 for
every p, N = 2 for p < 1200, N = 3 for p <= 7, N = 4 for p <= 3, and
N = 5 for p = 2.  The ghost engine builds no structure polynomial but
keeps the same envelope (`_check_envelope`), so every op admits and
refuses the same (p, N) over every ring.
"""

import functools
import threading

from .basefield import BaseFieldElem
from .errors import IndexOutOfRange, InternalError, LengthMismatch, ResourceLimit
from .polys import (
    ElemDomain,
    SparsePoly,
    ZmodDomain,
    eval_terms,
    exact_div,
    poly_frobenius,
    poly_gcd,
    poly_lcm,
)
from .rings import FieldRing

_INT = ElemDomain(0, 1)
_cache = {}
_cache_lock = threading.Lock()


class StructurePolys:
    """Universal polynomials for one (p, N): sums, products, negation,
    Frobenius.  All live in Z[x_0..x_{N-1}, y_0..y_{N-1}] (variables 0..N-1
    are x, N..2N-1 are y); Frobenius only involves the x block."""

    def __init__(self, p, N):
        self.p = p
        self.N = N
        x = [SparsePoly.variable(_INT, 2 * N, i) for i in range(N)]
        y = [SparsePoly.variable(_INT, 2 * N, N + i) for i in range(N)]

        def ghost(vec, n):
            acc = SparsePoly.zero(_INT, 2 * N)
            for i in range(n + 1):
                acc = acc + vec[i].pow(p ** (n - i)).scale(p**i)
            return acc

        sums, prods, negs = [], [], []
        for n in range(N):
            wx, wy = ghost(x, n), ghost(y, n)
            s = wx + wy
            pr = wx * wy
            ng = -wx
            for i in range(n):
                s = s - sums[i].pow(p ** (n - i)).scale(p**i)
                pr = pr - prods[i].pow(p ** (n - i)).scale(p**i)
                ng = ng - negs[i].pow(p ** (n - i)).scale(p**i)
            sums.append(_exact_div_int(s, p**n))
            prods.append(_exact_div_int(pr, p**n))
            negs.append(_exact_div_int(ng, p**n))
        frobs = []
        for n in range(N - 1):
            f = ghost(x, n + 1)
            for i in range(n):
                f = f - frobs[i].pow(p ** (n - i)).scale(p**i)
            frobs.append(_exact_div_int(f, p**n))
        self.sums = sums
        self.prods = prods
        self.negs = negs
        self.frobs = frobs
        self._reduced = None

    def reduced_mod_p(self):
        """The same polynomials with coefficients reduced mod p (zeros dropped)."""
        if self._reduced is None:
            self._reduced = tuple(
                [q.map_coeffs(lambda c: c % self.p) for q in polys]
                for polys in (self.sums, self.prods, self.negs, self.frobs)
            )
        return self._reduced


def _exact_div_int(poly, k):
    terms = {}
    for e, c in poly.terms.items():
        q, r = divmod(c, k)
        if r:
            raise InternalError(f"inexact division by {k} in structure polynomials")
        if q:
            terms[e] = q
    return SparsePoly(_INT, poly.nvars, terms)


MAX_MONOMIALS = 1200


def monomial_bound(p, N):
    """The number of monomials of weighted degree p^(N-1) in x_i, y_i of
    weight p^i (i < N): the most terms S_{N-1} can have."""
    memo = {}

    def count(D, i):
        # ways to spend weighted degree D on x_0..x_i, y_0..y_i
        if i == 0:
            return D + 1
        if (D, i) not in memo:
            w = p**i
            memo[D, i] = sum((s + 1) * count(D - s * w, i - 1) for s in range(D // w + 1))
        return memo[D, i]

    return count(p ** (N - 1), N - 1)


def _check_envelope(p, N):
    # the count is at least p^(n-1) + 1 and grows with n, so stop early
    for n in range(2, N + 1):
        if p ** (n - 1) >= MAX_MONOMIALS or monomial_bound(p, n) > MAX_MONOMIALS:
            raise ResourceLimit(
                f"Witt structure polynomials for p = {p}, N = {N} exceed the "
                f"envelope of {MAX_MONOMIALS} monomials of weighted degree p^(N-1)"
            )


def structure_polys(p, N):
    """Cached structure polynomials; construction is race-free, reads are
    lock-free afterwards.  Raises ResourceLimit outside the envelope."""
    key = (p, N)
    got = _cache.get(key)
    if got is not None:
        return got
    _check_envelope(p, N)
    with _cache_lock:
        got = _cache.get(key)
        if got is None:
            got = StructurePolys(p, N)
            _cache[key] = got
    return got


class WittVector:
    """A length-N tuple over a coefficient ring; the ring adapter defines
    the arithmetic of the entries."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = tuple(entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        if self.ring != other.ring or len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self.entries, other.entries))

    def __hash__(self):
        return hash((len(self.entries),))

    def is_zero(self):
        return all(self.ring.is_zero(a) for a in self.entries)

    def truncate(self, M):
        if M > len(self):
            raise LengthMismatch(f"cannot extend length {len(self)} to {M}")
        return WittVector(self.ring, self.entries[:M])

    def __repr__(self):
        return f"W{list(self.entries)!r}"


def witt_zero(ring, N):
    return WittVector(ring, (ring.zero(),) * N)


def teichmuller(ring, x, N):
    """The multiplicative representative (x, 0, .., 0), in the envelope."""
    if N < 1:
        raise LengthMismatch(f"Teichmuller length {N} is below 1")
    _check_envelope(_prime_of(ring), N)
    return WittVector(ring, (x,) + (ring.zero(),) * (N - 1))


_POLYS = {"add": 0, "mul": 1, "neg": 2, "frob": 3}
_SIGNS = {"add": (1, 1), "sub": (1, -1), "neg": (-1,)}


def _evaluate(op, u, v=None):
    """The Witt operation ``op`` ("add", "sub", "mul", "neg" or "frob") on
    u and v (zeros when v is absent).  Over k the ghost engine computes it;
    over other rings the structure polynomials, reduced mod p over an
    F_p-algebra, are evaluated at the entries.  The (p, N) envelope
    applies to both."""
    ring = u.ring
    p, N = _prime_of(ring), len(u)
    engine = isinstance(ring, FieldRing)
    if engine:
        _check_envelope(p, N)
    else:
        sp = structure_polys(p, N)
    if v is None:
        v = witt_zero(ring, N)
    else:
        _check_pair(u, v)
    if engine:
        if op == "mul":
            return _product(u, v)
        return _linear(ring, list(zip(_SIGNS[op], (u, v))))
    if ring.char_p is not None:
        polys = sp.reduced_mod_p()[_POLYS[op]]
    else:
        polys = (sp.sums, sp.prods, sp.negs, sp.frobs)[_POLYS[op]]
    values = u.entries + v.entries
    return WittVector(ring, tuple(eval_terms(q.terms, values, ring.from_int, 0) for q in polys))


def _check_pair(u, v):
    if len(u) != len(v):
        raise LengthMismatch(f"Witt lengths {len(u)} and {len(v)} differ")
    if u.ring != v.ring:
        raise LengthMismatch("Witt vectors over different rings")


def witt_add(u, v):
    return _evaluate("add", u, v)


def witt_mul(u, v):
    return _evaluate("mul", u, v)


def witt_neg(u):
    return _evaluate("neg", u)


def witt_sub(u, v):
    if isinstance(u.ring, FieldRing):
        _check_envelope(_prime_of(v.ring), len(v))  # where witt_neg(v) would stop
        return _evaluate("sub", u, v)
    return witt_add(u, witt_neg(v))


def witt_sum(vectors):
    """The sum of one or more vectors: one ghost-engine pass over k, a
    fold of witt_add elsewhere."""
    u = vectors[0]
    if not isinstance(u.ring, FieldRing):
        return functools.reduce(witt_add, vectors)
    _check_envelope(u.ring.params.p, len(u))
    for v in vectors[1:]:
        _check_pair(u, v)
    return _linear(u.ring, [(1, w) for w in vectors])


# -- the ghost engine over k = F_p(t_1..t_d) ---------------------------------
#
# Entry i of u is U_i / D^{p^i} with U_i, D in F_p[t].  Lifting U_i and D
# to Z[T], the m-th ghost component of the lift is G_m / lift(D)^{p^m} with
#
#     G_m = sum_{i <= m} p^i lift(U_i)^{p^(m-i)},
#
# which modulo p^(m+1) does not depend on the lifts (Dwork's lemma; see
# L. Hesselholt, "Lecture notes on Witt vectors", 2005, section 1, and
# L. R. A. Finotti, "Computations with Witt vectors and the Greenberg
# transform", IJNT 10, 2014).  Witt sums and products act on ghost
# components componentwise, so the ghost numerators of a signed sum over a
# shared D are the signed sum of the G_m, and those of u * v over D_u D_v
# are G_m(u) G_m(v).  The result's numerators S_m are peeled back one at
# a time: S_m = (G_m - sum_{i<m} p^i lift(S_i)^{p^(m-i)}) / p^m mod p.


def _linear(ring, signed):
    """The sum of sign * w over the (sign, w) pairs, all over k."""
    params = ring.params
    p, nvars = params.p, params.d
    nums = [_numerators(w) for _, w in signed]
    dens = {Dw for _, Dw in nums if Dw is not None}
    D = poly_lcm(dens, params._one_poly()) if dens else None
    ghosts = None
    for (sign, _), (U, Dw) in zip(signed, nums):
        gs = _ghosts(_rescale(U, Dw, D, p), p, nvars)
        if sign < 0:
            gs = [-g for g in gs]
        ghosts = gs if ghosts is None else [a + b for a, b in zip(ghosts, gs)]
    return _peel(ring, ghosts, D, _den_bounds([w for _, w in signed], D))


def _product(u, v):
    """u * v over k: ghost numerators multiply, over D_u D_v."""
    params = u.ring.params
    p, nvars = params.p, params.d
    (U, Du), (V, Dv) = _numerators(u), _numerators(v)
    ghosts = [a * b for a, b in zip(_ghosts(U, p, nvars), _ghosts(V, p, nvars))]
    bounds = [_times(a, b) for a, b in zip(_den_bounds([u], Du), _den_bounds([v], Dv))]
    return _peel(u.ring, ghosts, _times(Du, Dv), bounds)


def _peel(ring, ghosts, D, bounds):
    """The vector whose ghost numerators over D are ``ghosts``."""
    params = ring.params
    p, nvars = params.p, params.d
    entries = []
    chain = []  # lift(S_i)^{p^(m-i)} modulo p^(m-i+1), as in _ghosts
    den = D  # D^{p^m}
    for m, g in enumerate(ghosts):
        q, scale = p ** (m + 1), p**m
        low = _advance(chain, p, m, nvars).terms
        peeled = {}
        for e in g.terms.keys() | low.keys():
            c = (g.terms.get(e, 0) - low.get(e, 0)) % q
            if c % scale:
                raise InternalError(f"ghost component {m} is not divisible by p^{m}")
            if c:
                peeled[e] = c // scale
        S = SparsePoly(params.domain, nvars, peeled)
        chain.append(S)
        entries.append(_fraction(params, S, den, D, bounds[m]))
        if den is not None:
            den = poly_frobenius(den, p)
    return WittVector(ring, entries)


def _numerators(u):
    """(U, D) with entry i of u equal to U_i / D^{p^i}; D is None when every
    denominator is 1.  D is the lcm of the r_i, where r_i is the p^i-th
    root of entry i's denominator b_i when b_i is a p^i-th power, else b_i;
    either way D^{p^i} / b_i is a polynomial."""
    entries = u.entries
    if all(x.den.is_constant() for x in entries):
        return [x.num for x in entries], None
    p = u.ring.params.p
    roots = [_root(x.den, p**i) for i, x in enumerate(entries)]
    D = poly_lcm([x.den if r is None else r for r, x in zip(roots, entries)],
                 u.ring.params._one_poly())
    U = []
    for i, (x, r) in enumerate(zip(entries, roots)):
        if x.num.is_zero():
            U.append(x.num)
        elif r is not None:
            U.append(x.num * poly_frobenius(exact_div(D, r), p**i))
        else:
            U.append(x.num * exact_div(poly_frobenius(D, p**i), x.den))
    return U, D


def _times(a, b):
    """a * b with None standing for 1."""
    return b if a is None else a if b is None else a * b


def _root(b, q):
    """The q-th root of the F_p polynomial b when every exponent of b is
    divisible by q > 1, else None."""
    if q == 1 or any(a % q for e in b.terms for a in e):
        return None
    return SparsePoly(b.domain, b.nvars, {tuple(a // q for a in e): c for e, c in b.terms.items()})


def _rescale(U, D, new, p):
    """Numerators over D^{p^i} brought over new^{p^i} (D divides new)."""
    if D == new:
        return U
    cofactor = new if D is None else exact_div(new, D)
    return [x * poly_frobenius(cofactor, p**i) for i, x in enumerate(U)]


def _den_bounds(vectors, D):
    """B_m, the lcm of b_i^{p^(m-i)} over the entries i <= m of the vectors
    (b_i the entry's denominator), for each m; None when D is.  Entry m of
    a sum, difference or negative of the vectors is isobaric of weight p^m
    in their entries, so its denominator divides B_m, and B_m divides
    D^{p^m}; in a product each factor contributes its own B_m."""
    if D is None:
        return [None] * len(vectors[0])
    one = SparsePoly.constant(D.domain, D.nvars, D.domain.one)
    B, out = one, []
    for m in range(len(vectors[0])):
        B = poly_lcm([poly_frobenius(B, D.domain.p)] + [w.entries[m].den for w in vectors], one)
        out.append(B)
    return out


def _ghosts(U, p, nvars):
    """G_m modulo p^(m+1) for m < len(U), over Z/p^(m+1)."""
    chain = []
    out = []
    for x in U:
        chain.append(x)
        out.append(_advance(chain, p, len(out), nvars))
    return out


def _advance(chain, p, m, nvars):
    """Step m of a power chain: chain[i] (i < m) holds lift(X_i)^{p^(m-1-i)}
    modulo p^(m-i) and becomes its p-th power modulo p^(m-i+1), which is
    lift(X_i)^{p^(m-i)} whatever the lift (a = b mod p^j gives
    a^p = b^p mod p^(j+1)); chain[m], if present, is X_m over F_p.
    Returns sum_i p^i chain[i] modulo p^(m+1)."""
    q = p ** (m + 1)
    acc = {}
    for i, x in enumerate(chain):
        if not x.terms:
            continue
        if i < m:
            x = chain[i] = SparsePoly(ZmodDomain(p ** (m - i + 1)), x.nvars, x.terms).pow(p)
        scale = p**i
        for e, c in x.terms.items():
            acc[e] = acc.get(e, 0) + c * scale
    terms = {}
    for e, c in acc.items():
        c %= q
        if c:
            terms[e] = c
    return SparsePoly(ZmodDomain(q), nvars, terms)


def _fraction(params, S, den, D, bound):
    """S / den in lowest terms, den = D^{p^m} (None for 1) and ``bound`` a
    multiple of the denominator dividing den.  S loses the factor
    den / bound exactly, and then only bound takes part in the gcd; when
    bound is den, S coprime to D needs no gcd with den, because every
    prime factor of den divides D."""
    if den is None or not S.terms:
        return BaseFieldElem(params, S, params._one_poly(), normalize=False)
    if bound != den:
        return BaseFieldElem(params, exact_div(S, exact_div(den, bound)), bound)
    return BaseFieldElem(params, S, den, normalize=not poly_gcd(S, D).is_constant())


def _prime_of(ring):
    return ring.p if ring.char_p is None else ring.char_p


def ghost(r, w):
    """The r-th ghost component a_0^{p^r} + p a_1^{p^(r-1)} + ... + p^r a_r."""
    if not 0 <= r < len(w):
        raise IndexOutOfRange(f"ghost index {r} outside [0, {len(w) - 1}]")
    ring = w.ring
    p = _prime_of(ring)
    terms = (ring.from_int(p**i) * w[i] ** (p ** (r - i)) for i in range(r + 1))
    return sum(terms, ring.zero())


def verschiebung(w, shifts=1):
    """Prepend zeros: length N becomes N + shifts."""
    return WittVector(w.ring, (w.ring.zero(),) * shifts + w.entries)


def frobenius(w):
    """Over an F_p-algebra: the entrywise p-th power (same length).

    Over other rings the Frobenius polynomials apply and the result is one
    entry shorter, as the top polynomial needs entry N of the input.
    """
    ring = w.ring
    if ring.char_p is not None:
        return WittVector(ring, tuple(ring.pth_power(a) for a in w.entries))
    return _evaluate("frob", w)


def p_times(w):
    """Multiplication by p; over F_p-algebras this is V(F(w)) = the shifted
    entrywise p-th power."""
    ring = w.ring
    if ring.char_p is not None:
        shifted = (ring.zero(),) + tuple(ring.pth_power(a) for a in w.entries[:-1])
        return WittVector(ring, shifted)
    return int_times(_prime_of(ring), w)


def int_times(n, w):
    """n-fold sum of w (binary doubling)."""
    if n < 0:
        return witt_neg(int_times(-n, w))
    acc = witt_zero(w.ring, len(w))
    base = w
    while n:
        if n & 1:
            acc = witt_add(acc, base)
        n >>= 1
        if n:
            base = witt_add(base, base)
    return acc


def vn_decompose(y, N, ring):
    """Write y = sum x_i * y_i^{p^N} with x_i the monomials t^m,
    m in [0, p^N - 1]^d; pairs with y_i = 0 are dropped."""
    params = ring.params
    out = []
    for m, v in sorted(ring.digits_iter(y, N).items()):
        out.append((params.monomial(m), v))
    return out
