"""Truncated p-typical Witt vectors over any supported coefficient ring.

Arithmetic is driven by the universal structure polynomials, built once per
(p, N) by the classical ghost-component recursion over the integers

    S_n = (w_n(x) + w_n(y) - sum_{i<n} p^i S_i^{p^(n-i)}) / p^n,

with every division checked to be exact.  Over the integers the ghost maps
are injective, which makes them an independent oracle for the construction;
over F_p-algebras the mod-p reductions of the same polynomials are used
(they are much smaller).  Every op evaluates them with the one polynomial
evaluator, `polys.eval_terms`, which skips a term with a positive exponent
on a zero entry.

Sizes grow quickly with N: keep N <= 4 for p = 2 and N <= 3 for p = 3.
Measured term counts of the full integer polynomials:

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
N = 5 for p = 2.
"""

import threading

from .errors import IndexOutOfRange, InternalError, LengthMismatch, ResourceLimit
from .polys import IntDomain, SparsePoly, eval_terms

_INT = IntDomain()
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
        return all(self.ring.eq(a, b) for a, b in zip(self.entries, other.entries))

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
    """The multiplicative representative (x, 0, .., 0)."""
    return WittVector(ring, (x,) + (ring.zero(),) * (N - 1))


def _evaluate(which, u, v=None):
    """Structure polynomials ``which`` (0 sums, 1 products, 2 negation,
    3 Frobenius) at the entries of u and v (zeros when v is absent); over an
    F_p-algebra their reductions mod p."""
    ring = u.ring
    sp = structure_polys(_prime_of(ring), len(u))
    if v is None:
        v = witt_zero(ring, len(u))
    elif len(u) != len(v):
        raise LengthMismatch(f"Witt lengths {len(u)} and {len(v)} differ")
    elif ring != v.ring:
        raise LengthMismatch("Witt vectors over different rings")
    if ring.char_p is not None:
        polys = sp.reduced_mod_p()[which]
    else:
        polys = (sp.sums, sp.prods, sp.negs, sp.frobs)[which]
    values = u.entries + v.entries
    return WittVector(ring, tuple(eval_terms(q.terms, values, ring.from_int, 0) for q in polys))


def witt_add(u, v):
    return _evaluate(0, u, v)


def witt_mul(u, v):
    return _evaluate(1, u, v)


def witt_neg(u):
    return _evaluate(2, u)


def witt_sub(u, v):
    return witt_add(u, witt_neg(v))


def _prime_of(ring):
    return ring.p if ring.char_p is None else ring.char_p


def ghost(r, w):
    """The r-th ghost component a_0^{p^r} + p a_1^{p^(r-1)} + ... + p^r a_r."""
    if not 0 <= r < len(w):
        raise IndexOutOfRange(f"ghost index {r} outside [0, {len(w) - 1}]")
    ring = w.ring
    p = _prime_of(ring)
    acc = ring.zero()
    for i in range(r + 1):
        term = ring.mul(ring.from_int(p**i), ring.pow(w[i], p ** (r - i)))
        acc = ring.add(acc, term)
    return acc


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
    return _evaluate(3, w)


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
