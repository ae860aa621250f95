"""Truncated p-typical Witt vectors over any supported coefficient ring.

Every Witt operation runs on ghost components.  Over the integers the
ghost map is injective: `witt_add`, `witt_sub`, `witt_mul`, `witt_neg`,
`witt_sum` and `frobenius` combine the ghost components (`ghost`) of their
operands and peel the result back with one exact division per entry.
Over k = F_p(t_1..t_d), an etale Q = k[y]/(g) and k[z] they run on ghost
components of lifts (the ghost engine below): the entries are put over one
denominator D as F_p numerators in the ring's model variables (the ring
adapters' `fraction`, see rings.py), their ghost components are computed
on lifts to (Z/p^(m+1))[T, ..], added or multiplied componentwise, and the
result's entries are peeled back one position at a time (`from_fraction`).

The universal structure polynomials (`structure_polys`) are built once
per (p, N) by the classical ghost-component recursion over the integers

    S_n = (w_n(x) + w_n(y) - sum_{i<n} p^i S_i^{p^(n-i)}) / p^n,

with every division checked to be exact.  No operation evaluates them;
they are public API and the independent oracle the engine is tested
against (the README lists their term counts).

Envelope.  The largest polynomial is the top sum S_{N-1}, whose terms are
among the monomials of weighted degree p^{N-1} when x_i and y_i weigh p^i;
`monomial_bound(p, N)` counts them.  Building takes time roughly in
proportion to that count (measured: (1009, 2) with 1012 monomials in 1.0 s,
(2, 6) with 23400 in 4.3 s, (3, 5) with 115602 in 38 s), so
`structure_polys` refuses, with ResourceLimit and before building, any
(p, N) whose count exceeds MAX_MONOMIALS = 1200.  Admitted are N = 1 for
every p, N = 2 for p < 1200, N = 3 for p <= 7, N = 4 for p <= 3, and
N = 5 for p = 2.  The operations, `teichmuller` and the integer
`frobenius` keep the same envelope (`_check_envelope`), so every one of
them admits and refuses the same (p, N) over every ring.
"""

import threading

from .errors import IndexOutOfRange, InternalError, LengthMismatch, ResourceLimit
from .polys import (
    ElemDomain,
    SparsePoly,
    ZmodDomain,
    exact_div,
    pad,
    poly_frobenius,
    poly_lcm,
)

_INT = ElemDomain(0, 1)
_cache = {}
_cache_lock = threading.Lock()


class StructurePolys:
    """Universal polynomials for one (p, N): sums, products and negation.
    All live in Z[x_0..x_{N-1}, y_0..y_{N-1}] (variables 0..N-1 are x,
    N..2N-1 are y); negation only involves the x block."""

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

        self.sums, self.prods, self.negs = out = [], [], []
        for n in range(N):
            wx, wy = ghost(x, n), ghost(y, n)
            for polys, w in zip(out, (wx + wy, wx * wy, -wx)):
                for i in range(n):
                    w = w - polys[i].pow(p ** (n - i)).scale(p**i)
                polys.append(_exact_div_int(w, p**n))


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


def _check_pair(u, v):
    if len(u) != len(v):
        raise LengthMismatch(f"Witt lengths {len(u)} and {len(v)} differ")
    if u.ring != v.ring:
        raise LengthMismatch("Witt vectors over different rings")


def witt_add(u, v):
    return _linear([(1, u), (1, v)])


def witt_mul(u, v):
    ring = u.ring
    _check_envelope(_prime_of(ring), len(u))
    _check_pair(u, v)
    if ring.char_p is None:
        return _int_peel(ring, [ghost(n, u) * ghost(n, v) for n in range(len(u))])
    return _product(u, v)


def witt_neg(u):
    return _linear([(-1, u)])


def witt_sub(u, *vs):
    """u minus every v, in one pass."""
    for v in vs:  # the records of witt_add(u, witt_neg(v))
        _check_envelope(_prime_of(v.ring), len(v))
    return _linear([(1, u)] + [(-1, v) for v in vs])


def witt_sum(vectors):
    """The sum of one or more vectors, in one pass."""
    return _linear([(1, w) for w in vectors])


def _linear(signed):
    """The sum of sign * w over the (sign, w) pairs, in the envelope of
    the first vector's (p, N)."""
    u = signed[0][1]
    ring, N = u.ring, len(u)
    _check_envelope(_prime_of(ring), N)
    for _, v in signed[1:]:
        _check_pair(u, v)
    if ring.char_p is None:
        return _int_peel(ring, [sum(s * ghost(n, w) for s, w in signed) for n in range(N)])
    nums = [_numerators(w) for _, w in signed]
    D = poly_lcm([Dw for _, Dw, _ in nums], ring.params._one_poly())
    ghosts = None
    for (sign, _), (U, Dw, _) in zip(signed, nums):
        gs = _ghosts(ring, _rescale(ring, U, Dw, D))
        if sign < 0:
            gs = [-g for g in gs]
        ghosts = gs if ghosts is None else [a + b for a, b in zip(ghosts, gs)]
    return _peel(ring, ghosts, D, _den_bounds([b for _, _, b in nums], D))


def _int_peel(ring, ghosts):
    """The integer vector with the given ghost components: the ghost map
    is injective over Z, and every division below is exact."""
    p, entries = ring.p, []
    for n, g in enumerate(ghosts):
        low = sum(p**i * x ** (p ** (n - i)) for i, x in enumerate(entries))
        s, r = divmod(g - low, p**n)
        if r:
            raise InternalError(f"ghost component {n} is not divisible by p^{n}")
        entries.append(s)
    return WittVector(ring, entries)


# -- the ghost engine over k, etale Q and k[z] -------------------------------
#
# Entry i of u is U_i / D^{p^i} with D in F_p[t] and U_i an F_p numerator
# in the ring's model variables (`fraction`).  Lifting U_i and D to
# Z[T, ..], the m-th ghost component of the lift is G_m / lift(D)^{p^m}
# with
#
#     G_m = sum_{i <= m} p^i lift(U_i)^{p^(m-i)},
#
# which modulo p^(m+1) does not depend on the lifts (Dwork's lemma; see
# L. Hesselholt, "Lecture notes on Witt vectors", 2005, section 1, and
# L. R. A. Finotti, "Computations with Witt vectors and the Greenberg
# transform", IJNT 10, 2014).  Over Q the lifts live in (Z/p^(m+1))[T, Y]
# modulo G, the lift of g' (`reduce_model`), a p-torsion-free presentation
# of the same ghost ring.  Witt sums and products act on ghost components
# componentwise, so the ghost numerators of a signed sum over a shared D
# are the signed sum of the G_m, and those of u * v over D_u D_v are
# G_m(u) G_m(v).  The result's numerators S_m are peeled back one at a
# time: S_m = (G_m - sum_{i<m} p^i lift(S_i)^{p^(m-i)}) / p^m mod p.


def _product(u, v):
    """u * v: ghost numerators multiply, over D_u D_v."""
    ring = u.ring
    (U, Du, bu), (V, Dv, bv) = _numerators(u), _numerators(v)
    ghosts = [ring.reduce_model(a * b) for a, b in zip(_ghosts(ring, U), _ghosts(ring, V))]
    bounds = [a * b for a, b in zip(_den_bounds([bu], Du), _den_bounds([bv], Dv))]
    return _peel(ring, ghosts, Du * Dv, bounds)


def _peel(ring, ghosts, D, bounds):
    """The vector whose ghost numerators over D are ``ghosts``."""
    p, fp = ring.char_p, ring.params.domain
    entries = []
    chain = []  # lift(S_i)^{p^(m-i)} modulo p^(m-i+1), as in _ghosts
    den = D  # D^{p^m}
    for m, g in enumerate(ghosts):
        q, scale = p ** (m + 1), p**m
        low = _advance(ring, chain, m).terms
        peeled = {}
        for e in g.terms.keys() | low.keys():
            c = (g.terms.get(e, 0) - low.get(e, 0)) % q
            if c % scale:
                raise InternalError(f"ghost component {m} is not divisible by p^{m}")
            if c:
                peeled[e] = c // scale
        S = SparsePoly(fp, ring.model_nvars, peeled)
        chain.append(S)
        entries.append(_fraction(ring, S, den, D, bounds[m]))
        den = poly_frobenius(den, p)
    return WittVector(ring, entries)


def _numerators(u):
    """(U, D, b): entry i of u is U_i / D^{p^i}, and b_i is the denominator
    of its `fraction`.  D is the lcm of the r_i, where r_i is the p^i-th
    root of b_i when b_i is a p^i-th power, else b_i; either way
    D^{p^i} / b_i is a polynomial, and D is 1 when every b_i is."""
    ring = u.ring
    fracs = [ring.fraction(x) for x in u.entries]
    dens = [b for _, b in fracs]
    if all(b.is_constant() for b in dens):
        return [a for a, _ in fracs], ring.params._one_poly(), dens
    p, nvars = ring.char_p, ring.model_nvars
    roots = [_root(b, p**i) for i, b in enumerate(dens)]
    D = poly_lcm([b if r is None else r for r, b in zip(roots, dens)], ring.params._one_poly())
    U = []
    for i, ((a, b), r) in enumerate(zip(fracs, roots)):
        if a.is_zero():
            U.append(a)
        elif r is not None:
            U.append(a * pad(poly_frobenius(exact_div(D, r), p**i), nvars))
        else:
            U.append(a * pad(exact_div(poly_frobenius(D, p**i), b), nvars))
    return U, D, dens


def _root(b, q):
    """The q-th root of the F_p polynomial b when every exponent of b is
    divisible by q > 1, else None."""
    if q == 1 or any(a % q for e in b.terms for a in e):
        return None
    return SparsePoly(b.domain, b.nvars, {tuple(a // q for a in e): c for e, c in b.terms.items()})


def _rescale(ring, U, D, new):
    """Numerators over D^{p^i} brought over new^{p^i} (D divides new)."""
    if D == new:
        return U
    cofactor = exact_div(new, D)
    return [x * pad(poly_frobenius(cofactor, ring.char_p**i), ring.model_nvars)
            for i, x in enumerate(U)]


def _den_bounds(dens, D):
    """B_m, the lcm of b_i^{p^(m-i)} over the entries i <= m of the vectors
    whose entry denominators b_i are listed in ``dens``, for each m.
    Entry m of a sum, difference or negative of the vectors is isobaric of
    weight p^m in their entries, so its denominator divides B_m, and B_m
    divides D^{p^m}; in a product each factor contributes its own B_m."""
    one = SparsePoly.constant(D.domain, D.nvars, D.domain.one)
    B, out = one, []
    for m in range(len(dens[0])):
        B = poly_lcm([poly_frobenius(B, D.domain.p)] + [b[m] for b in dens], one)
        out.append(B)
    return out


def _ghosts(ring, U):
    """G_m modulo p^(m+1) for m < len(U), over Z/p^(m+1)."""
    chain = []
    out = []
    for x in U:
        chain.append(x)
        out.append(_advance(ring, chain, len(out)))
    return out


def _advance(ring, chain, m):
    """Step m of a power chain: chain[i] (i < m) holds lift(X_i)^{p^(m-1-i)}
    modulo p^(m-i) and becomes its p-th power modulo p^(m-i+1), which is
    lift(X_i)^{p^(m-i)} whatever the lift (a = b mod p^j gives
    a^p = b^p mod p^(j+1)), reduced by `reduce_model`; chain[m], if
    present, is X_m over F_p.  Returns sum_i p^i chain[i] modulo p^(m+1)."""
    p = ring.char_p
    q = p ** (m + 1)
    acc = {}
    for i, x in enumerate(chain):
        if not x.terms:
            continue
        if i < m:
            x = SparsePoly(ZmodDomain(p ** (m - i + 1)), x.nvars, x.terms).pow(p)
            x = chain[i] = ring.reduce_model(x)
        scale = p**i
        for e, c in x.terms.items():
            acc[e] = acc.get(e, 0) + c * scale
    terms = {}
    for e, c in acc.items():
        c %= q
        if c:
            terms[e] = c
    return SparsePoly(ZmodDomain(q), ring.model_nvars, terms)


def _fraction(ring, S, den, D, bound):
    """S / den as an entry, den = D^{p^m} and ``bound`` a multiple of the
    entry's denominator dividing den.  S loses the factor den / bound
    exactly, and then only bound takes part in the gcds; when bound is
    den, a coefficient coprime to D needs no gcd with den, because every
    prime factor of den divides D."""
    if bound != den and S.terms:
        return ring.from_fraction(exact_div(S, pad(exact_div(den, bound), S.nvars)), bound)
    return ring.from_fraction(S, den, root=D)


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

    Over the integers the result is one entry shorter: its ghost
    components are those of w shifted down by one, and the top one needs
    entry N of the input.
    """
    ring = w.ring
    if ring.char_p is not None:
        return WittVector(ring, tuple(ring.pth_power(a) for a in w.entries))
    _check_envelope(ring.p, len(w))
    return _int_peel(ring, [ghost(n, w) for n in range(1, len(w))])


def p_times(w):
    """Multiplication by p; over F_p-algebras this is V(F(w)) = the shifted
    entrywise p-th power, over the integers the ghost components times p."""
    ring = w.ring
    if ring.char_p is not None:
        shifted = (ring.zero(),) + tuple(ring.pth_power(a) for a in w.entries[:-1])
        return WittVector(ring, shifted)
    _check_envelope(ring.p, len(w))
    return _int_peel(ring, [ring.p * ghost(n, w) for n in range(len(w))])
