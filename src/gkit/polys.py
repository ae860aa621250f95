"""Sparse multivariate polynomials over a pluggable coefficient domain.

A polynomial is a dict mapping exponent tuples (one entry per variable) to
nonzero coefficients.  The same core drives three instantiations:

* ``FpDomain`` -- coefficients in the prime field F_p (ints in [0, p)),
* ``ZmodDomain`` -- coefficients in Z/p^k (the Cohen-ring model over k and
  the ghost components of Witt vectors over k),
* ``ElemDomain`` -- coefficients given by Python objects with arithmetic
  dunders: plain ints (``ElemDomain(0, 1)``, the universal Witt structure
  polynomials), rational function fields, etale algebras, and the base
  rings of scheme equations and of E; division needs a field.

``format_sym_poly`` is the one printer, also for the numerators and
denominators of elements of k.

Over F_p, ``poly_gcd`` and ``exact_div`` keep fractions in k in lowest
terms.  Both work on recursive dense lists, one level per variable their
operands involve, for every number of variables, and both work in x^m
rather than x where the operands are polynomials in x^m.

Monomial order is graded lexicographic throughout: compare total degree,
then the exponent tuple.
"""

import operator
import sys
from array import array
from itertools import chain
from math import gcd

from .errors import InternalError, ResourceLimit, TypeMismatch


class ZmodDomain:
    """Arithmetic of Z/q on plain ints reduced to [0, q)."""

    def __init__(self, q):
        self.q = q
        self.zero = 0
        self.one = 1 % q

    def add(self, a, b):
        return (a + b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def is_zero(self, a):
        return a % self.q == 0

    def eq(self, a, b):
        return (a - b) % self.q == 0

    def __eq__(self, other):
        return type(other) is type(self) and other.q == self.q

    def __hash__(self):
        return hash((type(self).__name__, self.q))


class FpDomain(ZmodDomain):
    """The prime field F_p: Z/p with inverses, gcds and exact division."""

    def __init__(self, p):
        super().__init__(p)
        self.p = p

    def inv(self, a):
        if a % self.p == 0:
            raise InternalError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)


class ElemDomain:
    """Coefficients taken from exact ring objects (dunder arithmetic);
    ``inv`` needs a field."""

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def is_zero(self, a):
        return a == self.zero

    def eq(self, a, b):
        return a == b

    def __eq__(self, other):
        return isinstance(other, ElemDomain) and other.zero == self.zero

    def __hash__(self):
        return hash("ElemDomain")


def grlex_key(exps):
    return (sum(exps), exps)


class SparsePoly:
    __slots__ = ("domain", "nvars", "terms")

    def __init__(self, domain, nvars, terms):
        self.domain = domain
        self.nvars = nvars
        self.terms = terms  # exponent tuple -> nonzero coefficient

    @classmethod
    def zero(cls, domain, nvars):
        return cls(domain, nvars, {})

    @classmethod
    def constant(cls, domain, nvars, c):
        if domain.is_zero(c):
            return cls(domain, nvars, {})
        return cls(domain, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, domain, nvars, index, exp=1):
        e = [0] * nvars
        e[index] = exp
        return cls(domain, nvars, {tuple(e): domain.one})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and (0,) * self.nvars in terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, self.domain.zero)

    def degree_in(self, v):
        return max((e[v] for e in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __add__(self, other):
        dom, other_dom = self.domain, other.domain
        if other_dom is not dom and isinstance(dom, ZmodDomain) \
                and isinstance(other_dom, ZmodDomain) and dom.q != other_dom.q:
            raise TypeMismatch(f"polynomials over Z/{dom.q} and Z/{other_dom.q}")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            prev = terms.get(e)
            s = dom.add(prev, c) if prev is not None else c
            if dom.is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
        return SparsePoly(dom, self.nvars, terms)

    def __neg__(self):
        dom = self.domain
        return SparsePoly(dom, self.nvars, {e: dom.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul(self, other, cap=None):
        dom = self.domain
        if not self.terms or not other.terms:
            return SparsePoly(dom, self.nvars, {})
        if cap is None and isinstance(dom, ZmodDomain) and len(self.terms) + len(other.terms) > 16:
            active = _active_vars(self) | _active_vars(other)
            if len(active) == 1:
                (v,) = active
                da, db = self.degree_in(v), other.degree_in(v)
                if da + db <= 8 * (len(self.terms) + len(other.terms)):
                    out = _dense_mul(_to_dense(self, v), _to_dense(other, v), dom.q)
                    return _from_dense(out, dom, self.nvars, v)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if isinstance(dom, ZmodDomain):
            if len(b) == 1:
                return SparsePoly(dom, self.nvars, _monomial_mul(a, b, dom.q, cap))
            return SparsePoly(dom, self.nvars, _int_mul(a, b, dom.q, self.nvars, cap))
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = dom.mul(c1, c2)
                prev = terms.get(e)
                s = dom.add(prev, c) if prev is not None else c
                if dom.is_zero(s):
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return SparsePoly(dom, self.nvars, terms)

    def __mul__(self, other):
        return self.mul(other)

    def scale(self, c):
        dom = self.domain
        if dom.is_zero(c):
            return SparsePoly(dom, self.nvars, {})
        return SparsePoly(dom, self.nvars, {e: dom.mul(k, c) for e, k in self.terms.items()})

    def pow(self, n, cap=None):
        if n < 0:
            raise InternalError("negative polynomial power")
        if cap is not None and n and len(self.terms) > cap:
            raise ResourceLimit(f"intermediate polynomial exceeded {cap} monomials")
        if n and len(self.terms) == 1 and isinstance(self.domain, ZmodDomain):
            # (c T^e)^n = c^n T^(n e): one pass, no cap to meet past the one term
            ((e, c),) = self.terms.items()
            c = pow(c, n, self.domain.q)
            return SparsePoly(self.domain, self.nvars, {tuple(a * n for a in e): c} if c else {})
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result.mul(base, cap=cap)
            n >>= 1
            if n:
                base = base.mul(base, cap=cap)
        if result is None:
            return SparsePoly.constant(self.domain, self.nvars, self.domain.one)
        return result

    def __pow__(self, n):
        return self.pow(n)

    def leading(self):
        """Leading (exponent, coefficient) in graded-lex order."""
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def map_coeffs(self, fn):
        dom = self.domain
        terms = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not dom.is_zero(v):
                terms[e] = v
        return SparsePoly(dom, self.nvars, terms)

    def substitute(self, mapping):
        """Substitute whole polynomials for variables.

        ``mapping`` maps a variable index to a SparsePoly over the same
        domain; unmapped variables stay themselves.
        """
        dom, n = self.domain, self.nvars
        values = [mapping[v] if v in mapping else SparsePoly.variable(dom, n, v) for v in range(n)]
        return eval_terms(self.terms, values, lambda c: SparsePoly.constant(dom, n, c), dom.zero)


def _int_mul(a, b, q, nvars, cap=None):
    """Product of two terms mappings with int coefficients mod q: sum the
    raw products first, reduce once at the end.  With a cap, the monomials
    seen so far are counted after each row of a."""
    acc = {}
    get = acc.get
    for e1, c1 in a.items():
        if nvars == 1:
            (x1,) = e1
            for (e2,), c2 in b.items():
                e = (x1 + e2,)
                acc[e] = get(e, 0) + c1 * c2
        else:
            for e2, c2 in b.items():
                e = tuple(map(operator.add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        if cap is not None and len(acc) > cap:
            raise ResourceLimit(f"intermediate polynomial exceeded {cap} monomials")
    terms = {}
    for e, c in acc.items():
        c %= q
        if c:
            terms[e] = c
    return terms


def _monomial_mul(a, b, q, cap=None):
    """`_int_mul` when b has one term: every term of a shifts by the same
    monomial, so no exponents collide and the cap trips iff a exceeds it."""
    if cap is not None and len(a) > cap:
        raise ResourceLimit(f"intermediate polynomial exceeded {cap} monomials")
    ((e2, c2),) = b.items()
    terms = {}
    if len(e2) == 1:
        (s,) = e2
        for (x,), c1 in a.items():
            c = c1 * c2 % q
            if c:
                terms[(x + s,)] = c
        return terms
    for e1, c1 in a.items():
        c = c1 * c2 % q
        if c:
            terms[tuple(map(operator.add, e1, e2))] = c
    return terms


def eval_terms(terms, values, embed, zero):
    """Evaluate a terms mapping (exponent tuple -> coefficient) at ring
    elements with dunder arithmetic; ``embed`` carries each coefficient
    into the ring of the values, and each power is computed once per call.
    A term with a positive exponent on a zero value is zero, so it is
    skipped.  The empty sum evaluates to ``embed(zero)``."""
    zero = embed(zero)
    zeros = [v for v, x in enumerate(values) if x == zero]
    powers = {}
    acc = None
    for exps in sorted(terms):
        if any(exps[v] for v in zeros):
            continue
        term = embed(terms[exps])
        for v, e in enumerate(exps):
            if e:
                power = powers.get((v, e))
                if power is None:
                    power = powers[v, e] = values[v] ** e
                term = term * power
        acc = term if acc is None else acc + term
    return zero if acc is None else acc


def format_sym_poly(poly, symbols):
    """Terms in decreasing graded-lex order; a coefficient other than 1
    leads its term, in parentheses when it is a sum or a fraction."""
    if poly.is_zero():
        return "0"
    parts = []
    for exps, c in poly.sorted_terms():
        factors = []
        cs = str(c)
        if cs != "1" or all(e == 0 for e in exps):
            if "+" in cs or "-" in cs[1:] or "/" in cs:
                cs = f"({cs})"
            factors.append(cs)
        for name, e in zip(symbols, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# F_p-specific helpers: exact division, gcd, p-th roots.
#
# Fractions over F_p(t_1..t_d) drive everything.  Products in one variable
# take a dense integer-list fast path, and gcds and exact quotients run on
# recursive dense lists built from it, for every d.
# ---------------------------------------------------------------------------


def _active_vars(f):
    out = set()
    for exps in f.terms:
        for v, e in enumerate(exps):
            if e:
                out.add(v)
    return out


def _to_dense(f, v):
    deg = f.degree_in(v)
    out = [0] * (deg + 1)
    for exps, c in f.terms.items():
        out[exps[v]] = c
    return out


def _from_dense(coeffs, domain, nvars, v):
    terms = {}
    base = [0] * nvars
    for i, c in enumerate(coeffs):
        if c:
            e = list(base)
            e[v] = i
            terms[tuple(e)] = c
    return SparsePoly(domain, nvars, terms)


def _dense_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


# array typecodes by slot width in bytes; the sizes are the C types' on
# every platform CPython supports, asserted here rather than assumed
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
assert all(array(c).itemsize == w for w, c in _SLOT_CODES.items())


def _dense_mul(a, b, q):
    """Univariate product via Kronecker substitution: pack coefficients
    into one big integer each, multiply once, unpack mod q (prime or not).
    A slot holds the largest coefficient sum, (q-1)^2 times the shorter
    length.  Slots of at most 8 bytes are rounded up to a machine word
    and packed through an array; wider slots go coefficient by
    coefficient."""
    w = (((q - 1) ** 2 * min(len(a), len(b))).bit_length() + 7) // 8
    n = len(a) + len(b) - 1
    if w <= 8:
        w = next(s for s in _SLOT_CODES if s >= w)
        code = _SLOT_CODES[w]
        pa = int.from_bytes(_native(array(code, a)).tobytes(), "little")
        pb = int.from_bytes(_native(array(code, b)).tobytes(), "little")
        out = array(code)
        out.frombytes((pa * pb).to_bytes(w * (n + 1), "little"))
        return _dense_trim([c % q for c in _native(out)[:n]])
    pa = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in b), "little")
    raw = (pa * pb).to_bytes(w * (n + 1), "little")
    return _dense_trim([int.from_bytes(raw[i * w : (i + 1) * w], "little") % q
                        for i in range(n)])


def _native(arr):
    """Swap an array between little-endian and this machine's byte order."""
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def _dense_divmod(a, b, p):
    """Long division by b over F_p.  Entries of a are reduced only when a
    quotient digit reads them; in between they grow by at most p^2 per
    row, so the row update is one list expression."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[db], p - 2, p)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            q = c * inv % p
            quot[i - db] = q
            lo = i - db
            a[lo : i + 1] = [x - q * y for x, y in zip(a[lo : i + 1], b)]
    return quot, _dense_trim([c % p for c in a[:db]])


def _dense_gcd(a, b, p):
    a, b = _dense_trim([c % p for c in a]), _dense_trim([c % p for c in b])
    while b:
        a, b = b, _dense_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def poly_frobenius(f, q):
    """f^q for an F_p polynomial f and a power q of p: the coefficients
    are their own p-th powers, so only the exponents scale."""
    return SparsePoly(f.domain, f.nvars, {tuple(a * q for a in e): c for e, c in f.terms.items()})


def monic(f):
    """Scale so the graded-lex leading coefficient is 1."""
    if f.is_zero():
        return f
    _, lc = f.leading()
    if f.domain.eq(lc, f.domain.one):
        return f
    return f.scale(f.domain.inv(lc))


# Recursive dense polynomials over F_p, for gcds and exact division.  A
# level-0 element is an int in [0, p); a level-1 element is a trimmed int
# list indexed by degree, as in the dense helpers above; a level-j element
# is a trimmed list of level-(j-1) elements indexed by the degree in the
# j-th active variable.  Zero is [] at every level from 1 up.


def _rd_in(f, vs):
    """f at level len(vs), over the active variables vs (ascending, so the
    highest is outermost)."""
    if len(vs) == 1:
        return _to_dense(f, vs[0])
    groups = {}
    for e, c in f.terms.items():
        groups.setdefault(e[vs[-1]], {})[e] = c
    out = [[]] * (max(groups) + 1)
    for i, terms in groups.items():
        out[i] = _rd_in(SparsePoly(f.domain, f.nvars, terms), vs[:-1])
    return out


def _rd_out(a, vs, domain, nvars):
    """The SparsePoly of a level-len(vs) element; inverse of ``_rd_in``."""
    if len(vs) == 1:
        return _from_dense(a, domain, nvars, vs[0])
    v = vs[-1]
    terms = {}
    for i, x in enumerate(a):
        if x:
            for e, c in _rd_out(x, vs[:-1], domain, nvars).terms.items():
                terms[e[:v] + (i,) + e[v + 1 :]] = c
    return SparsePoly(domain, nvars, terms)


def _rd_is_const(a, k):
    """Whether a nonzero level-k element is a constant."""
    for _ in range(k):
        if len(a) != 1:
            return False
        a = a[0]
    return True


def _rd_add(a, b, k, p, sign=1):
    """a + sign*b at level k."""
    if not b:
        return a
    if len(a) < len(b):
        a = a + [0 if k == 1 else []] * (len(b) - len(a))
    if k == 1:
        out = [(x + sign * y) % p for x, y in zip(a, b)]
    else:
        out = [_rd_add(x, y, k - 1, p, sign) for x, y in zip(a, b)]
    return _dense_trim(out + a[len(b) :])


def _rd_mul(a, b, k, p):
    """a * b at level k: schoolbook, but packed (``_dense_mul``) at level 1
    once the length product passes 32, where packing starts to pay (both
    about 3.6 us at 4 x 8 over F_3, CPython 3.11 on x86-64)."""
    if not a or not b:
        return []
    if k == 1:
        if len(a) * len(b) > 32:
            return _dense_mul(a, b, p)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return [c % p for c in out]
    out = [[]] * (len(a) + len(b) - 1)
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                out[i + j] = _rd_add(out[i + j], _rd_mul(x, y, k - 1, p), k - 1, p)
    return out


def _rd_div(a, b, k, p):
    """a / b at level k when the division is exact (b nonzero)."""
    if k == 1:
        quot, rem = _dense_divmod(a, b, p)
        if rem:
            raise InternalError("inexact polynomial division")
        return quot
    a = list(a)
    db = len(b) - 1
    quot = [[]] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            q = quot[i - db] = _rd_div(a[i], b[db], k - 1, p)
            for j in range(db):
                a[i - db + j] = _rd_add(a[i - db + j], _rd_mul(q, b[j], k - 1, p), k - 1, p, -1)
    if any(a[:db]):
        raise InternalError("inexact polynomial division")
    return quot


def _rd_primitive(a, k, p):
    """(content, primitive part) of a nonzero level-k element, k >= 2; the
    content is the gcd of its level-(k-1) coefficients, None when one of
    them is a constant."""
    coeffs = [x for x in a if x]
    if any(_rd_is_const(x, k - 1) for x in coeffs):
        return None, a
    c = coeffs[0]
    for x in coeffs[1:]:
        c = _rd_gcd(c, x, k - 1, p)
        if _rd_is_const(c, k - 1):
            return None, a
    return c, [_rd_div(x, c, k - 1, p) for x in a]


def _rd_prem(a, b, k, p):
    """Pseudo-remainder of a by b at level k, deg a >= deg b >= 1: the
    remainder of lc(b)^(deg a - deg b + 1) * a, with no division."""
    lb, db = b[-1], len(b) - 1
    a = list(a)
    while len(a) > db:
        la = a.pop()
        s = len(a) - db
        a = [_rd_mul(x, lb, k - 1, p) for x in a]
        for j in range(db):
            a[s + j] = _rd_add(a[s + j], _rd_mul(la, b[j], k - 1, p), k - 1, p, -1)
        _dense_trim(a)
    return a


def _rd_gcd(a, b, k, p):
    """A gcd of two nonzero level-k elements, up to a constant factor:
    Euclid at level 1; above it the primitive pseudo-remainder sequence in
    the outermost variable (W. S. Brown, J. ACM 18, 1971), times the gcd
    of the contents."""
    if k == 1:
        return _dense_gcd(a, b, p)
    ca, a = _rd_primitive(a, k, p)
    cb, b = _rd_primitive(b, k, p)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _rd_prem(a, b, k, p)
        a, b = b, r and _rd_primitive(r, k, p)[1]
    # a nonzero b is free of the variable, so a constant once primitive:
    # the primitive parts are coprime
    head = b or a
    if ca is None or cb is None:
        return head
    c = _rd_gcd(ca, cb, k - 1, p)
    return [_rd_mul(c, x, k - 1, p) for x in head]


def _exponent_gcd(f, g, v):
    """The gcd of the exponents of variable v in f and g."""
    m = 0
    for e in chain(f.terms, g.terms):
        m = gcd(m, e[v])
        if m == 1:
            break
    return m


def _rescale(f, ms, op):
    """f with each exponent of variable v replaced by op(e, ms[v])."""
    return SparsePoly(f.domain, f.nvars, {tuple(map(op, e, ms)): c for e, c in f.terms.items()})


def _on_dense(op, f, g):
    """op (``_rd_div`` or ``_rd_gcd``) on nonconstant F_p polynomials f, g:
    both go once into recursive dense form over the variables either
    involves, and the result comes back once.  Where every exponent of a
    variable x in f and g is a multiple of m (p-th powers have m = p), x^m
    is taken as the variable, so the lists are m times shorter in it; a
    quotient or gcd of polynomials in x^m is one in x^m."""
    dom, n = f.domain, f.nvars
    vs = [0] if n == 1 else sorted(_active_vars(f) | _active_vars(g))
    ms = [1] * n
    for v in vs:
        ms[v] = _exponent_gcd(f, g, v)
    deflated = max(ms) > 1
    if deflated:
        f, g = _rescale(f, ms, operator.floordiv), _rescale(g, ms, operator.floordiv)
    h = _rd_out(op(_rd_in(f, vs), _rd_in(g, vs), len(vs), dom.p), vs, dom, n)
    return _rescale(h, ms, operator.mul) if deflated else h


def exact_div(f, g):
    """Quotient f/g over F_p when the division is exact, InternalError when
    it is not; ``_rd_div`` divides level by level (see ``_on_dense``)."""
    if g.is_zero():
        raise InternalError("exact division by zero polynomial")
    if g.is_constant():
        return f.scale(f.domain.inv(g.constant_value()))
    if f.is_zero():
        return f
    return _on_dense(_rd_div, f, g)


def poly_gcd(f, g):
    """GCD over F_p[x_1..x_d], normalized to leading coefficient 1:
    ``_rd_gcd`` (Euclid for one variable, the primitive pseudo-remainder
    sequence for more) on the dense forms of ``_on_dense``."""
    if f.is_zero():
        return monic(g)
    if g.is_zero():
        return monic(f)
    if f.is_constant() or g.is_constant():
        return SparsePoly.constant(f.domain, f.nvars, f.domain.one)
    return monic(_on_dense(_rd_gcd, f, g))


# ---------------------------------------------------------------------------
# Lifts from F_p to Z/q: the Cohen model, base-ring components and the Witt
# ghost engine share these.
# ---------------------------------------------------------------------------


def pad(poly, nvars):
    """poly in ``nvars`` variables, the trailing ones absent (poly itself
    when it has that many)."""
    if poly.nvars == nvars:
        return poly
    zeros = (0,) * (nvars - poly.nvars)
    return SparsePoly(poly.domain, nvars, {x + zeros: c for x, c in poly.terms.items()})


def lift_power(poly, dom, e, nvars=None, cap=None):
    """An F_p polynomial read coefficientwise over ``dom`` in ``nvars``
    variables (the trailing ones, the symbols, absent), to the e-th power.
    Without padding the terms mapping is shared, not copied."""
    poly = pad(poly, nvars or poly.nvars)
    return SparsePoly(dom, poly.nvars, poly.terms).pow(e, cap=cap)


def shift(poly, i, scale):
    """scale * T^i * poly, i padded with zeros (i = () only scales)."""
    q = poly.domain.q
    i = tuple(i) + (0,) * (poly.nvars - len(i))
    terms = {}
    for e, c in poly.terms.items():
        c = c * scale % q
        if c:
            terms[tuple(a + b for a, b in zip(e, i))] = c
    return SparsePoly(poly.domain, poly.nvars, terms)


def reduce_coeffs(poly, dom):
    """poly with its coefficients reduced into ``dom`` (Z/q, q dividing
    the modulus of poly)."""
    terms = {}
    for e, c in poly.terms.items():
        c %= dom.q
        if c:
            terms[e] = c
    return SparsePoly(dom, poly.nvars, terms)


def div_p(poly, p, message):
    """poly / p over Z/(q/p); InternalError with ``message`` when a
    coefficient is not divisible by p."""
    q = poly.domain.q // p
    terms = {}
    for e, c in poly.terms.items():
        if c % p:
            raise InternalError(message)
        terms[e] = c // p
    return SparsePoly(ZmodDomain(q), poly.nvars, terms)


def poly_lcm(polys, one):
    """The lcm of F_p polynomials of leading coefficient 1 (constants are
    skipped)."""
    out = one
    for b in set(polys):
        if not b.is_constant():
            out = out * exact_div(b, poly_gcd(out, b))
    return out
