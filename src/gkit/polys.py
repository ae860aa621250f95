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

Monomial order is graded lexicographic throughout: compare total degree,
then the exponent tuple.
"""

import heapq
import operator
import sys
from array import array

from .errors import InternalError, ResourceLimit


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


def _grlex_desc(exps):
    """A heap item that orders exponent tuples by decreasing graded-lex
    key; the tuple itself rides along."""
    return (-sum(exps), tuple(-a for a in exps), exps)


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
        dom = self.domain
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
        if isinstance(dom, ZmodDomain) and (len(self.terms) + len(other.terms)) > 16:
            ok, v = _single_var(self, other)
            if ok and v is not None:
                da, db = self.degree_in(v), other.degree_in(v)
                if da + db <= 8 * (len(self.terms) + len(other.terms)):
                    out = _dense_mul(_to_dense(self, v), _to_dense(other, v), dom.q)
                    return _from_dense(out, dom, self.nvars, v)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if isinstance(dom, ZmodDomain):
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
        one = SparsePoly.constant(self.domain, self.nvars, self.domain.one)
        if cap is not None and n and len(self.terms) > cap:
            raise ResourceLimit(f"intermediate polynomial exceeded {cap} monomials")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result.mul(base, cap=cap)
            n >>= 1
            if n:
                base = base.mul(base, cap=cap)
        return one if result is None else result

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
        dom = self.domain
        out = SparsePoly.zero(dom, self.nvars)
        power_cache = {}
        for exps, c in self.sorted_terms():
            factor = SparsePoly.constant(dom, self.nvars, c)
            for v, e in enumerate(exps):
                if e == 0:
                    continue
                if v in mapping:
                    if (v, e) not in power_cache:
                        power_cache[v, e] = mapping[v].pow(e)
                    factor = factor * power_cache[v, e]
                else:
                    factor = factor * SparsePoly.variable(dom, self.nvars, v, e)
            out = out + factor
        return out


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
# Fractions over F_p(t) drive everything, so the univariate case gets dense
# integer-list fast paths; the generic sparse code handles d >= 2.
# ---------------------------------------------------------------------------


def _active_vars(f):
    out = set()
    for exps in f.terms:
        for v, e in enumerate(exps):
            if e:
                out.add(v)
    return out


def _single_var(f, g):
    """The unique active variable of both polynomials, if there is at most
    one; returns (found, var or None)."""
    if f.nvars == 1:
        if (f.terms and f.degree_in(0)) or (g.terms and g.degree_in(0)):
            return True, 0
        return True, None
    active = _active_vars(f) | _active_vars(g)
    if not active:
        return True, None
    if len(active) == 1:
        return True, next(iter(active))
    return False, None


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
            if v is not None:
                e[v] = i
            terms[tuple(e)] = c
    return SparsePoly(domain, nvars, terms)


def _dense_trim(a):
    while a and a[-1] == 0:
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


def exact_div(f, g):
    """Quotient f/g when the division is exact (graded-lex long division)."""
    dom = f.domain
    if g.is_zero():
        raise InternalError("exact division by zero polynomial")
    if isinstance(dom, FpDomain):
        ok, v = _single_var(f, g)
        if ok:
            if v is None:
                return f.scale(dom.inv(g.constant_value()))
            quot, rem = _dense_divmod(_to_dense(f, v), _to_dense(g, v), dom.p)
            if rem:
                raise InternalError("inexact polynomial division")
            return _from_dense(quot, dom, f.nvars, v)
    # the remainder's terms wait in a heap, leading term first; a term
    # dropped from the remainder stays behind in the heap and is skipped
    quot = {}
    rem = dict(f.terms)
    heap = [_grlex_desc(e) for e in rem]
    heapq.heapify(heap)
    ge, gc = g.leading()
    gc_inv = dom.inv(gc)
    while heap:
        e = heapq.heappop(heap)[2]
        c = rem.pop(e, None)
        if c is None:
            continue
        qe = tuple(a - b for a, b in zip(e, ge))
        if any(x < 0 for x in qe):
            raise InternalError("inexact polynomial division")
        qc = dom.mul(c, gc_inv)
        quot[qe] = qc
        for e2, c2 in g.terms.items():
            if e2 == ge:  # cancels the leading term e
                continue
            te = tuple(a + b for a, b in zip(qe, e2))
            prev = rem.get(te)
            s = dom.neg(dom.mul(qc, c2)) if prev is None else dom.add(prev, dom.neg(dom.mul(qc, c2)))
            if dom.is_zero(s):
                rem.pop(te, None)
            else:
                if prev is None:
                    heapq.heappush(heap, _grlex_desc(te))
                rem[te] = s
    return SparsePoly(dom, f.nvars, quot)


def _coeffs_in_var(f, v):
    """View f as univariate in variable v: degree -> coefficient polynomial."""
    out = {}
    for exps, c in f.terms.items():
        d = exps[v]
        e2 = exps[:v] + (0,) + exps[v + 1 :]
        coeff = out.setdefault(d, {})
        prev = coeff.get(e2)
        s = f.domain.add(prev, c) if prev is not None else c
        if f.domain.is_zero(s):
            coeff.pop(e2, None)
        else:
            coeff[e2] = s
    return {
        d: SparsePoly(f.domain, f.nvars, terms) for d, terms in out.items() if terms
    }


def _from_var_coeffs(domain, nvars, v, coeffs):
    terms = {}
    for d, poly in coeffs.items():
        for exps, c in poly.terms.items():
            e = exps[:v] + (d,) + exps[v + 1 :]
            terms[e] = c
    return SparsePoly(domain, nvars, terms)


def _content_in_var(f, v):
    coeffs = list(_coeffs_in_var(f, v).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
    return g


def _pseudo_rem(a, b, v):
    """Pseudo-remainder of a by b as univariate polynomials in variable v."""
    ca = _coeffs_in_var(a, v)
    cb = _coeffs_in_var(b, v)
    db = max(cb)
    lb = cb[db]
    while ca:
        da = max(ca)
        if da < db:
            break
        la = ca.pop(da)
        # a <- lb*a - la*x^(da-db)*b
        new = {}
        for d, c in ca.items():
            new[d] = c * lb
        for d, c in cb.items():
            if d == db:
                continue
            shift = d + da - db
            prev = new.get(shift)
            t = la * c
            new[shift] = (prev - t) if prev is not None else -t
        ca = {d: c for d, c in new.items() if not c.is_zero()}
    return _from_var_coeffs(a.domain, a.nvars, v, ca)


def monic(f):
    """Scale so the graded-lex leading coefficient is 1."""
    if f.is_zero():
        return f
    _, lc = f.leading()
    if f.domain.eq(lc, f.domain.one):
        return f
    return f.scale(f.domain.inv(lc))


def poly_gcd(f, g):
    """GCD over F_p[x_1..x_d]: dense Euclid when univariate, primitive
    pseudo-remainder sequences otherwise.

    The result is normalized to leading coefficient 1.
    """
    if f.is_zero():
        return monic(g)
    if g.is_zero():
        return monic(f)
    if f.is_constant() or g.is_constant():
        return SparsePoly.constant(f.domain, f.nvars, f.domain.one)
    ok, uv = _single_var(f, g)
    if ok:
        p = f.domain.p
        out = _dense_gcd(_to_dense(f, uv), _to_dense(g, uv), p)
        return _from_dense(out, f.domain, f.nvars, uv)
    fv, gv = _active_vars(f), _active_vars(g)
    if fv != gv:
        # a variable in only one of them: the gcd cannot involve it
        v = min(fv ^ gv)
        if v in gv:
            return poly_gcd(f, _content_in_var(g, v))
        return poly_gcd(_content_in_var(f, v), g)
    v = max(fv)
    cf = _content_in_var(f, v)
    cg = _content_in_var(g, v)
    a = exact_div(f, cf)
    b = exact_div(g, cg)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not b.is_zero() and b.degree_in(v) > 0:
        r = _pseudo_rem(a, b, v)
        if not r.is_zero():
            r = exact_div(r, _content_in_var(r, v))
        a, b = b, r
    if b.is_zero():
        head = exact_div(a, _content_in_var(a, v))
    else:
        # nonzero remainder free of v: the primitive parts are coprime
        head = SparsePoly.constant(f.domain, f.nvars, f.domain.one)
    return monic(poly_gcd(cf, cg) * head)


# ---------------------------------------------------------------------------
# Lifts from F_p to Z/q: the Cohen model, base-ring components and the Witt
# ghost engine share these.
# ---------------------------------------------------------------------------


def lift_power(poly, dom, e, nvars=None, cap=None):
    """An F_p polynomial read coefficientwise over ``dom`` in ``nvars``
    variables (the trailing ones, the symbols, absent), to the e-th power.
    Without padding the terms mapping is shared, not copied."""
    pad = (0,) * ((nvars or poly.nvars) - poly.nvars)
    terms = {x + pad: c for x, c in poly.terms.items()} if pad else poly.terms
    return SparsePoly(dom, poly.nvars + len(pad), terms).pow(e, cap=cap)


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
