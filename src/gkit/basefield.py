"""The base field k = F_p(t_1..t_d), its monogenic etale extensions, and
digit expansion along the p-basis {t_1, .., t_d}.

Every element of k (or of an etale extension Q) has a unique expansion

    f = sum over i in [0,p-1]^d of  f_i^p * t^i,

and the map f -> (f_i) is the fundamental primitive everything else builds
on: p-th roots, Cohen-ring extraction, and the splitting of the additive
group along Frobenius all reduce to it.  All arithmetic is exact; equality
of values coincides with equality of representations.

Over k the digits of num/den split the exponents of num * den^(p-1) mod p.
An etale Q = k[y]/(g) is relatively perfect over k: its relative Frobenius
Q tensor_{k,F} k -> Q is an isomorphism, so the powers y^(pj) form a
k-basis of Q, and the digits of x are the k-digits of its coordinates in
that basis, read through the inverse of the Frobenius matrix.  Over k and
over Q a p-th root is digit 0 when every other digit vanishes.  Etale
inverses and the separability check are linear solves over k
(`linalg.row_reduce`).

R[y]/(g) on power-basis coordinates is written once (`PowerBasisAlgebra`,
`PowerBasisElem`), for any coefficient ring with dunder arithmetic: Q is
the instance over k, and the canonical lifting of Q over an artinian base
(`base.LiftedEtale`) the instance over that base.
"""

import itertools

from . import linalg
from .errors import DivisionByZero, InternalError, NotAPthPower, NotAUnit, TypeMismatch
from .polys import FpDomain, SparsePoly, exact_div, format_sym_poly, poly_frobenius, poly_gcd, poly_lcm

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981  # first composite passing all bases


def _is_prime(n):
    """Miller-Rabin with the first 13 prime bases: exact below _MR_BOUND."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if n >= _MR_BOUND:
        raise TypeMismatch(f"primality of p >= {_MR_BOUND} is not decided")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeParams:
    """The ambient data (p, d, variable names) fixed for a session."""

    def __init__(self, p, d, names=None):
        if not _is_prime(p):
            raise TypeMismatch(f"{p} is not prime")
        if d < 0:
            raise TypeMismatch("d must be >= 0")
        if names is None:
            names = ["t"] if d == 1 else [f"t{i + 1}" for i in range(d)]
        if len(names) != d or len(set(names)) != d:
            raise TypeMismatch("need d distinct p-basis names")
        self.p = p
        self.d = d
        self.names = tuple(names)
        self.domain = FpDomain(p)

    def __eq__(self, other):
        return (
            isinstance(other, PrimeParams)
            and (self.p, self.d, self.names) == (other.p, other.d, other.names)
        )

    def __hash__(self):
        return hash((self.p, self.d, self.names))

    def __repr__(self):
        return f"PrimeParams(p={self.p}, d={self.d}, names={list(self.names)})"

    # -- element constructors -------------------------------------------------

    def zero(self):
        return BaseFieldElem(self, SparsePoly.zero(self.domain, self.d), self._one_poly())

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return BaseFieldElem(
            self,
            SparsePoly.constant(self.domain, self.d, n % self.p),
            self._one_poly(),
        )

    def gen(self, index, exp=1):
        """The p-basis element t_{index+1} (to the given power)."""
        return BaseFieldElem(
            self, SparsePoly.variable(self.domain, self.d, index, exp), self._one_poly()
        )

    def monomial(self, exps):
        """t_1^e1 * ... * t_d^ed for an exponent tuple."""
        return BaseFieldElem(
            self,
            SparsePoly(self.domain, self.d, {tuple(exps): self.domain.one}),
            self._one_poly(),
        )

    def _one_poly(self):
        return SparsePoly.constant(self.domain, self.d, self.domain.one)

    def digit_indices(self):
        """All multi-indices in [0, p-1]^d, lexicographically."""
        return list(itertools.product(range(self.p), repeat=self.d))


def _root_from_digits(x):
    """The g with g^p = x: digit 0 when every other digit vanishes;
    raises NotAPthPower otherwise."""
    zero_idx = (0,) * x.params.d
    dig = x.digits()
    for i, v in dig.items():
        if i != zero_idx and not v.is_zero():
            raise NotAPthPower(f"digit at index {i} is nonzero")
    # k-digits leave zero digits out, so a missing digit 0 means x = 0
    return dig.get(zero_idx, x)


class BaseFieldElem:
    """A normalized fraction of polynomials over F_p in t_1..t_d.

    Normalization: numerator and denominator are coprime and the
    denominator's graded-lex leading coefficient is 1; the zero element
    is 0/1.  This makes representations canonical, so == is value equality.
    """

    __slots__ = ("params", "num", "den")

    def __init__(self, params, num, den, normalize=True):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if normalize:
            num, den = _normalize_fraction(num, den)
        self.params = params
        self.num = num
        self.den = den

    # -- ring structure -------------------------------------------------------
    #
    # Operands are kept in lowest terms, which lets sums and products avoid
    # gcds on large polynomials: products cross-cancel against the small
    # inputs, and a sum only needs cancellation against gcd(den1, den2).

    def _combine(self, other, sign):
        self._check(other)
        if self.den == other.den and self.den.is_constant():
            num = self.num + other.num if sign > 0 else self.num - other.num
            return _lowest_terms(self.params, num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_constant():
            num = self.num * other.den
            num = num + other.num * self.den if sign > 0 else num - other.num * self.den
            return _lowest_terms(self.params, num, self.den * other.den)
        e1 = exact_div(self.den, g)
        e2 = exact_div(other.den, g)
        num = self.num * e2
        num = num + other.num * e1 if sign > 0 else num - other.num * e1
        h = poly_gcd(num, g)
        if not h.is_constant():
            num = exact_div(num, h)
        den = e1 * exact_div(other.den, h)
        return _lowest_terms(self.params, num, den)

    def __add__(self, other):
        return self._combine(other, +1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return BaseFieldElem(self.params, -self.num, self.den, normalize=False)

    def __mul__(self, other):
        self._check(other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g1 = poly_gcd(n1, d2)
        if not g1.is_constant():
            n1, d2 = exact_div(n1, g1), exact_div(d2, g1)
        g2 = poly_gcd(n2, d1)
        if not g2.is_constant():
            n2, d1 = exact_div(n2, g2), exact_div(d1, g2)
        return _lowest_terms(self.params, n1 * n2, d1 * d2)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.params.one()
        # coprime numerator and denominator stay coprime under powers
        return _lowest_terms(self.params, self.num.pow(n), self.den.pow(n))

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return _lowest_terms(self.params, self.den, self.num)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, BaseFieldElem):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.params == other.params

    def __hash__(self):
        return hash((hash(self.num), hash(self.den)))

    def _check(self, other):
        if not isinstance(other, BaseFieldElem) or other.params != self.params:
            raise TypeMismatch("mixed base-field operands")

    # -- Frobenius structure --------------------------------------------------

    def pth_power(self, iterations=1):
        q = self.params.p**iterations
        num, den = poly_frobenius(self.num, q), poly_frobenius(self.den, q)
        return BaseFieldElem(self.params, num, den, normalize=False)

    pth_root = _root_from_digits

    def digits(self):
        """The unique map i -> f_i with self = sum f_i^p t^i, sparse: the
        indices i with f_i = 0 are left out, so a large p costs nothing."""
        p, d = self.params.p, self.params.d
        u = self.num.mul(self.den.pow(p - 1))
        parts = {}
        for exps, c in u.terms.items():
            idx = tuple(e % p for e in exps)
            rest = tuple(e // p for e in exps)
            # F_p coefficients are their own p-th roots
            parts.setdefault(idx, {})[rest] = c
        dom = self.params.domain
        return {
            idx: BaseFieldElem(self.params, SparsePoly(dom, d, terms), self.den)
            for idx, terms in parts.items()
        }

    # -- display --------------------------------------------------------------

    def __str__(self):
        num = format_sym_poly(self.num, self.params.names)
        if self.den == self.params._one_poly():
            return num
        den = format_sym_poly(self.den, self.params.names)
        if "+" in num or "-" in num[1:]:
            num = f"({num})"
        if "+" in den or "-" in den[1:] or "*" in den or "^" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"<k {self}>"


def _normalize_fraction(num, den):
    if not num.is_zero() and not den.is_constant():
        g = poly_gcd(num, den)
        if not g.is_constant():
            num, den = exact_div(num, g), exact_div(den, g)
    return _leading_one(num, den)


def _lowest_terms(params, num, den):
    """Fraction already in lowest terms: only enforce the leading-1
    denominator convention (and the canonical zero)."""
    return BaseFieldElem(params, *_leading_one(num, den), normalize=False)


def _leading_one(num, den):
    """num/den scaled so that den has graded-lex leading coefficient 1;
    zero becomes 0/1."""
    dom = den.domain
    if num.is_zero():
        return num, SparsePoly.constant(dom, den.nvars, dom.one)
    _, lc = den.leading()
    if not dom.eq(lc, dom.one):
        inv = dom.inv(lc)
        num, den = num.scale(inv), den.scale(inv)
    return num, den


# ---------------------------------------------------------------------------
# Quotient rings R[y]/(g) on power-basis coordinates
# ---------------------------------------------------------------------------


def power_table(coeffs, zero):
    """Coordinates of y^deg .. y^(2deg-2) modulo the monic g with
    coefficients ``coeffs`` (constant term first)."""
    deg = len(coeffs) - 1
    row = [-c for c in coeffs[:-1]]
    table = [tuple(row)]
    for _ in range(deg - 2):
        shifted = [zero] + row[:-1]
        top = row[-1]
        row = [a + top * b for a, b in zip(shifted, table[0])]
        table.append(tuple(row))
    return table


def quotient_mul(a, b, table, zero):
    """Product of two coordinate vectors in R[y]/(g), reduced by the
    power table of g."""
    deg = len(a)
    conv = [zero] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                conv[i + j] = conv[i + j] + x * y
    out = conv[:deg]
    for excess, row in enumerate(table):
        c = conv[deg + excess] if deg + excess < len(conv) else zero
        if not c.is_zero():
            out = [x + c * y for x, y in zip(out, row)]
    return tuple(out)


def binary_power(x, n, one):
    """x^n for an integer n >= 0 by repeated squaring, starting from
    ``one``."""
    if n < 0:
        raise TypeMismatch(f"negative power {n}")
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


def _univar_str(coeffs, name):
    """sum_j coeffs[j] name^j, highest power first; a coefficient other
    than 1 leads its term, in parentheses when it is a sum or a fraction
    and the term is not the constant one."""
    parts = []
    for j in reversed(range(len(coeffs))):
        c = coeffs[j]
        if c.is_zero():
            continue
        cs = str(c)
        if j == 0:
            parts.append(cs)
            continue
        var = name if j == 1 else f"{name}^{j}"
        if cs == "1":
            parts.append(var)
        else:
            if "+" in cs or "-" in cs[1:] or "/" in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{var}")
    return " + ".join(parts) if parts else "0"


class PowerBasisElem:
    """An element of a `PowerBasisAlgebra`: its coordinate vector in the
    power basis {1, y, .., y^(deg-1)}."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _check(self, other):
        if not isinstance(other, PowerBasisElem) or other.algebra != self.algebra:
            raise TypeMismatch("mixed power-basis operands")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return type(self)(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        alg = self.algebra
        return type(self)(alg, quotient_mul(self.coords, other.coords, alg._reduction, alg._zero))

    def __pow__(self, n):
        return binary_power(self, n, self.algebra.one())

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, PowerBasisElem):
            return NotImplemented
        return self.algebra == other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((self.algebra, self.coords))


class PowerBasisAlgebra:
    """R[y]/(g) for a monic g of degree >= 1 over a ring R whose elements
    have dunder arithmetic and ``is_zero``; products reduce through the
    power table of g.  A subclass sets ``elem``, its element class, and
    passes ``key``, the data that equality and hashing compare."""

    elem = PowerBasisElem

    def __init__(self, coeffs, zero, one, key):
        self.coeffs = tuple(coeffs)
        self.deg = len(self.coeffs) - 1
        self.key = key
        self._zero, self._one = zero, one
        self._reduction = power_table(self.coeffs, zero)

    def zero(self):
        return self.elem(self, (self._zero,) * self.deg)

    def one(self):
        return self.from_base(self._one)

    def from_base(self, c):
        """The image of c in R[y]/(g)."""
        return self.elem(self, (c,) + (self._zero,) * (self.deg - 1))

    def gen(self):
        if self.deg == 1:
            return self.elem(self, self._reduction[0])
        return self.elem(self, (self._zero, self._one) + (self._zero,) * (self.deg - 2))

    def from_coords(self, coords):
        coords = tuple(coords)
        if len(coords) != self.deg:
            raise TypeMismatch("coordinate vector has wrong length")
        return self.elem(self, coords)

    def __eq__(self, other):
        return other is self or (type(other) is type(self) and other.key == self.key)

    def __hash__(self):
        return hash(self.key)


# ---------------------------------------------------------------------------
# Etale extensions k[y]/(g)
# ---------------------------------------------------------------------------


class EtaleElem(PowerBasisElem):
    __slots__ = ()

    # perfbench/spans.py wraps these by (owner, attribute), so they sit in
    # this class's own dict
    __add__ = PowerBasisElem.__add__
    __sub__ = PowerBasisElem.__sub__
    __mul__ = PowerBasisElem.__mul__
    __pow__ = PowerBasisElem.__pow__

    @property
    def params(self):
        return self.algebra.params

    def inverse(self):
        """The solve of (multiplication by self) v = 1; NotAUnit when the
        multiplication matrix is singular (self shares a factor with g)."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        coords = self._inverse_coords()
        if coords is None:
            raise NotAUnit("element shares a factor with the defining polynomial")
        return EtaleElem(self.algebra, coords)

    def _inverse_coords(self):
        """Coordinates of v with self * v = 1, by row reduction of the
        matrix of multiplication by self (column j: self * y^j) against
        the coordinates of 1; None when the matrix is singular."""
        deg, y = self.algebra.deg, self.algebra.gen()
        cols = [self]
        for _ in range(1, deg):
            cols.append(cols[-1] * y)
        one = self.algebra.one().coords
        augmented = [[c.coords[r] for c in cols] + [one[r]] for r in range(deg)]
        rows, pivots = linalg.row_reduce(augmented, self.params.zero())
        if pivots != list(range(deg)):
            return None
        return tuple(row[deg] for row in rows)

    def pth_power(self, iterations=1):
        out = self
        for _ in range(iterations):
            frob = self.algebra.frobenius_matrix()
            zero = self.params.zero()
            acc = [zero] * self.algebra.deg
            for j, c in enumerate(out.coords):
                if c.is_zero():
                    continue
                cp = c.pth_power()
                acc = [a + cp * m for a, m in zip(acc, frob[j])]
            out = EtaleElem(self.algebra, tuple(acc))
        return out

    def digits(self):
        """The digits of self, densely over all digit indices.  Q is
        relatively perfect, so self = sum_j b_j y^(pj) with b the inverse
        Frobenius matrix times the coordinates; digit i is
        sum_j b_{j,i} y^j, where b_{j,i} is the i-th k-digit of b_j."""
        zero = self.params.zero()
        b_digits = [
            sum((a * c for a, c in zip(row, self.coords)), zero).digits()
            for row in self.algebra.digit_matrix()
        ]
        return {
            i: EtaleElem(self.algebra, tuple(dig.get(i, zero) for dig in b_digits))
            for i in self.params.digit_indices()
        }

    pth_root = _root_from_digits

    def __str__(self):
        return _univar_str(self.coords, self.algebra.name)

    def __repr__(self):
        return f"<Q {self}>"


class EtaleAlgebra(PowerBasisAlgebra):
    """A monogenic etale extension Q = k[y]/(g), g monic separable.

    An element is a unit iff its multiplication matrix is invertible, and g
    is separable iff g' is a unit of Q; both are checked by solving that
    matrix against the coordinates of 1.  Q is relatively perfect over k
    (its relative Frobenius Q tensor_{k,F} k -> Q is an isomorphism), so
    the powers y^(pj) form a k-basis of Q and the Frobenius matrix is
    invertible; digits are read through its inverse (`digit_matrix`),
    computed once per algebra.
    """

    elem = EtaleElem

    def __init__(self, params, coeffs, name="y"):
        coeffs = tuple(coeffs)
        if len(coeffs) < 2 or coeffs[-1] != params.one():
            raise TypeMismatch("defining polynomial must be monic of degree >= 1")
        super().__init__(coeffs, params.zero(), params.one(), (params, coeffs))
        self.params = params
        self.name = name
        derivative = self.from_coords(
            coeffs[i] * params.from_int(i) for i in range(1, len(coeffs))
        )
        if derivative._inverse_coords() is None:
            raise TypeMismatch("defining polynomial is not separable")
        self._frob = self._digit_matrix = self._integral = None

    from_k = PowerBasisAlgebra.from_base

    def frobenius_matrix(self):
        """Column j holds the coordinates of (y^j)^p modulo g."""
        if self._frob is None:
            y = self.gen()
            cols = [self.one().coords]
            power = self.one()
            yp = y**self.params.p
            for _ in range(1, self.deg):
                power = power * yp
                cols.append(power.coords)
            self._frob = cols
        return self._frob

    def digit_matrix(self):
        """The inverse of the Frobenius matrix F: row j applied to the
        coordinates of x gives the b_j with x = sum_j b_j y^(pj).  F is
        invertible because Q is relatively perfect over k; one row
        reduction of [F | I] finds its inverse, and a singular F raises
        InternalError."""
        if self._digit_matrix is None:
            deg, zero, one = self.deg, self.params.zero(), self.params.one()
            frob = self.frobenius_matrix()
            augmented = [
                [col[m] for col in frob] + [one if c == m else zero for c in range(deg)]
                for m in range(deg)
            ]
            rows, pivots = linalg.row_reduce(augmented, zero)
            if pivots != list(range(deg)):
                raise InternalError("singular linear system")
            self._digit_matrix = [row[deg:] for row in rows]
        return self._digit_matrix

    def integral_form(self):
        """Y = L*y, L the lcm of g's denominators, is a root of the monic
        g'(Y) = L^deg g(Y/L) over F_p[t]: the non-leading coefficients of
        g' and the powers L^k for k < deg, computed once per algebra."""
        if self._integral is None:
            powers = [self.params._one_poly()]
            lcm = poly_lcm([c.den for c in self.coeffs], powers[0])
            for _ in range(self.deg):
                powers.append(powers[-1] * lcm)
            coeffs = tuple(exact_div(c.num * powers[self.deg - k], c.den)
                           for k, c in enumerate(self.coeffs[:-1]))
            self._integral = coeffs, tuple(powers[:-1])
        return self._integral

    def __repr__(self):
        return f"<etale k[{self.name}]/({_univar_str(self.coeffs, self.name)})>"


# ---------------------------------------------------------------------------
# Digit expansion front end
# ---------------------------------------------------------------------------


class DigitExpansion:
    """The digits f_i of f = sum f_i^p t^i, indexed by [0,p-1]^d; a digit
    missing from ``digits`` is zero."""

    def __init__(self, params, digits):
        self.params = params
        self.digits = digits

    def __getitem__(self, idx):
        return self.digits.get(tuple(idx), self.params.zero())

    def items(self):
        return [(i, self[i]) for i in self.params.digit_indices()]

    def reconstruct(self):
        total = None
        for i, f_i in self.digits.items():
            term = f_i.pth_power() * _embed_monomial(f_i, i)
            total = term if total is None else total + term
        return self.params.zero() if total is None else total


def _embed_monomial(sample, idx):
    params = sample.params
    mono = params.monomial(idx)
    if isinstance(sample, EtaleElem):
        return sample.algebra.from_k(mono)
    return mono


def pbasis_expand(f):
    """Digit expansion of an element of k or of an EtaleAlgebra."""
    if isinstance(f, (BaseFieldElem, EtaleElem)):
        return DigitExpansion(f.params, f.digits())
    raise TypeMismatch(f"cannot expand {type(f).__name__}")


def pth_root(f):
    """Inverse of Frobenius on its image; NotAPthPower off the image."""
    if isinstance(f, (BaseFieldElem, EtaleElem)):
        return f.pth_root()
    raise TypeMismatch(f"cannot take p-th root of {type(f).__name__}")
