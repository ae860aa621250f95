"""Coefficient-ring adapters.

Witt-vector arithmetic is generic over elements with exact +, -, *, **
and == of their own; an adapter supplies what an element cannot say about
its ring: zero, one, the integer embedding, the zero test and (for
F_p-algebras) an entrywise p-th power.  The same core then serves four
coefficient rings:

* plain integers (where the ghost map is injective),
* the base field k,
* monogenic etale extensions of k,
* polynomial rings over k in named symbols (the Greenberg transform's
  generic point).

The other three are the ambients of the Cohen-ring layer.  They expose
the n-fold Frobenius twist and digit expansion (for `cohen.to_witt`,
`extract` and the model's peel over Q; a symbolic ring's twist raises
k-coefficients to the p^n-th power and fixes the symbols), and they own
the encoding that the Witt ghost engine and the Cohen model share: an
element is an F_p numerator in ``model_nvars`` variables over one
denominator in F_p[t] of leading coefficient 1 (`fraction`,
`from_fraction`).  The variables are the d p-basis ones, then one per
symbol over k[z], or Y = L*y over Q (`EtaleAlgebra.integral_form`), where
numerators are kept of Y-degree below deg g (`reduce_model`).  The Cohen
model reads the ring's ``monomial_cap``.
"""

import itertools

from .basefield import BaseFieldElem, EtaleAlgebra, PrimeParams
from .errors import TypeMismatch
from .polys import ElemDomain, SparsePoly, exact_div, format_sym_poly, lift_power, poly_gcd, poly_lcm


class IntegerRing:
    """Plain integers; p is not a zero divisor, so ghost maps are faithful.

    The prime p is not intrinsic to Z, so the ring carries the p of the
    Witt vectors it holds."""

    char_p = None

    def __init__(self, p):
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, IntegerRing) and other.p == self.p

    def __hash__(self):
        return hash(("IntegerRing", self.p))

    def __repr__(self):
        return f"<ring Z, p={self.p}>"


def _k_fraction(params, num, den, root):
    """num / den in k, in lowest terms; den has leading coefficient 1.  No
    gcd is taken when num is 0 or den is 1, nor when num is coprime to
    ``root`` and every prime factor of den divides root (a root equal to
    den is no shortcut)."""
    if not num.terms:
        return BaseFieldElem(params, num, params._one_poly(), normalize=False)
    reduce = not den.is_constant() and (
        root is None or root == den or not poly_gcd(num, root).is_constant())
    return BaseFieldElem(params, num, den, normalize=reduce)


def _over_one_den(params, parts, nvars):
    """(numerator, den) for (exponent tail, num, den) triples: each num
    times den / its den, the tail appended to its exponents, over den =
    the lcm of the dens."""
    den = poly_lcm([b for _, _, b in parts], params._one_poly())
    terms = {}
    for tail, a, b in parts:
        for e, c in (a if b == den else a * exact_div(den, b)).terms.items():
            terms[e + tail] = c
    return SparsePoly(params.domain, nvars, terms), den


def _split(v, d):
    """A polynomial v in the model's variables as a map from the exponents
    after the first d to the polynomial in t they multiply."""
    parts = {}
    for e, c in v.terms.items():
        parts.setdefault(e[d:], {})[e[:d]] = c
    return {tail: SparsePoly(v.domain, d, terms) for tail, terms in parts.items()}


class _AmbientRing:
    """Shared behavior of the rings the Cohen layer can live over."""

    monomial_cap = None

    def is_zero(self, a):
        return a.is_zero()

    def reduce_model(self, num):
        """num with Y-degree below deg g over Q; num itself elsewhere."""
        return num

    def digits_iter(self, x, n):
        """n-fold digit expansion: sparse map [0,p^n-1]^d -> element."""
        p, d = self.char_p, self.params.d
        if n == 0:
            return {(0,) * d: x} if not self.is_zero(x) else {}
        out = {}
        for i, xi in self.digits1(x).items():
            for m, v in self.digits_iter(xi, n - 1).items():
                out[tuple(a + p * b for a, b in zip(i, m))] = v
        return out


class _FieldElemRing(_AmbientRing):
    """Shared body of k and its etale extensions: the elements carry their
    own arithmetic, Frobenius and digit expansion."""

    def pth_power(self, a, n=1):
        return a.pth_power(n)

    twist = pth_power

    def digits1(self, a):
        return {i: v for i, v in a.digits().items() if not v.is_zero()}

    def to_string(self, a):
        return str(a)


class FieldRing(_FieldElemRing):
    """k itself as a coefficient ring."""

    def __init__(self, params: PrimeParams):
        self.params = params
        self.char_p = params.p
        self.model_nvars = params.d

    def zero(self):
        return self.params.zero()

    def one(self):
        return self.params.one()

    def from_int(self, n):
        return self.params.from_int(n)

    def scalar(self, c):
        return c

    def fraction(self, x):
        return x.num, x.den

    def from_fraction(self, v, den, root=None):
        return _k_fraction(self.params, v, den, root)

    def __eq__(self, other):
        return isinstance(other, FieldRing) and other.params == self.params

    def __hash__(self):
        return hash(("FieldRing", self.params))

    def __repr__(self):
        return f"<ring k, p={self.params.p}, d={self.params.d}>"


class EtaleRing(_FieldElemRing):
    """A monogenic etale extension as a coefficient ring."""

    def __init__(self, algebra: EtaleAlgebra):
        self.algebra = algebra
        self.params = algebra.params
        self.char_p = self.params.p
        self.model_nvars = self.params.d + 1

    def zero(self):
        return self.algebra.zero()

    def one(self):
        return self.algebra.one()

    def from_int(self, n):
        return self.algebra.from_k(self.params.from_int(n))

    def scalar(self, c):
        return self.algebra.from_k(c)

    def fraction(self, x):
        """x = sum_k c_k y^k as sum_k c_k L^-k Y^k over one den."""
        powers = self.algebra.integral_form()[1]
        parts = [((k,), c.num, c.den * powers[k]) for k, c in enumerate(x.coords)
                 if not c.is_zero()]
        return _over_one_den(self.params, parts, self.model_nvars)

    def from_fraction(self, v, den, root=None):
        """Y^k is L^k y^k."""
        params, rows = self.params, _split(v, self.params.d)
        zero = SparsePoly.zero(params.domain, params.d)
        return self.algebra.from_coords(
            _k_fraction(params, rows.get((k,), zero) * lk, den, root)
            for k, lk in enumerate(self.algebra.integral_form()[1]))

    def reduce_model(self, num):
        """num modulo G, the coefficientwise lift of g' (see
        `EtaleAlgebra.integral_form`), folding the rows of Y-degree >= deg
        from the top down."""
        d, dom, deg = self.params.d, num.domain, self.algebra.deg
        if num.degree_in(d) < deg:
            return num
        rows, zero = {m: row for (m,), row in _split(num, d).items()}, SparsePoly.zero(dom, d)
        for m in range(max(rows), deg - 1, -1):
            row = rows.pop(m, zero)
            for k, g in enumerate(self.algebra.integral_form()[0]):
                rows[m - deg + k] = rows.get(m - deg + k, zero) - row * lift_power(g, dom, 1)
        terms = {e + (m,): c for m, row in rows.items() for e, c in row.terms.items()}
        return SparsePoly(dom, d + 1, terms)

    def __eq__(self, other):
        return isinstance(other, EtaleRing) and other.algebra == self.algebra

    def __hash__(self):
        return hash(("EtaleRing", self.algebra))

    def __repr__(self):
        return f"<ring {self.algebra!r}>"


class SymbolicRing(_AmbientRing):
    """k[z_1..z_e]: polynomials over k in named symbols.

    The monomial cap guards intermediate blowup during Greenberg expansion:
    the Cohen model's products and powers over this ring raise
    ResourceLimit past it.
    """

    def __init__(self, params: PrimeParams, symbols, monomial_cap=None):
        self.params = params
        self.char_p = params.p
        self.symbols = tuple(symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            raise TypeMismatch("duplicate symbol names")
        self.monomial_cap = monomial_cap
        self.domain = ElemDomain(params.zero(), params.one())
        self.nvars = len(self.symbols)
        self.model_nvars = params.d + self.nvars

    def zero(self):
        return SparsePoly.zero(self.domain, self.nvars)

    def one(self):
        return SparsePoly.constant(self.domain, self.nvars, self.params.one())

    def from_int(self, n):
        return SparsePoly.constant(self.domain, self.nvars, self.params.from_int(n))

    def variable(self, name):
        return SparsePoly.variable(self.domain, self.nvars, self.index[name])

    def scalar(self, c):
        return SparsePoly.constant(self.domain, self.nvars, c)

    def twist(self, a, n):
        """Frobenius twist: p^n-th powers on k-coefficients, symbols fixed."""
        return a.map_coeffs(lambda c: c.pth_power(n))

    def digits1(self, a):
        out = {}
        for exps, c in a.terms.items():
            for i, ci in c.digits().items():  # sparse: no zero digits
                out.setdefault(i, {})[exps] = ci
        return {i: SparsePoly(self.domain, self.nvars, terms) for i, terms in out.items()}

    def fraction(self, x):
        parts = [(e, c.num, c.den) for e, c in x.terms.items()]
        return _over_one_den(self.params, parts, self.model_nvars)

    def from_fraction(self, v, den, root=None):
        params = self.params
        coeffs = {e: _k_fraction(params, c, den, root) for e, c in _split(v, params.d).items()}
        return SparsePoly(self.domain, self.nvars, coeffs)

    def to_string(self, a):
        return format_sym_poly(a, self.symbols)

    def __eq__(self, other):
        return (
            isinstance(other, SymbolicRing)
            and other.params == self.params
            and other.symbols == self.symbols
            and other.monomial_cap == self.monomial_cap
        )

    def __hash__(self):
        return hash(("SymbolicRing", self.params, self.symbols, self.monomial_cap))

    def __repr__(self):
        return f"<ring k[{', '.join(self.symbols)}]>"


def multi_indices(bound, d):
    """All multi-indices in [0, bound-1]^d in lexicographic order."""
    return list(itertools.product(range(bound), repeat=d))
