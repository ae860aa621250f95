"""Coefficient-ring adapters.

Witt-vector arithmetic is generic over a minimal ring interface: exact
+, -, *, equality, integer embedding, and (for F_p-algebras) an entrywise
p-th power.  Every adapter takes +, -, *, ** and == from the elements' own
operators.  The same core then serves four coefficient rings:

* plain integers (the ghost-component oracle),
* the base field k,
* monogenic etale extensions of k,
* polynomial rings over k in named symbols (the Greenberg transform's
  generic point).

Ambient rings used by the Cohen-ring layer additionally expose the n-fold
Frobenius twist and digit expansion, which `cohen.to_witt`/`extract` use;
for a symbolic ring the twist raises k-coefficients to the p^n-th power
and fixes the symbols.  Cohen arithmetic over k and over a symbolic ring
runs in the model of cohen.py, which reads the ring's ``monomial_cap``;
over a symbolic ring no Witt vector is built outside that oracle.
"""

import itertools
import operator

from .basefield import EtaleAlgebra, PrimeParams
from .errors import TypeMismatch
from .polys import ElemDomain, SparsePoly, format_sym_poly


class _OperatorArithmetic:
    """add, sub, neg, mul, pow and eq through the elements' own operators."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    pow = staticmethod(operator.pow)
    eq = staticmethod(operator.eq)


class IntegerRing(_OperatorArithmetic):
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


class _AmbientRing:
    """Shared behavior of the rings the Cohen layer can live over."""

    monomial_cap = None

    def is_zero(self, a):
        return a.is_zero()

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


class _FieldElemRing(_OperatorArithmetic, _AmbientRing):
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

    def zero(self):
        return self.params.zero()

    def one(self):
        return self.params.one()

    def from_int(self, n):
        return self.params.from_int(n)

    def scalar(self, c):
        return c

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

    def zero(self):
        return self.algebra.zero()

    def one(self):
        return self.algebra.one()

    def from_int(self, n):
        return self.algebra.from_k(self.params.from_int(n))

    def scalar(self, c):
        return self.algebra.from_k(c)

    def __eq__(self, other):
        return isinstance(other, EtaleRing) and other.algebra == self.algebra

    def __hash__(self):
        return hash(("EtaleRing", self.algebra))

    def __repr__(self):
        return f"<ring {self.algebra!r}>"


class SymbolicRing(_OperatorArithmetic, _AmbientRing):
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
