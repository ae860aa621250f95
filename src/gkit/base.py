"""Supported artinian local bases A with residue field k.

Two families:

* unramified: A = C_m(k), the truncated Cohen ring itself;
* Eisenstein:  A = C_m(k)[pi]/(E(pi)) with E monic of degree e, non-leading
  coefficients divisible by p and constant term p * (unit).

Both are free C_m(k)-modules (rank 1 resp. e with basis 1, pi, .., pi^{e-1});
an element is stored as its vector of Cohen-coordinate components.  The
maximal ideal is I = (pi) (resp. (p)), with I^{m e} = 0 sharp.

A base also models its quotients A/I^j: the component of pi^w survives
modulo p^ceil((j-w)/e), which in canonical coordinates means slots at
positions >= ceil((j-w)/e) are dropped.  That normal form makes quotient
arithmetic "compute in A, then renormalize".

The canonical lifting of an etale Q = k[y]/(g) over A, A[y]/(g~), is the
power-basis algebra of basefield.py over the elements of A (`LiftedEtale`).
"""

import math
import operator

from . import cohen
from .basefield import (
    BaseFieldElem, EtaleAlgebra, PowerBasisAlgebra, PowerBasisElem, PrimeParams, binary_power,
)
from .errors import (
    InternalError,
    NotAUnit,
    NotEisenstein,
    TypeMismatch,
    UnsupportedAlgebra,
)
from .polys import SparsePoly, lift_power, shift
from .rings import EtaleRing, FieldRing, SymbolicRing


class ArtinianBase:
    """One of the two supported base families, possibly cut down to A/I^j."""

    def __init__(self, params: PrimeParams, kind, m, ecoeffs=None, trunc=None, _validate=True):
        if m < 1:
            raise TypeMismatch(f"the level m must be at least 1, got {m}")
        self.params = params
        self.kind = kind
        self.m = m
        self.field_ring = FieldRing(params)
        if kind == "unramified":
            self.e = 1
            self.ecoeffs = None
        elif kind == "eisenstein":
            self.ecoeffs = tuple(ecoeffs)
            self.e = len(self.ecoeffs)
        else:
            raise TypeMismatch(f"unknown base kind {kind!r}")
        self.nilpotency = m * self.e  # r + 1
        self.trunc = self.nilpotency if trunc is None else trunc
        if not 0 <= self.trunc <= self.nilpotency:
            raise TypeMismatch("truncation exponent out of range")
        self._algebras = {}
        if _validate and kind == "eisenstein":
            self._validate_eisenstein()

    # -- constructors -----------------------------------------------------

    @property
    def r(self):
        return self.nilpotency - 1

    def component_bound(self, w):
        """Free Cohen positions of the pi^w component modulo I^trunc."""
        return max(0, min(self.m, math.ceil((self.trunc - w) / self.e)))

    def algebra(self, ring=None):
        """The base as an algebra of elements over a component ambient ring
        (default: k itself)."""
        ring = ring or self.field_ring
        got = self._algebras.get(ring)
        if got is None:
            got = BaseAlgebra(self, ring)
            self._algebras[ring] = got
        return got

    def quotient(self, j):
        """The quotient base A/I^j (same families, truncated normal form)."""
        if j > self.trunc:
            raise TypeMismatch(f"I^{j} quotient deeper than the base")
        return ArtinianBase(
            self.params, self.kind, self.m, self.ecoeffs, trunc=j, _validate=False
        )

    def decompose_module(self):
        """Cohen summand levels of A as a C_m(k)-module."""
        return [self.m] * self.e

    # -- validation --------------------------------------------------------

    def _validate_eisenstein(self):
        K = self.field_ring
        e = self.e
        if e < 1:
            raise NotEisenstein("degree must be >= 1")
        for i, c in enumerate(self.ecoeffs):
            if c.level != self.m or c.ring != K:
                raise NotEisenstein("coefficients must live in C_m(k)")
            if not c.is_zero() and c.support_min_position() < 1:
                raise NotEisenstein(f"coefficient of pi^{i} is not divisible by p")
        c0 = self.ecoeffs[0]
        if self.m >= 2:
            if c0.is_zero():
                raise NotEisenstein("constant term must be p * (unit)")
            u = cohen.solve_p_division(c0, 1)
            if cohen.residue(u).is_zero():
                raise NotEisenstein("constant term must be p * (unit)")
        alg = self.algebra()
        pi = alg.pi()
        power = alg.one()
        for _ in range(self.nilpotency - 1):
            power = power * pi
        if power.is_zero():
            raise NotEisenstein(f"I^{self.nilpotency - 1} already vanishes")
        if not (power * pi).is_zero():
            raise NotEisenstein(f"I^{self.nilpotency} does not vanish")

    def __eq__(self, other):
        return (
            isinstance(other, ArtinianBase)
            and (self.params, self.kind, self.m, self.trunc) ==
                (other.params, other.kind, other.m, other.trunc)
            and self.ecoeffs == other.ecoeffs
        )

    def __hash__(self):
        return hash((self.params, self.kind, self.m, self.e, self.trunc))

    def __repr__(self):
        tail = "" if self.trunc == self.nilpotency else f" mod I^{self.trunc}"
        if self.kind == "unramified":
            return f"<base C_{self.m}(k){tail}>"
        return f"<base C_{self.m}(k)[pi]/(E), e={self.e}{tail}>"


def make_unramified(params, m):
    return ArtinianBase(params, "unramified", m)


def make_eisenstein(params, m, ecoeffs):
    """ecoeffs are the non-leading coefficients c_0..c_{e-1} of the monic
    E(pi) = pi^e + c_{e-1} pi^{e-1} + .. + c_0, as CohenElems over C_m(k)."""
    return ArtinianBase(params, "eisenstein", m, ecoeffs)


class BaseAlgebra:
    """Elements of A (or A/I^j) with components over an ambient ring.

    Over k this is the base itself; over a symbolic polynomial ring it is
    the twisted algebra the Greenberg transform expands inside.  Both
    compute in the Cohen model (cohen.py).  Any other ambient, an etale
    one included, raises UnsupportedAlgebra: over Q the lifted etale
    extension `LiftedEtale` is the algebra to use.
    """

    def __init__(self, base: ArtinianBase, ring):
        if not isinstance(ring, (FieldRing, SymbolicRing)):
            raise UnsupportedAlgebra(f"no base algebra with components over {ring!r}")
        self.base = base
        self.ring = ring
        if base.kind == "eisenstein":
            self._ecoeffs = tuple(cohen.embed(c, ring) for c in base.ecoeffs)
        else:
            self._ecoeffs = None
        self._emodel = None
        self._one = None

    def ecoeff_models(self):
        """The coefficients of E as model numerators over one denominator."""
        if self._emodel is None:
            self._emodel = cohen.to_models(self._ecoeffs)
        return self._emodel

    # -- element constructors ----------------------------------------------

    def zero(self):
        z = cohen.CohenElem.zero(self.ring, self.base.m)
        return BaseElem(self, (z,) * self.base.e)

    def one(self):
        """Built once: elements are immutable, so every caller shares it."""
        if self._one is None:
            self._one = self.teich(self.ring.one())
        return self._one

    def from_int(self, n):
        return self.from_component(cohen.cohen_from_int(self.ring, self.base.m, n))

    def p(self):
        return self.from_int(self.base.params.p)

    def pi(self):
        if self.base.e == 1:
            if self.base.kind == "eisenstein":
                return -self.from_component(self._ecoeffs[0])
            raise TypeMismatch("unramified base has no uniformizer pi beyond p")
        comps = [cohen.CohenElem.zero(self.ring, self.base.m)] * self.base.e
        comps[1] = cohen.teich_lift(self.ring, self.base.m, self.ring.one())
        return BaseElem(self, comps)

    def teich(self, value):
        """Canonical lift of an ambient element into the pi^0 component."""
        return self.from_component(cohen.teich_lift(self.ring, self.base.m, value))

    def from_component(self, c):
        comps = [c] + [cohen.CohenElem.zero(self.ring, self.base.m)] * (self.base.e - 1)
        return BaseElem(self, comps)

    def from_components(self, comps):
        comps = list(comps)
        if len(comps) != self.base.e:
            raise TypeMismatch(f"need {self.base.e} components")
        return BaseElem(self, comps)

    def embed(self, elem):
        """Re-coordinate a BaseElem over k into this ambient ring."""
        if elem.algebra is self:
            return elem
        return BaseElem(self, [cohen.embed(c, self.ring) for c in elem.components])

    def _normalize(self, comps):
        out = []
        for w, c in enumerate(comps):
            bound = self.base.component_bound(w)
            # nothing to drop: keep the element, and with it its model
            if bound == self.base.m and (c.ring, c.level) == (self.ring, self.base.m):
                out.append(c)
                continue
            coords = {(j, i): x for (j, i), x in c.coords.items() if j < bound}
            out.append(cohen.CohenElem(self.ring, self.base.m, coords))
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, BaseAlgebra)
            and other.base == self.base
            and other.ring == self.ring
        )

    def __hash__(self):
        return hash((self.base, self.ring))

    def __repr__(self):
        return f"<algebra {self.base!r} over {self.ring!r}>"


class BaseElem:
    """A vector of e Cohen components (the pi-power coordinates); results
    of arithmetic keep their model vector and peel when read (`_peel`)."""

    __slots__ = ("algebra", "components")

    def __init__(self, algebra: BaseAlgebra, components):
        self.algebra = algebra
        self.components = algebra._normalize(components)

    @property
    def base(self):
        return self.algebra.base

    def _check(self, other):
        if not isinstance(other, BaseElem) or other.algebra != self.algebra:
            raise TypeMismatch("mixed base-ring operands")

    def __add__(self, other):
        self._check(other)
        return _componentwise(operator.add, self, other)

    def __sub__(self, other):
        self._check(other)
        return _componentwise(operator.sub, self, other)

    def __neg__(self):
        return _componentwise(operator.neg, self)

    def __mul__(self, other):
        self._check(other)
        vecs = cohen.to_models(self.components), cohen.to_models(other.components)
        return _peel(self.algebra, _model_product(self.algebra, *vecs))

    def __pow__(self, n):
        return binary_power(self, n, self.algebra.one())

    def scale_p(self, s=1):
        """Multiply by p^s (componentwise on the pi-basis)."""
        return _componentwise(lambda x: shift(x, (), self.base.params.p**s), self)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, BaseElem):
            return NotImplemented
        return self.algebra == other.algebra and self.components == other.components

    def __hash__(self):
        return hash((self.algebra, self.components))

    def residue(self):
        """The image in the residue ambient (k for the k-points algebra)."""
        return cohen.residue(self.components[0])

    def val(self):
        """I-adic valuation; None means the element is zero."""
        if self.is_zero():
            return None
        e = self.base.e
        best = None
        for w, c in enumerate(self.components):
            if c.is_zero():
                continue
            v = e * c.support_min_position() + w
            if best is None or v < best:
                best = v
        return best

    def is_unit(self):
        return not self.algebra.ring.is_zero(self.residue())

    def inverse(self):
        """In the model: u = u_0 (1 + z) with u_0 the pi^0 component, a unit
        of C_m(k) inverted in closed form (`cohen.model_inverse`), and
        z = u_0^{-1} (u - u_0) in I, so 1/(1 + z) is the finite geometric
        series in -z up to I^trunc, summed by Horner.  Checked at the end."""
        alg, base = self.algebra, self.base
        res = self.residue()
        if alg.ring.is_zero(res):
            raise NotAUnit("element has zero residue")
        if not isinstance(res, BaseFieldElem):
            raise TypeMismatch("inversion requires k-valued components")
        nums, den = cohen.to_models(self.components)
        inv_num, inv_den = cohen.model_inverse(nums[0], den, alg.ring, base.m)
        dom, nvars = inv_num.domain, inv_num.nvars
        zero = SparsePoly.zero(dom, nvars)
        y = ([SparsePoly.constant(dom, nvars, 1)] + [zero] * (base.e - 1), base.params._one_poly())
        if base.e > 1:
            z = ([zero] + [x * inv_num for x in nums[1:]], den * inv_den)
            for _ in range(base.trunc - 1):
                zy, zy_den = _model_product(alg, z, y)
                one = lift_power(zy_den, dom, base.params.p ** (base.m - 1))
                y = ([one - zy[0]] + [-x for x in zy[1:]], zy_den)
        x = _peel(alg, ([c * inv_num for c in y[0]], y[1] * inv_den))
        if not (self * x - alg.one()).is_zero():
            raise InternalError("unit inversion failed its check")
        return x

    def reduce_mod(self, j):
        """The image in A/I^j."""
        alg = self.base.quotient(j).algebra(self.algebra.ring)
        return BaseElem(alg, self.components)

    def graded_coefficient(self, i):
        """The k-coordinate of the class in I^i/I^{i+1} (rank one over k)."""
        e = self.base.e
        w0, s = i % e, i // e
        comp = self.components[w0]
        if comp.is_zero():
            return self.algebra.ring.zero()
        if comp.support_min_position() < s:
            raise TypeMismatch(f"element is not in I^{i}")
        return cohen.residue(cohen.solve_p_division(comp, s))

    def __repr__(self):
        parts = []
        for w, c in enumerate(self.components):
            if c.is_zero():
                continue
            head = "" if w == 0 else ("pi*" if w == 1 else f"pi^{w}*")
            parts.append(f"{head}{c!r}")
        return "<A " + (" + ".join(parts) if parts else "0") + ">"


def _model_product(alg, x, y):
    """BaseElem.__mul__'s convolution and E-reduction on model numerators,
    each vector over one shared denominator."""
    (a, a_den), (b, b_den) = x, y
    base = alg.base
    e, cap = base.e, alg.ring.monomial_cap
    den = a_den * b_den
    zero = SparsePoly.zero(a[0].domain, a[0].nvars)
    conv = [zero] * (2 * e - 1)
    for i, u in enumerate(a):
        if u.is_zero():
            continue
        for j, v in enumerate(b):
            if not v.is_zero():
                conv[i + j] = conv[i + j] + u.mul(v, cap)
    ecoeffs, scale = (), None
    if e > 1:
        ecoeffs, e_den = alg.ecoeff_models()
        if not e_den.is_constant():
            scale = lift_power(
                e_den, zero.domain, base.params.p ** (base.m - 1), zero.nvars, cap
            )
    for deg in range(2 * e - 2, e - 1, -1):
        c = conv[deg]
        if c.is_zero():
            continue
        conv[deg] = zero
        if scale is not None:
            conv = [u.mul(scale, cap) for u in conv]
            den = den * e_den
        for i, ecoef in enumerate(ecoeffs):
            conv[deg - e + i] = conv[deg - e + i] - c.mul(ecoef, cap)
    return conv[:e], den


def _componentwise(op, *elems):
    """op on the model numerators of each component, all components of all
    operands over one shared denominator, peeled once."""
    e = elems[0].base.e
    nums, den = cohen.to_models([c for x in elems for c in x.components])
    return _peel(elems[0].algebra, ([op(*nums[w::e]) for w in range(e)], den))


def _peel(alg, vec):
    """The BaseElem of a model vector, peeled when read if every component
    keeps all m positions, else now, through the positions each keeps."""
    nums, den = vec
    base = alg.base
    if base.trunc == base.nilpotency:
        return BaseElem(alg, [cohen.CohenElem.kept(alg.ring, base.m, num, den) for num in nums])
    return BaseElem(alg, [
        cohen.from_model(num, den, alg.ring, base.m, top=base.component_bound(w) - 1)
        for w, num in enumerate(nums)
    ])


def graded_unit(base: ArtinianBase, i, c):
    """The canonical representative of c in I^i/I^{i+1}: pi^{w0} p^s teich(c)."""
    alg = base.algebra()
    e = base.e
    w0, s = i % e, i // e
    comps = [cohen.CohenElem.zero(base.field_ring, base.m)] * e
    comps[w0] = cohen.teich_lift(base.field_ring, base.m, c)
    return BaseElem(alg, comps).scale_p(s)


def structure_map(base: ArtinianBase, c) -> BaseElem:
    """The ring homomorphism C_{L}(k) -> A for L >= m: truncate the level,
    then include as the pi^0 component.

    On the Witt-vector image this restricts to the lifted ghost-component
    structure; the p-basis monomial generators go to their canonical lifts.
    """
    if c.level < base.m:
        raise TypeMismatch(f"level {c.level} is below the base level {base.m}")
    return base.algebra().from_component(cohen.truncate_level(c, base.m))


class LiftedEtaleElem(PowerBasisElem):
    __slots__ = ()

    def residue(self):
        """The image in Q."""
        return self.algebra.q.from_coords(c.residue() for c in self.coords)

    def __repr__(self):
        return f"<A[y] {list(self.coords)!r}>"


class LiftedEtale(PowerBasisAlgebra):
    """The canonical lifting of an etale extension Q = k[y]/(g) over A:
    A[y]/(g~) with g~ the coefficientwise canonical lift of g.  Formally
    etale over A; reduces to Q modulo I."""

    elem = LiftedEtaleElem

    def __init__(self, base: ArtinianBase, q: EtaleAlgebra):
        alg = base.algebra()
        super().__init__((alg.teich(c) for c in q.coeffs), alg.zero(), alg.one(), (base, q))
        self.base = base
        self.q = q

    def reduction_coeffs(self):
        """Residues of the lifted defining polynomial: recovers g."""
        return tuple(c.residue() for c in self.coeffs)

    def reduce_mod(self, j):
        """The lifting over A/I^j (base change)."""
        return LiftedEtale(self.base.quotient(j), self.q)

    def __repr__(self):
        return f"<lift of {self.q!r} over {self.base!r}>"


def canonical_lift(q, base: ArtinianBase):
    """The canonical lifting h(Q) over A for the supported Q.

    * Q = k: the base itself (as its algebra of k-points);
    * Q etale over k: A[y]/(lifted g);
    * Q a symbolic polynomial ring over k: the same base algebra with
      symbolic Cohen components (the scheme of points of A).
    """
    if isinstance(q, PrimeParams):
        if q != base.params:
            raise TypeMismatch("mismatched base field")
        return base.algebra()
    if isinstance(q, EtaleAlgebra):
        return LiftedEtale(base, q)
    if isinstance(q, SymbolicRing):
        return base.algebra(q)
    if isinstance(q, EtaleRing):
        return LiftedEtale(base, q.algebra)
    raise UnsupportedAlgebra(f"no canonical lifting for {type(q).__name__}")
