"""Truncated Cohen rings C_{n+1}(Q) in canonical coordinates.

C_{n+1}(Q) sits inside the length-(n+1) Witt vectors over the n-th
Frobenius twist of Q.  For the supported ambients the twist collapses onto
Q itself: the Witt-vector image of Q carries entrywise p^n-th powers, and
the distinguished generators become Teichmuller lifts of the p-basis
monomials.  Every element then has a unique canonical form

    sum over slots (j, i) of the vector with  x_j(i)^{p^n} * t^{i p^j}
    in position j and zeros elsewhere,

where j runs over Witt positions 0..n and i over [0, p^{n-j}-1]^d.  A
CohenElem stores exactly the coordinates x_j(i); `to_witt` realizes the sum
and `extract` inverts it, failing with NotInCohen off the subring.

For a symbolic ambient k[z_1..z_s] the twist raises k-coefficients to the
p^n-th power and fixes the symbols, so extraction tests digits of the
coefficients only.

Arithmetic over k, k[z] and etale Q does not go through Witt vectors.
Cohen's structure theorem (I. S. Cohen, Trans. AMS 59, 1946) gives
C_{n+1}(k) = (Z/p^{n+1})[T]_(p), T the lift of the p-basis, and in that
model the canonical form reads

    c = sum over slots (j, i) of  p^j * x~_j(i)^{p^{n-j}} * T^i,

x~ any lift of x with F_p coefficients (the p^{n-j}-th power forgets the
choice modulo p^{n-j+1}).  An element is kept as num / lift(den)^{p^n}
with num over Z/p^{n+1} and den a nonzero F_p polynomial in T, so sums and
products are polynomial arithmetic and p-division divides num.  Choosing
den = lcm of the coordinates' denominators, slot (j, i) adds
p^j * T^i * lift(x * den^{p^j})^{p^{n-j}} to num.  `to_models` is the one
way into the model: it brings all operands of an operation over one shared
den (a kept model is multiplied by the lift of its cofactor to the p^n).

A symbolic coordinate x(z) enters the same way after the substitution
z = w^{p^n}: the twist of x is X(w)^{p^n}, X being x with each z renamed w
and the same k-coefficients, so num lives in (Z/p^{n+1})[T, W] and slot
(j, i) adds p^j * T^i * lift(X(w) * den^{p^j})^{p^{n-j}}.  This is the
generic point of Greenberg's construction (Greenberg, "Schemata over local
rings", Ann. Math. 73, 1961) expanded once, with no Witt carries.

`from_model` inverts this by p-adic peeling.  At position j the residual
numerator, reduced mod p, is sum_i V_i(T^{p^{n-j}}, W^{p^{n-j}}) T^i with
polynomials V_i (split the T-exponents mod p^{n-j}; the W-exponents are
multiples of p^{n-j}), and the coordinate is x_j(i) = V_i(T, z) / den^{p^j}.
Subtracting sum_i T^i * lift(V_i)^{p^{n-j}} clears the residual mod p, the
numerator is divided by p exactly, and the next position follows; the
denominator never changes.  Zero is a zero numerator mod p^{n+1}.  A peeled
element keeps its model for the next operation; `BaseElem` results in
base.py keep only their models (`CohenElem.kept`) and peel when read, and
a unit's inverse has a closed form (`model_inverse`).  Over a ring with a
monomial cap (the Greenberg transform's k[z]) the model's products and
lift powers raise ResourceLimit past it.

Over an etale Q = k[y]/(g) the model is C_{n+1}(k)[Y]/(G): W_n of an
etale map is etale (W. van der Kallen, Math. Z. 191, 1986; L. Illusie,
Ann. Sci. ENS 12, 1979), so any monic lift of g presents C_{n+1}(Q).  With
L the lcm of g's denominators, Y = L*y is a root of the monic
g'(Y) = L^deg g(Y/L) over F_p[t], and G lifts g' coefficientwise; num lies
in (Z/p^{n+1})[T, Y], reduced mod G after products and lift powers.  At
position j the residual mod p over den^{p^n} is an element of Q whose
(n-j)-fold digits are the coordinates; that row, re-entered at position 0
of level n-j+1, is subtracted from the residual (a kept model over
den^{p^j}) before dividing by p.  The den may grow there, since the
digits of Q carry the denominators of its inverse Frobenius matrix.

`to_witt` and `extract` serve the witt/cohen commands, and the tests as the
model's oracle; over k their Witt ops run on the ghost engine of witt.py.
"""

from .basefield import BaseFieldElem
from .errors import InternalError, LevelMismatch, NotInCohen, NotInImage, TypeMismatch
from .polys import (
    SparsePoly,
    ZmodDomain,
    div_p,
    exact_div,
    lift_power,
    poly_gcd,
    poly_lcm,
    reduce_coeffs,
    shift,
)
from .rings import EtaleRing, FieldRing, SymbolicRing, multi_indices

# witt_add, witt_mul and witt_neg are unused here, but perfbench/spans.py
# times them under this module's names too
from .witt import WittVector, witt_add, witt_mul, witt_neg, witt_sub, witt_sum, witt_zero


class CohenElem:
    """Canonical coordinates of an element of C_{n+1}(Q).

    ``coords`` maps (j, i) to a nonzero ambient element, j the Witt
    position, i a multi-index tuple in [0, p^{n-j}-1]^d.  ``model`` keeps
    the (num, den) an element was peeled from, so the next operation
    starts from it instead of rebuilding it from the coordinates (whose
    position-j denominators carry p^j-th powers).  A `kept` element has
    only its model and is peeled when ``coords`` is first read.
    """

    __slots__ = ("ring", "level", "_coords", "model")

    def __init__(self, ring, level, coords):
        self.ring = ring
        self.model = None
        self.level = level  # n + 1
        clean = {}
        n = level - 1
        d = ring.params.d
        for (j, i), x in coords.items():
            i = tuple(i)
            if not 0 <= j <= n:
                raise LevelMismatch(f"position {j} outside level {level}")
            if len(i) != d or any(c < 0 or c >= ring.char_p ** (n - j) for c in i):
                raise LevelMismatch(f"index {i} not allowed at position {j}")
            if not ring.is_zero(x):
                clean[(j, i)] = x
        self._coords = clean

    @classmethod
    def kept(cls, ring, level, num, den):
        """The element num / lift(den)^{p^n}, num modulo p^level."""
        c = cls.__new__(cls)
        c.ring, c.level, c._coords, c.model = ring, level, None, (num, den)
        return c

    @property
    def coords(self):
        if self._coords is None:
            self._coords = from_model(*self.model, self.ring, self.level).coords
        return self._coords

    @classmethod
    def zero(cls, ring, level):
        return cls(ring, level, {})

    @classmethod
    def single(cls, ring, level, j, i, x):
        return cls(ring, level, {(j, tuple(i)): x})

    def is_zero(self):
        if self._coords is None:  # zero is a zero numerator mod p^level
            return self.model[0].is_zero()
        return not self._coords

    def support_min_position(self):
        return min((j for j, _ in self.coords), default=self.level)

    def sorted_coords(self):
        return sorted(self.coords.items())

    def __eq__(self, other):
        if not isinstance(other, CohenElem):
            return NotImplemented
        return self.ring == other.ring and self.level == other.level and self.coords == other.coords

    def __hash__(self):
        return hash((self.level, tuple(sorted(self.coords))))

    def __repr__(self):
        parts = ", ".join(
            f"x_{j}{list(i)}={self.ring.to_string(x)}" for (j, i), x in self.sorted_coords()
        )
        return f"<C_{self.level} {{{parts}}}>"


def slot_indices(ring, level):
    """All (j, i) slots of C_level, position-major, indices lexicographic."""
    p, d = ring.char_p, ring.params.d
    return [(j, i) for j in range(level) for i in multi_indices(p ** (level - 1 - j), d)]


def _single_vector(ring, level, j, i, x):
    n = level - 1
    entries = [ring.zero()] * level
    mono = ring.params.monomial(tuple(c * ring.char_p**j for c in i))
    entries[j] = ring.twist(x, n) * ring.scalar(mono)
    return WittVector(ring, entries)


def to_witt(c: CohenElem) -> WittVector:
    """Witt-sum of the single-slot vectors of the canonical form."""
    singles = [_single_vector(c.ring, c.level, j, i, x) for (j, i), x in c.sorted_coords()]
    return witt_sum([witt_zero(c.ring, c.level)] + singles)


def extract(w: WittVector, max_position=None) -> CohenElem:
    """Invert the canonical form: greedy level-by-level digit extraction.

    At position j the residual entry must expand as
    sum_m c_m^{p^n} t^m with c_m = 0 unless p^j divides m componentwise;
    the surviving digits are the coordinates x_j(i), i = m / p^j.  Their
    realization is Witt-subtracted and the next position processed.  Any
    forbidden digit, or a nonzero final residual, raises NotInCohen.

    ``max_position`` stops after that position, ignoring what remains above
    it (the tests' Witt route of exact p-division, where the top of the
    vector is free).
    """
    ring = w.ring
    level = len(w)
    n = level - 1
    p = ring.char_p
    top = n if max_position is None else max_position
    residual = w
    coords = {}
    for j in range(top + 1):
        entry = residual[j]
        if ring.is_zero(entry):
            continue
        digits = ring.digits_iter(entry, n)
        part = {}
        for m, cval in sorted(digits.items()):
            if any(comp % p**j for comp in m):
                raise NotInCohen(
                    f"position {j}: digit at index {m} is not divisible by p^{j}"
                )
            i = tuple(comp // p**j for comp in m)
            part[(j, i)] = cval
        coords.update(part)
        residual = witt_sub(residual, to_witt(CohenElem(ring, level, part)))
        if not ring.is_zero(residual[j]):
            raise InternalError("digit extraction did not clear its position")
    if max_position is None and not residual.is_zero():
        raise NotInCohen("nonzero residual after the last position")
    return CohenElem(ring, level, coords)


# -- the model (Z/p^{n+1})[T]_(p) of C_{n+1}(k) ------------------------------


def _k_terms(ring, x):
    """An ambient element as (exponents after the T ones, k-coefficient)
    pairs: the symbol exponents over k[z], the power of Y over Q."""
    if isinstance(ring, SymbolicRing):
        return x.terms.items()
    if isinstance(ring, EtaleRing):
        # to_models needs a common multiple of the dens, not lowest terms
        powers = ring.algebra.integral_form()[1]
        return [((k,), BaseFieldElem(ring.params, c.num, c.den * powers[k], normalize=False))
                for k, c in enumerate(x.coords) if not c.is_zero()]
    return (((), x),)


def _model_nvars(ring):
    """The model's variables: the d lifted p-basis elements, then one per
    symbol of a symbolic ambient, or Y over an etale Q."""
    if isinstance(ring, SymbolicRing):
        return ring.params.d + ring.nvars
    return ring.params.d + (1 if isinstance(ring, EtaleRing) else 0)


def _reduce_g(num, ring):
    """num modulo G, the coefficientwise lift of g' (see
    `EtaleAlgebra.integral_form`), over an etale Q, folding the rows of
    Y-degree >= deg from the top down; num itself over k and k[z]."""
    if not isinstance(ring, EtaleRing) or num.degree_in(ring.params.d) < ring.algebra.deg:
        return num
    d, dom, deg = ring.params.d, num.domain, ring.algebra.deg
    rows, zero = {}, SparsePoly.zero(num.domain, d)
    for e, c in num.terms.items():
        rows.setdefault(e[d], {})[e[:d]] = c
    rows = {m: SparsePoly(dom, d, terms) for m, terms in rows.items()}
    for m in range(max(rows), deg - 1, -1):
        row = rows.pop(m, zero)
        for k, g in enumerate(ring.algebra.integral_form()[0]):
            rows[m - deg + k] = rows.get(m - deg + k, zero) - row * lift_power(g, dom, 1)
    terms = {e + (m,): c for m, row in rows.items() for e, c in row.terms.items()}
    return SparsePoly(dom, d + 1, terms)


def to_models(elems):
    """Elements of one C_{n+1}(k), C_{n+1}(k[z]) or C_{n+1}(Q) as
    numerators over one shared den."""
    ring, level = elems[0].ring, elems[0].level
    params = ring.params
    p, n = params.p, level - 1
    dom = ZmodDomain(p**level)
    nvars, cap = _model_nvars(ring), ring.monomial_cap
    one = params._one_poly()
    dens = [c.model[1] for c in elems if c.model is not None]
    dens += [a.den for c in elems if c.model is None
             for x in c.coords.values() for _, a in _k_terms(ring, x)]
    den = poly_lcm(dens, one)
    den_powers = [one]  # den^(p^j - 1)
    for _ in range(n):
        den_powers.append(den_powers[-1].pow(p) * den.pow(p - 1))
    cofactors = {}
    nums = []
    for c in elems:
        if c.model is not None:
            num, d = c.model
            if d != den:
                num = num.mul(lift_power(exact_div(den, d), dom, p**n, nvars, cap), cap)
            nums.append(num)
            continue
        num = SparsePoly.zero(dom, nvars)
        for (j, i), x in c.coords.items():
            terms = {}  # x * den^(p^j), symbol exponents after the T ones
            for e, a in _k_terms(ring, x):
                cof = cofactors.get(a.den)
                if cof is None:
                    cof = cofactors[a.den] = exact_div(den, a.den)
                for t, v in (a.num * cof * den_powers[j]).terms.items():
                    terms[t + e] = v
            w = SparsePoly(params.domain, nvars, terms)
            power = _reduce_g(lift_power(w, dom, p ** (n - j), cap=cap), ring)
            num = num + shift(power, i, p**j)
        nums.append(num)
    return nums, den


def model_inverse(num, den, ring, level):
    """The inverse of the unit num / lift(den)^{p^n}: num^{p^n} and
    lift(num mod p)^{p^n} agree modulo p^{n+1}, so it is
    lift(den)^{p^n} * num^{p^n - 1} over the new den num mod p, scaled to
    leading coefficient 1."""
    p, e = ring.char_p, ring.char_p ** (level - 1)
    dom = num.domain
    new_den = reduce_coeffs(num, ring.params.domain)
    inv_lc = ring.params.domain.inv(new_den.leading()[1])
    new_num = lift_power(den, dom, e) * num.pow(e - 1)
    return shift(new_num, (), pow(inv_lc, e, dom.q)), new_den.scale(inv_lc)


def _coordinate(ring, v, den):
    """The ambient element v / den, v an F_p polynomial in the model's
    variables with the symbol exponents undone; over Q, Y^k is L^k y^k."""
    params = ring.params
    if isinstance(ring, FieldRing):
        return BaseFieldElem(params, v, den)
    d = params.d
    parts = {}
    for e, c in v.terms.items():
        parts.setdefault(e[d:], {})[e[:d]] = c
    if isinstance(ring, EtaleRing):
        powers = ring.algebra.integral_form()[1]
        return ring.algebra.from_coords(
            BaseFieldElem(params, SparsePoly(params.domain, d, parts.get((k,), {})) * lk, den)
            for k, lk in enumerate(powers))
    coeffs = {
        e: BaseFieldElem(params, SparsePoly(params.domain, d, terms), den)
        for e, terms in parts.items()
    }
    return SparsePoly(ring.domain, ring.nvars, coeffs)


def from_model(num, den, ring, level, top=None):
    """Peel the canonical coordinates at positions 0..top (default: all)
    off num / lift(den)^{p^n}; num may be known modulo p^{level - top} only.
    NotInCohen when a symbol exponent at position j is not a multiple of
    p^{n-j}: then num is no element's model."""
    params = ring.params
    p, n, d = params.p, level - 1, params.d
    symbolic = isinstance(ring, SymbolicRing)
    top = n if top is None else top
    model = num, den
    complete = top == n and num.domain.q == p**level
    coords = {}
    den_j = den  # den^(p^j)
    for j in range(top + 1):
        if num.is_zero():
            break
        q = p ** (n - j)
        if isinstance(ring, EtaleRing):
            x = _coordinate(ring, reduce_coeffs(num, params.domain), den_j.pow(q))
            row = ring.digits_iter(x, n - j)
            coords.update(((j, i), v) for i, v in row.items())
            if j < top:  # the residual less the row, both at level n - j + 1
                row = CohenElem(ring, n - j + 1, {(0, i): v for i, v in row.items()})
                (num, sub), den_j = to_models([CohenElem.kept(ring, n - j + 1, num, den_j), row])
                cleared = num - reduce_coeffs(sub, num.domain)
        else:
            parts = {}
            for e, c in num.terms.items():
                c %= p
                if c:
                    if symbolic and any(a % q for a in e[d:]):
                        raise NotInCohen(f"symbol exponents {e[d:]} at position {j} "
                                         f"are not multiples of {q}")
                    m = tuple(a % q for a in e[:d])
                    parts.setdefault(m, {})[tuple(a // q for a in e)] = c
            cleared = num
            for m, terms in parts.items():
                v = SparsePoly(params.domain, num.nvars, terms)
                coords[(j, m)] = _coordinate(ring, v, den_j)
                if j < top:
                    lift = lift_power(v, num.domain, q, cap=ring.monomial_cap)
                    cleared = cleared - shift(lift, m, 1)
        if j < top:
            num = div_p(cleared, p, "digit extraction did not clear its position")
            den_j = den_j.pow(p)
    c = CohenElem(ring, level, coords)
    if complete:
        c.model = model
    return c


def cohen_add(a: CohenElem, b: CohenElem) -> CohenElem:
    _check_pair(a, b)
    (x, y), den = to_models([a, b])
    return from_model(x + y, den, a.ring, a.level)


def cohen_sub(a: CohenElem, b: CohenElem) -> CohenElem:
    _check_pair(a, b)
    (x, y), den = to_models([a, b])
    return from_model(x - y, den, a.ring, a.level)


def cohen_mul(a: CohenElem, b: CohenElem) -> CohenElem:
    _check_pair(a, b)
    (x, y), den = to_models([a, b])
    prod = _reduce_g(x.mul(y, a.ring.monomial_cap), a.ring)
    return from_model(prod, den * den, a.ring, a.level)


def cohen_neg(a: CohenElem) -> CohenElem:
    (x,), den = to_models([a])
    return from_model(-x, den, a.ring, a.level)


def cohen_from_int(ring, level, value):
    """The integer value in C_level over any ambient: its coordinates lie
    in F_p, so they are computed over k and embedded."""
    k = FieldRing(ring.params)
    dom = ZmodDomain(ring.char_p**level)
    num = SparsePoly.constant(dom, ring.params.d, value % dom.q)
    return embed(from_model(num, ring.params._one_poly(), k, level), ring)


def embed(c, ring):
    """Re-coordinate a CohenElem over k into a larger ambient ring."""
    if c.ring == ring:
        return c
    return CohenElem(ring, c.level, {slot: ring.scalar(x) for slot, x in c.coords.items()})


def _check_pair(a, b):
    if a.ring != b.ring or a.level != b.level:
        raise TypeMismatch("Cohen operands over different rings or levels")


def ver_embed(c: CohenElem, target_level) -> CohenElem:
    """The additive embedding C_{m+1} -> C_{n+1}: slot (j, i) moves to
    (j + n - m, i); index ranges match on the nose."""
    if target_level < c.level:
        raise LevelMismatch(f"cannot embed level {c.level} into {target_level}")
    offset = target_level - c.level
    coords = {(j + offset, i): x for (j, i), x in c.coords.items()}
    return CohenElem(c.ring, target_level, coords)


def p_pow_times(c: CohenElem, exponent=1) -> CohenElem:
    """p^exponent * c: the model's numerator times p^exponent."""
    (x,), den = to_models([c])
    return from_model(shift(x, (), c.ring.char_p**exponent), den, c.ring, c.level)


def solve_p_division(target: CohenElem, exponent) -> CohenElem:
    """Find c with p^exponent * c = target, target supported at positions
    >= exponent (the Verschiebung-embedded copy of the lower level).

    The model divides the numerator by p^e, peels positions 0..n-e (the
    positions above are free and left zero), and checks p^e * c = target
    in the model.  Over k[z] the peel refuses a quotient whose symbols
    occur to powers no element has, such as target x_1(0) = t*u at level 2.
    """
    ring = target.ring
    level = target.level
    n = level - 1
    e = exponent
    if e < 0 or e > n:
        raise NotInImage(f"exponent {e} outside [0, {n}]")
    if target.support_min_position() < e:
        raise NotInImage(f"target has support below position {e}")
    if e == 0:
        return target
    (num,), den = to_models([target])
    quot = num
    for _ in range(e):
        quot = div_p(quot, ring.char_p, "p-division of a numerator not divisible by p")
    try:
        c = from_model(quot, den, ring, level, top=n - e)
    except NotInCohen as exc:
        raise NotInImage(f"target is not p^{e} times an element: {exc}") from None
    (back,), c_den = to_models([c])
    back = shift(back, (), ring.char_p**e)
    if c_den != den:  # compare over lcm(c_den, den)
        g, cap = poly_gcd(c_den, den), ring.monomial_cap
        lift = lambda f: lift_power(exact_div(f, g), num.domain, ring.char_p**n, num.nvars, cap)
        back, num = back.mul(lift(den), cap), num.mul(lift(c_den), cap)
    if back != num:
        raise InternalError("p-division verification failed")
    return c


def residue(c: CohenElem):
    """The image in C_{n+1}(k)/(p) = k: reassemble the position-0 digits."""
    ring = c.ring
    n = c.level - 1
    acc = ring.zero()
    for (j, i), x in c.coords.items():
        if j == 0:
            acc = acc + ring.twist(x, n) * ring.scalar(ring.params.monomial(i))
    return acc


def teich_lift(ring, level, value) -> CohenElem:
    """The canonical lift of an ambient element: position-0 coordinates are
    its n-fold digits, higher positions vanish.  Its residue is the value
    again.  (The Teichmuller vector (value, 0, .., 0) itself usually lies
    outside the subring; on p-basis monomials the two lifts agree.)"""
    n = level - 1
    coords = {(0, m): x for m, x in ring.digits_iter(value, n).items()}
    return CohenElem(ring, level, coords)


def truncate_level(c: CohenElem, target_level) -> CohenElem:
    """The quotient map C_{n+1} -> C_{m+1} (m <= n): the model modulo
    p^{m+1}, peeled at the lower level."""
    if target_level > c.level:
        raise LevelMismatch("truncation target exceeds level")
    if target_level == c.level:
        return c
    # T and Y map to themselves: reduce num mod p^L, and lift(den)^{p^n} is
    # lift(den^{p^{n-L+1}})^{p^{L-1}} modulo p^L; a symbol's w becomes
    # w^s, s = p^{n-L+1}, since z = w^{p^n} = (w^s)^{p^{L-1}}
    (num,), den = to_models([c])
    p, d = c.ring.char_p, c.ring.params.d
    s = p ** (c.level - target_level)
    low = reduce_coeffs(num, ZmodDomain(p**target_level))
    if isinstance(c.ring, SymbolicRing):
        if any(a % s for e in low.terms for a in e[d:]):
            raise InternalError(f"symbol exponents are not multiples of {s}")
        terms = {e[:d] + tuple(a // s for a in e[d:]): v for e, v in low.terms.items()}
        low = SparsePoly(low.domain, low.nvars, terms)
    return from_model(low, den.pow(s), c.ring, target_level)
