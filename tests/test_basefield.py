import random
import time

import pytest

from gkit.basefield import (
    BaseFieldElem,
    EtaleAlgebra,
    PrimeParams,
    _is_prime,
    pbasis_expand,
    pth_root,
)
from gkit.errors import DivisionByZero, InternalError, NotAPthPower, NotAUnit, TypeMismatch
from gkit.linalg import row_reduce
from gkit.polys import FpDomain, SparsePoly, ZmodDomain, _dense_mul
from gkit.sampling import rand_etale_elem, rand_field_elem


def test_normalization_is_canonical(params2):
    t, one = params2.gen(0), params2.one()
    assert (t * t + t) / t == t + one
    assert str((t * t + t) / t) == "t + 1"
    # same value, different builds, identical representation
    a = (t**3 + t) / (t**2 + one)
    b = t * (t**2 + one) / (t + one) ** 2
    assert a == b and hash(a) == hash(b)


def test_field_ops_examples(params2):
    t, one = params2.gen(0), params2.one()
    assert (t + one) * (t + one) == t**2 + one
    assert t.inverse() == one / t
    with pytest.raises(DivisionByZero):
        params2.zero().inverse()


def test_leading_coefficient_convention_p3(params3):
    t, one = params3.gen(0), params3.one()
    two = params3.from_int(2)
    # denominator 2t normalizes to t with the scalar folded into the numerator
    e = one / (two * t)
    assert str(e) == "2/t"
    assert e * (two * t) == one


def test_expand_examples(params2):
    t, one = params2.gen(0), params2.one()
    d = pbasis_expand(t)
    assert d[(0,)].is_zero() and d[(1,)] == one
    d = pbasis_expand(t**3 + t**2)
    assert d[(0,)] == t and d[(1,)] == t
    assert d.reconstruct() == t**3 + t**2


def test_expand_reconstruction_random(params2, rng):
    for _ in range(100):
        f = rand_field_elem(rng, params2, 3)
        assert pbasis_expand(f).reconstruct() == f


def test_expand_uniqueness_random(params2, rng):
    idxs = params2.digit_indices()
    for _ in range(50):
        digits = {i: rand_field_elem(rng, params2) for i in idxs}
        f = params2.zero()
        for i, g in digits.items():
            f = f + g.pth_power() * params2.monomial(i)
        got = pbasis_expand(f)
        for i in idxs:
            assert got[i] == digits[i]


def test_frobenius_section(params2, rng):
    zero_idx = (0,)
    for _ in range(30):
        f = rand_field_elem(rng, params2)
        d = pbasis_expand(f.pth_power())
        assert d[zero_idx] == f
        assert all(v.is_zero() for i, v in d.digits.items() if i != zero_idx)


def test_pth_root(params2):
    t, one = params2.gen(0), params2.one()
    assert pth_root(t**2) == t
    assert pth_root(one / t**2) == one / t
    with pytest.raises(NotAPthPower):
        pth_root(t)


def test_d0_degenerates_to_prime_field():
    params = PrimeParams(3, 0)
    two = params.from_int(2)
    d = pbasis_expand(two)
    # p-th root on F_p is the identity on values: 2^3 = 8 = 2
    assert d[()] == two
    assert pth_root(two) == two


def test_d2_expand(params22, rng):
    for _ in range(30):
        f = rand_field_elem(rng, params22)
        assert pbasis_expand(f).reconstruct() == f


def test_etale_requires_separable(params2):
    t, one, zero = params2.gen(0), params2.one(), params2.zero()
    with pytest.raises(TypeMismatch):
        EtaleAlgebra(params2, [t, zero, one])  # y^2 + t has zero derivative


def test_etale_accepts_a_derivative_with_a_coefficient_divisible_by_p(params2):
    """g = y^3 + y^2/t + 1/t over F_2(t) is separable: g' = 3y^2 + 2y/t = y^2
    and g(0) = 1/t, so g' is a unit of Q.  The y-coefficient of g' is 2/t,
    which must be the canonical zero of k and no pivot of the solve."""
    t, one, zero = params2.gen(0), params2.one(), params2.zero()
    q = EtaleAlgebra(params2, [one / t, zero, one / t, one])
    y = q.gen()
    assert y**3 == q.from_coords([one / t, zero, one / t])
    assert (y * y) * (y * y).inverse() == q.one()
    assert pbasis_expand(y).reconstruct() == y


def test_etale_ops(etale_q, params2):
    t, one = params2.gen(0), params2.one()
    y = etale_q.gen()
    assert y * (y + etale_q.one()) == etale_q.from_k(t)
    assert y * y.inverse() == etale_q.one()
    assert (y * etale_q.from_k(params2.zero())).is_zero()
    with pytest.raises(DivisionByZero):
        (y * y + y + etale_q.from_k(t)).inverse()  # the defining relation
    # a split separable algebra has genuine zero divisors
    split = EtaleAlgebra(params2, [params2.zero(), one, one])  # y^2 + y
    with pytest.raises(NotAUnit):
        split.gen().inverse()


def test_negative_powers_are_refused(etale_q, base_unram2):
    """Power-basis and base-ring elements have no negative powers; the
    repeated squaring used to loop forever on one."""
    for x in (etale_q.gen(), base_unram2.algebra().one()):
        with pytest.raises(TypeMismatch, match="negative power"):
            x**-1


def test_etale_degree_three_inverses(params3):
    """Inverses solve the multiplication matrix: x * x^-1 = 1 on seeded
    elements of k[y]/(y^3 - y - t) at p = 3.  In the split k[y]/(y^3 - y)
    the zero divisors y, y + 1 and y^2 - 1 are no units while y + t is one,
    and y^3 - t (zero derivative) is refused as not separable."""
    import random

    t, one, zero = params3.gen(0), params3.one(), params3.zero()
    q = EtaleAlgebra(params3, [-t, -one, zero, one])
    rng = random.Random(3)
    for _ in range(20):
        x = rand_etale_elem(rng, q)
        if not x.is_zero():
            assert x * x.inverse() == q.one()
    split = EtaleAlgebra(params3, [zero, -one, zero, one])
    y = split.gen()
    for x in (y, y + split.one(), y * y - split.one()):
        with pytest.raises(NotAUnit):
            x.inverse()
    unit = y + split.from_k(t)
    assert unit * unit.inverse() == split.one()
    with pytest.raises(TypeMismatch, match="not separable"):
        EtaleAlgebra(params3, [-t, zero, zero, one])


def test_etale_expand_example(etale_q):
    y = etale_q.gen()
    d = pbasis_expand(y)
    assert d[(0,)] == y
    assert d[(1,)] == etale_q.one()
    assert d.reconstruct() == y


def test_etale_expand_random(etale_q, rng):
    for _ in range(50):
        f = rand_etale_elem(rng, etale_q)
        assert pbasis_expand(f).reconstruct() == f
    for _ in range(20):
        f = rand_etale_elem(rng, etale_q)
        d = pbasis_expand(f.pth_power(1))
        assert d[(0,)] == f


def test_element_strings_round_shape(params2):
    t, one = params2.gen(0), params2.one()
    assert str(t**2 + one) == "t^2 + 1"
    assert str((t + one) / t) == "(t + 1)/t"
    assert str(params2.zero()) == "0"


def _schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


# shorter lengths that put the Kronecker slot, (q-1)^2 times the shorter
# length in bytes, at the top of a machine word and just past it
SLOT_EDGES = {2: (255, 256), 3: (63, 64), 8: (5, 6), 27: (96, 97), 65537: (1, 2),
              4294967291: (1, 2)}


def test_slot_edges_cover_every_word_and_the_bytes_path():
    widths = {(((q - 1) ** 2 * n).bit_length() + 7) // 8
              for q, lengths in SLOT_EDGES.items() for n in lengths}
    # words of 1, 2, 4 (from 3) and 8 (from 5 and 8) bytes; 9 bytes is past them
    assert widths == {1, 2, 3, 5, 8, 9}


@pytest.mark.parametrize("p", [2, 4294967291, 3, 8, 27, 65537])
def test_dense_mul_matches_schoolbook(p, rng):
    """Kronecker slots are wide enough for (p-1)^2 times the shorter length,
    for q prime or not, in every machine-word slot and past them."""
    edges = [(n, n + 3) for n in SLOT_EDGES[p]]
    for n, m in ((40, 40), (40, 3), (1, 40), (7, 1), *edges):
        largest = ([p - 1] * n, [p - 1] * m)
        drawn = ([rng.randrange(1, p) for _ in range(n)], [rng.randrange(1, p) for _ in range(m)])
        for a, b in (largest, drawn):
            assert _dense_mul(a, b, p) == _schoolbook(a, b, p)


def _trial_division(n):
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**4) if _is_prime(n)] == [
        n for n in range(10**4) if _trial_division(n)
    ]


@pytest.mark.parametrize("n", [561, 2047, 3825123056546413051])
def test_is_prime_rejects_pseudoprimes(n):
    assert not _is_prime(n)


def test_large_prime_is_fast():
    t0 = time.monotonic()
    params = PrimeParams(2**64 + 13, 1)
    assert time.monotonic() - t0 < 0.5
    assert params.p == 2**64 + 13
    with pytest.raises(TypeMismatch, match="3317044064679887385961981"):
        PrimeParams(2**89 - 1, 1)


def test_etale_digits_singular_system(etale_q):
    """A singular digit system is an internal error, not a wrong answer.
    The digit system is the Frobenius matrix, zeroed here before its
    inverse is first built."""
    zero = etale_q.params.zero()
    etale_q._frob = [(zero,) * etale_q.deg for _ in range(etale_q.deg)]
    with pytest.raises(InternalError, match="singular linear system"):
        etale_q.gen().digits()


def _semilinear_digits(x):
    """Reference etale digits: the (p^d * deg)-square semilinear system on
    the power basis, solved by row reduction.  Unknown c[(i, j)] is the
    j-th coordinate of digit i; the row for (m, kappa) matches the
    kappa-digit of the m-th coordinate of sum c[(i, j)]^p Frob(y^j) t^i."""
    q, params = x.algebra, x.params
    idxs, zero = params.digit_indices(), params.zero()
    frob = q.frobenius_matrix()

    def k_digits(f):
        dig = f.digits()
        return [dig.get(kappa, zero) for kappa in idxs]

    cols = []
    for i in idxs:
        for j in range(q.deg):
            col = []
            for m in range(q.deg):
                col += k_digits(frob[j][m] * params.monomial(i))
            cols.append(col)
    rhs = [v for c in x.coords for v in k_digits(c)]
    n = len(cols)
    rows, pivots = row_reduce([[col[r] for col in cols] + [rhs[r]] for r in range(n)], zero)
    assert pivots == list(range(n))
    sol = [row[n] for row in rows]
    return {i: q.from_coords(sol[pos * q.deg : (pos + 1) * q.deg]) for pos, i in enumerate(idxs)}


def _reference_root(x):
    """Reference p-th roots.  Over k: num * den^(p-1) must have every
    exponent divisible by p, and dividing them by p gives the root's
    numerator.  Over Q: digit 0 of the semilinear solve when every other
    digit vanishes."""
    if isinstance(x, BaseFieldElem):
        p = x.params.p
        num = x.num.mul(x.den.pow(p - 1))
        if any(e % p for exps in num.terms for e in exps):
            raise NotAPthPower("an exponent is not divisible by p")
        terms = {tuple(e // p for e in exps): c for exps, c in num.terms.items()}
        return BaseFieldElem(x.params, SparsePoly(num.domain, num.nvars, terms), x.den)
    dig = _semilinear_digits(x)
    zero_idx = (0,) * x.params.d
    if any(not v.is_zero() for i, v in dig.items() if i != zero_idx):
        raise NotAPthPower("a digit other than digit 0 is nonzero")
    return dig[zero_idx]


def _root_or_refusal(root, x):
    try:
        return root(x)
    except NotAPthPower:
        return NotAPthPower


def _etale_cases():
    k2, k3, k22 = PrimeParams(2, 1), PrimeParams(3, 1), PrimeParams(2, 2)
    t2, t3, t1 = k2.gen(0), k3.gen(0), k22.gen(0)
    return {
        "y2+y+t": EtaleAlgebra(k2, [t2, k2.one(), k2.one()]),
        "y3-y-t": EtaleAlgebra(k3, [-t3, -k3.one(), k3.zero(), k3.one()]),
        "y2+y+t1": EtaleAlgebra(k22, [t1, k22.one(), k22.one()]),
        "y+t": EtaleAlgebra(k3, [t3, k3.one()]),
        "y2+y-split": EtaleAlgebra(k2, [k2.zero(), k2.one(), k2.one()]),
    }


@pytest.mark.parametrize("case", list(_etale_cases()))
def test_digits_and_roots_match_the_reference_routes(case):
    """Etale digits through the inverse Frobenius matrix equal the
    semilinear solve, and p-th roots over k and Q equal the reference
    routes: x^p has root x, x^p * t is refused, and a random x gets the
    same answer or the same refusal from both."""
    q = _etale_cases()[case]
    params = q.params
    t = params.gen(0)
    rng = random.Random(sum(map(ord, case)))
    for _ in range(8):
        x = rand_etale_elem(rng, q)
        assert x.digits() == _semilinear_digits(x)
        for y, t_y in ((x, q.from_k(t)), (x.coords[0], t)):
            power = y.pth_power()
            assert pth_root(power) == y == _reference_root(power)
            assert _root_or_refusal(pth_root, y) == _root_or_refusal(_reference_root, y)
            if not y.is_zero():
                with pytest.raises(NotAPthPower, match="digit at index"):
                    pth_root(power * t_y)
                with pytest.raises(NotAPthPower):
                    _reference_root(power * t_y)


def test_etale_digits_at_p31_are_fast():
    """One element of F_31(t)[y]/(y^2 + y + t) through digits, their
    reconstruction and a p-th root round trip, within 2 s.  The semilinear
    system this replaced is 62-square and took about 5 s for the digits."""
    t0 = time.monotonic()
    k = PrimeParams(31, 1)
    q = EtaleAlgebra(k, [k.gen(0), k.one(), k.one()])
    x = rand_etale_elem(random.Random(31), q)
    assert pbasis_expand(x).reconstruct() == x
    assert pth_root(x.pth_power()) == x
    assert time.monotonic() - t0 < 2.0


def test_elements_of_different_fields_differ():
    """Equal numerators and denominators over different (p, d, names) are
    different elements, as their product's TypeMismatch says."""
    t = PrimeParams(2, 1).gen(0)
    assert t == PrimeParams(2, 1).gen(0)
    assert t != PrimeParams(3, 1).gen(0)
    assert t != PrimeParams(2, 1, ["s"]).gen(0)
    with pytest.raises(TypeMismatch):
        t * PrimeParams(3, 1).gen(0)


def test_sums_of_polynomials_over_different_moduli_are_refused():
    """Z/4 and Z/8 numerators do not add; the modulus decides, so F_p and
    Z/p numerators, whose domains compare unequal, still do."""
    a = SparsePoly(ZmodDomain(4), 1, {(0,): 1})
    b = SparsePoly(ZmodDomain(8), 1, {(1,): 5})
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeMismatch, match="Z/"):
                op(x, y)
    f = SparsePoly(FpDomain(3), 1, {(0,): 2})
    g = SparsePoly(ZmodDomain(3), 1, {(0,): 1, (1,): 2})
    assert FpDomain(3) != ZmodDomain(3)
    assert (f + g).terms == {(1,): 2} and (f - g).terms == {(0,): 1, (1,): 1}
