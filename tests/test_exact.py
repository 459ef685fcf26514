"""Base arithmetic: rational valuations, cyclotomic elements, p-adic contexts."""

import random
from fractions import Fraction
from math import gcd

import pytest

from eiscong.errors import (
    ConductorTooLargeError,
    IndeterminateValuationError,
    ParameterError,
    RamifiedPrimeError,
)
from eiscong.exact import (
    INF,
    KRONECKER_MIN_LEN,
    KRONECKER_SMALL_BITS,
    CycElem,
    PadicContext,
    _hensel_lift_factor,
    _kronecker,
    _over_common,
    _pmul,
    _pmul_mod,
    cyclotomic_poly,
    euler_phi,
    mult_order,
    padic_context,
    teichmuller,
    valp_cyc,
    valp_rational,
)


def test_valp_rational_examples():
    assert valp_rational(Fraction(-691, 2730), 691) == 1
    assert valp_rational(Fraction(-691, 2730), 2) == -1
    assert valp_rational(Fraction(0), 5) == INF


def test_valp_rational_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        x = Fraction(rng.randrange(-500, 500) or 1, rng.randrange(1, 500))
        y = Fraction(rng.randrange(-500, 500) or 1, rng.randrange(1, 500))
        for p in (2, 3, 5, 7):
            assert valp_rational(x * y, p) == valp_rational(x, p) + valp_rational(y, p)


def test_cyc_examples():
    z4 = CycElem.zeta(4)
    assert (z4 * z4).as_rational() == -1
    z3 = CycElem.zeta(3)
    assert ((1 + z3) + z3 ** 2).is_zero()
    z5 = CycElem.zeta(5)
    assert (z5 * CycElem.zeta(5, 4)).as_rational() == 1
    assert (z4 * z4 + z4 * z4).as_rational() == -2


def _random_elem(rng, f):
    return CycElem(f, tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                            for _ in range(euler_phi(f))))


def test_ring_laws_randomized():
    rng = random.Random(2024)
    conductors = [f for f in range(1, 31)]
    for _ in range(200):
        f = rng.choice(conductors)
        a, b, c = (_random_elem(rng, f) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_conductor_lifting():
    a = CycElem.zeta(3)
    b = CycElem.zeta(4)
    with pytest.raises(ParameterError):
        a + b
    a2, b2 = a.lift(12), b.lift(12)
    assert a2.conductor == b2.conductor == 12
    assert a2 == CycElem.zeta(12, 4)
    # lifting is a ring homomorphism
    rng = random.Random(5)
    for _ in range(20):
        x = _random_elem(rng, 6)
        y = _random_elem(rng, 6)
        assert (x * y).lift(30) == x.lift(30) * y.lift(30)
        assert (x + y).lift(30) == x.lift(30) + y.lift(30)


def test_inverse_and_division():
    rng = random.Random(7)
    for f in (4, 5, 12, 30):
        for _ in range(10):
            x = _random_elem(rng, f)
            if x.is_zero():
                continue
            assert (x * x.inverse()).as_rational() == 1
            assert (x / x).as_rational() == 1


def test_inverse_of_sparse_elements_stays_exact():
    # sparse elements leave int coefficients of Phi_f in the Euclidean remainders
    z7 = CycElem.zeta(7)
    for x in (Fraction(1, 3) + z7**5, 1 + z7**2, CycElem(7, (Fraction(1, 3), 0, 0, 0, 0, 1)),
              CycElem(12, (0, 1, 0, 0)), CycElem.from_rational(3, 5)):
        inv = x.inverse()
        assert all(type(c) is Fraction for c in inv.coeffs)
        assert x * inv == CycElem.one(x.conductor)
        assert (x / x).as_rational() == 1


def _schoolbook(a, b, n=None):
    """The plain double loop, kept as the reference for ``_pmul``."""
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


def _signed(rng, length, bits, zeros=0.0):
    return [0 if rng.random() < zeros else rng.randrange(-2**bits, 2**bits + 1)
            for _ in range(length)]


def test_pmul_matches_schoolbook():
    rng = random.Random(6)
    short, long_ = KRONECKER_MIN_LEN - 1, KRONECKER_MIN_LEN + 1
    shapes = [  # (len a, bits a, len b, bits b)
        (0, 8, 5, 8), (5, 8, 0, 8), (0, 8, 0, 8), (1, 8, 1, 8), (1, 3000, 40, 5),
        (3, 60, 200, 60), (200, 60, 3, 60), (short, 30, short, 30), (long_, 30, long_, 30),
        (long_, 30, 300, 30), (60, 3000, 60, 3000), (60, 3100, 60, 40), (40, 8, 60, 3000),
        (70, KRONECKER_SMALL_BITS, 70, 1), (70, 4 * KRONECKER_SMALL_BITS, 70, 1),
    ]
    for la, ba, lb, bb in shapes:
        for zeros in (0.0, 0.5, 1.0):
            a, b = _signed(rng, la, ba, zeros), _signed(rng, lb, bb, zeros)
            full = la + lb - 1 if la and lb else 0
            for n in {None, 0, 1, full // 2, full, full + 3}:
                assert _pmul(a, b, n) == _schoolbook(a, b, n), (la, ba, lb, bb, zeros, n)


def test_kronecker_recovers_signed_coefficients():
    rng = random.Random(8)
    for la, lb, bits in ((1, 1, 1), (2, 7, 5), (KRONECKER_MIN_LEN, 90, 64), (50, 50, 3000)):
        for a, b in ((_signed(rng, la, bits), _signed(rng, lb, bits)),
                     ([-(2**bits)] * la, [2**bits] * lb), ([-1] * la, [-1] * lb)):
            bound = max(map(abs, a)) * max(map(abs, b)) * min(la, lb)
            full = la + lb - 1
            for n in (1, full // 2 + 1, full, full + 2):
                assert _kronecker(a[:n], b[:n], n, bound) == _schoolbook(a, b, n)


def test_over_common():
    xs = [Fraction(1, 6), Fraction(-3, 4), 5, Fraction(0)]
    nums, den = _over_common(xs)
    assert den == 12 and nums == [2, -9, 60, 0]
    assert _over_common([]) == ([], 1)


def test_products_with_and_without_shared_denominators_stay_exact():
    rng = random.Random(9)
    for f in (7, 12, 15, 16, 20, 35):
        deg = euler_phi(f)
        for dens in ((3, 3), (4, 6), (5, 7), (9, 8)):  # shared and coprime factors
            x = CycElem(f, tuple(Fraction(rng.randrange(-9, 10), dens[0]) for _ in range(deg)))
            y = CycElem(f, tuple(Fraction(rng.randrange(-9, 10), dens[1] * rng.randrange(1, 4))
                                 for _ in range(deg)))
            prod = x * y
            assert all(type(c) is Fraction for c in prod.coeffs)
            # against the product of the same polynomials over Q, reduced mod Phi_f
            phi = cyclotomic_poly(f)
            raw = _schoolbook(list(x.coeffs), list(y.coeffs))
            for i in range(len(raw) - 1, deg - 1, -1):
                c, raw[i] = raw[i], 0
                for j in range(deg):
                    raw[i - deg + j] -= c * phi[j]
            assert list(prod.coeffs) == raw[:deg]


def test_teichmuller_examples():
    assert teichmuller(2, 5, 2) == 7
    assert pow(7, 4, 25) == 1
    assert teichmuller(1, 37, 3) == 1
    for p, s in ((5, 2), (37, 2), (691, 1)):
        assert teichmuller(p - 1, p, s) == p**s - 1
    with pytest.raises(ParameterError):
        teichmuller(10, 5, 2)


def test_teichmuller_defining_properties_and_multiplicativity():
    rng = random.Random(3)
    for p, s in ((5, 3), (13, 2), (37, 2)):
        mod = p**s
        for _ in range(25):
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            wa, wb = teichmuller(a, p, s), teichmuller(b, p, s)
            assert wa % p == a % p
            assert pow(wa, p - 1, mod) == 1
            assert wa * wb % mod == teichmuller(a * b, p, s)


def test_padic_context_residue_degrees():
    # oracle: direct powering
    assert mult_order(37, 30) == 4
    assert padic_context(37, 30, 2).residue_degree == 4
    assert mult_order(5, 12) == 2
    assert padic_context(5, 12, 1).residue_degree == 2
    assert padic_context(37, 1, 2).residue_degree == 1
    for (p, f) in ((7, 20), (11, 9), (13, 40)):
        assert padic_context(p, f, 2).residue_degree == mult_order(p, f)


def test_padic_context_factor_product():
    for (p, f, s) in ((37, 30, 4), (5, 12, 3), (7, 9, 2)):
        ctx = padic_context(p, f, s)
        mod = p**s
        prod = [1]
        for g in ctx.all_factors:
            prod = _pmul_mod(prod, list(g), mod)
        phi = [c % mod for c in cyclotomic_poly(f)]
        while phi and phi[-1] == 0:
            phi.pop()
        assert prod == phi
        assert len(ctx.all_factors) == euler_phi(f) // ctx.residue_degree
        assert ctx.e == 1


def test_hensel_lift_returns_the_lifted_cofactor():
    for (p, f, s) in ((37, 30, 4), (5, 12, 3), (7, 9, 2), (3, 20, 5)):
        mod = p**s
        phi = [c % mod for c in cyclotomic_poly(f)]
        for g0 in padic_context(p, f, 1).all_factors:
            g, h = _hensel_lift_factor(list(cyclotomic_poly(f)), list(g0), p, s)
            assert tuple(g) == padic_context(p, f, s).all_factors[
                padic_context(p, f, 1).all_factors.index(g0)]
            assert g[-1] == h[-1] == 1
            assert _pmul_mod(g, h, mod) == phi


def test_padic_context_errors():
    with pytest.raises(RamifiedPrimeError):
        padic_context(5, 10, 2)
    with pytest.raises(ConductorTooLargeError):
        padic_context(7, 513, 1)
    with pytest.raises(ParameterError):
        padic_context(6, 5, 2)


def test_valp_cyc_constants():
    ctx = padic_context(37, 30, 3)
    assert valp_cyc(CycElem.from_rational(37, 30), ctx) == 1
    assert valp_cyc(CycElem.one(30), ctx) == 0
    assert valp_cyc(CycElem.zero(30), ctx) == INF
    assert valp_cyc(CycElem.from_rational(Fraction(1, 37), 30), ctx) == -1


def test_valp_cyc_matches_valp_rational_on_constants():
    rng = random.Random(13)
    ctx = padic_context(37, 30, 6)
    for _ in range(50):
        x = Fraction(rng.randrange(-10**6, 10**6) or 1, rng.randrange(1, 10**4))
        assert valp_cyc(CycElem.from_rational(x, 30), ctx) == valp_rational(x, 37)


def _context_with_factor(ctx: PadicContext, index: int) -> PadicContext:
    """ctx with the index-th lifted factor as its chosen prime."""
    return ctx._replace(prime_poly=ctx.all_factors[index])


def test_valp_cyc_norm_oracle():
    # sum of valuations over every prime above p, times the residue degree,
    # equals the p-valuation of the field norm
    rng = random.Random(99)
    for (p, f) in ((37, 30), (7, 20), (11, 9)):
        ctx = padic_context(p, f, 8)
        d = ctx.residue_degree
        for _ in range(6):
            x = CycElem(f, tuple(Fraction(rng.randrange(-20, 21))
                                 for _ in range(euler_phi(f))))
            if x.is_zero():
                continue
            total = sum(valp_cyc(x, _context_with_factor(ctx, i))
                        for i in range(len(ctx.all_factors)))
            assert total * d == valp_rational(x.norm(), p)


def test_valp_cyc_indeterminate():
    ctx = padic_context(37, 30, 1)
    x = CycElem.from_rational(37, 30)
    with pytest.raises(IndeterminateValuationError) as err:
        valp_cyc(x, ctx)
    assert err.value.precision == 1


def test_valp_cyc_conductor_mismatch():
    ctx = padic_context(37, 30, 2)
    with pytest.raises(ParameterError):
        valp_cyc(CycElem.one(12), ctx)


def test_galois_conjugate_and_norm():
    z = CycElem.zeta(5)
    x = 1 + z
    # norm of 1 + zeta_5 is Phi_5(-1) = 1
    assert x.norm() == 1
    conj_prod = CycElem.one(5)
    for a in (1, 2, 3, 4):
        conj_prod = conj_prod * x.galois_conjugate(a)
    assert conj_prod.as_rational() == 1


def test_galois_conjugation_composes_and_commutes_with_lifting():
    rng = random.Random(13)
    for f, F in ((4, 12), (5, 10), (7, 21), (9, 36), (12, 60)):
        units_f = [a for a in range(1, f) if gcd(a, f) == 1]
        units_F = [a for a in range(1, F) if gcd(a, F) == 1]
        assert CycElem.zeta(f, -1) * CycElem.zeta(f) == CycElem.one(f)
        for _ in range(5):
            x = _random_elem(rng, f)
            a, b, c = rng.choice(units_f), rng.choice(units_f), rng.choice(units_F)
            assert x.galois_conjugate(a).galois_conjugate(b) == x.galois_conjugate(a * b % f)
            assert x.lift(F).galois_conjugate(c) == x.galois_conjugate(c % f).lift(F)


def test_sturm_bound_checks_weight_and_level():
    from eiscong import qexp
    from eiscong.exact import sturm_bound
    assert qexp.sturm_bound is sturm_bound
    assert [sturm_bound(0, 1), sturm_bound(12, 1), sturm_bound(32, 31)] == [0, 1, 86]
    with pytest.raises(ParameterError, match=r"weight k = -12 must be >= 0"):
        sturm_bound(-12, 1)
    with pytest.raises(ParameterError, match=r"level N = 0 must be >= 1"):
        sturm_bound(12, 0)


def test_cycelem_is_a_frozen_value():
    a, b = CycElem(5, (Fraction(1), Fraction(2), 0, 0)), CycElem.zeta(5) * 2 + 1
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != CycElem.zeta(5) and a != (5, a.nums, a.den) and a != 1

    class Other(CycElem):
        __slots__ = ()

    assert Other(5, a.nums) != a and a != Other(5, a.nums)
    for name in ("conductor", "nums", "den", "coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    for name in ("nums", "den"):
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a._replace(nums=(1, 0, 0, 0)) == CycElem.one(5)
    assert a._replace(den=2) == a * Fraction(1, 2)
    assert a == b and repr(a) == "CycElem(cyc5:1,2,0,0)"
    import copy
    assert copy.deepcopy(a) == a and copy.copy(a) == a


def test_cycelem_is_not_a_tuple():
    a = CycElem.zeta(5)
    for op in (lambda: a + (1,), lambda: (1,) + a, lambda: len(a), lambda: a[0]):
        with pytest.raises(TypeError):
            op()
    assert 2 * a == a + a


def _format_is_canonical(x):
    """The fields of x are the normal form: phi(f) integers over a positive
    denominator coprime to them all, 1 for zero."""
    assert len(x.nums) == euler_phi(x.conductor) and all(type(c) is int for c in x.nums)
    assert type(x.den) is int and x.den > 0 and gcd(x.den, *x.nums) == 1
    assert CycElem(x.conductor, x.nums, x.den) == x
    assert x.coeffs == tuple(Fraction(n, x.den) for n in x.nums)


def test_equal_elements_have_equal_fields_whichever_way_they_are_built():
    rng = random.Random(12)
    for f, F in ((3, 12), (5, 10), (7, 21), (12, 60), (9, 36)):
        units = [a for a in range(1, F) if gcd(a, F) == 1]
        for _ in range(4):
            x, y = _random_elem(rng, f), _random_elem(rng, f)
            if x.is_zero():
                continue
            a = rng.choice(units)
            pairs = [
                (x * x.inverse(), CycElem.one(f)),
                (x + y - y, x),
                (x.lift(F).galois_conjugate(a), x.galois_conjugate(a % f).lift(F)),
                (x - x, CycElem.zero(f)),
            ]
            for j in range(euler_phi(f), 2 * f + 1):  # powers past the basis wrap mod Phi_f
                pairs.append((CycElem.zeta(f, j), CycElem.zeta(f) ** j))
            for u, v in pairs:
                _format_is_canonical(u)
                _format_is_canonical(v)
                assert (u.conductor, u.nums, u.den) == (v.conductor, v.nums, v.den)
                assert hash(u) == hash(v)
    zero = CycElem(7, (0, 0, 0), 5)
    assert zero == CycElem.zero(7) and zero.den == 1 and zero.nums == (0,) * 6


def test_constructor_reduces_any_vector():
    # Phi_5 = 1 + x + x^2 + x^3 + x^4, so x^4 = -(1 + x + x^2 + x^3)
    x = CycElem(5, (Fraction(1, 2), 0, 0, 0, Fraction(3, 4), 0, 1), -6)
    assert x.nums == (1, -1, 3, 3) and x.den == 24
    assert x == (Fraction(1, 2) + Fraction(3, 4) * CycElem.zeta(5, 4) + CycElem.zeta(5, 6)) / -6
    assert CycElem(12, ()) == CycElem.zero(12) and CycElem(1, (2, 4), 6) == CycElem.one(1)
    with pytest.raises(ZeroDivisionError):
        CycElem(5, (1,), 0)
    with pytest.raises(ZeroDivisionError):
        CycElem.zero(5).inverse()


def fraction_str(x):
    """The rendering `CycElem.__str__` replaced: each coordinate as a reduced
    `Fraction`, a rational element as its value."""
    if x.is_rational():
        return str(x.as_rational())
    return "cyc{}:{}".format(x.conductor, ",".join(str(c) for c in x.coeffs))


def test_str_matches_the_fraction_rendering():
    rng = random.Random(15)
    for f in (3, 12, 22, 100):
        phi = euler_phi(f)
        for den in (1, 2, 6, 12, 2 * 3**40 * 7, 10**60 + 7):
            for _ in range(10):
                scale = rng.choice((1, 2, 3, 7, den, 3**40))
                nums = [rng.choice((0, 1, -1, rng.randint(-10**80, 10**80))) * scale
                        for _ in range(phi)]
                for x in (CycElem(f, nums, den), CycElem(f, nums[:1], den)):
                    assert str(x) == fraction_str(x), (f, nums, den)
    assert str(CycElem(12, [0, 3, 0, 0], 6)) == "cyc12:0,1/2,0,0"
    assert str(CycElem(3, [-4], 6)) == "-2/3" and str(CycElem.zero(100)) == "0"
