"""Bernoulli machinery, L-values, the congruence bound, Kummer congruences."""

from fractions import Fraction
from math import comb

import pytest

from eiscong import lfunc
from eiscong.characters import char_eval, conductor, enumerate_chars, primitive_char, trivial_char
from eiscong.errors import ParameterError
from eiscong.exact import CycElem, padic_context, valp_cyc
from eiscong.lfunc import (
    b1_omega_min_valuation,
    b1_omega_mod,
    bernoulli,
    bernoulli_mod,
    eta,
    gen_bernoulli,
    kummer_check,
    l_nonpositive,
)
from eiscong.poly import teichmuller


def bernoulli_recurrence_oracle(N):
    """Independent route: sum_j C(n+1, j) B_j = 0."""
    out = [Fraction(1)]
    for n in range(1, N + 1):
        s = sum(Fraction(comb(n + 1, j)) * out[j] for j in range(n))
        out.append(-s / (n + 1))
    return out


def bernoulli_poly_at(n, x):
    """Bernoulli polynomial B_n(x) at a rational point."""
    x = Fraction(x)
    return sum(comb(n, i) * bernoulli(i) * x ** (n - i) for i in range(n + 1))


def gen_bernoulli_reference(n, chi):
    """B_(n,chi) = f^(n-1) sum_a chi(a) B_n(a/f), one Bernoulli polynomial and
    one CycElem per residue a."""
    f = chi.modulus
    acc = CycElem.zero(chi.order)
    for a in range(1, f + 1):
        acc = acc + char_eval(chi, a) * bernoulli_poly_at(n, Fraction(a, f))
    return acc * Fraction(f) ** (n - 1)


def bernoulli_worpitzky_oracle(n):
    """Second independent route: the double-sum formula."""
    return sum(Fraction(1, j + 1)
               * sum((-1) ** i * comb(j, i) * Fraction(i) ** n for i in range(j + 1))
               for j in range(n + 1))


def test_bernoulli_frozen_and_oracles():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(32) == Fraction(-7709321041217, 510)
    oracle = bernoulli_recurrence_oracle(40)
    for n in range(2, 41):
        assert bernoulli(n) == oracle[n], n
    for n in (6, 12, 20, 32):
        assert bernoulli(n) == bernoulli_worpitzky_oracle(n)


def test_bernoulli_does_not_depend_on_call_order(monkeypatch):
    oracle = bernoulli_recurrence_oracle(40)
    for order in (range(40, -1, -1), (12, 40, 0, 2, 30, 1, 39)):
        monkeypatch.setattr(lfunc, "_AT_ROW", [])
        monkeypatch.setattr(lfunc, "_BERNOULLI", [])
        for n in order:
            assert bernoulli(n) == (Fraction(-1, 2) if n == 1 else oracle[n]), n
        assert len(lfunc._BERNOULLI) == 41
    with pytest.raises(ParameterError):
        bernoulli(-2)


def test_bernoulli_odd_vanishing_and_von_staudt():
    for n in range(3, 61, 2):
        assert bernoulli(n) == 0
    for n in range(2, 61, 2):
        expected = 1
        for q in range(2, n + 2):
            if all(q % i for i in range(2, q)) and n % (q - 1) == 0:
                expected *= q
        assert bernoulli(n).denominator == expected, n


def test_b32_b6_divisibility():
    assert bernoulli(32).numerator % 37 == 0
    assert bernoulli(6).numerator % 37 != 0


def test_gen_bernoulli_examples():
    odd4 = [c for c in enumerate_chars(4) if not c.is_trivial()][0]
    # frozen from the weight-one summation oracle (1/f) sum chi(a) a
    direct = Fraction(sum(a * {1: 1, 3: -1}[a % 4] for a in (1, 3)), 4)
    assert direct == Fraction(-1, 2)
    assert gen_bernoulli(1, odd4).as_rational() == Fraction(-1, 2)
    for n in (2, 4, 6, 12):
        assert gen_bernoulli(n, trivial_char(1)).as_rational() == bernoulli(n)
    assert gen_bernoulli(1, trivial_char(1)).as_rational() == Fraction(1, 2)


def test_gen_bernoulli_is_memoised():
    chi = primitive_char(enumerate_chars(31, parity=-1, exact_conductor=31)[0])
    for n, c in ((32, trivial_char(1)), (1, chi), (31, chi)):
        first = gen_bernoulli(n, c)
        again = gen_bernoulli(n, c)
        assert again is first
        assert gen_bernoulli.__wrapped__(n, c) == first
        assert str(gen_bernoulli.__wrapped__(n, c)) == str(first)


def test_gen_bernoulli_weight_one_summation_oracle():
    # B_{1,chi} = (1/f) sum_a chi(a) a for nontrivial chi
    for f in (3, 4, 5, 7, 8, 11, 12):
        for chi in enumerate_chars(f):
            prim = primitive_char(chi)
            if prim.is_trivial() or prim.parity != -1:
                continue
            fc = prim.modulus
            acc = CycElem.zero(prim.order)
            for a in range(1, fc + 1):
                acc = acc + char_eval(prim, a) * Fraction(a, fc)
            assert gen_bernoulli(1, prim) == acc, (f, chi)


def test_gen_bernoulli_matches_the_bernoulli_polynomial_route():
    cases = 0
    for f in range(1, 25):
        for chi in enumerate_chars(f):
            if conductor(chi) != f:
                continue
            for n in range(1, 13):
                assert gen_bernoulli(n, chi) == gen_bernoulli_reference(n, chi), (chi, n)
                cases += 1
    assert cases == 1296


def test_gen_bernoulli_generating_function_oracle():
    # coefficients of sum_a chi(a) t e^(at) / (e^(ft) - 1) in rational
    # arithmetic, for the odd quadratic character mod 4
    odd4 = primitive_char([c for c in enumerate_chars(4) if not c.is_trivial()][0])
    f = 4
    N = 8
    # series of e^(at) and (e^(ft)-1)/t, then divide
    def exp_series(a):
        return [Fraction(a) ** j / _fact(j) for j in range(N + 1)]
    def _fact(j):
        out = 1
        for i in range(2, j + 1):
            out *= i
        return Fraction(out)
    den = [Fraction(f) ** (j + 1) / _fact(j + 1) for j in range(N + 1)]
    num = [Fraction(0)] * (N + 1)
    for a in (1, 3):
        sgn = 1 if a % 4 == 1 else -1
        ea = exp_series(a)
        for j in range(N + 1):
            num[j] += sgn * ea[j]
    # divide num by den (den[0] = f != 0)
    series = [Fraction(0)] * (N + 1)
    for j in range(N + 1):
        acc = num[j]
        for i in range(j):
            acc -= series[i] * den[j - i]
        series[j] = acc / den[0]
    for n in range(1, N + 1):
        expected = series[n] * _fact(n)
        assert gen_bernoulli(n, odd4).as_rational() == expected, n


def test_parity_vanishing():
    for f in range(3, 13):
        for chi in enumerate_chars(f):
            prim = primitive_char(chi)
            for n in range(1, 11):
                if (n == 1 and prim.is_trivial()):
                    continue
                if prim.parity != (-1) ** n:
                    assert gen_bernoulli(n, prim).is_zero(), (f, chi, n)


def test_gen_bernoulli_rejects_imprimitive():
    imprim = [c for c in enumerate_chars(9) if c.is_trivial()][0]
    with pytest.raises(ParameterError):
        gen_bernoulli(2, imprim)


def test_l_values():
    assert l_nonpositive(trivial_char(1), -11).as_rational() == Fraction(691, 32760)
    odd4 = [c for c in enumerate_chars(4) if not c.is_trivial()][0]
    assert l_nonpositive(odd4, 0).as_rational() == Fraction(1, 2)
    even5 = [c for c in enumerate_chars(5)
             if primitive_char(c).parity == 1 and not c.is_trivial()]
    for chi in even5:
        assert l_nonpositive(primitive_char(chi), 0).is_zero()


def test_eta_example37():
    ctx = padic_context(37, 1)
    value = eta(trivial_char(1), 32, [31, 37], ctx)
    assert value.valuation_vpi == 2
    bd = dict(value.factor_breakdown)
    assert bd["B_32(psi)"] == 1
    assert bd["1 - psi(31)*31^32"] == 1
    assert value.value.as_rational() == bernoulli(32) * (1 - Fraction(31) ** 32)
    # valuation equals both the breakdown sum and a re-derivation
    assert valp_cyc(value.value, ctx) == value.valuation_vpi


def test_eta_691_and_empty_product():
    ctx = padic_context(691, 1)
    value = eta(trivial_char(1), 12, [691], ctx)
    assert value.valuation_vpi == 1
    assert value.value.as_rational() == bernoulli(12)
    ctx37 = padic_context(37, 1)
    value2 = eta(trivial_char(1), 12, [37], ctx37)
    assert value2.value.as_rational() == bernoulli(12)
    assert len(value2.factor_breakdown) == 1


def test_eta_requires_p_in_sigma():
    ctx = padic_context(37, 1)
    with pytest.raises(ParameterError):
        eta(trivial_char(1), 32, [31], ctx)


def test_eta_k2_trivial_warns():
    ctx = padic_context(5, 1)
    with pytest.warns(UserWarning):
        eta(trivial_char(1), 2, [3, 5], ctx)


def test_b1_omega():
    assert b1_omega_mod(31, 37) == 0
    # Kummer congruence oracle at (691, 12)
    b12 = bernoulli(12)
    assert b1_omega_mod(11, 691) == b12.numerator * pow(b12.denominator * 12, -1, 691) % 691
    assert b1_omega_min_valuation(1, 5) == 0
    with pytest.raises(ParameterError):
        b1_omega_mod(0, 37)
    with pytest.raises(ParameterError, match="not p-integral"):
        b1_omega_mod(3, 5)
    assert b1_omega_min_valuation(3, 5) == -1


@pytest.mark.parametrize("p", [5, 37, 59])
def test_power_sum_is_p_times_b1_omega(p):
    # independent route: p * B_(1,omega^j) = sum_{a<p} omega(a)^j a, with the
    # Teichmuller values themselves rather than a^p
    p2 = p * p
    for j in range(p - 1):
        oracle = sum(pow(teichmuller(a, p, 3), j, p ** 3) * a for a in range(1, p)) % p2
        assert lfunc._power_sum(p * j + 1, p) == oracle, j
        if j:
            v = -1 if oracle % p else 1 if oracle == 0 else 0
            assert b1_omega_min_valuation(j, p) == v, j


def test_kummer_check_examples():
    r = kummer_check(37, 32)
    assert r["congruent"] and r["lhs"] == 0 and r["rhs"] == 0
    r = kummer_check(691, 12)
    assert r["congruent"] and r["lhs"] == 0
    r = kummer_check(13, 4)
    assert r["congruent"] and r["lhs"] != 0


@pytest.mark.parametrize("p", [13, 37])
def test_kummer_full_sweep(p):
    for k in range(2, p - 2, 2):
        assert kummer_check(p, k)["congruent"], (p, k)


def test_bernoulli_mod_cross_route():
    for (n, p) in ((12, 691), (32, 37), (6, 37), (30, 37), (24, 103), (16, 3617)):
        exact = bernoulli(n)
        assert bernoulli_mod(n, p) == exact.numerator * pow(exact.denominator, -1, p) % p
    # the large case, checked against the weight-one route:
    # B_(1,omega^679) = B_680/680 mod 691
    b1 = b1_omega_mod(679, 691)
    assert bernoulli_mod(680, 691) == b1 * 680 % 691
    assert bernoulli_mod(680, 691) != 0


@pytest.mark.parametrize("n, p, message", [
    (4, 9, "p must be an odd prime"),
    (4, 2, "p must be an odd prime"),
    (3, 37, "index must be even and >= 2"),
    (0, 37, "index must be even and >= 2"),
    (36, 37, "B_36 is not p-integral for p = 37"),
    (110, 37, "power-sum congruence needs p nmid n\\+1"),  # 111 = 3 * 37
])
def test_bernoulli_mod_checks_its_hypotheses(n, p, message):
    with pytest.raises(ParameterError, match=message):
        bernoulli_mod(n, p)


def test_b1_omega_needs_an_odd_prime():
    with pytest.raises(ParameterError, match="p must be an odd prime"):
        b1_omega_min_valuation(1, 2)


@pytest.mark.parametrize("p, k, message", [
    (37, 0, "need even k with 2 <= k <= p-3"),
    (37, 3, "need even k with 2 <= k <= p-3"),
    (37, 36, "need even k with 2 <= k <= p-3"),
    (9, 4, "p must be an odd prime"),
])
def test_kummer_check_checks_its_range(p, k, message):
    with pytest.raises(ParameterError, match=message):
        kummer_check(p, k)


def test_bernoulli_poly():
    x = Fraction(1, 3)
    assert bernoulli_poly_at(1, x) == x - Fraction(1, 2)
    assert bernoulli_poly_at(2, x) == x * x - x + Fraction(1, 6)
    for n in (2, 3, 4, 5):
        assert bernoulli_poly_at(n, Fraction(0)) == bernoulli(n)
        assert bernoulli_poly_at(n, Fraction(1)) == bernoulli(n) + (1 if n == 1 else 0)
