"""q-expansion algebra, Eisenstein series, Hecke action, and the cuspidal
combination with its cusp-by-cusp verification."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from eiscong.characters import (
    char_eval,
    char_inverse,
    char_product,
    enumerate_chars,
    primitive_char,
    trivial_char,
)
from eiscong.errors import ComputationError, ParameterError
from eiscong.exact import CycElem, padic_context, valp_cyc
from eiscong.lfunc import bernoulli, l_nonpositive
from eiscong.poly import euler_phi
from eiscong.qexp import (
    QExpansion,
    build_fm,
    build_g,
    build_h,
    cusps_gamma0,
    CuspClass,
    eisenstein_cusp_constant,
    eisenstein_qexp,
    fm_cusp_constant,
    g_cusp_constant,
    hecke_tq,
    multiply,
    v_operator,
)

ODD31 = enumerate_chars(31, parity=-1, exact_conductor=31)


def test_eisenstein_frozen_values():
    E12 = eisenstein_qexp(12, trivial_char(1), 12)
    assert E12.coeff(0).as_rational() == Fraction(691, 65520)
    assert E12.coeff(1).as_rational() == 1
    assert E12.coeff(2).as_rational() == 2049


def test_eisenstein_precision_bounds():
    assert eisenstein_qexp(4, trivial_char(1), 0).precision == 0
    with pytest.raises(ParameterError):
        eisenstein_qexp(4, trivial_char(1), -5)


def test_eisenstein_general_coefficients():
    rng = random.Random(17)
    for _ in range(8):
        f = rng.choice([3, 4, 5, 7, 8])
        chis = enumerate_chars(f)
        chi = primitive_char(rng.choice(chis))
        l = rng.randrange(1, 9)
        if chi.parity != (-1) ** l or (l == 2 and chi.is_trivial()):
            continue
        E = eisenstein_qexp(l, chi, 12)
        assert E.coeff(1).as_rational() == 1
        for q in (2, 3, 5, 7, 11):
            expected = CycElem.one(chi.order) + char_eval(chi, q) * Fraction(q) ** (l - 1)
            assert E.coeff(q) == expected


def test_eisenstein_matches_divisor_sum_reference():
    # the old per-divisor CycElem sum, kept as the reference for the integer sieve
    for modulus in (1, 5, 7, 12, 31):
        for chi in {primitive_char(c) for c in enumerate_chars(modulus)}:
            for l in (1, 2, 3, 4):
                if chi.parity != (-1) ** l or (l == 2 and chi.is_trivial()):
                    continue
                E = eisenstein_qexp(l, chi, 30)
                for n in range(1, 31):
                    acc = CycElem.zero(chi.order)
                    for d in range(1, n + 1):
                        if n % d == 0:
                            acc = acc + char_eval(chi, d) * Fraction(d) ** (l - 1)
                    assert E.coeff(n) == acc
                    assert str(E.coeff(n)) == str(acc)


def test_eisenstein_parity_errors():
    odd4 = [c for c in enumerate_chars(4) if not c.is_trivial()][0]
    with pytest.raises(ParameterError):
        eisenstein_qexp(2, odd4, 10)  # odd character, even weight
    with pytest.raises(ParameterError):
        eisenstein_qexp(2, trivial_char(1), 10)
    with pytest.raises(ParameterError):
        eisenstein_qexp(3, trivial_char(1), 10)


def test_v_operator():
    E12 = eisenstein_qexp(12, trivial_char(1), 20)
    V2 = v_operator(E12, 2)
    assert V2.coeff(2) == E12.coeff(1)
    assert V2.coeff(3).is_zero()
    assert V2.coeff(0) == E12.coeff(0)
    assert V2.level == 2
    assert v_operator(E12, 1) is E12
    assert (v_operator(v_operator(E12, 2), 3).coefficients
            == v_operator(E12, 6).coefficients)


def test_multiply_basics():
    E12 = eisenstein_qexp(12, trivial_char(1), 20)
    one = QExpansion(coefficients=tuple([CycElem.one(1)] + [CycElem.zero(1)] * 20),
                     weight=0, level=1, character=trivial_char(1), label="1")
    assert multiply(E12, one).coefficients == E12.coefficients
    E4 = eisenstein_qexp(4, trivial_char(1), 20)
    prod = multiply(E12, E4)
    assert prod.weight == 16 and prod.level == 1
    assert prod.coeff(0) == E12.coeff(0) * E4.coeff(0)
    assert prod.coeff(1) == E12.coeff(0) * E4.coeff(1) + E12.coeff(1) * E4.coeff(0)


def _random_qexp(rng, P, conductor=1):
    coeffs = tuple(CycElem(conductor,
                           tuple(Fraction(rng.randrange(-5, 6))
                                 for _ in range(euler_phi(conductor))))
                   for _ in range(P + 1))
    return QExpansion(coefficients=coeffs, weight=rng.choice([4, 6, 8]),
                      level=1, character=trivial_char(1), label="rand")


def test_scale_matches_coefficientwise_products():
    rng = random.Random(41)
    for fs, fc in ((1, 1), (3, 4), (5, 10), (12, 12), (1, 31)):
        f = _sparse_qexp(rng, rng.randrange(2, 20), fs)
        for c in (CycElem.zeta(fc, 1), _sparse_qexp(rng, 0, fc).coeff(0),
                  CycElem.from_rational(Fraction(-7, 15), fc), CycElem.zero(fc)):
            F = lcm(fs, fc)
            scaled = f.scale(c)
            assert scaled.conductor == F
            assert scaled.coefficients == tuple(x * c.lift(F) for x in f.lift_conductor(F).coefficients)
            assert all(type(x) is Fraction for y in scaled.coefficients for x in y.coeffs)
            assert (scaled.weight, scaled.level, scaled.label) == (f.weight, f.level, f.label)


def test_multiply_commutative_associative_random():
    rng = random.Random(31)
    for _ in range(10):
        f, g, h = (_random_qexp(rng, 22) for _ in range(3))
        assert multiply(f, g).coefficients == multiply(g, f).coefficients
        assert (multiply(multiply(f, g), h).coefficients
                == multiply(f, multiply(g, h)).coefficients)


def _cauchy_reference(f, g):
    """The coefficient-by-coefficient CycElem product, kept as the reference
    for the flat product in ``multiply``."""
    F = lcm(f.conductor, g.conductor)
    a = f.lift_conductor(F)
    b = g.lift_conductor(F)
    P = min(a.precision, b.precision)
    out = [CycElem.zero(F)] * (P + 1)
    for i in range(P + 1):
        ai = a.coefficients[i]
        if ai.is_zero():
            continue
        for j in range(P + 1 - i):
            bj = b.coefficients[j]
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return tuple(out)


def _sparse_qexp(rng, P, conductor):
    """Random series with Fraction coordinates, a third of its coefficients zero."""
    coeffs = tuple(CycElem.zero(conductor) if rng.random() < 1 / 3 else
                   CycElem(conductor, tuple(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                                            for _ in range(euler_phi(conductor))))
                   for _ in range(P + 1))
    return QExpansion(coefficients=coeffs, weight=rng.choice([4, 6, 8]),
                      level=1, character=trivial_char(1), label="rand")


@pytest.mark.parametrize("fa,fb", [(3, 4), (5, 10), (1, 7)])
def test_multiply_matches_cauchy_reference_across_conductors(fa, fb):
    rng = random.Random(100 * fa + fb)
    for _ in range(4):
        f = _sparse_qexp(rng, rng.randrange(4, 16), fa)
        g = _sparse_qexp(rng, rng.randrange(4, 16), fb)
        for a, b in ((f, g), (g, f), (v_operator(f, 2), v_operator(g, 3)), (f, v_operator(g, 5))):
            prod = multiply(a, b)
            assert prod.conductor == lcm(fa, fb)
            assert prod.precision == min(a.precision, b.precision)
            assert prod.coefficients == _cauchy_reference(a, b)


def test_every_result_coefficient_has_the_series_conductor():
    # operands over Q(zeta_3) and Q(zeta_4) meet in Q(zeta_12) coefficient by
    # coefficient, zero and rational coefficients included
    rng = random.Random(61)
    f = _sparse_qexp(rng, 12, 3)
    g = _sparse_qexp(rng, 10, 4)._replace(weight=f.weight)
    diff = f - g
    assert diff.coefficients == (f.lift_conductor(12) - g.lift_conductor(12)).coefficients
    E = eisenstein_qexp(3, primitive_char(ODD31[0]), 6)
    H, _ = build_h(trivial_char(1), 32, 31, 1, ODD31[0], [31, 37], padic_context(37, 30), 10)
    for series in (f.scale(CycElem.zeta(4)), g.scale(Fraction(2, 3)), diff, multiply(f, g),
                   hecke_tq(f, 2), hecke_tq(E, 2), H):
        assert {c.conductor for c in series.coefficients} == {series.conductor}
    assert (diff.conductor, multiply(f, g).conductor, H.conductor) == (12, 12, 30)


def test_hecke_eigenproperty_sampled():
    # 10 sampled (weight, character) pairs, conductor <= 12, q <= 13
    rng = random.Random(777)
    sampled = 0
    while sampled < 10:
        f = rng.choice([1, 3, 4, 5, 7, 8, 9, 11, 12])
        chi = primitive_char(rng.choice(enumerate_chars(f)))
        k = rng.randrange(1, 21)
        if chi.parity != (-1) ** k or (k <= 2 and chi.is_trivial()):
            continue
        E = eisenstein_qexp(k, chi, 52)
        for q in (2, 3, 5, 7, 11, 13):
            if chi.modulus % q == 0:
                continue
            TE = hecke_tq(E, q)
            lam = CycElem.one(chi.order) + char_eval(chi, q) * Fraction(q) ** (k - 1)
            scaled = E.scale(lam)
            for n in range(TE.precision + 1):
                assert TE.coeff(n) == scaled.coeff(n), (k, f, q, n)
        sampled += 1


def test_hecke_commutation_random():
    rng = random.Random(5150)
    for _ in range(6):
        f = _random_qexp(rng, 40)
        for (q1, q2) in ((2, 3), (2, 5), (3, 5)):
            a = hecke_tq(hecke_tq(f, q1), q2)
            b = hecke_tq(hecke_tq(f, q2), q1)
            assert a.coefficients == b.coefficients


def test_hecke_uq_and_zero():
    E = eisenstein_qexp(12, trivial_char(1), 20)
    F = v_operator(E, 2)
    with pytest.raises(ParameterError):
        hecke_tq(F, 2)
    zero = QExpansion(coefficients=tuple([CycElem.zero(1)] * 21), weight=12,
                      level=1, character=trivial_char(1), label="0")
    T = hecke_tq(zero, 3)
    assert all(c.is_zero() for c in T.coefficients)


def test_build_fm_example():
    F1 = build_fm(trivial_char(1), 32, 31, 1, 40)
    assert F1.level == 31
    assert F1.coeff(1).as_rational() == 1
    assert F1.coeff(0).as_rational() == (
        Fraction(-1, 64) * bernoulli(32) * (1 - Fraction(31) ** 32))
    # support: a_n(F_m) = a_n(E_k) for n < ell^m (only the first V term sees them)
    E = eisenstein_qexp(32, trivial_char(1), 40)
    for n in range(1, 31):
        assert F1.coeff(n) == E.coeff(n)
    with pytest.raises(ParameterError):
        build_fm(trivial_char(1), 2, 31, 1, 10)


def test_build_fm_annihilated_by_hecke():
    F1 = build_fm(trivial_char(1), 32, 31, 1, 45)
    for q in (2, 3):
        TF = hecke_tq(F1, q)
        lam = 1 + Fraction(q) ** 31
        scaled = F1.scale(lam)
        for n in range(TF.precision + 1):
            assert TF.coeff(n) == scaled.coeff(n), (q, n)


def test_build_g_constant_term_and_parity():
    phi = ODD31[0]
    G = build_g(trivial_char(1), 32, phi, 25)
    assert G.weight == 32 and G.level == 31
    chi1 = primitive_char(char_product(trivial_char(1), phi))
    chi2 = primitive_char(char_inverse(phi))
    expected = (l_nonpositive(chi1, 0).lift(30) * l_nonpositive(chi2, 2 - 32).lift(30)
                * Fraction(1, 4))
    assert G.coeff(0).lift(30) == expected
    a1 = G.coeff(1).lift(30)
    e1 = eisenstein_qexp(1, chi1, 3)
    e2 = eisenstein_qexp(31, chi2, 3)
    assert a1 == (e1.coeff(0).lift(30) + e2.coeff(0).lift(30))
    # p-unit certificate for the example parameters
    ctx = padic_context(37, 30)
    assert valp_cyc(G.coeff(0).lift(30), ctx) == 0
    even31 = enumerate_chars(31, parity=1, exact_conductor=31)[0]
    with pytest.raises(ParameterError):
        build_g(trivial_char(1), 32, even31, 10)


def test_build_h_checks():
    phi = ODD31[0]
    ctx = padic_context(37, 30)
    H, rep = build_h(trivial_char(1), 32, 31, 1, phi, [31, 37], ctx, 60)
    assert rep.a0_is_zero
    assert rep.p_integral and rep.first_nonintegral_index is None
    assert rep.unit_index == 1 and rep.unit_coeff_valuation == 0
    assert rep.congruence_depth == 2 and rep.congruent_to_fm_mod_eta
    assert rep.cusps_vanish and rep.cusp_count == 2
    assert rep.passed
    assert H.coeff(0).is_zero()
    # a_1(H) = 1 - scale * a_1(G)
    G = build_g(trivial_char(1), 32, phi, 2).lift_conductor(30)
    F = build_fm(trivial_char(1), 32, 31, 1, 2).lift_conductor(30)
    scale = F.coeff(0) * G.coeff(0).inverse()
    assert H.coeff(1).lift(30) == CycElem.one(30) - scale * G.coeff(1)


def test_build_h_fails_each_check_it_reports(monkeypatch):
    # `passed` reads every check, and the cusp check computes F - c*G at each
    # cusp: with G's cusp constants scaled by 1 + p, as if H were built with
    # the scale c*(1 + p) there, no constant vanishes and H is not cuspidal
    import eiscong.qexp as qexp
    args = (trivial_char(1), 32, 31, 1, ODD31[0], [31, 37], padic_context(37, 30), 20)
    _, rep = build_h(*args)
    assert rep.passed
    for field, value in (("a0_is_zero", False), ("p_integral", False),
                         ("unit_coeff_valuation", 1), ("congruent_to_fm_mod_eta", False),
                         ("cusps_vanish", False)):
        assert not rep._replace(**{field: value}).passed, field
    monkeypatch.setattr(qexp, "g_cusp_constant", lambda *a: g_cusp_constant(*a) * (1 + 37))
    _, perturbed = build_h(*args)
    assert not perturbed.cusps_vanish and not perturbed.passed
    assert perturbed._replace(cusps_vanish=True) == rep


def test_build_h_depth_counts_the_constant_term():
    # F - H = c*G, so the depth is v(c) + min_n v(a_n(G)) over every n >= 0,
    # and a_0(G) is a unit; at p = 13, k = 8, ell = 3 to precision 1, 13
    # divides a_1(G), and a depth read over a_1, a_2, ... alone is v(c) + 1
    from eiscong.qexp import aux_char_and_h
    aux, (_, rep) = aux_char_and_h(13, 8, trivial_char(1), 3, 1, [3, 13], 1)
    ctx = padic_context(13, aux.context_conductor)
    g = build_g(trivial_char(1), 8, aux.char, 1).lift_conductor(ctx.f)
    assert [valp_cyc(c, ctx) for c in g.coefficients] == [0, 1]
    assert rep.congruence_depth == rep.scale_valuation == 0


def test_build_h_rejects_non_punit_character():
    # the quadratic character mod 11 gives a_0(G) of valuation 2 at p = 5
    # for weight 6, so the constructor must refuse it
    from eiscong.characters import parse_char
    phi = parse_char("11:[5]")
    assert phi.parity == -1
    ctx = padic_context(5, 2)
    assert valp_cyc(build_g(trivial_char(1), 6, phi, 1).coeff(0).lift(2), ctx) == 2
    with pytest.raises(ComputationError):
        build_h(trivial_char(1), 6, 11, 1, phi, [5, 11], ctx, 10)


def test_build_h_rejects_ell_outside_sigma():
    # before: passed, with an eta that lacks the factor 1 - 31^32
    from eiscong.characters import parse_char
    with pytest.raises(ParameterError, match=r"ell = 31 must belong to Sigma = \[37\]"):
        build_h(trivial_char(1), 32, 31, 1, parse_char("31:[15]"), [37],
                padic_context(37, 30), 12)


@pytest.mark.parametrize("m, P", [(1, 0), (2, 30)])
def test_build_h_needs_the_unit_coefficient_in_range(monkeypatch, m, P):
    # before: "coefficient index 1 beyond precision 0" from deep in the check
    from eiscong import qexp
    monkeypatch.setattr(qexp, "build_fm", None)  # no series is built
    with pytest.raises(ParameterError,
                       match=rf"precision {P} is below ell\^\(m-1\) = {31 ** (m - 1)}"):
        build_h(trivial_char(1), 32, 31, m, ODD31[0], [31, 37], padic_context(37, 30), P)


def test_h_is_built_at_the_certificate_prime(monkeypatch):
    # only the quadratic character of conductor 31 is offered: the search reads
    # its valuations in Q(zeta_30), and H is built there too (before: Q(zeta_2))
    from eiscong import qexp
    from eiscong.characters import parse_char
    monkeypatch.setattr(qexp, "enumerate_chars", lambda f, **kw: [parse_char("31:[15]")])
    aux, (H, rep) = qexp.aux_char_and_h(37, 32, trivial_char(1), 31, 1, [31, 37], 12)
    assert aux.char.order == 2 and aux.context_conductor == H.conductor == 30
    assert rep.passed


def test_cusp_enumeration():
    assert len(cusps_gamma0(31)) == 2
    for M in (1, 2, 4, 6, 12, 31, 36):
        expected = 0
        for v in range(1, M + 1):
            if M % v == 0:
                expected += euler_phi(gcd(v, M // v))
        assert len(cusps_gamma0(M)) == expected, M
        for c in cusps_gamma0(M):
            assert gcd(c.u, c.v) == 1 and M % c.v == 0


def test_eisenstein_cusp_constants():
    phi = primitive_char(ODD31[0])
    # M does not divide v -> 0
    assert eisenstein_cusp_constant(1, phi, CuspClass(1, 1, 31)).is_zero()
    # [1 : M] -> L(phi, 1-l)/2
    got = eisenstein_cusp_constant(1, phi, CuspClass(1, 31, 31))
    assert got == l_nonpositive(phi, 0) * Fraction(1, 2)
    # F_m: N ell^m does not divide v -> 0
    assert fm_cusp_constant(trivial_char(1), 32, 31, 1, CuspClass(1, 1, 31)).is_zero()
    fm1 = fm_cusp_constant(trivial_char(1), 32, 31, 1, CuspClass(1, 31, 31))
    assert fm1.as_rational() == Fraction(-1, 64) * bernoulli(32) * (1 - Fraction(31) ** 32)


def test_h_vanishes_at_every_cusp():
    phi = ODD31[0]
    F2 = build_fm(trivial_char(1), 32, 31, 1, 2).lift_conductor(30)
    G2 = build_g(trivial_char(1), 32, phi, 2).lift_conductor(30)
    scale = F2.coeff(0) * G2.coeff(0).inverse()
    for cusp in cusps_gamma0(31):
        t_f = fm_cusp_constant(trivial_char(1), 32, 31, 1, cusp).lift(30)
        t_g = g_cusp_constant(trivial_char(1), 32, phi, cusp).lift(30)
        assert (t_f - scale * t_g).is_zero()


def test_qexpansion_is_a_frozen_value_not_a_sequence():
    f, g = eisenstein_qexp(4, trivial_char(1), 5), eisenstein_qexp(4, trivial_char(1), 5)
    assert f == g and hash(f) == hash(g) and f is not g
    assert f != f._replace(label="other") and f != eisenstein_qexp(4, trivial_char(1), 4)

    class Other(QExpansion):
        __slots__ = ()

    assert Other(f.coefficients, 4, 1, f.character, f.label) != f
    with pytest.raises(AttributeError):
        f.weight = 6
    with pytest.raises(AttributeError):
        f.extra = 1
    for op in (lambda: 2 * f, lambda: f * 2, lambda: f + (1,), lambda: len(f), lambda: f[0]):
        with pytest.raises(TypeError):
            op()
    assert repr(f).startswith("QExpansion(coefficients=(CycElem(1/240), CycElem(1), ")
    assert repr(f).endswith(", weight=4, level=1, character=DirichletChar(modulus=1, "
                            "exponents=()), label='E_4(1:[])')")
