"""Independent oracles from sympy, a test-only dependency: these tests skip
when it is not installed.  They cross-check cyclotomic polynomials, products,
inverses and norms in Q(zeta_f), Bernoulli numbers and the factorization of
Phi_f mod p."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from eiscong.exact import MAX_CONDUCTOR, CycElem, cyclotomic_poly, padic_context
from eiscong.lfunc import bernoulli
from eiscong.poly import euler_phi

X = sympy.Symbol("x")


def _ascending(poly) -> list[Fraction]:
    return [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(poly, X).all_coeffs())]


def _expr(x: CycElem):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**i for i, c in enumerate(x.coeffs))


def _random_elem(f: int, rng: random.Random) -> CycElem:
    return CycElem(f, tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                            for _ in range(euler_phi(f))))


def test_cyclotomic_poly_matches_sympy():
    for f in [*range(1, 121), MAX_CONDUCTOR - 2, MAX_CONDUCTOR - 1, MAX_CONDUCTOR]:
        assert list(cyclotomic_poly(f)) == _ascending(sympy.cyclotomic_poly(f, X)), f


@pytest.mark.parametrize("f", [7, 12, 30, 44])
def test_cyc_products_match_sympy_remainder(f):
    rng = random.Random(f)
    deg = euler_phi(f)
    phi = sympy.cyclotomic_poly(f, X)
    for _ in range(5):
        a, b = _random_elem(f, rng), _random_elem(f, rng)
        expected = _ascending(sympy.rem(_expr(a) * _expr(b), phi, X))
        assert list((a * b).coeffs) == expected + [0] * (deg - len(expected))


@pytest.mark.parametrize("f", [7, 12, 30, 100])
def test_cyc_inverse_matches_sympy_invert(f):
    rng = random.Random(f)
    for _ in range(2):
        x = _random_elem(f, rng)
        expected = _ascending(sympy.invert(_expr(x), sympy.cyclotomic_poly(f, X), X))
        assert list(x.inverse().coeffs) == expected + [0] * (euler_phi(f) - len(expected))


@pytest.mark.parametrize("f", [77, 100, 210])
def test_cyc_inverse_and_norm_at_large_degree(f):
    # N(x) = Res(Phi_f, x(X)), Phi_f being monic
    x = _random_elem(f, random.Random(f))
    assert x * x.inverse() == CycElem.one(f)
    norm = sympy.resultant(sympy.cyclotomic_poly(f, X), _expr(x), X)
    assert x.norm() == Fraction(int(norm.p), int(norm.q))


def test_bernoulli_matches_sympy():
    # n = 1 is left out: sympy uses B_1 = +1/2, this package B_1 = -1/2
    for n in range(0, 201, 2):
        b = sympy.bernoulli(n)
        assert bernoulli(n) == Fraction(int(b.p), int(b.q)), n


@pytest.mark.parametrize("p,f", [(3, 20), (3, 28), (5, 44), (11, 12), (37, 18), (37, 30),
                                 (59, 22), (101, 10), (691, 7)])
def test_padic_context_factors_match_sympy(p, f):
    _, factors = sympy.Poly(sympy.cyclotomic_poly(f, X), X, modulus=p).factor_list()
    expected = []
    for g, mult in factors:
        assert mult == 1
        coeffs = [int(c) % p for c in reversed(g.all_coeffs())]
        inv = pow(coeffs[-1], -1, p)
        expected.append(tuple(c * inv % p for c in coeffs))
    assert padic_context(p, f).all_factors == tuple(sorted(expected))
