"""Dirichlet character enumeration, evaluation, conductors, and products."""

import random
from math import gcd

import pytest

from eiscong.characters import (
    DirichletChar,
    char_eval,
    char_inverse,
    char_product,
    conductor,
    enumerate_chars,
    induce_char,
    parse_char,
    primitive_char,
    trivial_char,
)
from eiscong.errors import ParameterError
from eiscong.exact import CycElem
from eiscong.poly import euler_phi


def kernel_conductor(chi):
    """Oracle: smallest divisor d of the modulus with chi trivial on
    units congruent to 1 mod d."""
    f = chi.modulus
    for d in (d for d in range(1, f + 1) if f % d == 0):
        if all(chi.value_exponent(a) == 0
               for a in range(1, f + 1)
               if gcd(a, f) == 1 and a % d == 1 % d):
            return d
    raise AssertionError


def test_enumeration_counts():
    assert len(enumerate_chars(4)) == 2
    assert len(enumerate_chars(1)) == 1
    assert len(enumerate_chars(31, parity=-1, exact_conductor=31)) == 15
    for f in (1, 2, 3, 4, 5, 8, 9, 12, 16, 24, 30, 31, 40):
        assert len(enumerate_chars(f)) == euler_phi(f)


def test_evaluation_examples():
    assert char_eval(trivial_char(1), 1234).as_rational() == 1
    odd4 = [c for c in enumerate_chars(4) if not c.is_trivial()][0]
    assert char_eval(odd4, 3).as_rational() == -1
    anychi = enumerate_chars(31)[2]
    assert char_eval(anychi, 62).is_zero()


def test_conductor_examples_and_kernel_oracle():
    assert conductor(trivial_char(12)) == 1
    odd4 = [c for c in enumerate_chars(4) if not c.is_trivial()][0]
    assert conductor(odd4) == 4
    through3 = [c for c in enumerate_chars(9) if conductor(c) == 3]
    assert through3 and all(kernel_conductor(c) == 3 for c in through3)
    # odd p with j >= 2, the 2-part with e >= 5, and mixed moduli
    for f in (1, 2, 3, 4, 8, 9, 12, 16, 24, 30, 36, 40, 27, 81, 125, 243,
              32, 64, 96, 128, 160, 72, 120, 200):
        for chi in enumerate_chars(f):
            assert conductor(chi) == kernel_conductor(chi), (f, chi)


def test_conductor_divides_and_reinduction():
    for f in (9, 12, 24, 36, 40):
        for chi in enumerate_chars(f):
            c = conductor(chi)
            assert f % c == 0
            back = induce_char(primitive_char(chi), f)
            for a in range(1, f + 1):
                if gcd(a, f) == 1:
                    assert char_eval(back, a) == char_eval(chi, a)


def test_multiplicativity_randomized():
    rng = random.Random(42)
    for _ in range(200):
        f = rng.choice([3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 24, 30, 40])
        chi = rng.choice(enumerate_chars(f))
        a = rng.randrange(1, 400)
        b = rng.randrange(1, 400)
        if gcd(a, f) == 1 and gcd(b, f) == 1:
            assert char_eval(chi, a * b) == char_eval(chi, a) * char_eval(chi, b)


def test_orthogonality_sums():
    for f in range(1, 41):
        for chi in enumerate_chars(f):
            if chi.is_trivial():
                continue
            total = CycElem.zero(chi.order)
            for a in range(f):
                total = total + char_eval(chi, a)
            assert total.is_zero(), (f, chi)


def test_parity_field():
    for f in (3, 4, 5, 8, 12, 31, 40):
        for chi in enumerate_chars(f):
            assert char_eval(chi, -1).as_rational() == chi.parity


def test_products():
    odd4 = [c for c in enumerate_chars(4) if not c.is_trivial()][0]
    chi = enumerate_chars(31)[5]
    assert char_product(chi, char_inverse(chi)).is_trivial()
    assert char_product(trivial_char(4), odd4) == odd4
    assert char_product(odd4, odd4).is_trivial()
    assert char_product(odd4, odd4).modulus == 4
    # parity multiplies
    rng = random.Random(8)
    for _ in range(40):
        c1 = rng.choice(enumerate_chars(rng.choice([3, 4, 5, 8, 12])))
        c2 = rng.choice(enumerate_chars(rng.choice([3, 4, 5, 8, 12])))
        assert char_product(c1, c2).parity == c1.parity * c2.parity


def test_product_values_and_induction_to_new_primes():
    rng = random.Random(22)
    # moduli sharing every prime (72 with 12, 5 with 25), some (16 with 40)
    # or none (9 with 20)
    for f1, f2 in ((72, 12), (5, 25), (16, 40), (9, 20)):
        chars1, chars2 = enumerate_chars(f1), enumerate_chars(f2)
        for _ in range(30):
            c1, c2 = rng.choice(chars1), rng.choice(chars2)
            a = rng.choice([a for a in range(1, 2 * f1 * f2) if gcd(a, f1 * f2) == 1])
            # the product's value may lie in a smaller field than the factors'
            value = char_eval(char_product(c1, c2), a)
            assert (value - char_eval(c1, a) * char_eval(c2, a)).is_zero(), (c1, c2, a)
    for f, new_primes in ((9, 10), (12, 35), (40, 3)):
        M = f * new_primes
        for chi in enumerate_chars(f):
            lifted = induce_char(primitive_char(chi), M)
            assert lifted.modulus == M
            for a in range(1, M):
                if gcd(a, M) == 1:
                    assert char_eval(lifted, a) == char_eval(chi, a), (chi, M, a)


def test_induce_to_a_modulus_off_the_conductor_fails():
    odd4 = [c for c in enumerate_chars(4) if not c.is_trivial()][0]
    with pytest.raises(ParameterError):
        induce_char(odd4, 6)
    prim9 = enumerate_chars(9, exact_conductor=9)[0]
    with pytest.raises(ParameterError):
        induce_char(prim9, 3)
    with pytest.raises(ParameterError):
        induce_char(prim9, 3 * 5 * 7)


def test_canonical_text():
    for f in (1, 4, 31, 40):
        for chi in enumerate_chars(f)[:6]:
            assert parse_char(chi.canonical_text()) == chi
    assert parse_char("trivial").is_trivial()
    with pytest.raises(ParameterError):
        parse_char("31:{1}")


def test_exponent_validation():
    with pytest.raises(ParameterError):
        DirichletChar(5, (4, 0))
    with pytest.raises(ParameterError):
        DirichletChar(5, (7,))
