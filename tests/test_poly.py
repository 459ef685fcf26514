"""Integer layer: elementary number theory and polynomials mod p, checked
against brute force."""

import random
from math import gcd

import pytest

from eiscong.errors import ParameterError
from eiscong.poly import (
    INF,
    _pdivmod_mod,
    _pmul_mod,
    _psub_mod,
    _pxgcd_mod,
    _split_by_periods,
    euler_phi,
    factorize,
    is_prime,
    sigma_with_p,
    sturm_bound,
    valp_int,
)
from split_oracle import equal_degree_split


def test_sturm_bound_checks_weight_and_level():
    assert [sturm_bound(0, 1), sturm_bound(12, 1), sturm_bound(32, 1), sturm_bound(32, 31)] == [
        0, 1, 3, 86]
    with pytest.raises(ParameterError, match=r"weight k = -12 must be >= 0"):
        sturm_bound(-12, 1)
    with pytest.raises(ParameterError, match=r"level N = 0 must be >= 1"):
        sturm_bound(12, 0)


def test_elementary_number_theory_matches_brute_force():
    for n in range(1, 400):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n))), n
        prod = 1
        for p, e in factorize(n):
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)
    assert [valp_int(0, 5), valp_int(250, 5), valp_int(-8, 2), valp_int(7, 3)] == [INF, 3, 3, 0]
    with pytest.raises(ParameterError):
        factorize(0)


def test_sigma_with_p_sorts_dedupes_and_requires_p():
    assert sigma_with_p(37, ("37", 31, 37)) == [31, 37]
    with pytest.raises(ParameterError, match=r"p = 5 must belong to Sigma = \[3, 7\]"):
        sigma_with_p(5, [7, 3])


def test_gcd_division_and_splitting_mod_p():
    rng = random.Random(7)
    p = 101
    for _ in range(20):
        a = [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1]
        b = [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1]
        q, r = _pdivmod_mod(a, b, p)
        assert _psub_mod(a, _pmul_mod(q, b, p), p) == r and len(r) < len(b)
        g, u, v = _pxgcd_mod(a, b, p)
        ua, vb = _pmul_mod(u, a, p), _pmul_mod(v, b, p)
        assert g[-1] == 1 and _psub_mod(g, vb, p) == ua  # u a + v b = g, g monic
        assert _pdivmod_mod(a, g, p)[1] == [] and _pdivmod_mod(b, g, p)[1] == []
    # x^4 + 1 = Phi_8 splits over F_17 into four distinct linear factors
    roots = sorted(f[0] for f in _split_by_periods([1, 0, 0, 0, 1], 1, 17, [[0, 1]]))
    assert roots == sorted((-r) % 17 for r in range(17) if (r**4 + 1) % 17 == 0)
    assert len(roots) == 4
    with pytest.raises(ParameterError):
        _split_by_periods([1, 0, 1], 1, 2, [[0, 1]])


def test_the_period_x_splits_like_cantor_zassenhaus():
    # the linear factors of a product of distinct roots mod p, as hecke1
    # splits gcd(charpoly(T_2), x^p - x)
    rng = random.Random(400)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 37, 101, 691])
        roots = rng.sample(range(p), rng.randrange(2, min(p, 8) + 1))
        G = [1]
        for r in roots:
            G = _pmul_mod(G, [-r % p, 1], p)
        factors = sorted(_split_by_periods(G, 1, p, [[0, 1]]))
        assert factors == sorted(equal_degree_split(G, 1, p)), (p, roots)
        assert sorted(-g[0] % p for g in factors) == sorted(roots)
