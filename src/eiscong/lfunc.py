"""Bernoulli numbers, generalized Bernoulli numbers, Dirichlet L-values at
non-positive integers, the congruence bound eta(psi, k), and Kummer /
Teichmuller congruence utilities.

Conventions: B_1 = -1/2 (generating function t/(e^t - 1)); the generalized
Bernoulli number of a character chi of conductor f is

    B_{n,chi} = f^(n-1) * sum_{a=1}^{f} chi(a) B_n(a/f)

with B_n(x) the Bernoulli polynomial, and L(chi, 1-n) = -B_{n,chi}/n.

eta(psi, k) multiplies B_k(psi) by the correction factors (1 - psi(l) l^k)
over the primes l of Sigma other than p, evaluating psi at its conductor
(values at primes outside the conductor are roots of unity, never zero).
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .characters import DirichletChar, char_eval, conductor, primitive_char
from .errors import ComputationError, ParameterError
from .exact import (INF, CycElem, PadicContext, _over_common, _reduce_coeffs, _val_json, is_prime,
                    teichmuller, valp_cyc)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

# The Akiyama-Tanigawa triangle, shared by every index: after step m the
# row holds m + 1 entries and row[0] is B_m (in the B_1 = +1/2 convention).
# The entries are kept as integer numerators over lcm(1, ..., m + 1), so a
# step is integer work; the row is rescaled when that denominator grows.
_AT_ROW: list[int] = []
_BERNOULLI: list[Fraction] = []  # row[0] after each step so far


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number, B_1 = -1/2.

    Read off the Akiyama-Tanigawa triangle, extended on demand (it natively
    produces the B_1 = +1/2 variant; the two conventions only differ at
    n = 1).
    """
    if n < 0:
        raise ParameterError("Bernoulli index must be non-negative")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    if n < len(_BERNOULLI):
        return _BERNOULLI[n]
    row = _AT_ROW
    den = lcm(*range(1, len(row) + 1))
    while len(_BERNOULLI) <= n:
        m = len(row)
        grown = lcm(den, m + 1)
        if grown != den:
            row[:] = [x * (grown // den) for x in row]
            den = grown
        row.append(den // (m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        _BERNOULLI.append(Fraction(row[0], den))
    return _BERNOULLI[n]


def bernoulli_mod(n: int, p: int) -> int:
    """B_n mod p for even n with (p-1) nmid n and p nmid (n+1).

    Uses the power-sum congruence sum_{a<p} a^n = p*B_n (mod p^2), which is
    valid under exactly those hypotheses; avoids building the huge exact
    numerators needed for large n.
    """
    if not is_prime(p) or p == 2:
        raise ParameterError("p must be an odd prime")
    if n % 2 != 0 or n < 2:
        raise ParameterError("index must be even and >= 2")
    if n % (p - 1) == 0:
        raise ParameterError(f"B_{n} is not p-integral for p = {p}")
    if (n + 1) % p == 0:
        raise ParameterError(f"power-sum congruence needs p nmid n+1")
    p2 = p * p
    total = sum(pow(a, n, p2) for a in range(1, p)) % p2
    if total % p != 0:
        raise AssertionError("power sum is not divisible by p")
    return (total // p) % p


# ---------------------------------------------------------------------------
# generalized Bernoulli numbers and L-values
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gen_bernoulli(n: int, chi: DirichletChar) -> CycElem:
    """B_{n,chi} for a primitive character chi (given at its conductor).

    Memoised: every cusp constant of a construction asks again for the same
    few values, and characters and CycElems are immutable."""
    if n < 1:
        raise ParameterError("index must be positive")
    f = chi.modulus
    if conductor(chi) != f:
        raise ParameterError("character must be given at its own conductor")
    # f^(n-1) B_n(a/f) = sum_i C(n, i) B_i f^(i-1) a^(n-i), over one denominator
    nums, den = _over_common([comb(n, i) * bernoulli(i) * Fraction(f) ** (i - 1)
                              for i in range(n + 1)])
    # sums[t] = sum of those values over the residues a with chi(a) = zeta^t
    sums = [0] * chi.order
    for a in range(1, f + 1):
        t = chi.value_exponent(a)
        if t is not None:
            sums[t] += sum(c * a ** (n - i) for i, c in enumerate(nums))
    return CycElem(chi.order, _reduce_coeffs(sums, chi.order, den))


def l_nonpositive(chi: DirichletChar, s: int) -> CycElem:
    """L(chi, s) for s = 1 - n <= 0, as -B_{n,chi}/n."""
    if s > 0:
        raise ParameterError("only non-positive arguments are supported")
    n = 1 - s
    return gen_bernoulli(n, chi) * Fraction(-1, n)


# ---------------------------------------------------------------------------
# the congruence bound eta
# ---------------------------------------------------------------------------

class EtaValue(namedtuple("EtaValue", "value p valuation_vpi factor_breakdown")):
    """eta(psi, k) (a CycElem) together with its pi-adic valuation (an int,
    or INF) and the per-factor breakdown: (name, valuation) pairs, one for
    B_k(psi), one per prime of Sigma - {p}."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "value": str(self.value),
            "p": self.p,
            "valuation": _val_json(self.valuation_vpi),
            "factors": [{"factor": name, "valuation": _val_json(v)}
                        for name, v in self.factor_breakdown],
        }


def eta(psi: DirichletChar, k: int, sigma, ctx: PadicContext) -> EtaValue:
    """eta(psi, k) = B_k(psi) * prod_{l in Sigma - {p}} (1 - psi(l) l^k).

    psi is evaluated at its conductor, so correction factors at primes
    outside the conductor use the root-of-unity value (never zero).  The
    context must match the value field of psi (conductor 1 for trivial psi).
    """
    p = ctx.p
    sigma = sorted(set(int(x) for x in sigma))
    if p not in sigma:
        raise ParameterError(f"p = {p} must belong to Sigma = {sigma}")
    if k < 2:
        raise ParameterError("weight must be >= 2")
    psi0 = primitive_char(psi)
    if k == 2 and psi0.is_trivial():
        warnings.warn("k = 2 with trivial character: the congruence-module bound "
                      "does not apply, though eta itself is still defined")
    work_f = ctx.f
    if work_f % psi0.order != 0:
        raise ParameterError(
            f"context conductor {work_f} cannot hold values of order {psi0.order}")

    bk = gen_bernoulli(k, psi0).lift(work_f)
    breakdown = [(f"B_{k}(psi)", valp_cyc(bk, ctx))]
    value = bk
    for ell in sigma:
        if ell == p:
            continue
        factor = CycElem.one(work_f) - char_eval(psi0, ell).lift(work_f) * Fraction(ell) ** k
        breakdown.append((f"1 - psi({ell})*{ell}^{k}", valp_cyc(factor, ctx)))
        value = value * factor
    total = sum(v for _, v in breakdown) if all(v != INF for _, v in breakdown) else INF
    return EtaValue(value=value, p=p, valuation_vpi=total,
                    factor_breakdown=tuple(breakdown))


# ---------------------------------------------------------------------------
# Teichmuller-twisted weight-one Bernoulli values
# ---------------------------------------------------------------------------

class B1NotIntegral(ComputationError):
    """B_{1,omega^j} has valuation -1 (only for j = -1 mod p-1); carries the
    residue of p * B_{1,omega^j}, a p-adic unit."""

    def __init__(self, message, unit_residue, precision):
        super().__init__(message)
        self.unit_residue = unit_residue
        self.precision = precision


def b1_omega_mod(j: int, p: int, s: int) -> int:
    """B_{1,omega^j} mod p^s, via (1/p) sum_{a<p} omega^j(a) a with the
    Teichmuller values computed mod p^(s+1) to absorb the division by p.

    j = 0 mod (p-1) is rejected (the trivial-character weight-one value is
    not what any caller wants); the non-integral case raises B1NotIntegral.
    """
    if not is_prime(p) or p == 2:
        raise ParameterError("p must be an odd prime")
    if j % (p - 1) == 0:
        raise ParameterError("j = 0 mod (p-1) is unsupported")
    jj = j % (p - 1)
    big = p ** (s + 1)
    total = 0
    for a in range(1, p):
        w = pow(teichmuller(a, p, s + 1), jj, big)
        total = (total + w * a) % big
    if total % p != 0:
        raise B1NotIntegral(
            f"B_(1,omega^{j}) is not p-integral for p = {p}",
            unit_residue=total % (p**s), precision=s)
    return (total // p) % (p**s)


def b1_omega_min_valuation(j: int, p: int) -> int:
    """min(val_p(B_{1,omega^j}), 1), valued in {-1, 0, 1}."""
    try:
        r = b1_omega_mod(j, p, 1)
    except B1NotIntegral:
        return -1
    return 1 if r == 0 else 0


def kummer_check(p: int, k: int) -> dict:
    """Compare B_{1,omega^(k-1)} with B_k/k mod p (the Kummer congruence).

    Requires 2 <= k <= p-3, k even (so both sides are p-integral).
    """
    if not (2 <= k <= p - 3 and k % 2 == 0):
        raise ParameterError("need even k with 2 <= k <= p-3")
    if k % (p - 1) == 0:
        raise ParameterError("k = 0 mod (p-1) is outside the Kummer range")
    lhs = b1_omega_mod(k - 1, p, 1)
    bk = bernoulli(k)
    den = bk.denominator * k
    if den % p == 0:
        raise AssertionError("B_k/k should be p-integral in the Kummer range")
    rhs = bk.numerator * pow(den, -1, p) % p
    return {"p": p, "k": k, "lhs": lhs, "rhs": rhs, "congruent": lhs == rhs}
