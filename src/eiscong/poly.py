"""Integer arithmetic: elementary number theory (with the Sturm bound and
the check that p lies in Sigma), and polynomials as ascending lists of ints
over Z and mod m: the one dense multiply ``_pmul``, exact division by a monic
polynomial, and the one factoring engine mod p^s (gcds over F_p, splitting
by polynomials constant on each factor, Hensel lifting of a factor with its
cofactor).

The module imports only ``errors`` and the standard library, and no
``fractions``: ``hecke1`` runs a level-1 scan on it alone, on integer
residues, and ``exact`` builds Q(zeta_f) on it.
"""

from __future__ import annotations

import functools
from itertools import zip_longest
from math import gcd

from .errors import ParameterError

INF = float("inf")


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@functools.lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ParameterError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def sturm_bound(k: int, N: int) -> int:
    """ceil(k * [SL2(Z) : Gamma0(N)] / 12), for weight k >= 0 and level N >= 1."""
    if k < 0:
        raise ParameterError(f"weight k = {k} must be >= 0")
    if N < 1:
        raise ParameterError(f"level N = {N} must be >= 1")
    idx = N
    for p, _ in factorize(N):
        idx = idx // p * (p + 1)
    return -(-k * idx // 12)


def sigma_with_p(p: int, sigma) -> list[int]:
    """The ramification set Sigma as a sorted list of distinct ints; a
    ParameterError unless p belongs to it."""
    sigma = sorted({int(x) for x in sigma})
    if p not in sigma:
        raise ParameterError(f"p = {p} must belong to Sigma = {sigma}")
    return sigma


def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n (a coprime to n); order 1 for n = 1."""
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ParameterError(f"{a} is not a unit mod {n}")
    o, x = 1, a
    while x != 1:
        x = x * a % n
        o += 1
    return o


def valp_int(n: int, p: int):
    """p-adic valuation of an integer; INF for zero."""
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def teichmuller(a: int, p: int, s: int) -> int:
    """Teichmuller representative of a mod p^s: the unique w with
    w = a mod p and w^(p-1) = 1 mod p^s, computed as a^(p^(s-1)) mod p^s."""
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if s < 1:
        raise ParameterError("precision must be >= 1")
    if a % p == 0:
        raise ParameterError(f"{a} is divisible by {p}")
    return pow(a, p ** (s - 1), p**s)


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

# Crossovers of the multiply, measured on CPython 3.11 with dense random
# operands and the level-1 Miller rows.  One big-int product (Kronecker
# substitution) beats the schoolbook loop once the shorter operand has
# KRONECKER_MIN_LEN terms, unless the coefficients of one operand are more
# than KRONECKER_MAX_SKEW times longer than the other's and longer than
# KRONECKER_SMALL_BITS: every packed slot is as wide as the largest product,
# while the loop pays only for the actual sizes.  KRONECKER_SMALL_BITS is
# not a measured crossover but a value between two measured points of
# E_1 * E_(k-1): against 6-bit coefficients, 54 bits packs faster (the loop
# takes 1.3 of the packed time) and 177-406 bits loop faster (0.5-0.8).
KRONECKER_MIN_LEN = 16
KRONECKER_SMALL_BITS = 128
KRONECKER_MAX_SKEW = 4


def _pmul(a: list[int], b: list[int], n: int | None = None) -> list[int]:
    """Product of two integer coefficient lists, truncated to n terms when
    n is given.

    The one dense multiply: a schoolbook loop over the nonzero coefficients
    only (sparse q-series and padded layouts rely on it), or signed Kronecker
    substitution above the crossovers."""
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    short = min(len(a), len(b))
    if short >= KRONECKER_MIN_LEN:
        ma, mb = max(max(a), -min(a)), max(max(b), -min(b))
        lo, hi = sorted((ma.bit_length(), mb.bit_length()))
        if lo and (hi <= KRONECKER_SMALL_BITS or hi <= KRONECKER_MAX_SKEW * lo):
            return _kronecker(a, b, n, ma * mb * short)
    out = [0] * n
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                j += i
                if j >= n:
                    break
                out[j] += ai * bj
    return out


def _kronecker(a: list[int], b: list[int], n: int, bound: int) -> list[int]:
    """The first n coefficients of a*b from one big-int product.

    Each operand is packed at 8*w bits per coefficient, with w bytes enough
    for the signed coefficients of the product (|c| <= bound, and bound is
    at least every operand coefficient).  Packing writes two's-complement
    slots and then takes back the 2^(8w) that each negative slot borrowed,
    i.e. the slot's top bit shifted up one place; unpacking adds 2^(8w-1)
    to every slot so that no slot borrows, reads the slots as unsigned and
    subtracts the offset again."""
    w = (bound.bit_length() + 8) // 8

    def tops(m):  # 2^(8w-1) in each of m slots
        return int.from_bytes((bytes(w - 1) + b"\x80") * m, "little")

    def pack(xs):
        u = int.from_bytes(b"".join([x.to_bytes(w, "little", signed=True) for x in xs]), "little")
        return u - ((u & tops(len(xs))) << 1)

    raw = ((pack(a) * pack(b) + tops(n)) & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    half = 1 << (8 * w - 1)
    return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * n, w)]


def _poly_divmod_q(num: list[int], den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, den monic, so both
    stay in Z.

    Zero coefficients of den are skipped: cyclotomic divisors are sparse."""
    num = list(num)
    dd = len(den) - 1
    terms = [(j, c) for j, c in enumerate(den[:dd]) if c]
    q = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q[i - dd] = c
            for j, dj in terms:
                num[i - dd + j] -= c * dj
    rem = num[:dd]
    while rem and rem[-1] == 0:
        rem.pop()
    return q, rem


def _trim_mod(a: list[int], m: int) -> list[int]:
    a = [c % m for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim_mod(_pmul(a, b), m)


def _psub_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim_mod([x - y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _pdivmod_mod(a: list[int], b: list[int], m: int):
    """Division with remainder mod m; leading coefficient of b must be a unit."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % m
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % m
    return _trim_mod(q, m), _trim_mod(a[:db], m)


def _pxgcd_mod(a: list[int], b: list[int], p: int):
    """Extended gcd over F_p: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = _trim_mod(list(a), p), _trim_mod(list(b), p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub_mod(s0, _pmul_mod(q, s1, p), p)
        t0, t1 = t1, _psub_mod(t0, _pmul_mod(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return ([c * inv % p for c in r0], [c * inv % p for c in s0], [c * inv % p for c in t0])


def _ppow_mod(a: list[int], e: int, mod_poly: list[int], p: int) -> list[int]:
    r = [1]
    a = _pdivmod_mod(a, mod_poly, p)[1]
    while e:
        if e & 1:
            r = _pdivmod_mod(_pmul_mod(r, a, p), mod_poly, p)[1]
        a = _pdivmod_mod(_pmul_mod(a, a, p), mod_poly, p)[1]
        e >>= 1
    return r


def _split_by_periods(G: list[int], d: int, p: int, periods) -> list[list[int]]:
    """Split G, a squarefree product of monic irreducibles of degree d over
    F_p, p odd, into its factors.  Each period T is constant modulo every
    factor, and any two factors are told apart by the constant of some T.
    A part G splits by gcd(G, (T - c)^((p-1)/2) - 1) for some c, with T the
    first period that is not constant modulo G: the gcd collects the factors
    where T - c is a nonzero square.  T = x splits a product of distinct
    linear factors; the Gauss periods split a cyclotomic polynomial."""
    if p == 2:
        raise ParameterError("p = 2 splitting is unsupported")

    def split(G: list[int], first: int) -> list[list[int]]:
        if len(G) - 1 == d:
            return [G]
        for j in range(first, len(periods)):
            T = _pdivmod_mod(periods[j], G, p)[1]
            if len(T) > 1:
                break
        for c in range(p):
            w = _psub_mod(_ppow_mod(_psub_mod(T, [c], p), (p - 1) // 2, G, p), [1], p)
            g = _pxgcd_mod(G, w, p)[0]
            if 0 < len(g) - 1 < len(G) - 1:
                return split(g, j) + split(_pdivmod_mod(G, g, p)[0], j)
        raise AssertionError("a non-constant period split no factor")

    return split(G, 0)


def _hensel_lift_factor(full: list[int], g0: list[int], p: int,
                        s: int) -> tuple[list[int], list[int]]:
    """Lift a factor g0 of ``full`` mod p to a factor mod p^s (g0 monic,
    coprime to its cofactor mod p).  Returns (g, h): the lifted factor and
    its lifted cofactor, with full = g*h mod p^s for monic ``full``."""
    h0, rem = _pdivmod_mod([c % p for c in full], g0, p)
    if rem:
        raise AssertionError("g0 does not divide mod p")
    one, a, b = _pxgcd_mod(g0, h0, p)
    if one != [1]:
        raise AssertionError("factor and cofactor are not coprime mod p")
    g, h = list(g0), list(h0)
    mod = p
    target = p**s
    while mod < target:
        newmod = min(mod * p, target)
        e = _psub_mod(full, _pmul_mod(g, h, newmod), newmod)
        e = _trim_mod([c // mod for c in e], p)
        be = _pmul_mod(b, e, p)
        qq, u = _pdivmod_mod(be, g0, p) if be else ([], [])
        w = _psub_mod(_pmul_mod(a, e, p), _pmul_mod(qq, [-c for c in h0], p), p)  # a e + qq h0
        g = [(gi + mod * (u[i] if i < len(u) else 0)) % newmod for i, gi in enumerate(g)]
        h = [(hi + mod * (w[i] if i < len(w) else 0)) % newmod for i, hi in enumerate(h)]
        mod = newmod
    return g, h
