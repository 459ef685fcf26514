"""Exact base arithmetic: p-adic valuations of rationals, cyclotomic field
elements, and valuations at a chosen prime above p in Q(zeta_f).

Rationals are plain ``fractions.Fraction`` (arbitrary precision, always in
lowest terms with positive denominator, zero is 0/1).

An element of Q(zeta_f) is stored as the integer coefficients of its unique
representative of degree < phi(f) modulo the f-th cyclotomic polynomial,
over one positive denominator in lowest terms; every kernel works on those
integers, and the ``CycElem`` constructor is the one place that reduces mod
Phi_f.  Q(zeta_f) lies in Q(zeta_F) for f | F by the embedding zeta_f ->
zeta_F^(F/f), so arithmetic on two conductors, and a valuation at a prime of
a larger field, lift through it: no caller lifts by hand.  Conductors are
capped at MAX_CONDUCTOR to bound polynomial degrees.

A ``PadicContext`` fixes a prime above p in Q(zeta_f) for p not dividing f:
it factors the f-th cyclotomic polynomial mod p (all factors share degree
d = ord of p in (Z/f)^*), Hensel-lifts every factor to mod p^s, and selects
the lexicographically smallest one (ascending coefficient sequence, entries
normalized into [0, p)).  The extension is unramified, so e = 1 and the
pi-adic valuation of an element equals the minimum p-valuation of its
coordinates in the degree-d unramified quotient Z[x]/(p^s, g(x)).

The Sturm bound and the check that p lies in Sigma live here, with the other
elementary number theory, so that the level-1 engine (``hecke1``) needs no
module but this one and ``errors``.
The module imports no ``dataclasses``: its plain records are ``namedtuple``
subclasses, and ``CycElem``, which carries arithmetic and so must not be a
tuple, is a ``__slots__`` class on ``_Frozen``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from itertools import product, zip_longest
from math import gcd, lcm

from .errors import (
    ConductorTooLargeError,
    IndeterminateValuationError,
    ParameterError,
    RamifiedPrimeError,
)

INF = float("inf")

MAX_CONDUCTOR = 512


def _val_json(v):
    """A valuation as it appears in JSON output: an int, or "inf"."""
    return "inf" if v == INF else int(v)


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


def valp_rational(x: Fraction, p: int):
    """p-adic valuation of a rational number; INF for zero.

    Returns t with x = p^t * (p-unit).
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INF
    return valp_int(x.numerator, p) - valp_int(x.denominator, p)


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
# operands and with the level-1 Miller rows.  One big-int product (Kronecker
# substitution) beats the schoolbook loop once the shorter operand has
# KRONECKER_MIN_LEN terms, unless the coefficients of one operand are more
# than KRONECKER_MAX_SKEW times longer than the other's and longer than
# KRONECKER_SMALL_BITS: every packed slot is as wide as the largest product,
# while the loop pays only for the actual sizes.
KRONECKER_MIN_LEN = 16
KRONECKER_SMALL_BITS = 512
KRONECKER_MAX_SKEW = 4


def _pmul(a: list[int], b: list[int], n: int | None = None) -> list[int]:
    """Product of two integer coefficient lists, truncated to n terms when
    n is given.

    The one dense multiply: a schoolbook loop that skips zero coefficients
    (sparse q-series and padded layouts rely on it), or signed Kronecker
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
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[:n - i], i):
                if bj:
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


def _over_common(xs) -> tuple[list[int], int]:
    """Integer numerators and one common denominator D of rationals xs,
    so that xs[i] = nums[i] / D."""
    den = lcm(*{x.denominator for x in xs})
    return [x.numerator * (den // x.denominator) for x in xs], den


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


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(f: int) -> tuple[int, ...]:
    """Coefficients of the f-th cyclotomic polynomial, ascending, degree phi(f)."""
    if f < 1:
        raise ParameterError("conductor must be positive")
    if f > MAX_CONDUCTOR:
        raise ConductorTooLargeError(f"conductor {f} exceeds guard {MAX_CONDUCTOR}")
    num = [-1] + [0] * (f - 1) + [1]
    for d in range(1, f):
        if f % d == 0:
            num, rem = _poly_divmod_q(num, cyclotomic_poly(d))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(num)


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


def _equal_degree_split(F: list[int], d: int, p: int) -> list[list[int]]:
    """Split a squarefree product of degree-d irreducibles over F_p.

    Cantor-Zassenhaus over the monic candidates of degree 1, 2, ... < deg F
    in a fixed order, so repeated runs factor identically.  Some candidate
    always splits: by CRT one is a square modulo one factor and not modulo
    another.
    """
    if len(F) - 1 == d:
        return [F]
    if p == 2:
        raise ParameterError("p = 2 splitting not supported")
    exp = (p**d - 1) // 2
    candidates = ([*low, 1] for n in range(1, len(F) - 1) for low in product(range(p), repeat=n))
    for r in candidates:
        w = _psub_mod(_ppow_mod(r, exp, F, p), [1], p)
        g = _pxgcd_mod(F, w, p)[0]
        if 0 < len(g) - 1 < len(F) - 1:
            q, rem = _pdivmod_mod(F, g, p)
            if rem:
                raise AssertionError("split factor does not divide")
            return _equal_degree_split(g, d, p) + _equal_degree_split(q, d, p)
    raise AssertionError("equal-degree splitting exhausted its candidates")


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


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------

class _Frozen:
    """Base of the immutable value classes that carry arithmetic, and so must
    not be tuples (a tuple's ``+`` and ``*`` would concatenate and repeat
    them).  Subclasses list their fields in ``__slots__`` and set them once,
    in ``__init__``, through ``object.__setattr__``.  Instances compare and
    hash as (class, fields), like frozen records."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes):
        """A copy with the named fields replaced, checked like a new instance."""
        return self.__class__(**{**dict(zip(self.__slots__, self._fields())), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        fields = zip(self.__slots__, self._fields())
        return "{}({})".format(type(self).__name__, ", ".join(f"{n}={v!r}" for n, v in fields))


class CycElem(_Frozen):
    """An element (sum_i nums[i] zeta_f^i) / den of Q(zeta_f), f = ``conductor``.

    ``nums`` holds phi(f) integers, the coordinates of the unique
    representative of degree < phi(f) modulo Phi_f, and ``den`` is a positive
    integer coprime to them all (1 for zero), so equal elements have equal
    fields.  The constructor is the one normalisation: it takes an integer or
    rational vector of any length and a nonzero integer ``den``, reduces the
    vector mod Phi_f, pads it to phi(f) and cancels common factors.
    ``coeffs`` gives the coordinates as ``Fraction``s.

    Arithmetic between two CycElems of conductors f and g lifts both into
    Q(zeta_lcm(f, g)) by ``lift``.  Scalars (int/Fraction) mix freely.
    """

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, nums, den: int = 1):
        if conductor < 1 or conductor > MAX_CONDUCTOR:
            raise ConductorTooLargeError(f"conductor {conductor} out of range")
        if not den:
            raise ZeroDivisionError("division by zero")
        if not all(type(c) is int for c in nums):
            nums, d = _over_common(nums)
            den *= d
        deg = euler_phi(conductor)
        if len(nums) > deg:
            nums = _poly_divmod_q(nums, cyclotomic_poly(conductor))[1]
        nums = [*nums] + [0] * (deg - len(nums))
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(x, conductor: int = 1) -> "CycElem":
        return CycElem(conductor, (x,))

    @staticmethod
    def zeta(f: int, power: int = 1) -> "CycElem":
        """zeta_f^power as an element of Q(zeta_f)."""
        return CycElem(f, [0] * (power % f) + [1])

    @staticmethod
    def zero(conductor: int = 1) -> "CycElem":
        return CycElem.from_rational(0, conductor)

    @staticmethod
    def one(conductor: int = 1) -> "CycElem":
        return CycElem.from_rational(1, conductor)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates nums[i] / den, entry i the coefficient of zeta_f^i."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ParameterError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def _substitute(self, e: int, F: int) -> "CycElem":
        """The image of self under zeta_f -> zeta_F^e."""
        out = [0] * F
        for j, c in enumerate(self.nums):
            out[j * e % F] += c
        return CycElem(F, out, self.den)

    def lift(self, conductor: int) -> "CycElem":
        """Image under the canonical embedding Q(zeta_f) -> Q(zeta_F), f | F."""
        f, F = self.conductor, conductor
        if F == f:
            return self
        if F % f != 0:
            raise ParameterError(f"no canonical embedding of Q(zeta_{f}) into Q(zeta_{F})")
        return self._substitute(F // f, F)

    def galois_conjugate(self, a: int) -> "CycElem":
        """Image under zeta_f -> zeta_f^a, for a coprime to the conductor."""
        f = self.conductor
        if gcd(a, f) != 1:
            raise ParameterError(f"{a} is not a unit mod {f}")
        return self._substitute(a, f)

    def _adjugate(self) -> "CycElem":
        """The product of the conjugates sigma_a(self), a != 1, whose product
        with self is the norm N(self)."""
        adj = CycElem.one(self.conductor)
        for a in range(2, self.conductor):
            if gcd(a, self.conductor) == 1:
                adj = adj * self.galois_conjugate(a)
        return adj

    def norm(self) -> Fraction:
        """Field norm to Q: product over all Galois conjugates."""
        return (self * self._adjugate()).as_rational()

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "CycElem") -> tuple["CycElem", "CycElem"]:
        """Both operands in Q(zeta_F), F the lcm of their conductors."""
        if self.conductor == other.conductor:
            return self, other
        f = lcm(self.conductor, other.conductor)
        return self.lift(f), other.lift(f)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycElem.from_rational(other, self.conductor)
        if not isinstance(other, CycElem):
            return NotImplemented
        a, b = self._common(other)
        den = lcm(a.den, b.den)
        ma, mb = den // a.den, den // b.den
        return CycElem(a.conductor, [x * ma + y * mb for x, y in zip(a.nums, b.nums)], den)

    __radd__ = __add__

    def __neg__(self):
        return CycElem(self.conductor, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycElem.from_rational(other, self.conductor)
        if not isinstance(other, CycElem):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycElem(self.conductor, [c * other.numerator for c in self.nums],
                           self.den * other.denominator)
        if not isinstance(other, CycElem):
            return NotImplemented
        a, b = self._common(other)
        return CycElem(a.conductor, _pmul(a.nums, b.nums), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycElem":
        """Multiplicative inverse: the product of the other conjugates over
        the norm."""
        if self.is_rational():
            return CycElem(self.conductor, (self.den,), self.nums[0])
        adj = self._adjugate()
        return adj * (self * adj).inverse()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycElem(self.conductor, [c * other.denominator for c in self.nums],
                           self.den * other.numerator)
        if not isinstance(other, CycElem):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = CycElem.one(self.conductor)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- presentation ------------------------------------------------------

    def __str__(self):
        """Each coordinate nums[i] / den in lowest terms, printed as `Fraction`
        prints it ("n" or "n/d"), with one gcd and no `Fraction`; a rational
        element prints as its rational value."""
        rational = self.is_rational()
        den, den_text, text = self.den, str(self.den), []
        for c in self.nums[:1] if rational else self.nums:
            g = gcd(c, den)
            text.append(str(c // g) if g == den else f"{c}/{den_text}" if g == 1
                        else f"{c // g}/{den // g}")
        return text[0] if rational else f"cyc{self.conductor}:{','.join(text)}"

    def __repr__(self):
        return f"CycElem({self})"


# ---------------------------------------------------------------------------
# p-adic contexts
# ---------------------------------------------------------------------------

class PadicContext(namedtuple("PadicContext", "p f s prime_poly residue_degree all_factors")):
    """A fixed prime above p in Q(zeta_f) (p coprime to f), with working
    precision p^s.

    ``prime_poly`` is the Hensel lift mod p^s of the selected irreducible
    factor of the f-th cyclotomic polynomial mod p, as a tuple of ints; the
    quotient Z[x]/(p^s, prime_poly) is the length-s truncation of the
    unramified extension of Z_p of degree ``residue_degree``.
    ``all_factors`` holds the lifts of every factor.  The ramification index
    is 1, since p does not divide f.
    """

    __slots__ = ()


@functools.lru_cache(maxsize=None)
def padic_context(p: int, f: int, s: int) -> PadicContext:
    """Build the deterministic PadicContext for (p, f, s).

    The prime is chosen as the lexicographically smallest irreducible factor
    of Phi_f mod p (comparing ascending coefficient sequences with entries
    in [0, p)).
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if s < 1:
        raise ParameterError("precision s must be >= 1")
    if f < 1 or f > MAX_CONDUCTOR:
        raise ConductorTooLargeError(f"conductor {f} out of range")
    if f % p == 0:
        raise RamifiedPrimeError(
            f"p = {p} divides the conductor {f}; ramified primes are unsupported")
    d = mult_order(p, f)
    phi_int = list(cyclotomic_poly(f))
    F = _trim_mod([c % p for c in phi_int], p)
    inv = pow(F[-1], -1, p)
    F = [c * inv % p for c in F]
    if len(F) - 1 == 0:
        raise AssertionError("cyclotomic polynomial vanished mod p")
    factors = _equal_degree_split(F, d, p) if p > 2 else [F]
    if p == 2 and len(F) - 1 != d:
        raise ParameterError("p = 2 with a split cyclotomic polynomial is unsupported")
    factors.sort(key=tuple)
    lifted = tuple(tuple(_hensel_lift_factor(phi_int, g0, p, s)[0]) for g0 in factors)
    return PadicContext(p=p, f=f, s=s, prime_poly=lifted[0],
                        residue_degree=d, all_factors=lifted)


def valp_cyc(x: CycElem, ctx: PadicContext):
    """Valuation of x at the context's chosen prime; INF for zero.  x is
    lifted to the context's conductor, which its own conductor must divide.

    Since e = 1 this equals the p-adic valuation of the image of x in the
    unramified extension of degree ``residue_degree``.  Denominators are
    handled by clearing them and subtracting their p-valuation.  Raises
    IndeterminateValuationError when the (nonzero) image vanishes mod p^s.
    """
    x = x.lift(ctx.f)
    if x.is_zero():
        return INF
    shift = valp_int(x.den, ctx.p)
    mod = ctx.p**ctx.s
    _, r = _pdivmod_mod([c % mod for c in x.nums], [c % mod for c in ctx.prime_poly], mod)
    v = min((valp_int(c, ctx.p) for c in r if c), default=INF)
    if v == INF or v >= ctx.s:
        raise IndeterminateValuationError(
            f"image vanishes mod {ctx.p}^{ctx.s}; rerun with a larger precision s",
            precision=ctx.s)
    return int(v) - shift
