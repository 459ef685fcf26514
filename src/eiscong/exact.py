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

A ``PadicContext`` names a prime above p in Q(zeta_f) for p not dividing f:
the monic irreducible factor of the f-th cyclotomic polynomial mod p (all
factors share degree d = ord of p in (Z/f)^*) that is lexicographically
smallest (ascending coefficient sequence, entries in [0, p)), found by roots
of unity mod p when d = 1 and by Gauss periods otherwise.  The extension is
unramified, so e = 1 and the pi-adic valuation of an element equals the
minimum p-valuation of its coordinates in Z[x]/(p^s, g(x)), g the Hensel
lift of that factor mod p^s.  ``valp_cyc`` starts at s = START_PRECISION
and lifts g further where those coordinates all vanish, so no caller
chooses s.

The integer kernels underneath (the dense multiply, exact division by a
monic polynomial, and factoring and Hensel lifting mod p^s) and the
elementary number theory live in ``poly``.
The module imports no ``dataclasses``: its plain records are ``namedtuple``
subclasses, and ``CycElem``, which carries arithmetic and so must not be a
tuple, is a ``__slots__`` class on ``_Frozen``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import ConductorTooLargeError, ParameterError, RamifiedPrimeError
from .poly import (INF, _hensel_lift_factor, _pdivmod_mod, _pmul, _poly_divmod_q,
                   _split_by_periods, euler_phi, factorize, is_prime, mult_order, valp_int)

MAX_CONDUCTOR = 512
START_PRECISION = 6


def _val_json(v):
    """A valuation as it appears in JSON output: an int, or "inf"."""
    return "inf" if v == INF else int(v)


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


def _over_common(xs) -> tuple[list[int], int]:
    """Integer numerators and one common denominator D of rationals xs,
    so that xs[i] = nums[i] / D."""
    den = lcm(*{x.denominator for x in xs})
    return [x.numerator * (den // x.denominator) for x in xs], den


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


@functools.lru_cache(maxsize=None)
def _trace_weights(f: int) -> tuple[Fraction, ...]:
    """Tr(zeta_f^i) / phi(f) for i < phi(f): mu(m) / phi(m) with m = f / gcd(i, f)
    the order of zeta_f^i (a Ramanujan sum over phi(f))."""
    out = []
    for i in range(euler_phi(f)):
        m = f // gcd(i, f)
        primes = factorize(m)
        mu = 0 if any(e > 1 for _, e in primes) else (-1) ** len(primes)
        out.append(Fraction(mu, euler_phi(m)))
    return tuple(out)


def _is_zero_sum(terms: dict[int, int], L: int) -> bool:
    """Whether sum_k terms[k] zeta_L^k = 0.  For each prime power Q = q^e || L,
    zeta_L^k is zeta_Q^(k mod Q) times a root of unity of order prime to q,
    with zeta_Q = zeta_L^u (u = 1 mod Q, 0 mod L/Q); Phi_Q(zeta_Q) = 0
    rewrites each exponent r >= (q-1)q^(e-1) mod Q by lower ones.  What is
    left lies on the products of the power bases of the Q(zeta_Q), a basis
    of Q(zeta_L)."""
    for q, e in factorize(L):
        Q = q ** e
        step, u = Q // q, L // Q * pow(L // Q, -1, Q)
        out = {}
        for k, c in terms.items():
            if k % Q < (q - 1) * step:
                out[k] = out.get(k, 0) + c
            else:
                for t in range(1, q):
                    j = (k - t * step * u) % L
                    out[j] = out.get(j, 0) - c
        terms = out
    return not any(terms.values())


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------

class _Frozen:
    """Base of the immutable value classes that carry arithmetic, and so must
    not be tuples (a tuple's ``+`` and ``*`` would concatenate and repeat
    them).  Subclasses list their fields in ``__slots__`` and set them once,
    in ``__init__``, through ``object.__setattr__``.  By default instances
    compare and hash as (class, fields), like frozen records."""

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
    integer coprime to them all (1 for zero), so equal elements of one
    conductor have equal fields.  The constructor is the one normalisation:
    it takes an integer or rational vector of any length and a nonzero
    integer ``den``, reduces the vector mod Phi_f, pads it to phi(f) and
    cancels common factors.
    ``coeffs`` gives the coordinates as ``Fraction``s.

    Arithmetic between two CycElems of conductors f and g lifts both into
    Q(zeta_lcm(f, g)) by ``lift``.  ``==`` compares the numbers across
    conductors, with no cap on the lcm, and the hash does not depend on the
    conductor.  Scalars (int/Fraction) mix freely in arithmetic.
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

    def __eq__(self, other):
        """Equality of numbers.  Two conductors compare by whether the
        difference vanishes in Q(zeta_lcm), which ``_is_zero_sum`` decides
        without Phi_lcm, so the lcm may pass MAX_CONDUCTOR."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.conductor == other.conductor:
            return self.nums == other.nums and self.den == other.den
        L, terms = lcm(self.conductor, other.conductor), {}
        for x, scale in ((self, other.den), (other, -self.den)):
            step = L // x.conductor
            for i, c in enumerate(x.nums):
                terms[i * step] = terms.get(i * step, 0) + c * scale
        return _is_zero_sum(terms, L)

    def __hash__(self):
        """The hash of the normalised trace Tr(x) / phi(f), which does not
        depend on the conductor, so equal numbers of two conductors agree."""
        return hash(sum(map(mul, self.nums, _trace_weights(self.conductor))) / self.den)

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "CycElem") -> tuple["CycElem", "CycElem"]:
        """Both operands in Q(zeta_F), F the lcm of their conductors."""
        if self.conductor == other.conductor:
            return self, other
        f = lcm(self.conductor, other.conductor)
        return self.lift(f), other.lift(f)

    def _add(self, other, sign: int):
        """self + sign * other, normalised once."""
        if isinstance(other, (int, Fraction)):
            other = CycElem.from_rational(other, self.conductor)
        if not isinstance(other, CycElem):
            return NotImplemented
        a, b = self._common(other)
        den = lcm(a.den, b.den)
        ma, mb = den // a.den, sign * (den // b.den)
        return CycElem(a.conductor, [x * ma + y * mb for x, y in zip(a.nums, b.nums)], den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycElem(self.conductor, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self._add(other, -1)

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

class PadicContext(namedtuple("PadicContext", "p f factor")):
    """A prime above p in Q(zeta_f) (p coprime to f), named by ``factor``,
    its monic irreducible factor of the f-th cyclotomic polynomial mod p as
    a tuple of ints.  The residue field is F_p[x]/(factor), of degree
    ``residue_degree``; the ramification index is 1, since p does not
    divide f.  ``all_factors`` lists every such factor, sorted, so a test
    can name any prime above p by ``_replace(factor=...)``.
    """

    __slots__ = ()

    @property
    def residue_degree(self) -> int:
        return len(self.factor) - 1

    @property
    def all_factors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _cyclotomic_factors_mod_p(self.p, self.f)))


@functools.lru_cache(maxsize=None)
def _lifted_factor(p: int, f: int, g0: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The Hensel lift mod p^s of the monic factor g0 of Phi_f mod p."""
    return tuple(_hensel_lift_factor(list(cyclotomic_poly(f)), list(g0), p, s)[0])


def _cyclotomic_factors_mod_p(p: int, f: int) -> list[list[int]]:
    """The monic irreducible factors of Phi_f mod p (p not dividing f), of
    degree d = ord of p mod f, sorted: x - zeta^j (j a unit mod f) for a
    primitive f-th root of unity zeta mod p when d = 1.  Otherwise
    ``_split_by_periods`` splits Phi_f by the Gauss periods
    T_j = sum_{h in <p> mod f} x^(jh mod f), 0 < j < f: T_j is the constant
    Tr(zeta^(ja)) of F_p modulo the factor with root zeta^a, and the T_j
    separate any two factors (at (691, 36) every T_1 is 0)."""
    F = [c % p for c in cyclotomic_poly(f)]
    d = mult_order(p, f)
    if len(F) - 1 == d:
        return [F]
    if d == 1:
        for a in range(2, p):
            zeta = pow(a, (p - 1) // f, p)
            if all(pow(zeta, f // q, p) != 1 for q, _ in factorize(f)):
                break
        return sorted([-pow(zeta, j, p) % p, 1] for j in range(f) if gcd(j, f) == 1)
    coset = [pow(p, i, f) for i in range(d)]
    periods = []
    for j in range(1, f):
        T = [0] * f
        for h in coset:
            T[j * h % f] += 1
        periods.append(T)
    return sorted(_split_by_periods(F, d, p, periods))


@functools.lru_cache(maxsize=None)
def padic_context(p: int, f: int) -> PadicContext:
    """The deterministic PadicContext for (p, f): the prime of the
    lexicographically smallest irreducible factor of Phi_f mod p (comparing
    ascending coefficient sequences with entries in [0, p))."""
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if f < 1 or f > MAX_CONDUCTOR:
        raise ConductorTooLargeError(f"conductor {f} out of range")
    if f % p == 0:
        raise RamifiedPrimeError(
            f"p = {p} divides the conductor {f}; ramified primes are unsupported")
    return PadicContext(p=p, f=f, factor=tuple(_cyclotomic_factors_mod_p(p, f)[0]))


def valp_cyc(x: CycElem, ctx: PadicContext):
    """Valuation of x at the context's prime; INF for zero.  x is lifted to
    the context's conductor, which its own conductor must divide.

    Since e = 1 this equals the p-adic valuation of the image of x in the
    unramified extension of degree ``residue_degree``.  Denominators are
    handled by clearing them and subtracting their p-valuation.  The image
    is read mod p^s for s = START_PRECISION, 2 START_PRECISION, ...: at each
    s the factor is Hensel-lifted mod p^s, and the first s at which the
    image of a nonzero x does not vanish pins its valuation.
    """
    x = x.lift(ctx.f)
    if x.is_zero():
        return INF
    p, s = ctx.p, START_PRECISION
    while True:
        mod = p**s
        g = _lifted_factor(p, ctx.f, ctx.factor, s)
        _, r = _pdivmod_mod([c % mod for c in x.nums], g, mod)
        v = min((valp_int(c, p) for c in r if c), default=INF)
        if v < s:
            return v - valp_int(x.den, p)
        s *= 2
