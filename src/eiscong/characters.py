"""Dirichlet characters: enumeration, evaluation, conductors and products.

A character mod f is stored by its exponent vector on a fixed generator list
of (Z/f)^*: the generators come from the CRT decomposition over prime powers,
with the smallest primitive root for odd prime powers and <-1, 5> for powers
of two (8 and up).  If generator g_i has order n_i and exponent e_i, then
chi(g_i) = zeta_{n_i}^{e_i}.

Values are exact elements of Q(zeta_N) where N is the order of the character;
evaluation returns 0 for arguments sharing a factor with the modulus.  The
canonical text form is ``"f:[e1,e2,...]"``.

The conductor is the least f' | f with chi trivial on the units that are
1 mod f'.  Conductors, induction and products only read chi's values at
generators, never at every unit.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from itertools import product
from math import gcd, lcm
from operator import mul

from .errors import ParameterError
from .exact import CycElem
from .poly import euler_phi, factorize


# ---------------------------------------------------------------------------
# unit group structure
# ---------------------------------------------------------------------------

def _smallest_primitive_root(q: int) -> int:
    """Smallest primitive root modulo an odd prime power q."""
    phi = euler_phi(q)
    prime_divs = [p for p, _ in factorize(phi)]
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // p, q) != 1 for p in prime_divs):
            return g
    raise AssertionError(f"no primitive root mod {q}")


def _crt_lift(a: int, q: int, f: int) -> int:
    """The residue mod f that is a mod q and 1 mod f/q (q a prime power, q || f)."""
    m = f // q
    return (a * m * pow(m, -1, q) + q * pow(q, -1, m)) % f


@functools.lru_cache(maxsize=None)
def _prime_power_parts(f: int) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """unit_group_generators(f) grouped by p^e || f as ((p, e, ((g, order), ...)), ...);
    the local generators are none mod 2, -1 mod 4 and <-1, 5> from 8 up."""
    if f < 1:
        raise ParameterError("modulus must be positive")
    parts = []
    for p, e in factorize(f):
        q = p**e
        if p == 2:
            local = [(q - 1, 2), (5, 2 ** (e - 2))][:min(e - 1, 2)]
        else:
            local = [(_smallest_primitive_root(q), euler_phi(q))]
        parts.append((p, e, tuple((_crt_lift(g, q, f), n) for g, n in local)))
    return tuple(parts)


@functools.lru_cache(maxsize=None)
def unit_group_generators(f: int) -> tuple[tuple[int, int], ...]:
    """Generators of (Z/f)^* as ((g, order), ...), CRT-lifted to mod f, in the
    ascending prime-power factorization of f; the two-part <-1, 5> lists -1 first."""
    return tuple(gen for _, _, local in _prime_power_parts(f) for gen in local)


@functools.lru_cache(maxsize=None)
def _kernel_generators(f: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """Per p^e || f, (p, (G_0, ..., G_(e-1))) with G_j generating the units that
    are 1 mod p^j and 1 mod f/p^e: the local generators for j = 0 (and for
    j = 1 at p = 2), the CRT lift of 1 + p^j otherwise."""
    return tuple(
        (p, tuple(tuple(g for g, _ in local) if j == 0 or (p, j) == (2, 1)
                  else (_crt_lift(1 + p**j, p**e, f),) for j in range(e)))
        for p, e, local in _prime_power_parts(f))


@functools.lru_cache(maxsize=None)
def _dlog_table(f: int) -> dict[int, tuple[int, ...]]:
    """Discrete logarithms of every unit mod f on the fixed generator list."""
    table = {1 % f: ()}
    for g, n in unit_group_generators(f):
        table = {a * pow(g, e, f) % f: exps + (e,) for a, exps in table.items() for e in range(n)}
    if len(table) != euler_phi(f):
        raise AssertionError("unit group enumeration is incomplete")
    return table


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

class DirichletChar(namedtuple("DirichletChar", "modulus exponents")):
    """A Dirichlet character mod ``modulus`` with exponent vector ``exponents``
    (a tuple of ints) on :func:`unit_group_generators`."""

    __slots__ = ()

    def __new__(cls, modulus: int, exponents: tuple[int, ...]):
        gens = unit_group_generators(modulus)
        if len(exponents) != len(gens):
            raise ParameterError("exponent vector length does not match generator list")
        for e, (_, n) in zip(exponents, gens):
            if not 0 <= e < n:
                raise ParameterError("exponents must be reduced mod generator orders")
        return super().__new__(cls, modulus, tuple(exponents))

    # -- invariants ----------------------------------------------------------

    @property
    def order(self) -> int:
        return _value_weights(self.modulus, self.exponents)[0]

    @property
    def parity(self) -> int:
        """chi(-1), as +1 or -1."""
        if self.modulus <= 2:
            return 1
        t = self.value_exponent(self.modulus - 1)
        o = self.order
        if t == 0:
            return 1
        if 2 * t == o:
            return -1
        raise AssertionError("chi(-1) is not a sign")

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    # -- evaluation ----------------------------------------------------------

    def value_exponent(self, a: int):
        """t with chi(a) = zeta_N^t (N = order), or None if gcd(a, f) > 1."""
        f = self.modulus
        if f == 1:
            return 0
        a %= f
        if gcd(a, f) != 1:
            return None
        o, weights = _value_weights(f, self.exponents)
        return sum(map(mul, weights, _dlog_table(f)[a])) % o

    def __call__(self, a: int) -> CycElem:
        return char_eval(self, a)

    # -- presentation ----------------------------------------------------------

    def canonical_text(self) -> str:
        return "{}:[{}]".format(self.modulus, ",".join(str(e) for e in self.exponents))

    def __str__(self):
        return self.canonical_text()


@functools.lru_cache(maxsize=None)
def _value_weights(modulus: int, exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(o, (w_1, ...)): the order o and chi(g_i) = zeta_n^e = zeta_o^w with
    w = e*o/n, exact because the value order n/gcd(n, e) divides o; kept
    since every value_exponent call reads both."""
    gens = unit_group_generators(modulus)
    o = lcm(*(n // gcd(n, e) for e, (_, n) in zip(exponents, gens)))
    return o, tuple(e * o // n for e, (_, n) in zip(exponents, gens))


def trivial_char(modulus: int = 1) -> DirichletChar:
    gens = unit_group_generators(modulus)
    return DirichletChar(modulus, (0,) * len(gens))


def parse_char(text: str) -> DirichletChar:
    """Inverse of ``canonical_text``; also accepts the word "trivial"."""
    text = text.strip()
    if text == "trivial":
        return trivial_char(1)
    try:
        mod_part, exp_part = text.split(":")
        modulus = int(mod_part)
        exp_part = exp_part.strip()
        if not (exp_part.startswith("[") and exp_part.endswith("]")):
            raise ValueError
        inner = exp_part[1:-1].strip()
        exps = tuple(int(x) for x in inner.split(",")) if inner else ()
    except ValueError as exc:
        raise ParameterError(f"cannot parse character {text!r}") from exc
    return DirichletChar(modulus, exps)


def char_eval(chi: DirichletChar, a: int) -> CycElem:
    """chi(a) as an exact root of unity in Q(zeta_order); 0 when gcd(a, f) > 1."""
    t = chi.value_exponent(a)
    n = chi.order
    if t is None:
        return CycElem.zero(n)
    return CycElem.zeta(n, t)


def enumerate_chars(f: int, parity: int | None = None,
                    exact_conductor: int | None = None) -> list[DirichletChar]:
    """All characters mod f matching the filters, in lexicographic exponent order."""
    orders = (range(n) for _, n in unit_group_generators(f))
    if exact_conductor is not None and (exact_conductor < 1 or f % exact_conductor):
        raise ParameterError(
            f"conductor {exact_conductor} must be >= 1 and divide the modulus {f}")
    chars = (DirichletChar(f, exps) for exps in product(*orders))
    return [chi for chi in chars
            if (parity is None or chi.parity == parity)
            and (exact_conductor is None or conductor(chi) == exact_conductor)]


def conductor(chi: DirichletChar) -> int:
    """Least f' dividing the modulus f with chi trivial on the units that are 1 mod f'.

    Per p^e || f that is the least p^j with chi trivial on the units that are
    1 mod p^j and 1 mod f/p^e, read only at that group's generators.
    """
    cond = 1
    for p, kernels in _kernel_generators(chi.modulus):
        cond *= p ** next((j for j, gens in enumerate(kernels)
                           if all(chi.value_exponent(g) == 0 for g in gens)), len(kernels))
    return cond


def primitive_char(chi: DirichletChar) -> DirichletChar:
    """The primitive character (at its conductor) inducing chi on units."""
    f2 = conductor(chi)
    if f2 == chi.modulus:
        return chi
    return induce_char(chi, f2)


def _char_at_generators(modulus: int, chis) -> DirichletChar:
    """The character mod ``modulus`` equal on units to the product of ``chis``,
    each of which factors through ``modulus``: the product's value at each
    generator g, read at a unit that is g mod ``modulus``, gives its exponent."""
    o = lcm(*(chi.order for chi in chis))
    wide = lcm(modulus, *(chi.modulus for chi in chis))
    exps = []
    for g, n in unit_group_generators(modulus):
        while gcd(g, wide) != 1:
            g += modulus
        t = sum(chi.value_exponent(g) * (o // chi.order) for chi in chis)
        # zeta_o^t is an n-th root of unity (g^n = 1 mod modulus): t*n/o is exact
        if t * n % o:
            raise AssertionError("value at a generator is not an n-th root of unity")
        exps.append(t * n // o % n)
    return DirichletChar(modulus, tuple(exps))


def induce_char(chi: DirichletChar, modulus: int) -> DirichletChar:
    """Express chi as a character mod ``modulus``, a multiple of its conductor
    (raising or lowering the modulus), matching every value on units."""
    if modulus % conductor(chi) != 0:
        raise ParameterError(
            f"character of conductor {conductor(chi)} cannot live mod {modulus}")
    return _char_at_generators(modulus, (chi,))


def char_product(chi1: DirichletChar, chi2: DirichletChar) -> DirichletChar:
    """Pointwise product, as a character mod lcm of the moduli."""
    return _char_at_generators(lcm(chi1.modulus, chi2.modulus), (chi1, chi2))


def char_inverse(chi: DirichletChar) -> DirichletChar:
    gens = unit_group_generators(chi.modulus)
    return DirichletChar(chi.modulus,
                         tuple((-e) % n for e, (_, n) in zip(chi.exponents, gens)))
