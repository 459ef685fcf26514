"""Dirichlet characters: enumeration, evaluation, conductors and products.

A character mod f is stored by its exponent vector on a fixed generator list
of (Z/f)^*: the generators come from the CRT decomposition over prime powers,
with the smallest primitive root for odd prime powers and <-1, 5> for powers
of two (8 and up).  If generator g_i has order n_i and exponent e_i, then
chi(g_i) = zeta_{n_i}^{e_i}.

Values are exact elements of Q(zeta_N) where N is the order of the character;
evaluation returns 0 for arguments sharing a factor with the modulus.  The
canonical text form is ``"f:[e1,e2,...]"``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from itertools import product
from math import gcd, lcm

from .errors import ParameterError
from .exact import CycElem, euler_phi, factorize


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


@functools.lru_cache(maxsize=None)
def unit_group_generators(f: int) -> tuple[tuple[int, int], ...]:
    """Generators of (Z/f)^* as ((g, order), ...), CRT-lifted to mod f.

    Ordering follows the ascending prime-power factorization of f, with the
    two-part <-1, 5> split listed sign generator first.
    """
    if f < 1:
        raise ParameterError("modulus must be positive")
    if f == 1:
        return ()
    gens = []
    for p, e in factorize(f):
        q = p**e
        m = f // q
        if p == 2:
            if e == 1:
                continue
            locals_ = [(q - 1, 2)] if e == 2 else [(q - 1, 2), (5, 2 ** (e - 2))]
        else:
            locals_ = [(_smallest_primitive_root(q), euler_phi(q))]
        for g_local, order in locals_:
            if m == 1:
                gens.append((g_local % f, order))
            else:
                # g = g_local mod q, 1 mod m
                inv_m = pow(m, -1, q)
                inv_q = pow(q, -1, m)
                g = (g_local * m * inv_m + 1 * q * inv_q) % f
                gens.append((g, order))
    return tuple(gens)


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
        return super().__new__(cls, modulus, exponents)

    # -- invariants ----------------------------------------------------------

    @property
    def order(self) -> int:
        gens = unit_group_generators(self.modulus)
        o = 1
        for e, (_, n) in zip(self.exponents, gens):
            o = lcm(o, n // gcd(n, e))
        return o

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
        dl = _dlog_table(f)[a]
        o = self.order
        gens = unit_group_generators(f)
        t = 0
        for e, d, (_, n) in zip(self.exponents, dl, gens):
            # chi(g) = zeta_n^e = zeta_o^(e*o/n); e*o/n is exact because the
            # value order n/gcd(n,e) divides o
            t += (e * o // n) * d
        return t % o

    def __call__(self, a: int) -> CycElem:
        return char_eval(self, a)

    # -- presentation ----------------------------------------------------------

    def canonical_text(self) -> str:
        return "{}:[{}]".format(self.modulus, ",".join(str(e) for e in self.exponents))

    def __str__(self):
        return self.canonical_text()


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
    """Smallest f' dividing the modulus through which chi factors.

    Computed from the local orders: an odd prime power component of order o
    contributes p^(1 + v_p(o)) when nontrivial; the two-part contributes 4
    for a nontrivial sign and 2^(t+2) when the <5>-component has order 2^t.
    """
    f = chi.modulus
    if f == 1:
        return 1
    gens = unit_group_generators(f)
    pieces = {}
    idx = 0
    for p, e in factorize(f):
        q = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                sign = chi.exponents[idx]
                idx += 1
                pieces[2] = 4 if sign else 1
            else:
                sign = chi.exponents[idx]
                e5 = chi.exponents[idx + 1]
                idx += 2
                n5 = 2 ** (e - 2)
                o5 = n5 // gcd(n5, e5)
                if o5 > 1:
                    pieces[2] = 4 * o5
                elif sign:
                    pieces[2] = 4
                else:
                    pieces[2] = 1
        else:
            exp = chi.exponents[idx]
            idx += 1
            n = euler_phi(q)
            o = n // gcd(n, exp)
            if o == 1:
                pieces[p] = 1
            else:
                vp = 0
                oo = o
                while oo % p == 0:
                    oo //= p
                    vp += 1
                pieces[p] = p ** (1 + vp)
    cond = 1
    for val in pieces.values():
        cond *= val
    return cond


def primitive_char(chi: DirichletChar) -> DirichletChar:
    """The primitive character (at its conductor) inducing chi on units."""
    f2 = conductor(chi)
    if f2 == chi.modulus:
        return chi
    return induce_char(chi, f2)


def induce_char(chi: DirichletChar, modulus: int) -> DirichletChar:
    """Express chi as a character mod ``modulus``.

    Valid when chi factors through mod gcd-compatible residues: the new
    modulus must be a multiple of the conductor, and every value is matched
    on units; raising or lowering the modulus are both supported.
    """
    f = chi.modulus
    if modulus % conductor(chi) != 0:
        raise ParameterError(
            f"character of conductor {conductor(chi)} cannot live mod {modulus}")
    gens = unit_group_generators(modulus)
    o = chi.order
    new_exps = []
    for g, n in gens:
        # pick a unit mod lcm(f, modulus) congruent to g mod modulus
        big = lcm(f, modulus)
        a = g
        while gcd(a, big) != 1:
            a += modulus
        t = chi.value_exponent(a)
        if t is None:
            raise AssertionError("failed to reach a unit representative")
        # chi'(g) = zeta_o^t must be an n-th root of unity: e = t*n/o
        if (t * n) % o != 0:
            raise ParameterError("character does not descend to the requested modulus")
        new_exps.append((t * n // o) % n)
    return DirichletChar(modulus, tuple(new_exps))


def char_product(chi1: DirichletChar, chi2: DirichletChar) -> DirichletChar:
    """Pointwise product, as a character mod lcm of the moduli."""
    m = lcm(chi1.modulus, chi2.modulus)
    gens = unit_group_generators(m)
    o1, o2 = chi1.order, chi2.order
    o = lcm(o1, o2)
    exps = []
    for g, n in gens:
        t1 = chi1.value_exponent(g)
        t2 = chi2.value_exponent(g)
        if t1 is None or t2 is None:
            raise AssertionError("generator not a unit for a factor modulus")
        t = (t1 * (o // o1) + t2 * (o // o2)) % o
        if (t * n) % o != 0:
            raise AssertionError("product value is not an n-th root of unity")
        exps.append((t * n // o) % n)
    return DirichletChar(m, tuple(exps))


def char_inverse(chi: DirichletChar) -> DirichletChar:
    gens = unit_group_generators(chi.modulus)
    return DirichletChar(chi.modulus,
                         tuple((-e) % n for e, (_, n) in zip(chi.exponents, gens)))
