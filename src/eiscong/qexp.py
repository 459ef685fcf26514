"""Truncated q-expansion algebra: Eisenstein series, V-operators, products,
Hecke operators, constant terms at cusps, and the cuspidal combination that
realizes an Eisenstein congruence in weight k.

A QExpansion stores coefficients a_0..a_P as cyclotomic elements over one
common conductor, together with weight / level / character metadata that
composes under multiplication (weights add, levels take lcm, characters
multiply).  Constant terms at general cusps are computed from closed
formulas, never from the q-expansion (which only sees the cusp at
infinity).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .characters import (
    DirichletChar,
    char_eval,
    char_inverse,
    char_product,
    primitive_char,
)
from .errors import ComputationError, ParameterError
from .exact import (CycElem, PadicContext, _Frozen, _over_common, _pmul, _reduce_coeffs, _val_json,
                    euler_phi, is_prime, sturm_bound, valp_cyc)
from .lfunc import eta, l_nonpositive


# ---------------------------------------------------------------------------
# the q-expansion container
# ---------------------------------------------------------------------------

class QExpansion(_Frozen):
    """A weight-k, level-N q-series with nebentypus, truncated at q^P:
    ``coefficients`` is a tuple of P + 1 CycElems of one conductor and
    ``character`` a DirichletChar."""

    __slots__ = ("coefficients", "weight", "level", "character", "label")

    def __init__(self, coefficients: tuple[CycElem, ...], weight: int, level: int,
                 character: DirichletChar, label: str = ""):
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "character", character)
        object.__setattr__(self, "label", label)

    @property
    def precision(self) -> int:
        return len(self.coefficients) - 1

    @property
    def conductor(self) -> int:
        return self.coefficients[0].conductor

    def coeff(self, n: int) -> CycElem:
        if not 0 <= n <= self.precision:
            raise ParameterError(f"coefficient index {n} beyond precision {self.precision}")
        return self.coefficients[n]

    def lift_conductor(self, f: int) -> "QExpansion":
        if f == self.conductor:
            return self
        return self._replace(coefficients=tuple(c.lift(f) for c in self.coefficients))

    def scale(self, c) -> "QExpansion":
        """Multiply every coefficient by a scalar (Fraction or CycElem)."""
        if isinstance(c, CycElem):
            f = lcm(self.conductor, c.conductor)
            coeffs = self.lift_conductor(f).coefficients
            return self._replace(coefficients=_flat_product(coeffs, (c.lift(f),), f, len(coeffs)))
        return self._replace(coefficients=tuple(x * c for x in self.coefficients))

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise ParameterError("weights differ")
        f = lcm(self.conductor, other.conductor)
        a = self.lift_conductor(f)
        b = other.lift_conductor(f)
        P = min(a.precision, b.precision)
        coeffs = tuple(a.coefficients[n] - b.coefficients[n] for n in range(P + 1))
        return QExpansion(coefficients=coeffs, weight=self.weight,
                          level=lcm(self.level, other.level),
                          character=self.character, label="")

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "weight": self.weight,
            "level": self.level,
            "character": self.character.canonical_text(),
            "precision": self.precision,
            "conductor": self.conductor,
            "coefficients": [str(c) for c in self.coefficients],
        }


def default_precision(k: int, level: int) -> int:
    return max(2 * sturm_bound(k, level), 50)


# ---------------------------------------------------------------------------
# Eisenstein series and operators
# ---------------------------------------------------------------------------

def eisenstein_qexp(l: int, phi: DirichletChar, P: int | None = None) -> QExpansion:
    """The weight-l Eisenstein series with constant term L(phi, 1-l)/2 and
    a_n = sum_{d|n} phi(d) d^(l-1), at level cond(phi).

    The character must be primitive-compatible (it is replaced by its
    primitive version) and satisfy phi(-1) = (-1)^l; weight 2 with trivial
    character is rejected (its constant term does not follow this shape).
    """
    if l < 1:
        raise ParameterError("weight must be >= 1")
    phi = primitive_char(phi)
    if phi.parity != (-1) ** l:
        raise ParameterError(
            f"parity mismatch: phi(-1) = {phi.parity} but weight is {l}; the series vanishes")
    if l == 2 and phi.is_trivial():
        raise ParameterError("weight 2 with trivial character is not supported")
    M = phi.modulus
    if P is None:
        P = default_precision(l, M)
    if P < 0:
        raise ParameterError(f"precision P = {P} must be >= 0")
    val_f = phi.order
    a0 = l_nonpositive(phi, 1 - l) * Fraction(1, 2)
    # sums[n][t] = sum of d^(l-1) over the divisors d of n with phi(d) = zeta^t
    sums = [[0] * val_f for _ in range(P + 1)]
    for d in range(1, P + 1):
        t = phi.value_exponent(d)
        if t is not None:
            power = d ** (l - 1)
            for n in range(d, P + 1, d):
                sums[n][t] += power
    coeffs = [a0.lift(val_f)] + [CycElem(val_f, _reduce_coeffs(s, val_f)) for s in sums[1:]]
    return QExpansion(coefficients=tuple(coeffs), weight=l, level=M,
                      character=phi, label=f"E_{l}({phi.canonical_text()})")


def v_operator(f: QExpansion, M: int) -> QExpansion:
    """Substitution q -> q^M: a_n(out) = a_(n/M) when M | n, else 0.

    Level is multiplied by M; weight, character, and precision are kept.
    """
    if M < 1:
        raise ParameterError("V-operator index must be positive")
    if M == 1:
        return f
    zero = CycElem.zero(f.conductor)
    coeffs = tuple(f.coefficients[n // M] if n % M == 0 else zero
                   for n in range(f.precision + 1))
    return QExpansion(coefficients=coeffs, weight=f.weight, level=f.level * M,
                      character=f.character, label=f"V_{M}({f.label})")


def _flat_product(xs, ys, F: int, count: int) -> tuple[CycElem, ...]:
    """The first ``count`` coefficients of (sum_i xs[i] q^i)(sum_j ys[j] q^j)
    for CycElems of conductor F.

    Each series is laid out flat at stride w over one common denominator: a
    product of two coordinate vectors has w = 2*phi(F) - 1 terms, so the
    terms of xs[i]*ys[j] land in the block of q^(i+j), and one integer
    product gives every coefficient unreduced."""
    deg = euler_phi(F)
    w = 2 * deg - 1
    pad = (0,) * (deg - 1)
    a, da = _over_common([x for c in xs for x in c.coeffs + pad])
    b, db = _over_common([x for c in ys for x in c.coeffs + pad])
    prod = _pmul(a, b, count * w)
    return tuple(CycElem(F, _reduce_coeffs(prod[n * w:(n + 1) * w], F, da * db))
                 for n in range(count))


def multiply(f: QExpansion, g: QExpansion) -> QExpansion:
    """Cauchy product truncated at the smaller precision.

    Weights add, levels take lcm, characters multiply (stored primitively).
    """
    F = lcm(f.conductor, g.conductor)
    P = min(f.precision, g.precision)
    out = _flat_product(f.lift_conductor(F).coefficients[:P + 1],
                        g.lift_conductor(F).coefficients[:P + 1], F, P + 1)
    char = primitive_char(char_product(f.character, g.character))
    return QExpansion(coefficients=out, weight=f.weight + g.weight,
                      level=lcm(f.level, g.level), character=char,
                      label=f"({f.label})*({g.label})")


def hecke_tq(f: QExpansion, q: int) -> QExpansion:
    """T_q on q-expansions: a_n -> a_(nq) + psi(q) q^(k-1) a_(n/q), with the
    weight k and character psi of f.

    Only for primes q coprime to the level (no U_q); the output precision
    drops to floor(P/q).
    """
    if not is_prime(q):
        raise ParameterError(f"{q} is not prime")
    if f.level % q == 0:
        raise ParameterError(f"q = {q} divides the level {f.level}; U_q is unsupported")
    scalar = char_eval(f.character, q) * (Fraction(q) ** (f.weight - 1))
    F = lcm(f.conductor, scalar.conductor)
    a = f.lift_conductor(F)
    scalar = scalar.lift(F)
    newP = f.precision // q
    coeffs = []
    for n in range(newP + 1):
        c = a.coefficients[n * q]
        if n % q == 0:
            c = c + scalar * a.coefficients[n // q]
        coeffs.append(c)
    return QExpansion(coefficients=tuple(coeffs), weight=f.weight, level=f.level,
                      character=f.character, label=f"T_{q}({f.label})")


# ---------------------------------------------------------------------------
# the constructive congruence: F_m, G, H
# ---------------------------------------------------------------------------

def build_fm(psi: DirichletChar, k: int, ell: int, m: int,
             P: int | None = None) -> QExpansion:
    """F_m = V_(ell^(m-1)) E_k(psi)  -  psi(ell) ell^k V_(ell^m) E_k(psi),
    of level N ell^m (N the conductor of psi)."""
    psi = primitive_char(psi)
    N = psi.modulus
    if not is_prime(ell) or N % ell == 0:
        raise ParameterError("ell must be a prime not dividing the conductor of psi")
    if m < 1:
        raise ParameterError("m must be >= 1")
    if k < 2 or (k == 2 and psi.is_trivial()):
        raise ParameterError("need k >= 2 and (k, psi) != (2, trivial)")
    if P is None:
        P = default_precision(k, N * ell**m)
    E = eisenstein_qexp(k, psi, P)
    first = v_operator(E, ell ** (m - 1))
    second = v_operator(E, ell**m).scale(char_eval(psi, ell) * (Fraction(ell) ** k))
    out = first - second
    return out._replace(level=N * ell**m, label=f"F_{m}")


def build_g(psi: DirichletChar, k: int, phi: DirichletChar,
            P: int | None = None) -> QExpansion:
    """The auxiliary weight-k form E_1(psi*phi) * E_(k-1)(phi^(-1)), whose
    constant term L(psi*phi, 0) L(phi^(-1), 2-k) / 4 is arranged (via the
    choice of phi) to be a p-unit."""
    psi = primitive_char(psi)
    phi = primitive_char(phi)
    chi1 = primitive_char(char_product(psi, phi))
    chi2 = primitive_char(char_inverse(phi))
    if chi1.parity != -1:
        raise ParameterError("(psi*phi)(-1) must be -1 for the weight-1 factor")
    if chi2.parity != (-1) ** (k - 1):
        raise ParameterError("phi^(-1)(-1) must match the weight k-1 factor")
    if P is None:
        P = default_precision(k, lcm(chi1.modulus, chi2.modulus))
    e1 = eisenstein_qexp(1, chi1, P)
    e2 = eisenstein_qexp(k - 1, chi2, P)
    out = multiply(e1, e2)
    return out._replace(label="G")


class HConstructionReport(namedtuple(
        "HConstructionReport",
        "weight ell m precision eta scale_valuation a0_is_zero p_integral first_nonintegral_index"
        " unit_index unit_coeff_valuation congruence_depth congruent_to_fm_mod_eta cusps_vanish"
        " cusp_count")):
    """Verification record for the cuspidal combination H = F_m - c*G.

    ``eta`` is an EtaValue; the valuations are ints or INF, and
    ``first_nonintegral_index`` is None when H is p-integral."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (self.a0_is_zero and self.p_integral
                and self.unit_coeff_valuation == 0
                and self.congruent_to_fm_mod_eta and self.cusps_vanish)

    def as_dict(self) -> dict:
        return {
            "weight": self.weight,
            "ell": self.ell,
            "m": self.m,
            "precision": self.precision,
            "eta": self.eta.as_dict(),
            "scale_valuation": _val_json(self.scale_valuation),
            "a0_is_zero": self.a0_is_zero,
            "p_integral": self.p_integral,
            "first_nonintegral_index": self.first_nonintegral_index,
            "unit_index": self.unit_index,
            "unit_coeff_valuation": _val_json(self.unit_coeff_valuation),
            "congruence_depth": _val_json(self.congruence_depth),
            "congruent_to_fm_mod_eta": self.congruent_to_fm_mod_eta,
            "cusps_vanish": self.cusps_vanish,
            "cusp_count": self.cusp_count,
            "passed": self.passed,
        }


def build_h(psi: DirichletChar, k: int, ell: int, m: int, phi: DirichletChar,
            sigma, ctx: PadicContext, P: int | None = None):
    """Build H = F_m - (a_0(F_m)/a_0(G)) * G and verify that it is cuspidal,
    p-integral, and congruent to F_m modulo eta.

    The subtraction is calibrated to the constant term at infinity; since the
    constant terms of F_m and G are supported on the same cusps and scale by
    the same character factor, H then vanishes at every cusp.  The scale
    equals eta/(a_0(G) k) up to the p-unit -1/2, so H = F_m modulo eta and
    a_(ell^(m-1))(H) = 1 - scale * a_(ell^(m-1))(G) stays a p-unit.

    Returns (H, HConstructionReport).  Requires a_0(G) to be a p-unit (the
    auxiliary-character certificate).
    """
    psi = primitive_char(psi)
    phi = primitive_char(phi)
    p = ctx.p
    if ell % p == 0 or psi.modulus % p == 0:
        raise ParameterError("ell and cond(psi) must be coprime to p")
    if P is None:
        P = default_precision(k, psi.modulus * ell**m)
    eta_val = eta(psi, k, sigma, ctx)
    F = build_fm(psi, k, ell, m, P)
    G = build_g(psi, k, phi, P)

    work_f = ctx.f
    if work_f % lcm(F.conductor, G.conductor) != 0:
        raise ParameterError(
            f"context conductor {work_f} cannot hold coefficients of conductor "
            f"{lcm(F.conductor, G.conductor)}")
    F = F.lift_conductor(work_f)
    G = G.lift_conductor(work_f)

    a0G = G.coeff(0)
    v0 = valp_cyc(a0G, ctx)
    if v0 != 0:
        raise ComputationError(
            f"a_0(G) has valuation {v0}; the auxiliary character does not satisfy "
            "the p-unit condition")
    scale = F.coeff(0) * a0G.inverse()
    S = G.scale(scale)
    H = (F - S)._replace(label="H", level=F.level)

    unit_index = ell ** (m - 1)
    a0_is_zero = H.coeff(0).is_zero()
    vals = [valp_cyc(H.coeff(n), ctx) for n in range(1, H.precision + 1)]
    first_bad = next((n for n, v in enumerate(vals, 1) if v < 0), None)
    p_integral = first_bad is None
    unit_val = valp_cyc(H.coeff(unit_index), ctx)

    diff_depth = min(valp_cyc(S.coeff(n), ctx) for n in range(H.precision + 1))  # F - H = S
    congruent = diff_depth >= eta_val.valuation_vpi

    cusps = cusps_gamma0(F.level)
    scale_lift = scale
    cusps_ok = True
    for cusp in cusps:
        t_f = fm_cusp_constant(psi, k, ell, m, cusp).lift(work_f)
        t_g = g_cusp_constant(psi, k, phi, cusp).lift(work_f)
        if not (t_f - scale_lift * t_g).is_zero():
            cusps_ok = False
            break

    report = HConstructionReport(
        weight=k, ell=ell, m=m, precision=P, eta=eta_val,
        scale_valuation=valp_cyc(scale, ctx),
        a0_is_zero=a0_is_zero,
        p_integral=p_integral, first_nonintegral_index=first_bad,
        unit_index=unit_index, unit_coeff_valuation=unit_val,
        congruence_depth=diff_depth, congruent_to_fm_mod_eta=congruent,
        cusps_vanish=cusps_ok, cusp_count=len(cusps))
    return H, report


# ---------------------------------------------------------------------------
# cusps and closed-form constant terms
# ---------------------------------------------------------------------------

class CuspClass(namedtuple("CuspClass", "u v level")):
    """The cusp [u : v] of Gamma0(level), with gcd(u, v) = 1 and v | level."""

    __slots__ = ()

    def __new__(cls, u: int, v: int, level: int):
        if gcd(u, v) != 1:
            raise ParameterError("cusp label needs gcd(u, v) = 1")
        return super().__new__(cls, u, v, level)


def cusps_gamma0(M: int) -> list[CuspClass]:
    """A complete system of cusp representatives [u : v] for Gamma0(M):
    v runs over divisors of M and u over units mod gcd(v, M/v)."""
    out = []
    for v in range(1, M + 1):
        if M % v != 0:
            continue
        g = gcd(v, M // v)
        for w in range(1, g + 1):
            if gcd(w, g) != 1:
                continue
            u = w
            while gcd(u, v) != 1:
                u += g
            out.append(CuspClass(u=u, v=v, level=M))
    return out


def eisenstein_cusp_constant(l: int, phi: DirichletChar, cusp: CuspClass) -> CycElem:
    """Constant term of the weight-l Eisenstein series of phi at [u : v]:
    phi(u)^(-1) L(phi, 1-l)/2 when cond(phi) | v, zero otherwise."""
    phi = primitive_char(phi)
    if l == 2 and phi.is_trivial():
        raise ParameterError("weight 2 with trivial character is not supported")
    M = phi.modulus
    val_f = phi.order
    if cusp.v % M != 0:
        return CycElem.zero(val_f)
    inv_val = char_eval(char_inverse(phi), cusp.u)
    a0 = l_nonpositive(phi, 1 - l) * Fraction(1, 2)
    f = lcm(inv_val.conductor, a0.conductor)
    return inv_val.lift(f) * a0.lift(f)


def fm_cusp_constant(psi: DirichletChar, k: int, ell: int, m: int,
                     cusp: CuspClass) -> CycElem:
    """Constant term of F_m at [u : v]: psi(u)^(-1) (L(psi,1-k)/2)(1 - psi(ell) ell^k)
    when N ell^m | v, zero otherwise."""
    psi = primitive_char(psi)
    N = psi.modulus
    val_f = max(psi.order, 1)
    if cusp.v % (N * ell**m) != 0:
        return CycElem.zero(val_f)
    inv_val = char_eval(char_inverse(psi), cusp.u)
    base = l_nonpositive(psi, 1 - k) * Fraction(1, 2)
    corr = CycElem.one(val_f) - char_eval(psi, ell) * (Fraction(ell) ** k)
    f = lcm(lcm(inv_val.conductor, base.conductor), corr.conductor)
    return inv_val.lift(f) * base.lift(f) * corr.lift(f)


def g_cusp_constant(psi: DirichletChar, k: int, phi: DirichletChar,
                    cusp: CuspClass) -> CycElem:
    """Constant term of E_1(psi*phi) * E_(k-1)(phi^(-1)) at a cusp, as the
    product of the factors' constant terms at that cusp."""
    chi1 = primitive_char(char_product(primitive_char(psi), primitive_char(phi)))
    chi2 = primitive_char(char_inverse(primitive_char(phi)))
    t1 = eisenstein_cusp_constant(1, chi1, cusp)
    t2 = eisenstein_cusp_constant(k - 1, chi2, cusp)
    f = lcm(t1.conductor, t2.conductor)
    return t1.lift(f) * t2.lift(f)

