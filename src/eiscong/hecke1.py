"""Level-1 Hecke engine: the echelonized (Victor Miller) basis of
M_k(SL2(Z)), Hecke matrices on the cuspidal subspace, eigensystem extraction
mod p^s, and congruence-depth scans.

Eigensystem extraction is restricted to simple roots of charpoly(T_2) mod p
that lie in the prime field.  They are the linear factors of the gcd of
charpoly(T_2) with x^p - x over F_p, split by equal-degree factorization;
repeated division gives each root's multiplicity and the degree left over
outside the prime field.  Each simple root is Hensel-lifted to alpha mod p^s
together with its cofactor h.  The local Hecke algebra at a simple root is
Z_p, so the alpha-eigenline is spanned by the normalised eigenform: a column
v of h(T_2) with a unit first coordinate v_0 = a_1 is a unit multiple of it,
and every eigenvalue is read off its q-expansion, a_q = a_q(v) / v_0, through
the pairing (T, f) -> a_1(T f) of the Hecke algebra with integral cusp forms
(Stein, *Modular Forms: A Computational Approach*).  No Hecke matrix but T_2
is built, and the Miller basis only to precision max(2 dim + 1, largest
recorded prime).  Roots of larger residue degree or with repeated reduction
are reported as skipped; such eigensystems enter through the external-record
ingestion path instead.

Depths are certified over the primes q up to max(Sturm bound, 13)
(``scan_prime_bound``); the Sturm bound alone can name no prime at all in
low weight (it is 1 for weight 12 at level 1), so the floor keeps the scan
meaningful.

The engine works on integer lists and needs only ``errors`` and ``exact`` at
module level, so a scan loads no q-series, character or L-function code:
``miller_basis``, the one function that returns q-expansions, imports
``QExpansion`` and ``trivial_char`` when it is called.  The records are
``namedtuple`` subclasses.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import ComputationError, ParameterError
from .exact import (CycElem, _equal_degree_split, _hensel_lift_factor, _pdivmod_mod, _pmul,
                    _ppow_mod, _psub_mod, _pxgcd_mod, _trim_mod, is_prime, sturm_bound, valp_int)

MIN_SCAN_PRIME_BOUND = 13


# ---------------------------------------------------------------------------
# integer q-series helpers (dense lists, index = exponent)
# ---------------------------------------------------------------------------

def _sigma(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def dim_modular(k: int) -> int:
    """dim M_k(SL2(Z)) for even k >= 0."""
    if k < 0 or k % 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def dim_cusp(k: int) -> int:
    """dim S_k(SL2(Z)); 0 for odd or negative k, like dim_modular."""
    return max(dim_modular(k) - 1, 0)


def _build_miller_rows(k: int, P: int) -> list[list[int]]:
    """Echelonized Miller basis of M_k to precision P, in integers.

    Row j starts as E4^a E6^b Delta^j with 4a + 6b = k - 12j: b is fixed by
    k mod 4 and a falls by 3 per row.  Delta = (E4^3 - E6^2)/1728 is integral
    and row j leads with q^j, so back-substitution stays in Z."""
    dim = dim_modular(k)
    one = [1] + [0] * P
    E4 = [1] + [240 * _sigma(n, 3) for n in range(1, P + 1)]
    E6 = [1] + [-504 * _sigma(n, 5) for n in range(1, P + 1)]
    E4_3 = _pmul(_pmul(E4, E4, P + 1), E4, P + 1)
    delta = [(x - y) // 1728 for x, y in zip(E4_3, _pmul(E6, E6, P + 1))]
    b = k // 2 % 2
    g = E6 if b else one  # E4^a E6^b of the last row, a in {0, 1, 2}
    for _ in range((k - 6 * b) // 4 - 3 * (dim - 1)):
        g = _pmul(g, E4, P + 1)
    rows = [g]
    for _ in range(dim - 1):  # E4^(a + 3) E6^b of the row above
        rows.insert(0, _pmul(rows[0], E4_3, P + 1))
    dj = one
    for j in range(1, dim):
        dj = _pmul(dj, delta, P + 1)
        rows[j] = _pmul(rows[j], dj, P + 1)
    for j in range(dim - 1, -1, -1):
        for i in range(j + 1, dim):
            c = rows[j][i]
            if c:
                rows[j] = [x - c * y for x, y in zip(rows[j], rows[i])]
    return rows


# weight -> integer Miller rows at the largest precision built so far.  A
# truncated q-series product does not depend on P, so a smaller request is
# served by the same rows.
_MILLER_ROWS: dict[int, list[list[int]]] = {}


def _miller_rows(k: int, P: int) -> list[list[int]]:
    """Integer Miller rows of M_k with at least P + 1 coefficients each;
    the echelon form needs P >= dim M_k - 1."""
    if k % 2 or k < 4:
        raise ParameterError("weight must be even and >= 4")
    if P < dim_modular(k) - 1:
        raise ParameterError(f"precision P = {P} is below dim M_{k} - 1 = {dim_modular(k) - 1}")
    rows = _MILLER_ROWS.get(k)
    if rows is None or len(rows[0]) <= P:
        rows = _MILLER_ROWS[k] = _build_miller_rows(k, P)
    return rows


def miller_basis(k: int, P: int) -> list:
    """Echelonized basis of M_k(SL2(Z)) as QExpansions to precision P:
    element i has a_j = delta_ij for j < dim.  Elements 1..dim-1 (those with
    a_0 = 0) span the cusp forms."""
    from .characters import trivial_char
    from .qexp import QExpansion
    return [QExpansion(coefficients=tuple(CycElem.from_rational(c) for c in row[:P + 1]),
                       weight=k, level=1, character=trivial_char(1), label=f"M_{k}[{i}]")
            for i, row in enumerate(_miller_rows(k, P))]


def _hecke_int(k: int, n: int, P: int | None = None) -> list[list[int]]:
    if n < 1:
        raise ParameterError(f"Hecke index n = {n} must be >= 1")
    ds = dim_cusp(k)
    need = ds * n + 1
    if P is None:
        P = need
    if P < need:
        raise ParameterError(f"precision {P} is below the required {need}")
    cusp = _miller_rows(k, P)[1:]
    return [[sum(d ** (k - 1) * f[m * n // (d * d)]
                 for d in range(1, gcd(m, n) + 1) if m % d == 0 and n % d == 0)
             for f in cusp] for m in range(1, ds + 1)]


def hecke_matrix(k: int, n: int, P: int | None = None) -> list[list[Fraction]]:
    """Matrix of T_n on the cuspidal echelon basis of S_k(SL2(Z)), via
    a_m(T_n f) = sum_{d | gcd(m,n)} d^(k-1) a_(mn/d^2)(f).

    Entry [i][j] is the f_(i+1)-coordinate of T_n f_(j+1).  Precision P must
    reach dim * n (defaulted when omitted).  The entries are integers,
    computed on the integer Miller basis (built once per weight and process)
    and returned as Fractions.
    """
    return [[Fraction(c) for c in row] for row in _hecke_int(k, n, P)]


def charpoly(matrix: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), ascending coefficients, via
    Newton's identities on the power-sum traces (exact, dims are tiny)."""
    n = len(matrix)
    if n == 0:
        return [Fraction(1)]
    cur = [[int(i == j) for j in range(n)] for i in range(n)]  # an int matrix stays in ints
    traces = []
    for _ in range(n):
        cur = _mat_mul(cur, matrix)
        traces.append(sum(cur[i][i] for i in range(n)))
    e = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, m + 1):
            acc += (-1) ** (i - 1) * e[m - i] * traces[i - 1]
        e.append(acc / m)
    return [(-1) ** (n - i) * e[n - i] for i in range(n + 1)]


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


# ---------------------------------------------------------------------------
# eigensystems mod p^s
# ---------------------------------------------------------------------------

class EigensystemRecord(namedtuple(
        "EigensystemRecord", "weight level p prime_label eigenvalues depth capped source",
        defaults=(None, False, "internal"))):
    """A Hecke eigensystem with eigenvalue residues mod p^s (``eigenvalues``
    maps each prime q to its residue) and, once a depth scan ran, the
    congruence depth against 1 + psi(q) q^(k-1) (None before)."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "weight": self.weight,
            "level": self.level,
            "p": self.p,
            "prime_label": self.prime_label,
            "eigenvalues": {str(q): str(r) for q, r in sorted(self.eigenvalues.items())},
            "depth": self.depth,
            "source": self.source,
        }


class SkippedEigensystem(namedtuple("SkippedEigensystem", "weight p reason")):
    """An eigensystem the scan does not extract, with the reason."""

    __slots__ = ()


def _primes_upto(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if is_prime(q)]


def scan_prime_bound(k: int) -> int:
    """Bound on the primes q a weight-k scan records a_q for: max(Sturm bound, 13)."""
    return max(sturm_bound(k, 1), MIN_SCAN_PRIME_BOUND)


def _mat_vec(matrix, v, mod):
    return [sum(a * b for a, b in zip(row, v)) % mod for row in matrix]


def _eigenline(T2, h, p, mod):
    """First column of h(T_2) mod `mod` whose first coordinate is a unit,
    each column h(T_2) e_j by Horner in T_2; None if there is none."""
    for j in range(len(T2)):
        v = [int(i == j) for i in range(len(T2))]  # h is monic
        for c in reversed(h[:-1]):
            v = _mat_vec(T2, v, mod)
            v[j] = (v[j] + c) % mod
        if v[0] % p:
            return v
    return None


def eigensystems_mod(k: int, p: int, s: int):
    """Eigensystem records of S_k(SL2(Z)) mod p^s with eigenvalues recorded
    for all primes q <= scan_prime_bound(k).

    Returns (records, skipped): eigensystems whose mod-p reduction is a
    repeated root of charpoly(T_2) or falls outside the prime field are
    listed in ``skipped`` with a diagnostic instead.
    """
    if not is_prime(p) or p == 2:
        raise ParameterError("p must be an odd prime")
    if s < 1:
        raise ParameterError(f"precision s = {s} must be >= 1")
    if k < 0 or k % 2:
        raise ParameterError(f"weight k = {k} must be even and >= 0")
    dim = dim_cusp(k)
    records, skipped = [], []
    if dim == 0:
        return records, skipped
    primes = _primes_upto(scan_prime_bound(k))
    # one basis build: T_2 needs a_1..a_(2 dim), the read-off a_q for q <= primes[-1]
    cusp = _miller_rows(k, max(2 * dim + 1, primes[-1]))[1:]
    mod = p**s
    T2 = [[x % mod for x in row] for row in _hecke_int(k, 2)]
    f = [int(c) for c in charpoly(T2)]  # congruent to charpoly(T_2) mod p^s
    fb = _trim_mod(f, p)
    # the distinct roots in F_p are the linear factors of gcd(f, x^p - x)
    lin = _pxgcd_mod(fb, _psub_mod(_ppow_mod([0, 1], p, fb, p), [0, 1], p), p)[0]
    roots = sorted(-g[0] % p for g in _equal_degree_split(lin, 1, p)) if len(lin) > 1 else []
    rest, simple = fb, []
    for r in roots:
        mult = 0
        while not (qr := _pdivmod_mod(rest, [-r % p, 1], p))[1]:
            rest, mult = qr[0], mult + 1
        if mult > 1:
            skipped.append(SkippedEigensystem(
                weight=k, p=p,
                reason=f"repeated root {r} of charpoly(T_2) mod {p}"))
        else:
            simple.append(r)
    if len(rest) - 1 > 0:
        skipped.append(SkippedEigensystem(
            weight=k, p=p,
            reason=f"charpoly(T_2) has an irreducible factor of degree {len(rest)-1} "
                   f"mod {p}; eigenvalues outside the prime field are not extracted"))
    for r in simple:
        g, h = _hensel_lift_factor(f, [-r % p, 1], p, s)
        alpha = -g[0] % mod
        # v = v_0 * (normalised eigenform) mod p^s, so a_q = a_q(sum_j v_j f_j) / v_0
        v = _eigenline(T2, h, p, mod)
        if v is None or _mat_vec(T2, v, mod) != [alpha * x % mod for x in v]:
            raise ComputationError(
                f"no eigenvector of T_2 mod {p}^{s} with eigenvalue {alpha} and a unit a_1")
        unit = pow(v[0], -1, mod)
        records.append(EigensystemRecord(
            weight=k, level=1, p=p, prime_label=f"T2-root-{r}",
            eigenvalues={q: sum(x * row[q] for x, row in zip(v, cusp)) * unit % mod
                         for q in primes}))
    return records, skipped


def residue_valuation(r: int, p: int, s: int) -> int:
    """val_p of a residue known mod p^s, capped at s (0 residue reports s)."""
    r %= p**s
    if r == 0:
        return s
    return min(valp_int(r, p), s)


def depth_scan(k: int, p: int, sigma, s_max: int):
    """Scan the level-1 eigensystems of weight k for congruence depth with
    the Eisenstein eigenvalues 1 + q^(k-1).

    depth = min over recorded primes q not in Sigma of
    val_p(a_q - (1 + q^(k-1))), computed mod p^(s_max) and capped there
    (``capped`` marks records whose depth reached the cap).
    """
    sigma = set(int(x) for x in sigma)
    if p not in sigma:
        raise ParameterError(f"p = {p} must belong to Sigma")
    records, skipped = eigensystems_mod(k, p, s_max)
    out = []
    for rec in records:
        vals = []
        for q, aq in rec.eigenvalues.items():
            if q in sigma:
                continue
            target = (1 + q ** (k - 1)) % p**s_max
            vals.append(residue_valuation(aq - target, p, s_max))
        if not vals:
            raise ComputationError("no primes outside Sigma were recorded")
        depth = min(vals)
        out.append(rec._replace(depth=depth, capped=depth >= s_max))
    return out, skipped
