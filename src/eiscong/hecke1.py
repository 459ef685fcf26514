"""Level-1 Hecke engine: the echelonized (Victor Miller) basis of
M_k(SL2(Z)), Hecke matrices on the cuspidal subspace, eigensystem extraction
mod p^s, and congruence-depth scans.

Eigensystem extraction is restricted to simple roots of charpoly(T_2) mod p
that lie in the prime field: each such root is Hensel-lifted to mod p^s, the
matching eigenvector is obtained by evaluating the complementary factor of
the characteristic polynomial at T_2, and every other eigenvalue a_q is read
off from a unit coordinate.  Roots of larger residue degree or with repeated
reduction are reported as skipped; such eigensystems enter through the
external-record ingestion path instead.

Depths are certified over the primes q up to max(Sturm bound, 13); the
Sturm bound alone can name no prime at all in low weight (it is 1 for
weight 12 at level 1), so the floor keeps the scan meaningful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .characters import trivial_char
from .errors import ComputationError, ParameterError
from .exact import CycElem, is_prime, valp_int
from .qexp import QExpansion, sturm_bound

MIN_SCAN_PRIME_BOUND = 13
ROOT_SCAN_GUARD = 10**6


# ---------------------------------------------------------------------------
# integer q-series helpers (dense lists, index = exponent)
# ---------------------------------------------------------------------------

def _sigma(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)

def _ser_mul(a, b, P):
    out = [0] * (P + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(P + 1 - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out

def _ser_pow(a, e, P):
    out = [1] + [0] * P
    for _ in range(e):
        out = _ser_mul(out, a, P)
    return out


def dim_modular(k: int) -> int:
    """dim M_k(SL2(Z)) for even k >= 0."""
    if k < 0 or k % 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def dim_cusp(k: int) -> int:
    """dim S_k(SL2(Z)) for even k."""
    if k < 12:
        return 0
    return dim_modular(k) - 1


def miller_basis(k: int, P: int) -> list[QExpansion]:
    """Echelonized basis of M_k(SL2(Z)): element i has a_j = delta_ij for
    j < dim.  Elements 1..dim-1 (those with a_0 = 0) span the cusp forms."""
    if k % 2 or k < 4:
        raise ParameterError("weight must be even and >= 4")
    dim = dim_modular(k)
    E4 = [1] + [240 * _sigma(n, 3) for n in range(1, P + 1)]
    E6 = [1] + [-504 * _sigma(n, 5) for n in range(1, P + 1)]
    delta_num = [a - b for a, b in zip(_ser_pow(E4, 3, P), _ser_mul(E6, E6, P))]
    delta = [Fraction(c, 1728) for c in delta_num]
    rows = []
    for j in range(dim):
        r = k - 12 * j
        a = b = None
        for bb in range(r // 6 + 1):
            if (r - 6 * bb) % 4 == 0:
                a, b = (r - 6 * bb) // 4, bb
                break
        g = [Fraction(c) for c in _ser_mul(_ser_pow(E4, a, P), _ser_pow(E6, b, P), P)]
        dj = [Fraction(1)] + [Fraction(0)] * P
        for _ in range(j):
            dj = _ser_mul(dj, delta, P)
        rows.append(_ser_mul(g, dj, P))
    for j in range(dim - 1, -1, -1):
        for i in range(j + 1, dim):
            c = rows[j][i]
            if c:
                rows[j] = [x - c * y for x, y in zip(rows[j], rows[i])]
    out = []
    for i, row in enumerate(rows):
        coeffs = tuple(CycElem.from_rational(c) for c in row)
        out.append(QExpansion(coefficients=coeffs, weight=k, level=1,
                              character=trivial_char(1), label=f"M_{k}[{i}]"))
    return out


@functools.lru_cache(maxsize=64)
def _miller_rows(k: int, P: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(c.as_rational() for c in f.coefficients) for f in miller_basis(k, P))


def hecke_matrix(k: int, n: int, P: int | None = None) -> list[list[Fraction]]:
    """Matrix of T_n on the cuspidal echelon basis of S_k(SL2(Z)), via
    a_m(T_n f) = sum_{d | gcd(m,n)} d^(k-1) a_(mn/d^2)(f).

    Entry [i][j] is the f_(i+1)-coordinate of T_n f_(j+1).  Precision must
    reach dim * n (defaulted when omitted).
    """
    ds = dim_cusp(k)
    need = ds * n + 1
    if P is None:
        P = need
    if P < need:
        raise ParameterError(f"precision {P} is below the required {need}")
    rows = _miller_rows(k, P)
    cusp = rows[1:]
    out = []
    for m in range(1, ds + 1):
        row = []
        for f in cusp:
            acc = Fraction(0)
            for d in range(1, gcd(m, n) + 1):
                if m % d == 0 and n % d == 0:
                    acc += Fraction(d) ** (k - 1) * f[m * n // (d * d)]
            row.append(acc)
        out.append(row)
    return out


def charpoly(matrix: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), ascending coefficients, via
    Newton's identities on the power-sum traces (exact, dims are tiny)."""
    n = len(matrix)
    if n == 0:
        return [Fraction(1)]
    powers = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    traces = []
    cur = powers
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
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _mat_int(a):
    out = []
    for row in a:
        r = []
        for c in row:
            if c.denominator != 1:
                raise AssertionError("Hecke matrix entry is not an integer")
            r.append(int(c))
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# eigensystems mod p^s
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigensystemRecord:
    """A Hecke eigensystem with eigenvalue residues mod p^s and, once a depth
    scan ran, the congruence depth against 1 + psi(q) q^(k-1)."""

    weight: int
    level: int
    p: int
    prime_label: str
    eigenvalues: dict[int, int]
    depth: int | None = None
    capped: bool = False
    source: str = "internal"

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


@dataclass(frozen=True)
class SkippedEigensystem:
    weight: int
    p: int
    reason: str


def _primes_upto(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if is_prime(q)]


def _horner(poly: list[int], x: int, m: int) -> int:
    """poly(x) mod m, ascending coefficients."""
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % m
    return acc


def _hensel_root(f: list[int], r: int, p: int, s: int) -> int:
    """Lift a simple root r of f mod p to a root mod p^s (Newton)."""
    deriv = [i * c for i, c in enumerate(f)][1:]
    mod = p
    x = r % p
    while mod < p**s:
        mod = min(mod * mod, p**s)
        fx = _horner(f, x, mod)
        dx = _horner(deriv, x, mod)
        x = (x - fx * pow(dx, -1, mod)) % mod
    x %= p**s
    return x


def _syn_div(f: list[int], root: int, mod: int) -> list[int]:
    """Divide f by (x - root) over Z/mod; the remainder must vanish."""
    n = len(f) - 1
    out = [0] * n
    acc = f[n] % mod
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = (f[i] + acc * root) % mod
    if acc % mod != 0:
        raise AssertionError("synthetic division left a remainder")
    return out


class _EigenContext:
    """Internal handle for one extracted eigensystem: holds the eigenvector
    mod p^s so that the eigenvalue of any T_n can be read off."""

    def __init__(self, k, p, s, alpha, vector, unit_index, mats):
        self.k = k
        self.p = p
        self.s = s
        self.alpha = alpha
        self.vector = vector
        self.unit_index = unit_index
        self._mats = mats  # cache: n -> integer matrix

    def eigenvalue(self, n: int) -> int:
        mod = self.p**self.s
        if n not in self._mats:
            self._mats[n] = _mat_int(hecke_matrix(self.k, n))
        M = self._mats[n]
        dim = len(M)
        w = [sum(M[i][j] * self.vector[j] for j in range(dim)) % mod for i in range(dim)]
        lam = w[self.unit_index] * pow(self.vector[self.unit_index], -1, mod) % mod
        for i in range(dim):
            if (w[i] - lam * self.vector[i]) % mod != 0:
                raise ComputationError("vector is not a simultaneous eigenvector")
        return lam


def _extract_eigensystems(k: int, p: int, s: int):
    """All eigensystems of S_k(SL2(Z)) mod p^s reachable from simple
    prime-field roots of charpoly(T_2), plus skip diagnostics."""
    if not is_prime(p) or p == 2:
        raise ParameterError("p must be an odd prime")
    if p > ROOT_SCAN_GUARD:
        raise ParameterError(f"root scan guard: p > {ROOT_SCAN_GUARD}")
    dim = dim_cusp(k)
    found, skipped = [], []
    if dim == 0:
        return found, skipped
    mats: dict[int, list[list[int]]] = {}
    T2 = _mat_int(hecke_matrix(k, 2))
    mats[2] = T2
    f = [int(c) for c in charpoly([[Fraction(c) for c in row] for row in T2])]
    mod = p**s
    fb = [c % p for c in f]
    deriv = [i * c % p for i, c in enumerate(fb)][1:]
    roots = [r for r in range(p) if _horner(fb, r, p) == 0]
    simple = []
    for r in roots:
        if _horner(deriv, r, p) == 0:
            skipped.append(SkippedEigensystem(
                weight=k, p=p,
                reason=f"repeated root {r} of charpoly(T_2) mod {p}"))
        else:
            simple.append(r)
    rem = fb
    for r in roots:
        while _horner(rem, r, p) == 0 and len(rem) > 1:
            rem = _syn_div(rem, r, p)
    if len(rem) - 1 > 0:
        skipped.append(SkippedEigensystem(
            weight=k, p=p,
            reason=f"charpoly(T_2) has an irreducible factor of degree {len(rem)-1} "
                   f"mod {p}; eigenvalues outside the prime field are not extracted"))
    for r in simple:
        alpha = _hensel_root(f, r, p, s)
        h = _syn_div([c % mod for c in f], alpha, mod)
        # v = (column of h(T_2)) spans the alpha-eigenline mod p^s
        dimn = len(T2)
        hmat = [[0] * dimn for _ in range(dimn)]
        for i in range(dimn):
            hmat[i][i] = h[-1] % mod
        for c in reversed(h[:-1]):
            hmat = [[sum(hmat[i][t] * T2[t][j] for t in range(dimn)) % mod
                     for j in range(dimn)] for i in range(dimn)]
            for i in range(dimn):
                hmat[i][i] = (hmat[i][i] + c) % mod
        col = None
        unit_index = None
        for j in range(dimn):
            column = [hmat[i][j] % mod for i in range(dimn)]
            for i in range(dimn):
                if column[i] % p != 0:
                    col, unit_index = column, i
                    break
            if col is not None:
                break
        if col is None:
            raise AssertionError("projector has no primitive column")
        found.append(_EigenContext(k, p, s, alpha, col, unit_index, mats))
    return found, skipped


def eigensystems_mod(k: int, p: int, s: int):
    """Eigensystem records of S_k(SL2(Z)) mod p^s with eigenvalues recorded
    for all primes q <= max(Sturm bound, 13).

    Returns (records, skipped): eigensystems whose mod-p reduction is a
    repeated root of charpoly(T_2) or falls outside the prime field are
    listed in ``skipped`` with a diagnostic instead.
    """
    qmax = max(sturm_bound(k, 1), MIN_SCAN_PRIME_BOUND)
    contexts, skipped = _extract_eigensystems(k, p, s)
    records = []
    for ctxn in contexts:
        evs = {q: ctxn.eigenvalue(q) for q in _primes_upto(qmax)}
        records.append(EigensystemRecord(
            weight=k, level=1, p=p,
            prime_label=f"T2-root-{ctxn.alpha % p}",
            eigenvalues=evs, source="internal"))
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
        out.append(replace(rec, depth=depth, capped=depth >= s_max))
    return out, skipped
