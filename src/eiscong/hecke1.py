"""Level-1 Hecke engine: the eigensystems of S_k(SL2(Z)) mod p^s, read off
the echelonized (Victor Miller) basis, and congruence-depth scans.

``eigensystems_on_rows`` is the extraction, and ``eigensystems_mod`` is its
level-1 caller.  Its contract: rows reduced mod p^s, in reduced echelon form
(a_(j+1)(rows[i]) = delta_ij for j < d = len(rows)), spanning a Hecke-stable
space of cusp forms of trivial character and odd level, each row long enough
for a_(2d) and for the largest recorded prime.  Then T_2 is read off the rows
by a_n(T_2 f) = a_(2n) + 2^(k-1) a_(n/2), and the engine takes no level.

The whole extraction runs on residues mod p^s.  The Miller rows are built
once per scan, mod p^s, to precision max(2 dim + 1, largest recorded prime);
Delta = (E4^3 - E6^2)/1728 is computed in integers and reduced after the
division, since 1728 has no inverse mod 3.  charpoly(T_2) comes from
Berkowitz's division-free recurrence in Z/p^s.  Extraction is restricted to
simple roots of charpoly(T_2) mod p that lie in the prime field.  They are
the linear factors of the gcd of charpoly(T_2) with x^p - x over F_p, split by
``poly._split_by_periods`` with the one period x; repeated division gives each
root's multiplicity and the degree left over outside the prime field.  Each
simple root is Hensel-lifted to alpha mod p^s together with its cofactor h.
The local Hecke algebra at a simple root is Z_p, so the alpha-eigenline is
spanned by the normalised eigenform: a column v of h(T_2) with a unit first
coordinate v_0 = a_1 is a unit multiple of it, and every eigenvalue is read
off its q-expansion, a_q = a_q(v) / v_0, through the pairing
(T, f) -> a_1(T f) of the Hecke algebra with integral cusp forms (Stein,
*Modular Forms: A Computational Approach*).
Roots of larger residue degree or with repeated reduction are reported as
skipped; such eigensystems enter through the external-record ingestion path
instead.  The exact basis and Hecke matrices T_n are test oracles only
(``tests/level1_oracle.py``).

Depths are certified over the primes q up to max(Sturm bound, 13)
(``scan_prime_bound``); the Sturm bound alone can name no prime at all in
low weight (it is 1 for weight 12 at level 1), so the floor keeps the scan
meaningful.  ``congruence_depth`` is the one depth rule in the package: the
scan doubles s from 3 until every depth is below s, so each is exact, and
record ingestion (``criteria``) reads at one more power of p than a record states.

The engine works on integer lists and imports only ``errors`` and ``poly``,
so a scan loads no rational, cyclotomic, q-series, character or L-function
code.  The records are ``namedtuple`` subclasses.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import ComputationError, ParameterError
from .poly import (_hensel_lift_factor, _pdivmod_mod, _pmul, _ppow_mod, _psub_mod, _pxgcd_mod,
                   _split_by_periods, _trim_mod, is_prime, sigma_with_p, sturm_bound,
                   valp_int)

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


def _miller_rows(k: int, P: int, m: int) -> list[list[int]]:
    """Echelonized Miller basis of M_k to precision P, as residues mod m.

    Row j starts as E4^a E6^b Delta^j with 4a + 6b = k - 12j: b is fixed by
    k mod 4 and a falls by 3 per row.  Delta = (E4^3 - E6^2)/1728 is integral
    and is reduced only after the division, since 1728 is not a unit mod 3.
    Row j leads with q^j, so back-substitution needs no division either; the
    echelon form needs P >= dim M_k - 1."""
    if k % 2 or k < 4:
        raise ParameterError("weight must be even and >= 4")
    dim = dim_modular(k)
    if P < dim - 1:
        raise ParameterError(f"precision P = {P} is below dim M_{k} - 1 = {dim - 1}")

    def times(f, g):
        return [x % m for x in _pmul(f, g, P + 1)]

    one = [1] + [0] * P
    E4 = [1] + [240 * _sigma(n, 3) for n in range(1, P + 1)]
    E6 = [1] + [-504 * _sigma(n, 5) for n in range(1, P + 1)]
    E4_3 = _pmul(_pmul(E4, E4, P + 1), E4, P + 1)
    delta = [(x - y) // 1728 % m for x, y in zip(E4_3, _pmul(E6, E6, P + 1))]
    E4, E6, E4_3 = ([x % m for x in f] for f in (E4, E6, E4_3))
    b = k // 2 % 2
    g = E6 if b else one  # E4^a E6^b of the last row, a in {0, 1, 2}
    for _ in range((k - 6 * b) // 4 - 3 * (dim - 1)):
        g = times(g, E4)
    rows = [g]
    for _ in range(dim - 1):  # E4^(a + 3) E6^b of the row above
        rows.insert(0, times(rows[0], E4_3))
    dj = one
    for j in range(1, dim):
        dj = times(dj, delta)
        rows[j] = times(rows[j], dj)
    for j in range(dim - 1, -1, -1):
        for i in range(j + 1, dim):
            c = rows[j][i]
            if c:
                rows[j] = [(x - c * y) % m for x, y in zip(rows[j], rows[i])]
    return rows


# ---------------------------------------------------------------------------
# eigensystems mod p^s
# ---------------------------------------------------------------------------

class EigensystemRecord(namedtuple(
        "EigensystemRecord", "weight level p prime_label eigenvalues depth source",
        defaults=(None, "internal"))):
    """A Hecke eigensystem with eigenvalue residues mod p^s (``eigenvalues``
    maps each prime q to its residue) and, once a depth scan ran, the
    congruence depth against 1 + q^(k-1) (None before)."""

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
    return [sum(map(mul, row, v)) % mod for row in matrix]


def charpoly(matrix: list[list[int]], m: int) -> list[int]:
    """det(xI - A) mod m, ascending coefficients, by Berkowitz's division-free
    recurrence (Inf. Proc. Letters 18, 1984), so any modulus m works.

    Write the leading (r+1) x (r+1) block of A as [[A_r, c], [row, a]].  Its
    charpoly is the Toeplitz product of the lower-triangular band
    (1, -a, -row c, -row A_r c, ..., -row A_r^(r-1) c) with that of A_r.
    """
    f = [1]  # descending coefficients of det(xI - A_r)
    for r, row in enumerate(matrix):
        v, t = [matrix[i][r] for i in range(r)], [1, -row[r]]
        for _ in range(r):  # map stops at len(v): each row is cut to A_r's columns
            t.append(-sum(map(mul, row, v)))
            v = _mat_vec(matrix[:r], v, m)
        f = [c % m for c in _pmul(t, f, r + 2)]
    return f[::-1]


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


def eigensystems_on_rows(rows, k: int, p: int, s: int, primes):
    """([(r, {q: a_q mod p^s})], skip reasons): one pair per simple root r in
    F_p of charpoly(T_2) mod p, T_2 on reduced echelon cusp rows mod p^s of
    trivial character and odd level, a_(j+1)(rows[i]) = delta_ij for j <
    len(rows), each row long enough for a_(2 len(rows)) and every q in primes."""
    mod, dim = p**s, len(rows)
    # a_n(T_2 f) = a_(2n)(f) + 2^(k-1) a_(n/2)(f), the second term for even n only
    two = pow(2, k - 1, mod)
    T2 = [[(f[2 * n] + (two * f[n // 2] if n % 2 == 0 else 0)) % mod for f in rows]
          for n in range(1, dim + 1)]
    f = charpoly(T2, mod)
    fb = _trim_mod(f, p)
    # the distinct roots in F_p are the linear factors of gcd(f, x^p - x)
    lin = _pxgcd_mod(fb, _psub_mod(_ppow_mod([0, 1], p, fb, p), [0, 1], p), p)[0]
    linear = _split_by_periods(lin, 1, p, [[0, 1]]) if len(lin) > 1 else []
    roots = sorted(-g[0] % p for g in linear)
    rest, simple, reasons = fb, [], []
    for r in roots:
        mult = 0
        while not (qr := _pdivmod_mod(rest, [-r % p, 1], p))[1]:
            rest, mult = qr[0], mult + 1
        if mult > 1:
            reasons.append(f"repeated root {r} of charpoly(T_2) mod {p}")
        else:
            simple.append(r)
    if len(rest) - 1 > 0:
        reasons.append(f"charpoly(T_2) has an irreducible factor of degree {len(rest)-1} "
                       f"mod {p}; eigenvalues outside the prime field are not extracted")
    systems = []
    for r in simple:
        g, h = _hensel_lift_factor(f, [-r % p, 1], p, s)
        alpha = -g[0] % mod
        # v = v_0 * (normalised eigenform) mod p^s, so a_q = a_q(sum_j v_j f_j) / v_0
        v = _eigenline(T2, h, p, mod)
        if v is None or _mat_vec(T2, v, mod) != [alpha * x % mod for x in v]:
            raise ComputationError(
                f"no eigenvector of T_2 mod {p}^{s} with eigenvalue {alpha} and a unit a_1")
        unit = pow(v[0], -1, mod)
        systems.append((r, {q: sum(x * row[q] for x, row in zip(v, rows)) * unit % mod
                            for q in primes}))
    return systems, reasons


def eigensystems_mod(k: int, p: int, s: int):
    """Eigensystem records of S_k(SL2(Z)) mod p^s with eigenvalues recorded
    for all primes q <= scan_prime_bound(k), by ``eigensystems_on_rows`` on
    the Miller cusp rows.

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
    if dim == 0:
        return [], []
    primes = _primes_upto(scan_prime_bound(k))
    # one basis build: T_2 needs a_1..a_(2 dim), the read-off a_q for q <= primes[-1]
    cusp = _miller_rows(k, max(2 * dim + 1, primes[-1]), p**s)[1:]
    systems, reasons = eigensystems_on_rows(cusp, k, p, s, primes)
    return ([EigensystemRecord(weight=k, level=1, p=p, prime_label=f"T2-root-{r}",
                               eigenvalues=evs) for r, evs in systems],
            [SkippedEigensystem(weight=k, p=p, reason=reason) for reason in reasons])


def residue_valuation(r: int, p: int, s: int) -> int:
    """val_p of a residue known mod p^s, capped at s (0 residue reports s,
    since val_p(0) is INF).  min(val_p(r), s) does not change when r moves by
    a multiple of p^s, so r needs no reduction."""
    return min(valp_int(r, p), s)


def congruence_depth(eigenvalues, k: int, p: int, sigma, s: int) -> int | None:
    """The congruence depth of an eigensystem with the weight-k Eisenstein
    series: min over the recorded primes q not in Sigma of
    val_p(a_q - 1 - q^(k-1)), read mod p^s and so capped at s.  None when no
    recorded prime lies outside Sigma."""
    return min((residue_valuation(aq - 1 - q ** (k - 1), p, s)
                for q, aq in eigenvalues.items() if q not in sigma), default=None)


def depth_scan(k: int, p: int, sigma):
    """(records, skipped, s): the level-1 eigensystems of weight k, each
    with its exact congruence depth against 1 + q^(k-1), read by
    ``congruence_depth`` mod p^s for s = 3, 6, 12, ... until every depth is
    below s.  That ends: |a_q| <= 2 q^((k-1)/2) < 1 + q^(k-1) in every
    complex embedding (Deligne), so a_q - 1 - q^(k-1) != 0 has a finite
    valuation.  Labels and skips depend on charpoly(T_2) mod p alone."""
    sigma, s = sigma_with_p(p, sigma), 3
    while True:
        records, skipped = eigensystems_mod(k, p, s)
        depths = [congruence_depth(r.eigenvalues, k, p, sigma, s) for r in records]
        if None in depths:
            raise ComputationError("no primes outside Sigma were recorded")
        if all(d < s for d in depths):
            return [r._replace(depth=d) for r, d in zip(records, depths)], skipped, s
        s *= 2
