"""Exact-integer reference for the level-1 engine: the echelonized (Victor
Miller) basis of M_k(SL2(Z)) and the Hecke matrices T_n on its cuspidal
part, in integers over Z.  ``eiscong.hecke1`` builds the same rows mod p^s;
these tests compare against the exact ones.  Results are memoised, since
the rows at high weight have coefficients of thousands of digits."""

from functools import cache
from math import gcd

from eiscong.characters import trivial_char
from eiscong.errors import ParameterError
from eiscong.exact import CycElem
from eiscong.hecke1 import _sigma, dim_cusp, dim_modular
from eiscong.poly import _pmul
from eiscong.qexp import QExpansion


@cache
def miller_rows(k: int, P: int) -> tuple:
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
    return tuple(tuple(row) for row in rows)


def miller_basis(k: int, P: int) -> list:
    """Echelonized basis of M_k(SL2(Z)) as QExpansions to precision P:
    element i has a_j = delta_ij for j < dim.  Elements 1..dim-1 (those with
    a_0 = 0) span the cusp forms."""
    return [QExpansion(coefficients=tuple(CycElem.from_rational(c) for c in row),
                       weight=k, level=1, character=trivial_char(1), label=f"M_{k}[{i}]")
            for i, row in enumerate(miller_rows(k, P))]


def hecke_matrix(k: int, n: int, P: int | None = None) -> list[list[int]]:
    """Matrix of T_n on the cuspidal echelon basis of S_k(SL2(Z)), via
    a_m(T_n f) = sum_{d | gcd(m,n)} d^(k-1) a_(mn/d^2)(f).

    Entry [i][j] is the f_(i+1)-coordinate of T_n f_(j+1).  Precision P must
    reach dim * n (defaulted when omitted)."""
    if n < 1:
        raise ParameterError(f"Hecke index n = {n} must be >= 1")
    need = dim_cusp(k) * n + 1
    if P is None:
        P = need
    if P < need:
        raise ParameterError(f"precision {P} is below the required {need}")
    return [list(row) for row in _hecke_matrix(k, n, P)]


@cache
def _hecke_matrix(k: int, n: int, P: int) -> tuple:
    cusp = miller_rows(k, P)[1:]
    return tuple(tuple(sum(d ** (k - 1) * f[m * n // (d * d)]
                           for d in range(1, gcd(m, n) + 1) if m % d == 0 and n % d == 0)
                       for f in cusp) for m in range(1, dim_cusp(k) + 1))
