"""Cantor-Zassenhaus reference for ``eiscong.poly._split_by_periods``: an
equal-degree splitter over F_p that shares no splitting step with it, so
tests can compare the factors of cyclotomic polynomials and the roots of
charpoly(T_2) against it."""

from itertools import product

from eiscong.errors import ParameterError
from eiscong.poly import _pdivmod_mod, _ppow_mod, _psub_mod, _pxgcd_mod


def equal_degree_split(F: list[int], d: int, p: int) -> list[list[int]]:
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
            return equal_degree_split(g, d, p) + equal_degree_split(q, d, p)
    raise AssertionError("equal-degree splitting exhausted its candidates")
