"""Level-1 Hecke engine: echelon basis mod m, eigensystems mod p^s and depth
scans, checked against the exact basis and Hecke matrices of
``level1_oracle``."""

import hashlib
import json
from fractions import Fraction

import pytest

from eiscong import hecke1, poly
from eiscong.errors import ComputationError, ParameterError
from eiscong.hecke1 import (
    _miller_rows,
    charpoly,
    congruence_depth,
    depth_scan,
    dim_cusp,
    dim_modular,
    eigensystems_mod,
    eigensystems_on_rows,
    residue_valuation,
    scan_prime_bound,
)
from eiscong.poly import KRONECKER_MIN_LEN, sigma_with_p, valp_int
from level1_oracle import hecke_matrix, miller_basis, miller_rows


def delta_eta_product(P):
    """Oracle for the weight-12 cusp form: q prod_(n>=1) (1 - q^n)^24."""
    prod = [1] + [0] * P
    for n in range(1, P + 1):
        for _ in range(24):
            out = [0] * (P + 1)
            for i, c in enumerate(prod):
                if c:
                    out[i] += c
                    if i + n <= P:
                        out[i + n] -= c
            prod = out
    return [0] + prod[:P]


def test_miller_dims_and_delta():
    mb = miller_basis(12, 30)
    assert len(mb) == 2 and dim_cusp(12) == 1
    assert mb[1].coeff(1).as_rational() == 1
    assert mb[1].coeff(2).as_rational() == -24
    oracle = delta_eta_product(30)
    for n in range(31):
        assert mb[1].coeff(n).as_rational() == oracle[n], n
    assert dim_cusp(32) == 2
    assert dim_cusp(4) == 0
    with pytest.raises(ParameterError):
        _miller_rows(5, 10, 37)


def test_delta_to_precision_200_matches_the_eta_product():
    oracle = delta_eta_product(200)
    assert [c.as_rational() for c in miller_basis(12, 200)[1].coefficients] == oracle


def test_miller_echelon_property():
    for k in (12, 24, 32, 36):
        mb = miller_basis(k, 3 * dim_modular(k))
        d = dim_modular(k)
        for i, f in enumerate(mb):
            for j in range(d):
                assert f.coeff(j).as_rational() == (1 if i == j else 0)


def test_dim_formula_sweep():
    for k in range(4, 62, 2):
        expected = k // 12 - 1 if k % 12 == 2 else k // 12
        assert dim_cusp(k) == max(expected, 0), k
    assert [dim_cusp(k) for k in (-4, 0, 2, 11, 13, 25)] == [0] * 6


def test_eigensystems_reject_odd_or_negative_weight():
    for k in (11, 13, -4):
        with pytest.raises(ParameterError, match="must be even"):
            eigensystems_mod(k, 37, 1)


@pytest.mark.parametrize("p, s, message", [
    (2, 3, "p must be an odd prime"),
    (691, 0, "precision s = 0 must be >= 1"),
])
def test_eigensystems_check_p_and_the_precision(p, s, message):
    with pytest.raises(ParameterError, match=message):
        eigensystems_mod(12, p, s)


def test_hecke_matrix_frozen():
    assert hecke_matrix(12, 2) == [[Fraction(-24)]]
    assert type(hecke_matrix(12, 2)[0][0]) is int
    assert hecke_matrix(12, 6) == [[Fraction(-24 * 252)]]
    assert hecke_matrix(12, 1) == [[Fraction(1)]]
    assert hecke_matrix(32, 1) == [[Fraction(1), Fraction(0)],
                                   [Fraction(0), Fraction(1)]]


def test_hecke_matrix_precision_guard():
    with pytest.raises(ParameterError):
        hecke_matrix(12, 5, P=3)


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("k", [12, 16, 20, 24, 28, 32, 36, 40])
def test_hecke_commutation_and_multiplicativity(k):
    for (m, n) in ((2, 3), (2, 5), (3, 5), (2, 7)):
        Tm, Tn, Tmn = hecke_matrix(k, m), hecke_matrix(k, n), hecke_matrix(k, m * n)
        assert _matmul(Tm, Tn) == _matmul(Tn, Tm)
        assert _matmul(Tm, Tn) == Tmn


@pytest.mark.parametrize("k", [12, 16, 20, 24, 28, 32, 36, 40])
def test_tq_squared_identity(k):
    for q in (2, 3):
        Tq = hecke_matrix(k, q)
        Tq2 = hecke_matrix(k, q * q)
        d = len(Tq)
        sq = _matmul(Tq, Tq)
        for i in range(d):
            for j in range(d):
                expected = sq[i][j] - (Fraction(q) ** (k - 1) if i == j else 0)
                assert Tq2[i][j] == expected


def newton_charpoly(matrix):
    """Reference det(xI - A) over Q, ascending coefficients, by Newton's
    identities on the traces of A, A^2, ..., A^n: step m divides by m, so it
    needs Q and cannot run mod p^s when p <= n."""
    n = len(matrix)
    cur, traces = [[int(i == j) for j in range(n)] for i in range(n)], []
    for _ in range(n):
        cur = _matmul(cur, matrix)
        traces.append(sum(cur[i][i] for i in range(n)))
    e = [Fraction(1)]
    for m in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * traces[i - 1] for i in range(1, m + 1)) / m)
    return [(-1) ** (n - i) * e[n - i] for i in range(n + 1)]


@pytest.mark.parametrize("k", [12, 16, 20, 24, 26, 28, 30, 32, 34, 36, 38, 40])
def test_charpoly_integer_coefficients(k):
    # the reference over Q is integral, and charpoly mod m is its reduction
    for n in (2, 3):
        Tn = hecke_matrix(k, n)
        reference = newton_charpoly(Tn)
        assert all(c.denominator == 1 for c in reference), (k, n)
        for m in (2, 3**4, 37**3):
            assert charpoly(Tn, m) == [int(c) % m for c in reference], (k, n, m)


def test_charpoly_t2_weight32():
    cp = newton_charpoly(hecke_matrix(32, 2))
    assert cp == [Fraction(-2235350016), Fraction(-39960), Fraction(1)]
    assert charpoly(hecke_matrix(32, 2), 37**3) == [-2235350016 % 37**3, -39960 % 37**3, 1]
    # oracle: roots mod 37 by exhaustive scan
    roots = [r for r in range(37) if (r * r - 39960 * r - 2235350016) % 37 == 0]
    assert sorted(roots) == [14, 23]
    assert (1 + 2 ** 31) % 37 == 23


def test_charpoly_of_an_int_matrix_matches_fractions():
    assert newton_charpoly([[1, 2], [3, 4]]) == [-2, -5, 1]
    assert charpoly([[1, 2], [3, 4]], 7) == [5, 2, 1]
    assert charpoly([], 7) == [1]
    for matrix in ([[1, 2], [3, 4]], hecke_matrix(84, 2), hecke_matrix(110, 2)):
        reference = newton_charpoly([[Fraction(c) for c in row] for row in matrix])
        assert all(type(c) is Fraction for c in reference)
        for m in (3, 3**5, 1000003**2):
            cp = charpoly(matrix, m)
            assert cp == [int(c) % m for c in reference]
            assert all(type(c) is int for c in cp)


def test_hecke_action_on_cusp_expansion():
    # T_2 on the weight-12 cusp element through the q-expansion route
    from eiscong.qexp import hecke_tq
    delta = miller_basis(12, 30)[1]
    T2 = hecke_tq(delta, 2)
    assert T2.coeff(1).as_rational() == -24
    scaled = delta.scale(-24)
    for n in range(T2.precision + 1):
        assert T2.coeff(n) == scaled.coeff(n)


def test_eigensystems_691():
    recs, skipped = eigensystems_mod(12, 691, 2)
    assert len(recs) == 1 and not skipped
    assert recs[0].eigenvalues[2] == (-24) % 691 ** 2
    oracle = delta_eta_product(14)
    for q in (2, 3, 5, 7, 11, 13):
        assert recs[0].eigenvalues[q] == oracle[q] % 691 ** 2


def test_eigensystems_weight32_mod37():
    recs, _ = eigensystems_mod(32, 37, 1)
    assert any(r.eigenvalues[2] == (1 + 2 ** 31) % 37 for r in recs)
    assert len(recs) == 2


def test_eigensystems_empty_weight4():
    recs, skipped = eigensystems_mod(4, 37, 1)
    assert recs == [] and skipped == []


def test_eigensystems_skip_diagnostics():
    # weight 24 mod 37: charpoly(T_2) stays irreducible
    recs, skipped = eigensystems_mod(24, 37, 2)
    assert recs == []
    assert len(skipped) == 1 and "irreducible factor of degree 2" in skipped[0].reason
    # weight 28 mod 131: a repeated prime-field root
    recs, skipped = eigensystems_mod(28, 131, 2)
    assert any("repeated root 52" in s.reason for s in skipped)


def test_eigenvalue_consistency_aq_squared():
    # the normalised eigenform through a reference eigenvector: its a_q are the
    # recorded eigenvalues and a_(q^2) = a_q^2 - q^31 mod 37^3
    mod = 37**3
    records, _ = eigensystems_mod(32, 37, 3)
    systems, _ = scan_eigensystems(32, 37, 3)
    assert len(records) == len(systems) == 2
    cusp = [[int(c.as_rational()) for c in f.coefficients] for f in miller_basis(32, 9)[1:]]
    for rec, (_, v, _) in zip(records, systems):
        def a(n):
            return sum(x * f[n] for x, f in zip(v, cusp)) * pow(v[0], -1, mod) % mod
        for q in (2, 3):
            assert a(q) == rec.eigenvalues[q]
            assert a(q * q) == (a(q) ** 2 - q ** 31) % mod


def test_eigenvector_check_raises(monkeypatch):
    # e_1 is no eigenvector of T_2 on S_32: the one runtime check must fire
    monkeypatch.setattr(hecke1, "_eigenline", lambda T2, h, p, mod: [1, 0])
    with pytest.raises(ComputationError):
        eigensystems_mod(32, 37, 2)
    monkeypatch.setattr(hecke1, "_eigenline", lambda T2, h, p, mod: None)
    with pytest.raises(ComputationError):
        eigensystems_mod(32, 37, 2)


def test_depth_scan_ramanujan():
    recs, _, s = depth_scan(12, 691, {691})
    assert len(recs) == 1
    assert recs[0].depth == 1 and s == 3
    # oracle: direct residue check of the eta-product coefficients
    oracle = delta_eta_product(14)
    vals = [residue_valuation(oracle[q] - (1 + q ** 11), 691, 3)
            for q in (2, 3, 5, 7, 11, 13)]
    assert min(vals) == 1


def test_depth_scan_weight32():
    recs, _, _ = depth_scan(32, 37, {31, 37})
    assert any(r.depth >= 1 for r in recs)


def test_depth_scan_3617():
    recs, _, _ = depth_scan(16, 3617, {3617})
    assert any(r.depth >= 1 for r in recs)


def test_depth_scan_requires_p_in_sigma():
    with pytest.raises(ParameterError):
        depth_scan(12, 691, {5})


def test_record_serialization():
    recs, _, _ = depth_scan(12, 691, {691})
    d = recs[0].as_dict()
    assert d["weight"] == 12 and d["level"] == 1 and d["p"] == 691
    assert d["source"] == "internal"
    assert d["eigenvalues"]["2"] == str((-24) % 691 ** 3)
    assert d["depth"] == 1


def test_depth_scan_builds_the_basis_once_per_weight(monkeypatch):
    builds = []

    def counting(k, P, m):
        builds.append((k, P, m))
        return build(k, P, m)

    build = hecke1._miller_rows
    monkeypatch.setattr(hecke1, "_miller_rows", counting)
    recs, skipped, _ = depth_scan(110, 157, {157})
    # max(2 dim + 1, largest recorded prime) = max(2 * 8 + 1, 13)
    assert builds == [(110, 17, 157**3)]
    assert [r.depth for r in recs] == [0, 1, 0]
    assert len(skipped) == 1


def test_scan_items_multiply_their_miller_rows_by_kronecker(monkeypatch):
    # the items of the `scan` benchmark workload: the skew gate of `_pmul`
    # must leave every product long enough for Kronecker substitution there
    packed, long_enough = [], []
    kronecker, pmul = poly._kronecker, poly._pmul

    def counting(a, b, n=None):
        if min(len(a), len(b), len(a) + len(b) if n is None else n) >= KRONECKER_MIN_LEN:
            long_enough.append(1)
        return pmul(a, b, n)

    monkeypatch.setattr(poly, "_kronecker", lambda *args: packed.append(1) or kronecker(*args))
    monkeypatch.setattr(hecke1, "_pmul", counting)
    for k, p in ((84, 233), (84, 271), (92, 587), (100, 263), (100, 379), (110, 157)):
        eigensystems_mod(k, p, 3)
    assert long_enough and len(packed) == len(long_enough)


@pytest.mark.parametrize("k", [24, 48, 84, 110])
def test_charpoly_t2_matches_sympy(k):
    sympy = pytest.importorskip("sympy")
    T2 = hecke_matrix(k, 2)
    expected = sympy.Matrix(T2).charpoly(sympy.Symbol("x")).all_coeffs()
    expected = [int(c) for c in reversed(expected)]
    assert newton_charpoly(T2) == expected
    # p <= dim, where Newton's identities would divide by p, and a large prime power
    small = [p for p in (2, 3, 5, 7) if p <= len(T2)]
    for m in (*small, *(p**3 for p in small), 1000003**4):
        assert charpoly(T2, m) == [c % m for c in expected], m


def _horner(poly, x, m):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % m
    return acc


def _newton_root(f, r, p, s):
    """Lift a simple root r of f mod p to the root mod p^s above it."""
    deriv = [i * c for i, c in enumerate(f)][1:]
    mod, x = p, r % p
    while mod < p**s:
        mod = min(mod * mod, p**s)
        x = (x - _horner(f, x, mod) * pow(_horner(deriv, x, mod), -1, mod)) % mod
    return x


def _syn_div(f, root, mod):
    """Quotient of f by x - root over Z/mod; the remainder must vanish."""
    out, acc = [], 0
    for c in reversed(f):
        acc = (acc * root + c) % mod
        out.append(acc)
    assert out.pop() == 0
    return out[::-1]


def scan_eigensystems(k, p, s):
    """Reference extraction: every residue mod p tried as a root of
    charpoly(T_2), simple roots Newton-lifted, the eigenline read off a
    column of h(T_2) with h = charpoly / (x - alpha) by synthetic division.
    Returns ([(alpha, vector, unit_index)], skip reasons)."""
    T2 = hecke_matrix(k, 2)
    f = [int(c) for c in newton_charpoly(T2)]
    mod = p**s
    fb = [c % p for c in f]
    deriv = [i * c % p for i, c in enumerate(fb)][1:]
    roots = [r for r in range(p) if _horner(fb, r, p) == 0]
    simple = [r for r in roots if _horner(deriv, r, p)]
    reasons = [f"repeated root {r} of charpoly(T_2) mod {p}"
               for r in roots if r not in simple]
    rest = fb
    for r in roots:
        while len(rest) > 1 and _horner(rest, r, p) == 0:
            rest = _syn_div(rest, r, p)
    if len(rest) > 1:
        reasons.append(f"charpoly(T_2) has an irreducible factor of degree {len(rest) - 1} "
                       f"mod {p}; eigenvalues outside the prime field are not extracted")
    systems = []
    for r in simple:
        alpha = _newton_root(f, r, p, s)
        h = _syn_div([c % mod for c in f], alpha, mod)
        hmat = [[0] * len(T2) for _ in T2]
        for c in reversed(h):
            hmat = [[(sum(a * b for a, b in zip(row, col)) + c * (i == j)) % mod
                     for j, col in enumerate(zip(*T2))] for i, row in enumerate(hmat)]
        vector, unit_index = next(([row[j] for row in hmat], i)
                                  for j in range(len(T2)) for i in range(len(T2))
                                  if hmat[i][j] % p)
        systems.append((alpha, vector, unit_index))
    return systems, reasons


def recorded_primes(k):
    return [q for q in range(2, scan_prime_bound(k) + 1) if all(q % d for d in range(2, q))]


def reference_eigenvalue(k, q, vector, unit_index, mod):
    """a_q read off the T_q matrix: T_q v / v[unit_index], after checking
    that v is an eigenvector of T_q mod `mod`."""
    w = [sum(a * b for a, b in zip(row, vector)) % mod for row in hecke_matrix(k, q)]
    lam = w[unit_index] * pow(vector[unit_index], -1, mod) % mod
    assert all((x - lam * y) % mod == 0 for x, y in zip(w, vector)), (k, q)
    return lam


@pytest.mark.parametrize("k", [12, 16, 24, 28, 32, 36, 48, 84, 110])
def test_extraction_matches_the_root_scan_reference(k):
    # two row sources: the Miller rows of eigensystems_mod, and the engine on
    # the oracle's integer Miller cusp rows reduced mod p^3
    primes = recorded_primes(k)
    oracle = miller_rows(k, max(2 * dim_cusp(k) + 1, primes[-1]))[1:]
    for p in (3, 5, 7, 11, 13, 37, 131, 157, 233, 691, 3617):
        records, skipped = eigensystems_mod(k, p, 3)
        engine = eigensystems_on_rows([[c % p**3 for c in row] for row in oracle],
                                      k, p, 3, primes)
        assert engine == ([(int(r.prime_label.rsplit("-", 1)[1]), r.eigenvalues)
                           for r in records], [s.reason for s in skipped]), p
        systems, reasons = scan_eigensystems(k, p, 3)
        assert [r.prime_label for r in records] == [f"T2-root-{a % p}" for a, _, _ in systems]
        for rec, (_, vector, unit_index) in zip(records, systems):
            assert rec.eigenvalues == {q: reference_eigenvalue(k, q, vector, unit_index, p**3)
                                       for q in primes}, p
        assert [s.reason for s in skipped] == reasons, p


def fixed_precision_scan(k, p, sigma, s):
    """The depth scan at one precision p^s: each record's depth read mod p^s
    by ``congruence_depth``, and capped (only a lower bound) when it
    reaches s; the scan engine itself raises s until no depth is capped."""
    records, skipped = eigensystems_mod(k, p, s)
    depths = [congruence_depth(r.eigenvalues, k, p, sigma_with_p(p, sigma), s)
              for r in records]
    return [(r._replace(depth=d), d >= s) for r, d in zip(records, depths)], skipped


# sha256 of the records and skip reasons of the fixed-precision scan at
# (k, p, {p}, s) on the grid below, as compact JSON with sorted keys;
# recorded with charpoly(T_2) from Newton's identities over Q.
SCAN_GRID_SHA256 = "e901bc8083cecef4a949482eb8bcf5039b61f959079d93c3f10b44075a01be50"
GRID_WEIGHTS = range(12, 171, 2)


def test_scan_grid_matches_the_recorded_digest():
    cases = [{"k": k, "p": p, "s": s,
              "records": [r.as_dict() | {"capped": capped} for r, capped in recs],
              "skipped": [sk.reason for sk in skipped]}
             for k in GRID_WEIGHTS
             for p in (3, 5, 7, 11, 13, 37, 131, 157, 233, 691, 3617)
             for s in (1, 3)
             for recs, skipped in [fixed_precision_scan(k, p, {p}, s)]]
    assert len(cases) == 1760
    text = json.dumps(cases, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_GRID_SHA256


def test_depth_scan_raises_the_precision_until_the_depth_is_exact():
    # S_22 is one-dimensional, and v_3(a_q - 1 - q^21) over q = 2, 5, 7, 11, 13
    # is 3, 3, 5, 3, 5 on the exact integers a_q: the depth is 3, which p^3
    # reads only as "at least 3", so the scan must go on to 3^6
    exact = {q: hecke_matrix(22, q)[0][0] for q in (2, 3, 5, 7, 11, 13)}
    assert [valp_int(exact[q] - 1 - q**21, 3) for q in (2, 5, 7, 11, 13)] == [3, 3, 5, 3, 5]
    (rec,), skipped, s = depth_scan(22, 3, {3})
    assert (rec.depth, s, skipped) == (3, 6, [])
    assert rec.eigenvalues == {q: a % 3**6 for q, a in exact.items()}
    assert rec.eigenvalues[2] == 441 == -288 % 3**6


@pytest.mark.parametrize("p", [3, 5, 7])
def test_depth_scan_agrees_with_the_fixed_precision_scan(p):
    # same labels and skips as at s = 1; the same depth where p^1 pins it,
    # at least 1 where it is capped there
    for k in GRID_WEIGHTS:
        recs, skipped, s = depth_scan(k, p, {p})
        fixed, fixed_skipped = fixed_precision_scan(k, p, {p}, 1)
        assert [sk.reason for sk in skipped] == [sk.reason for sk in fixed_skipped], k
        assert [r.prime_label for r in recs] == [r.prime_label for r, _ in fixed], k
        for r, (f, capped) in zip(recs, fixed):
            assert r.depth >= 1 if capped else r.depth == f.depth, (k, r.prime_label)
            assert r.depth < s, k


def test_depth_scan_beyond_a_million():
    # no O(p) root scan: the roots come from gcd(f, x^p - x)
    recs, skipped, s = depth_scan(12, 1000003, {1000003})
    assert len(recs) == 1 and not skipped
    assert recs[0].eigenvalues[2] == -24 % 1000003 ** s


# Records of high-weight fixed-precision scans: the label and the eigenvalues
# a_q mod p^s for the primes q up to the scan bound, every record uncapped and of depth 0
# unless HIGH_WEIGHT_DEPTHS says otherwise.  k = 284 and 400 were recorded
# with the former read-off of each a_q from a dim x dim T_q matrix on a
# Miller basis to precision dim * 23 + 1 and dim * 31 + 1; k = 800 (dim 66)
# with charpoly(T_2) from Newton's identities over Q.
HIGH_WEIGHT_SCANS = {
    (284, 37, 3): ({
        "T2-root-8": [13809, 16930, 50645, 4707, 34236, 29865, 35343, 26401, 23168],
        "T2-root-9": [41967, 41229, 50193, 45551, 1070, 37914, 31089, 16809, 29846],
        "T2-root-10": [23653, 17605, 36993, 49862, 2121, 26397, 35606, 15453, 22629],
        "T2-root-11": [43856, 11108, 34147, 26687, 41408, 36236, 35433, 37937, 6390],
        "T2-root-13": [17662, 49815, 33776, 9119, 42821, 30121, 546, 7483, 30177],
        "T2-root-14": [40936, 19157, 45096, 14322, 44271, 35650, 38390, 12787, 29516],
        "T2-root-15": [19255, 39215, 45023, 15025, 37615, 46801, 1344, 47362, 33509],
        "T2-root-19": [38166, 3817, 43621, 41422, 47584, 36822, 8011, 34090, 19560],
        "T2-root-20": [50192, 38282, 29658, 8860, 9053, 13108, 26567, 36900, 26718],
        "T2-root-34": [19311, 18882, 15954, 43500, 39478, 28766, 6536, 29880, 44697],
        "T2-root-35": [26675, 7544, 40368, 26110, 41107, 9350, 12492, 24060, 11674],
    }, [*(f"repeated root {r} of charpoly(T_2) mod 37" for r in (22, 23, 27, 28)),
        "charpoly(T_2) has an irreducible factor of degree 4 mod 37; "
        "eigenvalues outside the prime field are not extracted"]),
    (400, 409, 2): ({
        "T2-root-384": [139444, 141066, 95766, 144910, 97858, 150556, 94492, 35113,
                        126049, 163590, 30026],
    }, ["charpoly(T_2) has an irreducible factor of degree 32 mod 409; "
        "eigenvalues outside the prime field are not extracted"]),
    (800, 37, 2): ({
        "T2-root-0": [777, 915, 555, 1322, 700, 55, 655, 102, 852, 1, 235, 0, 608, 433, 558,
                      1143, 1347, 480, 40],
        "T2-root-5": [708, 489, 1354, 790, 335, 1107, 1226, 227, 24, 1303, 452, 0, 942, 1090,
                      765, 131, 1286, 374, 1077],
        "T2-root-7": [340, 1274, 441, 576, 554, 1293, 351, 1138, 75, 529, 1084, 0, 1112, 453,
                      1227, 1134, 183, 386, 786],
        "T2-root-15": [718, 661, 435, 886, 1172, 1037, 47, 175, 1336, 772, 636, 0, 1042, 143,
                       936, 161, 1116, 716, 1106],
        "T2-root-17": [794, 414, 174, 1205, 703, 417, 193, 1259, 204, 189, 104, 0, 1180, 190,
                       1273, 585, 726, 632, 515],
        "T2-root-18": [1165, 375, 241, 997, 1048, 551, 53, 173, 15, 416, 340, 0, 1326, 143, 85,
                       272, 114, 1301, 1225],
        "T2-root-19": [1314, 5, 425, 1071, 197, 1040, 391, 456, 1095, 768, 1288, 0, 1104, 523,
                       640, 1012, 293, 1215, 152],
        "T2-root-20": [649, 303, 381, 243, 999, 27, 954, 1035, 55, 1328, 340, 0, 1143, 1105,
                       1273, 30, 1013, 922, 478],
        "T2-root-22": [1354, 1364, 971, 331, 765, 1220, 545, 232, 403, 671, 1251, 0, 635, 893,
                       862, 1160, 179, 838, 625],
        "T2-root-24": [283, 811, 47, 931, 62, 1195, 300, 428, 1225, 661, 303, 0, 283, 883, 566,
                       1108, 260, 982, 1022],
        "T2-root-30": [141, 1200, 1335, 58, 258, 594, 759, 342, 295, 507, 1284, 0, 557, 583,
                       302, 172, 705, 1242, 1304],
        "T2-root-32": [1179, 1007, 681, 1160, 39, 336, 809, 143, 1234, 214, 140, 0, 572, 908,
                       543, 316, 1045, 1291, 670],
        "T2-root-34": [589, 1062, 681, 564, 749, 1076, 1254, 1239, 95, 121, 214, 0, 1144, 668,
                       244, 873, 330, 2, 243],
    }, [*(f"repeated root {r} of charpoly(T_2) mod 37"
          for r in (1, 2, 3, 6, 8, 11, 16, 21, 26, 29, 31, 35, 36)),
        "charpoly(T_2) has an irreducible factor of degree 17 mod 37; "
        "eigenvalues outside the prime field are not extracted"]),
}
HIGH_WEIGHT_DEPTHS = {(800, 37, 2): {"T2-root-18": 1}}


@pytest.mark.parametrize("k, p, s", list(HIGH_WEIGHT_SCANS))
def test_high_weight_scan_matches_the_recorded_records(k, p, s):
    expected, reasons = HIGH_WEIGHT_SCANS[k, p, s]
    primes = recorded_primes(k)
    recs, skipped = fixed_precision_scan(k, p, {p}, s)
    assert [r.as_dict() | {"capped": capped} for r, capped in recs] == [
        {"weight": k, "level": 1, "p": p, "prime_label": label,
         "eigenvalues": {str(q): str(a) for q, a in zip(primes, values)},
         "depth": HIGH_WEIGHT_DEPTHS.get((k, p, s), {}).get(label, 0),
         "source": "internal", "capped": False}
        for label, values in expected.items()]
    assert [sk.reason for sk in skipped] == reasons


@pytest.mark.parametrize("n", [0, -1])
def test_hecke_index_below_one_is_a_parameter_error(n):
    # n = 0 gave the zero matrix and n = -1 read negative list indices
    with pytest.raises(ParameterError, match=f"Hecke index n = {n} must be >= 1"):
        hecke_matrix(24, n)


@pytest.mark.parametrize("k, P", [(12, 0), (24, 1), (24, -3)])
def test_miller_precision_below_dim_minus_one_is_a_parameter_error(k, P):
    for m in (3, 37**2):
        with pytest.raises(ParameterError, match=f"precision P = {P} is below dim M_{k} - 1"):
            _miller_rows(k, P, m)
        assert _miller_rows(k, dim_modular(k) - 1, m) == [
            [int(i == j) for j in range(dim_modular(k))] for i in range(dim_modular(k))]


@pytest.mark.parametrize("m", [3**3, 37**2, 691**3])
def test_miller_rows_mod_m_are_the_exact_rows_reduced(m):
    for k in (*range(4, 64, 2), 84, 110, 146, 170, 520):
        P = max(2 * dim_modular(k) + 1, 13)
        assert _miller_rows(k, P, m) == [[c % m for c in row] for row in miller_rows(k, P)], k


# (k, p): v = v_p(B_k/k) with p - 1 not dividing k.  v = 2 at the first two
# pairs, near a p-adic zero of the Kubota-Leopoldt L-function, and 1 at the
# irregular pairs p < 200, k < p - 1.
BERNOULLI_WITNESSES = {(228, 103): 2, (914, 59): 2,
                       (32, 37): 1, (44, 59): 1, (58, 67): 1, (68, 101): 1, (24, 103): 1,
                       (22, 131): 1, (130, 149): 1, (62, 157): 1, (110, 157): 1}


@pytest.mark.parametrize("k, p", list(BERNOULLI_WITNESSES))
def test_scanned_depths_meet_the_bernoulli_witness(k, p):
    # With g the top Miller row (integral, constant term 1), F = E_k + (B_k/2k) g
    # is a p-integral cusp form with F = E_k mod p^v: T_n -> sigma_(k-1)(n)
    # mod p^v is a ring map, so the eigensystem at the T_2-root 1 + 2^(k-1)
    # has depth >= v; at every other root a_2 - 1 - 2^(k-1) is a unit and,
    # since 2 is not in Sigma = {p}, the depth is 0.
    from eiscong.lfunc import bernoulli
    ratio = bernoulli(k) / k
    v = valp_int(ratio.numerator, p) - valp_int(ratio.denominator, p)
    assert v == BERNOULLI_WITNESSES[k, p]
    records, _, s = depth_scan(k, p, {p})
    root = (1 + pow(2, k - 1, p)) % p
    (eisenstein,) = [r for r in records if r.prime_label == f"T2-root-{root}"]
    assert eisenstein.eigenvalues[2] % p == root
    assert eisenstein.depth >= v
    assert [r.depth for r in records if r is not eisenstein] == [0] * (len(records) - 1)
    # the depth reads every recorded prime outside Sigma and none inside it:
    # a_q - 1 - q^(k-1) is 0 mod p here, so a_q + 1 makes it a unit, and the
    # depth 0 unless q = p, which is in Sigma
    for q in eisenstein.eigenvalues:
        moved = {r: a + (r == q) for r, a in eisenstein.eigenvalues.items()}
        assert congruence_depth(moved, k, p, {p}, s) == (eisenstein.depth if q == p else 0), q
