"""Level-1 Hecke engine: echelon basis, Hecke matrices, eigensystems mod p^s,
and depth scans."""

from fractions import Fraction

import pytest

from eiscong import hecke1
from eiscong.errors import ComputationError, ParameterError
from eiscong.hecke1 import (
    _hecke_int,
    charpoly,
    depth_scan,
    dim_cusp,
    dim_modular,
    eigensystems_mod,
    hecke_matrix,
    miller_basis,
    residue_valuation,
    scan_prime_bound,
)
from eiscong.qexp import sturm_bound


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
        miller_basis(5, 10)


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


def test_hecke_matrix_frozen():
    assert hecke_matrix(12, 2) == [[Fraction(-24)]]
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


@pytest.mark.parametrize("k", [12, 16, 20, 24, 26, 28, 30, 32, 34, 36, 38, 40])
def test_charpoly_integer_coefficients(k):
    for n in (2, 3):
        for c in charpoly(hecke_matrix(k, n)):
            assert c.denominator == 1, (k, n)


def test_charpoly_t2_weight32():
    cp = charpoly(hecke_matrix(32, 2))
    assert cp == [Fraction(-2235350016), Fraction(-39960), Fraction(1)]
    # oracle: roots mod 37 by exhaustive scan
    roots = [r for r in range(37) if (r * r - 39960 * r - 2235350016) % 37 == 0]
    assert sorted(roots) == [14, 23]
    assert (1 + 2 ** 31) % 37 == 23


def test_charpoly_of_an_int_matrix_matches_fractions():
    assert charpoly([[1, 2], [3, 4]]) == [-2, -5, 1]
    for matrix in ([[1, 2], [3, 4]], hecke1._hecke_int(84, 2), hecke1._hecke_int(110, 2)):
        cp = charpoly(matrix)
        assert cp == charpoly([[Fraction(c) for c in row] for row in matrix])
        assert all(type(c) is Fraction for c in cp)


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
    recs, _ = depth_scan(12, 691, {691}, 3)
    assert len(recs) == 1
    assert recs[0].depth == 1 and not recs[0].capped
    # oracle: direct residue check of the eta-product coefficients
    oracle = delta_eta_product(14)
    vals = [residue_valuation(oracle[q] - (1 + q ** 11), 691, 3)
            for q in (2, 3, 5, 7, 11, 13)]
    assert min(vals) == 1


def test_depth_scan_weight32():
    recs, _ = depth_scan(32, 37, {31, 37}, 3)
    assert any(r.depth is not None and r.depth >= 1 for r in recs)


def test_depth_scan_3617():
    recs, _ = depth_scan(16, 3617, {3617}, 2)
    assert any(r.depth >= 1 for r in recs)


def test_depth_scan_requires_p_in_sigma():
    with pytest.raises(ParameterError):
        depth_scan(12, 691, {5}, 2)


def test_sturm_bound_values():
    assert sturm_bound(12, 1) == 1
    assert sturm_bound(32, 1) == 3
    assert sturm_bound(32, 31) == 86


def test_record_serialization():
    recs, _ = depth_scan(12, 691, {691}, 2)
    d = recs[0].as_dict()
    assert d["weight"] == 12 and d["level"] == 1 and d["p"] == 691
    assert d["source"] == "internal"
    assert d["eigenvalues"]["2"] == str((-24) % 691 ** 2)
    assert d["depth"] == 1


def test_depth_scan_builds_the_basis_once_per_weight(monkeypatch):
    builds, heckes = [], []

    def counting(k, P):
        builds.append((k, P))
        return build(k, P)

    def counting_hecke(k, n, P=None):
        heckes.append(n)
        return hecke(k, n, P)

    build, hecke = hecke1._build_miller_rows, hecke1._hecke_int
    monkeypatch.setattr(hecke1, "_MILLER_ROWS", {})
    monkeypatch.setattr(hecke1, "_build_miller_rows", counting)
    monkeypatch.setattr(hecke1, "_hecke_int", counting_hecke)
    recs, skipped = depth_scan(110, 157, {157}, 3)
    # max(2 dim + 1, largest recorded prime) = max(2 * 8 + 1, 13)
    assert builds == [(110, 17)]
    assert heckes == [2]
    assert [r.depth for r in recs] == [0, 1, 0]
    assert len(skipped) == 1


@pytest.mark.parametrize("k", [12, 36, 50])
def test_basis_and_hecke_do_not_depend_on_build_order(monkeypatch, k):
    def results():
        return (miller_basis(k, 20), hecke_matrix(k, 3, 3 * dim_cusp(k) + 1),
                hecke_matrix(k, 5, 80), miller_basis(k, 80))

    monkeypatch.setattr(hecke1, "_MILLER_ROWS", {})
    small_first = results()
    hecke1._MILLER_ROWS.clear()
    miller_basis(k, 80)
    large_first = results()
    assert large_first == small_first
    assert [f.precision for f in large_first[0]] == [20] * dim_modular(k)


def test_precision_guard_after_a_larger_build():
    miller_basis(12, 100)
    with pytest.raises(ParameterError):
        hecke_matrix(12, 5, P=3)


@pytest.mark.parametrize("k", [24, 48, 84, 110])
def test_charpoly_t2_matches_sympy(k):
    sympy = pytest.importorskip("sympy")
    T2 = hecke_matrix(k, 2)
    x = sympy.Symbol("x")
    expected = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                             for row in T2]).charpoly(x).all_coeffs()
    assert charpoly(T2) == [Fraction(int(c)) for c in reversed(expected)]


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
    T2 = _hecke_int(k, 2)
    f = [int(c) for c in charpoly(T2)]
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
    w = [sum(a * b for a, b in zip(row, vector)) % mod for row in _hecke_int(k, q)]
    lam = w[unit_index] * pow(vector[unit_index], -1, mod) % mod
    assert all((x - lam * y) % mod == 0 for x, y in zip(w, vector)), (k, q)
    return lam


@pytest.mark.parametrize("k", [12, 16, 24, 28, 32, 36, 48, 84, 110])
def test_extraction_matches_the_root_scan_reference(k):
    primes = recorded_primes(k)
    for p in (3, 5, 7, 11, 13, 37, 131, 157, 233, 691, 3617):
        records, skipped = eigensystems_mod(k, p, 3)
        systems, reasons = scan_eigensystems(k, p, 3)
        assert [r.prime_label for r in records] == [f"T2-root-{a % p}" for a, _, _ in systems]
        for rec, (_, vector, unit_index) in zip(records, systems):
            assert rec.eigenvalues == {q: reference_eigenvalue(k, q, vector, unit_index, p**3)
                                       for q in primes}, p
        assert [s.reason for s in skipped] == reasons, p


def test_depth_scan_beyond_a_million():
    # no O(p) root scan: the roots come from gcd(f, x^p - x)
    recs, skipped = depth_scan(12, 1000003, {1000003}, 2)
    assert len(recs) == 1 and not skipped
    assert recs[0].eigenvalues[2] == -24 % 1000003 ** 2


# Records of two high-weight scans, recorded with the former read-off of
# each a_q from a dim x dim T_q matrix on a Miller basis to precision
# dim * 23 + 1 (k = 284) and dim * 31 + 1 (k = 400): the label and the
# eigenvalues a_q mod p^s for the primes q up to the scan bound, every
# depth 0 and uncapped.
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
}


@pytest.mark.parametrize("k, p, s", list(HIGH_WEIGHT_SCANS))
def test_high_weight_scan_matches_the_recorded_records(k, p, s):
    expected, reasons = HIGH_WEIGHT_SCANS[k, p, s]
    primes = recorded_primes(k)
    recs, skipped = depth_scan(k, p, {p}, s)
    assert [r.as_dict() | {"capped": r.capped} for r in recs] == [
        {"weight": k, "level": 1, "p": p, "prime_label": label,
         "eigenvalues": {str(q): str(a) for q, a in zip(primes, values)},
         "depth": 0, "source": "internal", "capped": False}
        for label, values in expected.items()]
    assert [sk.reason for sk in skipped] == reasons


@pytest.mark.parametrize("n", [0, -1])
def test_hecke_index_below_one_is_a_parameter_error(n):
    # n = 0 gave the zero matrix and n = -1 read negative list indices
    with pytest.raises(ParameterError, match=f"Hecke index n = {n} must be >= 1"):
        hecke_matrix(24, n)


@pytest.mark.parametrize("k, P", [(12, 0), (24, 1), (24, -3)])
def test_miller_precision_below_dim_minus_one_is_a_parameter_error(monkeypatch, k, P):
    monkeypatch.setattr(hecke1, "_MILLER_ROWS", {})
    with pytest.raises(ParameterError, match=f"precision P = {P} is below dim M_{k} - 1"):
        miller_basis(k, P)
    miller_basis(k, 40)  # the rows are now cached at a larger precision
    with pytest.raises(ParameterError, match="precision"):
        miller_basis(k, P)
    basis = miller_basis(k, dim_modular(k) - 1)
    assert [[c.as_rational() for c in f.coefficients] for f in basis] == [
        [int(i == j) for j in range(dim_modular(k))] for i in range(dim_modular(k))]
