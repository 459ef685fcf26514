"""Acceptance gate: the eleven criteria, each timed against its runtime
budget and printed as one PASS/FAIL line (run pytest with -s to see them)."""

import json
import random
import time
from fractions import Fraction

from eiscong.characters import (
    char_eval,
    char_inverse,
    char_product,
    enumerate_chars,
    primitive_char,
    trivial_char,
)
from eiscong.cli import fixture_path, main
from eiscong.criteria import (
    dim_chi_hypothesis,
    herbrand_eigenspace,
    ingest_records,
    nonprincipality_verdict,
    selmer_lower_1mk,
    selmer_upper_km1,
)
from eiscong.exact import CycElem, padic_context, valp_cyc, valp_rational
from eiscong.hecke1 import charpoly, depth_scan, dim_cusp
from eiscong.lfunc import bernoulli, eta, gen_bernoulli, kummer_check, l_nonpositive
from eiscong.poly import euler_phi
from eiscong.qexp import aux_char_search, build_fm, build_h, eisenstein_qexp, hecke_tq
from level1_oracle import hecke_matrix


class Gate:
    """Times one criterion and prints its verdict line."""

    def __init__(self, number, limit_seconds, summary):
        self.number = number
        self.limit = limit_seconds
        self.summary = summary

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        ok = exc_type is None and elapsed < self.limit
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} {status} "
              f"({elapsed:6.2f}s / {self.limit}s): {self.summary}")
        if exc_type is None and elapsed >= self.limit:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.2f}s)")
        return False


def test_criterion_01_eta_reproduction(tmp_path, capsys):
    with Gate(1, 5, "eta(trivial, 32, {31,37}, p=37) has valuation exactly 2"):
        code = main(["--cache-dir", str(tmp_path), "eta", "--psi", "trivial",
                     "--k", "32", "--sigma", "31,37", "--p", "37"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["valuation"] == 2
        factors = {f["factor"]: f["valuation"] for f in payload["factors"]}
        assert factors["B_32(psi)"] == 1
        assert factors["1 - psi(31)*31^32"] == 1


def test_criterion_02_divisibility_battery():
    with Gate(2, 5, "37 | num(B_32), 37 nmid num(B_6), "
                    "val_37(1-31^32) = 1, val_37(1-31^30) = 0"):
        assert bernoulli(32).numerator % 37 == 0
        assert bernoulli(6).numerator % 37 != 0
        assert valp_rational(Fraction(1 - 31 ** 32), 37) == 1
        assert valp_rational(Fraction(1 - 31 ** 30), 37) == 0


def test_criterion_03_kummer():
    with Gate(3, 30, "Kummer check at (37, 32) with both sides 0; "
                     "full even-weight sweeps for p in {13, 37}"):
        r = kummer_check(37, 32)
        assert r["congruent"] and r["lhs"] == 0 and r["rhs"] == 0
        for p in (13, 37):
            for k in range(2, p - 2, 2):
                assert kummer_check(p, k)["congruent"], (p, k)


def test_criterion_04_selmer_bounds():
    with Gate(4, 10, "selmer lower bound 2; dim H^1_Sigma(Q, chi) <= 1 with "
                     "trivial eigenspace at (37, 31)"):
        assert selmer_lower_1mk(37, 32, {31, 37}) == 2
        rep = selmer_upper_km1(37, 32, {31, 37})
        assert rep.dim_chi_upper == 1
        assert rep.herbrand_status == "trivial"
        assert herbrand_eigenspace(37, 31) == "trivial"


def test_criterion_05_aux_character():
    with Gate(5, 120, "conductor-31 character with certificate (0, 0), "
                      "recomputed independently"):
        cert = aux_char_search(37, 32, trivial_char(1), 31, 1)
        assert cert.found and cert.conductor == 31
        assert (cert.val_l_psi_phi, cert.val_l_phi_inv) == (0, 0)
        assert cert.char.parity == (-1) ** 31
        # independent recomputation of both valuations from scratch
        ctx = padic_context(37, 30)
        phi = primitive_char(cert.char)
        l1 = l_nonpositive(primitive_char(char_product(trivial_char(1), phi)), 0)
        l2 = l_nonpositive(primitive_char(char_inverse(phi)), 2 - 32)
        assert valp_cyc(l1.lift(30), ctx) == 0
        assert valp_cyc(l2.lift(30), ctx) == 0
        # and determinism of the search itself
        assert aux_char_search(37, 32, trivial_char(1), 31, 1).char == cert.char


def test_criterion_06_h_construction():
    with Gate(6, 600, "H at precision 100: a_0 = 0, p-integral, a_1 a 37-unit, "
                      "H = F_1 mod 37^2, zero at every cusp of level 31"):
        cert = aux_char_search(37, 32, trivial_char(1), 31, 1)
        ctx = padic_context(37, 30)
        h, rep = build_h(trivial_char(1), 32, 31, 1, cert.char, [31, 37], ctx, 100)
        assert rep.precision == 100
        assert rep.a0_is_zero
        assert rep.p_integral and rep.first_nonintegral_index is None
        assert rep.unit_index == 1 and rep.unit_coeff_valuation == 0
        assert rep.congruence_depth >= 2 and rep.congruent_to_fm_mod_eta
        assert rep.cusps_vanish and rep.cusp_count == 2
        assert rep.passed


def test_criterion_07_ramanujan_depth():
    with Gate(7, 30, "depth_scan(12, 691, {691}): one eigensystem of depth "
                     "exactly 1, matching the eta valuation"):
        records, skipped, _ = depth_scan(12, 691, {691})
        assert len(records) == 1 and not skipped
        assert records[0].depth == 1
        ev = eta(trivial_char(1), 12, [691], padic_context(691, 1))
        assert ev.valuation_vpi == 1 == records[0].depth


def test_criterion_08_irregular_pair_congruence():
    with Gate(8, 60, "depth_scan(32, 37, {31,37}) finds a level-1 "
                     "eigensystem congruent to the Eisenstein series"):
        records, _, _ = depth_scan(32, 37, {31, 37})
        assert any(r.depth >= 1 for r in records)


def test_criterion_09_example37_criterion():
    with Gate(9, 5, "19 ingested depth-1 records, dim = 1: verdict "
                    "non-principal (depth sum 19 > 2 = val_p(eta))"):
        records = ingest_records(fixture_path("example37.json"), p=37, weight=32)
        assert len(records) == 19
        assert all(r.depth == 1 for r in records)
        ev = eta(trivial_char(1), 32, [31, 37], padic_context(37, 1))
        crit = nonprincipality_verdict(ev, records,
                                       hypothesis=dim_chi_hypothesis(1, assumed=True))
        assert crit.verdict == "non-principal"
        assert crit.depth_sum == 19 > 2 == crit.valp_congruence_module
        assert "#T_mod" in crit.conclusion_text
        assert "dim H^1_Sigma(Q, chi^{-1})" in crit.conclusion_text


def test_criterion_10_desk_scale_substitution():
    with Gate(10, 5, "composite-level eigensystems are not computed; the "
                     "bundled external records substitute for them"):
        import inspect
        from eiscong import hecke1
        # the internal engines take no level: only level 1 is computed
        assert "level" not in inspect.signature(hecke1.eigensystems_mod).parameters
        assert "level" not in inspect.signature(hecke1.depth_scan).parameters
        assert "level" not in inspect.signature(hecke1.eigensystems_on_rows).parameters
        # the level-31 data enters only as external records
        records = ingest_records(fixture_path("example37.json"), p=37, weight=32)
        assert all(r.source == "external" and r.level == 31 for r in records)


def test_criterion_11_property_suites():
    with Gate(11, 300, "property suites: ring laws, orthogonality, von Staudt, "
                       "parity vanishing, eigenproperty, annihilation, "
                       "commutation and the T_q^2 identity"):
        rng = random.Random(0xE15C)

        # ring laws (exact)
        for _ in range(60):
            f = rng.randrange(1, 31)
            a, b, c = (CycElem(f, tuple(Fraction(rng.randrange(-9, 10))
                                        for _ in range(euler_phi(f))))
                       for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

        # character orthogonality sums
        for f in range(2, 25):
            for chi in enumerate_chars(f):
                if chi.is_trivial():
                    continue
                total = CycElem.zero(chi.order)
                for a in range(f):
                    total = total + char_eval(chi, a)
                assert total.is_zero()

        # von Staudt-Clausen denominators, k <= 60
        for n in range(2, 61, 2):
            expected = 1
            for q in range(2, n + 2):
                if all(q % i for i in range(2, q)) and n % (q - 1) == 0:
                    expected *= q
            assert bernoulli(n).denominator == expected

        # parity vanishing of generalized Bernoulli numbers
        for f in range(3, 13):
            for chi in enumerate_chars(f):
                prim = primitive_char(chi)
                for n in range(1, 7):
                    if n == 1 and prim.is_trivial():
                        continue
                    if prim.parity != (-1) ** n:
                        assert gen_bernoulli(n, prim).is_zero()

        # Eisenstein Hecke-eigenproperty: 10 sampled pairs, q <= 13, prec >= 50
        sampled = 0
        while sampled < 10:
            f = rng.choice([1, 3, 4, 5, 7, 8, 9, 11, 12])
            chi = primitive_char(rng.choice(enumerate_chars(f)))
            k = rng.randrange(1, 21)
            if chi.parity != (-1) ** k or (k <= 2 and chi.is_trivial()):
                continue
            E = eisenstein_qexp(k, chi, 52)
            for q in (2, 3, 5, 7, 11, 13):
                if chi.modulus % q == 0:
                    continue
                TE = hecke_tq(E, q)
                lam = CycElem.one(chi.order) + char_eval(chi, q) * Fraction(q) ** (k - 1)
                scaled = E.scale(lam)
                for n in range(TE.precision + 1):
                    assert TE.coeff(n) == scaled.coeff(n)
            sampled += 1

        # F_m annihilation by T_q - (1 + q^(k-1))
        F1 = build_fm(trivial_char(1), 32, 31, 1, 45)
        for q in (2, 3):
            TF = hecke_tq(F1, q)
            scaled = F1.scale(1 + Fraction(q) ** 31)
            for n in range(TF.precision + 1):
                assert TF.coeff(n) == scaled.coeff(n)

        # Hecke commutation and T_(q^2) = T_q^2 - q^(k-1) at level 1, k <= 40
        def matmul(a, b):
            n = len(a)
            return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
                    for i in range(n)]
        for k in range(12, 42, 4):
            if dim_cusp(k) == 0:
                continue
            T2, T3 = hecke_matrix(k, 2), hecke_matrix(k, 3)
            assert matmul(T2, T3) == matmul(T3, T2) == hecke_matrix(k, 6)
            for q in (2, 3):
                Tq = hecke_matrix(k, q)
                sq = matmul(Tq, Tq)
                Tq2 = hecke_matrix(k, q * q)
                d = len(Tq)
                for i in range(d):
                    for j in range(d):
                        assert Tq2[i][j] == sq[i][j] - (
                            Fraction(q) ** (k - 1) if i == j else 0)
            # Cayley-Hamilton: charpoly(T_2, m) annihilates T_2 mod m, also for m = p^s
            # with p <= dim, where Newton's identities would divide by p
            d = len(T2)
            for m in (2, 3**3, 37**3):
                acc = [[0] * d for _ in range(d)]
                for c in reversed(charpoly(T2, m)):
                    acc = [[(x + c * (i == j)) % m for j, x in enumerate(row)]
                           for i, row in enumerate(matmul(acc, T2))]
                assert acc == [[0] * d for _ in range(d)], (k, m)
