"""Selmer bounds, auxiliary character search, the non-principality criterion,
and record ingestion."""

import json
from fractions import Fraction

import pytest

from eiscong.characters import parse_char, trivial_char
from eiscong.criteria import (
    dim_chi_hypothesis,
    full_report,
    herbrand_eigenspace,
    ingest_records,
    local_factor,
    nonprincipality_verdict,
    selmer_lower_1mk,
    selmer_upper_km1,
)
from eiscong.errors import ComputationError, ParameterError, SchemaError
from eiscong.exact import padic_context, valp_rational
from eiscong.lfunc import b1_omega_mod, bernoulli, bernoulli_mod, eta
from eiscong.poly import INF
from eiscong.qexp import aux_char_search
from eiscong.cli import fixture_path

FIXTURE = fixture_path("example37.json")


def eta37():
    return eta(trivial_char(1), 32, [31, 37], padic_context(37, 1))


# dim H^1_Sigma(Q, chi) = 1: the upper bound 1 with an asserted extension
DIM_ONE = dim_chi_hypothesis(1, assumed=True)


def test_selmer_lower_examples():
    assert selmer_lower_1mk(37, 32, {31, 37}) == 2
    assert selmer_lower_1mk(37, 32, {37}) == 1
    assert selmer_lower_1mk(13, 4, {13}) == 0


@pytest.mark.parametrize("p, k", [(13, 12), (37, 36), (3, 2), (13, 14)])
def test_selmer_lower_needs_k_below_p_minus_1(p, k):
    # before, k = p - 1 printed lower_bound_1mk = -1: B_(1,omega^(p-2)) is
    # not p-integral
    with pytest.raises(ParameterError, match="2 <= k <= p-3"):
        selmer_lower_1mk(p, k, {p})
    assert selmer_lower_1mk(13, 10, {13}) == 0


def test_selmer_lower_monotonicity():
    for ell in (3, 5, 11, 41):
        gained = (selmer_lower_1mk(37, 32, {31, 37, ell})
                  - selmer_lower_1mk(37, 32, {31, 37}))
        v = valp_rational(Fraction(1 - ell ** 32), 37)
        assert gained == min(int(v), 1)


def test_local_factor_examples():
    # n = 1 - k = -31 at (p, k) = (37, 32): factor vanishes
    assert local_factor(31, -31, 37) == 0
    assert local_factor(31, 31, 37) == 1
    # negative-exponent symmetry: val(l^-t - 1) = val(l^t - 1)
    for t in (30, 32):
        assert local_factor(31, -t - 1, 37) == local_factor(31, t - 1, 37)


def test_local_factor_hypothesis_violation():
    with pytest.raises(ParameterError):
        local_factor(149, 3, 37)  # 149 = 1 mod 37
    with pytest.raises(ParameterError):
        local_factor(5, 0, 37)


@pytest.mark.parametrize("ell", [4, 37])
def test_local_factor_needs_a_prime_other_than_p(ell):
    with pytest.raises(ParameterError, match="ell must be a prime different from p"):
        local_factor(ell, 1, 37)


def test_herbrand_examples():
    assert herbrand_eigenspace(37, 31) == "trivial"
    assert herbrand_eigenspace(691, 679) == "nontrivial"
    assert herbrand_eigenspace(37, 5) == "nontrivial"
    with pytest.raises(ParameterError):
        herbrand_eigenspace(37, 6)
    with pytest.raises(ParameterError):
        herbrand_eigenspace(37, 1)


def test_herbrand_consistency_with_exact_bernoulli():
    # mod-p residues agree with exact numerators throughout the small range
    for p in (13, 37):
        for r in range(3, p - 2, 2):
            status = herbrand_eigenspace(p, r)
            exact_div = bernoulli(p - r).numerator % p == 0
            assert (status == "nontrivial") == exact_div, (p, r)


def test_selmer_upper_example37():
    rep = selmer_upper_km1(37, 32, {31, 37})
    assert rep.herbrand_status == "trivial"
    assert dict(rep.upper_bound_km1_terms)[31] == 0
    assert rep.dim_chi_upper == 1
    assert rep.lower_bound_1mk == 2
    assert rep.as_dict()["dim_chi_inverse_lower"] == 2
    assert rep.as_dict()["residue_field_degree"] == 1


def test_selmer_upper_terms():
    # a prime with l^(k-2) = 1 mod p contributes 1: order of 4 mod 37 is 18,
    # and 18 | 30, so 4^30 = 1 mod 37 fails; use l with l^30 = 1 mod 37:
    # the subgroup of 30th powers mod 37 has order gcd-based index; l = 11:
    assert pow(11, 30, 37) == 1
    rep = selmer_upper_km1(37, 32, {11, 37})
    assert dict(rep.upper_bound_km1_terms)[11] == 1
    assert rep.dim_chi_upper == 2


def test_selmer_upper_691_uses_the_k_minus_1_eigenspace():
    # the relevant eigenspace for (p, k) = (691, 12) is decided by
    # B_(691-11) = B_680, which is a 691-adic unit (cross-checked against the
    # weight-one route in test_lfunc), so the bound applies
    assert bernoulli_mod(680, 691) != 0
    rep = selmer_upper_km1(691, 12, {691})
    assert rep.herbrand_status == "trivial"
    assert rep.dim_chi_upper == 1
    # the nontrivial direction shows up for the reflected exponent instead
    assert herbrand_eigenspace(691, 679) == "nontrivial"


def test_aux_char_search_example():
    cert = aux_char_search(37, 32, trivial_char(1), 31, 1)
    assert cert.found
    assert cert.conductor == 31
    assert (cert.val_l_psi_phi, cert.val_l_phi_inv) == (0, 0)
    assert cert.char.parity == (-1) ** 31
    assert cert.context_conductor == 30
    # determinism and first-found stability
    again = aux_char_search(37, 32, trivial_char(1), 31, 1)
    assert again.char == cert.char
    larger = aux_char_search(37, 32, trivial_char(1), 31, 2)
    assert larger.char == cert.char


def test_aux_char_search_not_found_is_reported():
    # (p, k, ell) = (7, 8, 3): the one parity-compatible character of
    # conductor 3 fails the p-unit condition, so the m_max = 1 search is
    # exhausted and must report not-found rather than raise
    cert = aux_char_search(7, 8, trivial_char(1), 3, 1)
    assert not cert.found
    assert cert.char is None
    assert cert.searched_m_max == 1


def test_aux_char_search_rejects_ramified_value_field():
    # conductor-11 characters take values in Q(zeta_10), ramified at 5
    with pytest.raises(ParameterError):
        aux_char_search(5, 6, trivial_char(1), 11, 1)


def test_verdict_example37():
    records = ingest_records(FIXTURE, p=37, weight=32)
    assert len(records) == 19
    assert all(r.depth == 1 for r in records)
    assert all(r.prime_label == "P1" for r in records)
    assert all(r.source == "external" for r in records)
    crit = nonprincipality_verdict(eta37(), records, hypothesis=DIM_ONE)
    assert crit.verdict == "non-principal"
    assert crit.depth_sum == 19
    assert crit.valp_congruence_module == 2
    payload = crit.as_dict()
    assert (payload["e"], payload["f_res"]) == (1, 1)
    assert (payload["depth_sum_over_e"], payload["valp_congruence_module"]) == ("19", "2")
    assert "#T_mod" in crit.conclusion_text
    assert "chi^{-1}" in crit.conclusion_text


def test_verdict_inconclusive_cases():
    records = ingest_records(FIXTURE, p=37, weight=32)
    single = nonprincipality_verdict(eta37(), records[:1], hypothesis=DIM_ONE)
    assert single.verdict == "inconclusive"
    empty = nonprincipality_verdict(eta37(), [], hypothesis=DIM_ONE)
    assert empty.verdict == "inconclusive"
    no_dim = nonprincipality_verdict(eta37(), records,
                                     hypothesis=dim_chi_hypothesis(None, assumed=True))
    assert no_dim.verdict == "inconclusive"
    assert "dim" in no_dim.conclusion_text


def test_verdict_monotone_in_records():
    records = ingest_records(FIXTURE, p=37, weight=32)
    ev = eta37()
    last = None
    for n in range(len(records) + 1):
        v = nonprincipality_verdict(ev, records[:n], hypothesis=DIM_ONE).verdict
        if last == "non-principal":
            assert v == "non-principal"
        last = v


def test_verdict_takes_no_e_or_f_res():
    # every record has coefficients in Z_p: no ramification index or residue
    # degree enters the criterion
    records = ingest_records(FIXTURE, p=37, weight=32)
    for knob in ({"e": 1}, {"f_res": 1}, {"e": 2, "f_res": 1}):
        with pytest.raises(TypeError):
            nonprincipality_verdict(eta37(), records, hypothesis=DIM_ONE, **knob)
    with pytest.raises(TypeError):
        nonprincipality_verdict(eta37(), records, 1, 1, hypothesis=DIM_ONE)


def test_verdict_needs_more_than_an_upper_bound():
    # an upper bound of 1 leaves dimension 0 open; before, dim_chi_upper=1
    # alone gave non-principal
    records = ingest_records(FIXTURE, p=37, weight=32)
    bound_only = nonprincipality_verdict(eta37(), records,
                                         hypothesis=dim_chi_hypothesis(1))
    assert bound_only.verdict == "inconclusive"
    assert bound_only.conclusion_text == "dim H^1_Sigma(Q, chi) = 1 is not established"
    with pytest.raises(TypeError):
        nonprincipality_verdict(eta37(), records, dim_chi_upper=1)
    with pytest.raises(TypeError):
        nonprincipality_verdict(eta37(), records, 1)


@pytest.mark.parametrize("p, k", [(13, 12), (3, 22)])
def test_verdict_needs_a_p_integral_eta(p, k):
    # (p - 1) | k puts p in the denominator of B_k, so val_p(eta) = -1 and a
    # depth sum of 0 or 3 "exceeded" it: before, the verdict was non-principal
    from eiscong.hecke1 import depth_scan
    records, _, _ = depth_scan(k, p, {p})
    ev = eta(trivial_char(1), k, [p], padic_context(p, 1))
    assert ev.valuation_vpi == -1
    with pytest.raises(ParameterError, match="val_p\\(eta\\) = -1 < 0"):
        nonprincipality_verdict(ev, records, hypothesis=DIM_ONE)


def test_verdict_mixed_records_rejected():
    records = ingest_records(FIXTURE, p=37, weight=32)
    bad = records[0]._replace(weight=12)
    with pytest.raises(ParameterError):
        nonprincipality_verdict(eta37(), [records[1], bad], hypothesis=DIM_ONE)


def test_verdict_rejects_records_of_another_p_or_without_a_depth():
    records = ingest_records(FIXTURE, p=37, weight=32)
    with pytest.raises(ParameterError, match="records mix different primes p"):
        nonprincipality_verdict(eta37(), [records[0], records[1]._replace(p=31)],
                                hypothesis=DIM_ONE)
    with pytest.raises(ParameterError, match="records must carry congruence depths"):
        nonprincipality_verdict(eta37(), [records[0]._replace(depth=None)],
                                hypothesis=DIM_ONE)


def test_verdict_raises_when_eta_vanishes():
    # B_(32, chi_4) = 0 for the odd character chi_4 of conductor 4
    odd4 = parse_char("4:[1]")
    ev = eta(odd4, 32, [37], padic_context(37, 2))
    assert ev.value.is_zero() and ev.valuation_vpi == INF
    with pytest.raises(ComputationError, match="eta vanishes"):
        nonprincipality_verdict(ev, ingest_records(FIXTURE, p=37, weight=32),
                                hypothesis=DIM_ONE)


def test_ingest_errors(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(SchemaError):
        ingest_records(empty, p=37, weight=32)
    garbage = tmp_path / "bad.json"
    # json.load kept the last of two equal keys, and a byte that is not UTF-8
    # raised UnicodeDecodeError past the schema check
    text = open(FIXTURE, encoding="utf-8").read()
    for bad in (b"{not json", text.replace('"2": "541"', '"2": "0", "2": "541"').encode(),
                text.replace('"P1"', '"P\xff"').encode("latin-1")):
        garbage.write_bytes(bad)
        with pytest.raises(SchemaError, match="bad.json: invalid JSON"):
            ingest_records(garbage, p=37, weight=32)
    inconsistent = tmp_path / "inconsistent.json"
    inconsistent.write_text(json.dumps([{
        "weight": 32, "level": 31, "p": 37, "prime_label": "P1",
        "eigenvalues": {"2": str((1 + 2 ** 31 + 37) % 37 ** 2)},
        "depth": 2, "source": "external"}]))
    with pytest.raises(SchemaError) as err:
        ingest_records(inconsistent, p=37, weight=32)
    assert "inconsistent" in str(err.value)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps([{"weight": 32}]))
    with pytest.raises(SchemaError) as err:
        ingest_records(missing, p=37, weight=32)
    assert "missing" in str(err.value)
    # a residual's valuation needs a prime p: p = 1 would divide it forever
    not_prime = tmp_path / "not_prime.json"
    not_prime.write_text(json.dumps([{
        "weight": 32, "level": 31, "p": 1, "prime_label": "P1",
        "eigenvalues": {"2": "5"}, "depth": 0, "source": "external"}]))
    with pytest.raises(ParameterError, match="p = 1 is not prime"):
        ingest_records(not_prime, p=1, weight=32)


# Values int() truncated: before, depth 1.9 read as 1 and p = 37.2 as 37.
@pytest.mark.parametrize("field, value", [("depth", 1.9), ("weight", 32.5), ("level", 31.7),
                                          ("p", 37.2), ("depth", True), ("weight", "32")])
def test_ingest_reads_integers_not_truncations(tmp_path, field, value):
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    data["records"][3][field] = value
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=f"record 3: {field} {value!r} is not an integer"):
        ingest_records(path, p=37, weight=32)


# A level below 1 was passed to factorize, which failed naming no record.
@pytest.mark.parametrize("level", [0, -31])
def test_ingest_rejects_a_level_below_one(tmp_path, level):
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    data["records"][0]["level"] = level
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=f"rec.json: record 0: level {level} must be >= 1"):
        ingest_records(path, p=37, weight=32)


# int() read '02' as 2, so the later of two spellings of q won and the other
# claim was dropped, and it read '2_9' as 29.  The a_29 below keeps depth 1.
@pytest.mark.parametrize("key, value", [("02", "0"), ("2_9", str((1 + 29 ** 31) % 37 ** 2))])
def test_ingest_reads_only_canonical_eigenvalue_keys(tmp_path, key, value):
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    data["records"][0]["eigenvalues"] = {key: value} | data["records"][0]["eigenvalues"]
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=f"record 0: malformed field: eigenvalue key '{key}'"):
        ingest_records(path, p=37, weight=32)


@pytest.mark.parametrize("value", [" 541", "5_41", "+541", "0541", "-0", 541.0, True])
def test_ingest_reads_only_canonical_eigenvalue_values(tmp_path, value):
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    data["records"][0]["eigenvalues"]["2"] = value
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=r"record 0: malformed field: eigenvalue a_2 "):
        ingest_records(path, p=37, weight=32)
    data["records"][0]["eigenvalues"]["2"] = 541
    path.write_text(json.dumps(data))
    assert ingest_records(path, p=37, weight=32)[0].eigenvalues[2] == 541


# Two records whose stated depth no residual checks: a level-1 residual of
# zero (a_2 = 1 + 2^31 exactly), and a level-31 record that lists only a_31.
UNCHECKED_RECORDS = {
    "zero-residual": {"weight": 32, "level": 1, "p": 37, "prime_label": "X",
                      "eigenvalues": {"2": str(1 + 2 ** 31)}, "depth": 7},
    "no-prime-outside-sigma": {"weight": 32, "level": 31, "p": 37, "prime_label": "X",
                               "eigenvalues": {"31": "5"}, "depth": 9},
}


@pytest.mark.parametrize("name", sorted(UNCHECKED_RECORDS))
def test_ingest_rejects_a_depth_no_residual_checks(tmp_path, name):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps([UNCHECKED_RECORDS[name]]))
    with pytest.raises(SchemaError, match="inconsistent"):
        ingest_records(path, p=37, weight=32)


# 1 + n^(k-1) is the Eisenstein eigenvalue only at primes n; a_74 = 5 gave
# depth 0 although 74 = 2 * 37.
@pytest.mark.parametrize("key", ["74", "1", "-3"])
def test_ingest_rejects_an_eigenvalue_key_that_is_not_prime(tmp_path, key):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps([{"weight": 32, "level": 1, "p": 37, "prime_label": "X",
                                 "eigenvalues": {key: "5"}, "depth": 0}]))
    with pytest.raises(SchemaError, match=f"eigenvalue key {key} is not a prime"):
        ingest_records(path, p=37, weight=32)


# At weight 0 the residual 5 - 1 - 2^(-1) = 3.5 was a float read as depth 0.
@pytest.mark.parametrize("weight", [0, 1])
def test_ingest_rejects_weight_below_two(tmp_path, weight):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps([{"weight": weight, "level": 1, "p": 37, "prime_label": "X",
                                 "eigenvalues": {"2": "5"}, "depth": 0}]))
    with pytest.raises(SchemaError, match=f"weight {weight} must be >= 2"):
        ingest_records(path, p=37, weight=weight)


def test_ingest_checks_the_depth_to_one_more_power_of_p(tmp_path):
    # a_2 - 1 - 2^31 = 37^2: depth 2 holds mod 37^3, depths 1 and 3 do not
    rec = {"weight": 32, "level": 1, "p": 37, "prime_label": "X",
           "eigenvalues": {"2": str(1 + 2 ** 31 + 37 ** 2)}}
    path = tmp_path / "rec.json"
    for depth, ok in ((1, False), (2, True), (3, False)):
        path.write_text(json.dumps([rec | {"depth": depth}]))
        if ok:
            assert ingest_records(path, p=37, weight=32)[0].depth == 2
        else:
            with pytest.raises(SchemaError, match="inconsistent"):
                ingest_records(path, p=37, weight=32)


def test_kummer_sweep_consistency():
    # b1_omega_mod(k-1, p) = 0 exactly when p | num(B_k), across the full
    # even range for each p; the residue route and the exact numerators are
    # independent computations
    expected_hits = {37: [32], 59: [44], 67: [58], 101: [68], 103: [24]}
    for p, hits in expected_hits.items():
        found = []
        for k in range(2, p - 2, 2):
            b1_zero = b1_omega_mod(k - 1, p) == 0
            assert b1_zero == (bernoulli(k).numerator % p == 0), (p, k)
            if b1_zero:
                found.append(k)
        assert found == hits, p


def test_scan_records_round_trip_through_ingestion(tmp_path):
    # the internal record schema is the ingestion schema
    from eiscong.hecke1 import depth_scan
    records, _, _ = depth_scan(12, 691, {691})
    path = tmp_path / "scan.json"
    path.write_text(json.dumps([r.as_dict() for r in records]))
    back = ingest_records(path, p=691, weight=12)
    assert len(back) == 1
    assert back[0].depth == records[0].depth == 1
    assert back[0].eigenvalues == records[0].eigenvalues
    assert back[0].source == "external"


def test_full_report_example37():
    rep = full_report(37, 32, [31, 37], prec=25, m_max=1, records_path=FIXTURE)
    assert list(rep.keys()) == ["parameters", "eta", "selmer", "aux_char",
                                "h_construction", "depths", "criterion"]
    assert rep["eta"]["valuation"] == 2
    factors = {f["factor"]: f["valuation"] for f in rep["eta"]["factors"]}
    assert factors == {"B_32(psi)": 1, "1 - psi(31)*31^32": 1}
    assert rep["selmer"]["lower_bound_1mk"] == 2
    assert rep["selmer"]["dim_chi_inverse_lower"] == 2
    assert rep["selmer"]["herbrand_status"] == "trivial"
    assert rep["selmer"]["dim_chi_upper"] == 1
    assert rep["aux_char"]["found"]
    assert rep["aux_char"]["conductor"] == 31
    assert (rep["aux_char"]["val_L_psi_phi_0"], rep["aux_char"]["val_L_phi_inv_2mk"]) == (0, 0)
    assert rep["h_construction"]["passed"]
    assert any(r["depth"] >= 1 for r in rep["depths"]["level1_scan"]["records"])
    assert len(rep["depths"]["external"]) == 19
    assert rep["criterion"]["verdict"] == "non-principal"
    assert rep["criterion"]["hypothesis"]["dim_chi_equals_1"] is True
    assert rep["criterion"]["depth_sum_over_e"] == "19"
    assert rep["criterion"]["valp_congruence_module"] == "2"


def test_full_report_691_inconclusive():
    rep = full_report(691, 12, [691], prec=20, m_max=1)
    assert rep["criterion"]["verdict"] == "inconclusive"
    assert rep["eta"]["valuation"] == 1
    recs = rep["depths"]["level1_scan"]["records"]
    assert len(recs) == 1 and recs[0]["depth"] == 1


def test_full_report_builds_h_at_the_exponent_of_the_conductor_found(monkeypatch):
    # no character of conductor 5 is offered, so the search finds one of
    # conductor 25; before, H was still built from F_1 and failed at the cusps
    from eiscong import qexp
    enumerate_chars = qexp.enumerate_chars
    monkeypatch.setattr(qexp, "enumerate_chars",
                        lambda f, **kw: [] if f == 5 else enumerate_chars(f, **kw))
    rep = full_report(37, 32, [5, 37], prec=20, ell=5, m_max=2)
    assert rep["aux_char"]["conductor"] == 25
    h = rep["h_construction"]
    assert (h["m"], h["cusp_count"], h["cusps_vanish"], h["passed"]) == (2, 6, True, True)


def test_full_report_rejects_bad_sigma():
    with pytest.raises(ParameterError):
        full_report(37, 32, [31], prec=20, m_max=1)


def test_dim_chi_needs_a_nontrivial_extension():
    from eiscong.criteria import dim_chi_hypothesis
    assert not dim_chi_hypothesis(1)["dim_chi_equals_1"]
    assert not dim_chi_hypothesis(2, assumed=True)["dim_chi_equals_1"]
    asserted = dim_chi_hypothesis(1, assumed=True)
    assert asserted["nontrivial_extension_certificate"] == "user-assertion"
    assert asserted["dim_chi_equals_1"]
    cert = dim_chi_hypothesis(1, congruence_certificate=True, assumed=True)
    assert cert == {"dim_chi_upper_bound": 1,
                    "nontrivial_extension_certificate": "level1-congruence",
                    "dim_chi_equals_1": True}


def test_ingest_checks_p_and_weight():
    assert len(ingest_records(FIXTURE, p=37, weight=32)) == 19
    for kwargs in ({"p": 41, "weight": 32}, {"p": 37, "weight": 12}):
        with pytest.raises(ParameterError):
            ingest_records(FIXTURE, **kwargs)


def _record_samples():
    """name -> a function building one instance of each plain record class."""
    from eiscong.characters import DirichletChar, parse_char
    from eiscong.hecke1 import EigensystemRecord, SkippedEigensystem
    from eiscong.qexp import CuspClass, build_h
    psi, phi = trivial_char(1), parse_char("31:[15]")
    return {
        "DirichletChar": lambda: DirichletChar(31, (15,)),
        "PadicContext": lambda: padic_context(37, 30)._replace(),
        "EigensystemRecord": lambda: EigensystemRecord(12, 1, 691, "P1", {2: 667}),
        "SkippedEigensystem": lambda: SkippedEigensystem(12, 691, "reason"),
        "EtaValue": eta37,
        "SelmerBoundReport": lambda: selmer_upper_km1(37, 32, [31, 37]),
        "AuxCharCertificate": lambda: aux_char_search(37, 32, psi, 31, 1),
        "CriterionReport": lambda: nonprincipality_verdict(
            eta37(), ingest_records(FIXTURE, p=37, weight=32), hypothesis=DIM_ONE),
        "HConstructionReport": lambda: build_h(
            psi, 32, 31, 1, phi, [31, 37], padic_context(37, 30), 12)[1],
        "CuspClass": lambda: CuspClass(1, 31, 31),
    }


@pytest.mark.parametrize("name", sorted(_record_samples()))
def test_records_are_frozen_namedtuples(name):
    make = _record_samples()[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a == b and a is not b
    field = a._fields[0]
    if name not in ("EigensystemRecord", "CriterionReport"):  # these hold a dict
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a).startswith(f"{name}({field}=")
    assert a._replace(**{field: None}) != a


def test_record_checks_run_on_construction():
    from eiscong.characters import DirichletChar
    from eiscong.qexp import CuspClass
    with pytest.raises(ParameterError, match="exponents must be reduced"):
        DirichletChar(31, (30,))
    with pytest.raises(ParameterError, match="gcd"):
        CuspClass(2, 4, 8)
