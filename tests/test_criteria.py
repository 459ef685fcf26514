"""Selmer bounds, auxiliary character search, the non-principality criterion,
and record ingestion."""

import json
from fractions import Fraction

import pytest

from eiscong.characters import trivial_char
from eiscong.criteria import (
    aux_char_search,
    full_report,
    herbrand_eigenspace,
    ingest_records,
    local_factor,
    nonprincipality_verdict,
    selmer_lower_1mk,
    selmer_upper_km1,
)
from eiscong.errors import ParameterError, SchemaError
from eiscong.exact import padic_context, valp_rational
from eiscong.lfunc import b1_omega_mod, bernoulli, bernoulli_mod, eta
from eiscong.cli import fixture_path

FIXTURE = fixture_path("example37.json")


def eta37():
    return eta(trivial_char(1), 32, [31, 37], padic_context(37, 1, 6))


def test_selmer_lower_examples():
    assert selmer_lower_1mk(37, 32, {31, 37}, 1) == 2
    assert selmer_lower_1mk(37, 32, {37}, 1) == 1
    assert selmer_lower_1mk(13, 4, {13}, 1) == 0
    assert selmer_lower_1mk(37, 32, {31, 37}, 2) == 4


def test_selmer_lower_monotonicity():
    for ell in (3, 5, 11, 41):
        gained = (selmer_lower_1mk(37, 32, {31, 37, ell}, 1)
                  - selmer_lower_1mk(37, 32, {31, 37}, 1))
        v = valp_rational(Fraction(1 - ell ** 32), 37)
        assert gained == min(int(v), 1)


def test_local_factor_examples():
    # n = 1 - k = -31 at (p, k) = (37, 32): factor vanishes
    assert local_factor(31, -31, 37, trivial_char(1), "lemma11") == 0
    assert local_factor(31, 31, 37, trivial_char(1), "lemma11") == 1
    assert local_factor(5, 3, 37, trivial_char(1), "lemma21") == 0
    # negative-exponent symmetry: val(l^-t - 1) = val(l^t - 1)
    for t in (30, 32):
        assert (local_factor(31, -t - 1, 37, trivial_char(1), "lemma11")
                == local_factor(31, t - 1, 37, trivial_char(1), "lemma11"))


def test_local_factor_hypothesis_violation():
    with pytest.raises(ParameterError):
        local_factor(149, 3, 37, trivial_char(1), "lemma11")  # 149 = 1 mod 37
    # lemma21 has no such restriction
    assert local_factor(149, 3, 37, trivial_char(1), "lemma21") >= 0
    with pytest.raises(ParameterError):
        local_factor(5, 0, 37, trivial_char(1), "lemma11")


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
    rep = selmer_upper_km1(37, 32, {31, 37}, 1)
    assert rep.herbrand_status == "trivial"
    assert dict(rep.upper_bound_km1_terms)[31] == 0
    assert rep.dim_chi_upper == 1
    assert rep.lower_bound_1mk == 2
    assert rep.dim_chi_inverse_lower == 2


def test_selmer_upper_terms():
    # a prime with l^(k-2) = 1 mod p contributes 1: order of 4 mod 37 is 18,
    # and 18 | 30, so 4^30 = 1 mod 37 fails; use l with l^30 = 1 mod 37:
    # the subgroup of 30th powers mod 37 has order gcd-based index; l = 11:
    assert pow(11, 30, 37) == 1
    rep = selmer_upper_km1(37, 32, {11, 37}, 1)
    assert dict(rep.upper_bound_km1_terms)[11] == 1
    assert rep.dim_chi_upper == 2


def test_selmer_upper_691_uses_the_k_minus_1_eigenspace():
    # the relevant eigenspace for (p, k) = (691, 12) is decided by
    # B_(691-11) = B_680, which is a 691-adic unit (cross-checked against the
    # weight-one route in test_lfunc), so the bound applies
    assert bernoulli_mod(680, 691) != 0
    rep = selmer_upper_km1(691, 12, {691}, 1)
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
    records = ingest_records(FIXTURE)
    assert len(records) == 19
    assert all(r.depth == 1 for r in records)
    assert all(r.prime_label == "P1" for r in records)
    assert all(r.source == "external" for r in records)
    crit = nonprincipality_verdict(eta37(), records, e=1, f_res=1, dim_chi_upper=1)
    assert crit.verdict == "non-principal"
    assert crit.depth_sum_over_e == 19
    assert crit.valp_congruence_module == 2
    assert "#T_mod" in crit.conclusion_text
    assert "chi^{-1}" in crit.conclusion_text


def test_verdict_inconclusive_cases():
    records = ingest_records(FIXTURE)
    single = nonprincipality_verdict(eta37(), records[:1], 1, 1, 1)
    assert single.verdict == "inconclusive"
    empty = nonprincipality_verdict(eta37(), [], 1, 1, 1)
    assert empty.verdict == "inconclusive"
    no_dim = nonprincipality_verdict(eta37(), records, 1, 1, dim_chi_upper=None)
    assert no_dim.verdict == "inconclusive"
    assert "dim" in no_dim.conclusion_text


def test_verdict_monotone_in_records():
    records = ingest_records(FIXTURE)
    ev = eta37()
    last = None
    for n in range(len(records) + 1):
        v = nonprincipality_verdict(ev, records[:n], 1, 1, 1).verdict
        if last == "non-principal":
            assert v == "non-principal"
        last = v


def test_verdict_scaling_with_e():
    records = ingest_records(FIXTURE)
    ev = eta37()
    # e = 2: sum/e = 9.5 vs rhs = 1*2*2 = 4 -> still non-principal
    crit = nonprincipality_verdict(ev, records, e=2, f_res=1, dim_chi_upper=1)
    assert crit.depth_sum_over_e == Fraction(19, 2)
    assert crit.valp_congruence_module == 4
    assert crit.verdict == "non-principal"


def test_verdict_mixed_records_rejected():
    records = ingest_records(FIXTURE)
    bad = records[0]._replace(weight=12)
    with pytest.raises(ParameterError):
        nonprincipality_verdict(eta37(), [records[1], bad], 1, 1, 1)


def test_ingest_errors(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(SchemaError):
        ingest_records(empty)
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    with pytest.raises(SchemaError):
        ingest_records(garbage)
    inconsistent = tmp_path / "inconsistent.json"
    inconsistent.write_text(json.dumps([{
        "weight": 32, "level": 31, "p": 37, "prime_label": "P1",
        "eigenvalues": {"2": str((1 + 2 ** 31 + 37) % 37 ** 2)},
        "depth": 2, "source": "external"}]))
    with pytest.raises(SchemaError) as err:
        ingest_records(inconsistent)
    assert "inconsistent" in str(err.value)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps([{"weight": 32}]))
    with pytest.raises(SchemaError) as err:
        ingest_records(missing)
    assert "missing" in str(err.value)


def test_kummer_sweep_consistency():
    # b1_omega_mod(k-1, p, 1) = 0 exactly when p | num(B_k), across the full
    # even range for each p; the residue route and the exact numerators are
    # independent computations
    expected_hits = {37: [32], 59: [44], 67: [58], 101: [68], 103: [24]}
    for p, hits in expected_hits.items():
        found = []
        for k in range(2, p - 2, 2):
            b1_zero = b1_omega_mod(k - 1, p, 1) == 0
            assert b1_zero == (bernoulli(k).numerator % p == 0), (p, k)
            if b1_zero:
                found.append(k)
        assert found == hits, p


def test_scan_records_round_trip_through_ingestion(tmp_path):
    # the internal record schema is the ingestion schema
    from eiscong.hecke1 import depth_scan
    records, _ = depth_scan(12, 691, {691}, 3)
    path = tmp_path / "scan.json"
    path.write_text(json.dumps([r.as_dict() for r in records]))
    back = ingest_records(path)
    assert len(back) == 1
    assert back[0].depth == records[0].depth == 1
    assert back[0].eigenvalues == records[0].eigenvalues
    assert back[0].source == "external"


def test_full_report_example37():
    rep = full_report(37, 32, trivial_char(1), [31, 37], s=6, prec=25,
                      records_path=FIXTURE)
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
    rep = full_report(691, 12, trivial_char(1), [691], s=4, prec=20, s_max=3)
    assert rep["criterion"]["verdict"] == "inconclusive"
    assert rep["eta"]["valuation"] == 1
    recs = rep["depths"]["level1_scan"]["records"]
    assert len(recs) == 1 and recs[0]["depth"] == 1


def test_full_report_rejects_bad_sigma():
    with pytest.raises(ParameterError):
        full_report(37, 32, trivial_char(1), [31], s=6)


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


def test_full_report_without_congruence_certificate_is_inconclusive():
    # nontrivial psi: no level-1 scan, so nothing certifies the extension
    from eiscong.characters import parse_char
    rep = full_report(37, 32, parse_char("31:[2]"), [31, 37], prec=10,
                      records_path=FIXTURE)
    assert rep["criterion"]["hypothesis"]["dim_chi_equals_1"] is False
    assert rep["criterion"]["verdict"] == "inconclusive"
    assert rep["criterion"]["conclusion"] == "dim H^1_Sigma(Q, chi) = 1 is not established"


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
        "PadicContext": lambda: padic_context(37, 30, 2)._replace(),
        "EigensystemRecord": lambda: EigensystemRecord(12, 1, 691, "P1", {2: 667}),
        "SkippedEigensystem": lambda: SkippedEigensystem(12, 691, "reason"),
        "EtaValue": eta37,
        "SelmerBoundReport": lambda: selmer_upper_km1(37, 32, [31, 37], 1),
        "AuxCharCertificate": lambda: aux_char_search(37, 32, psi, 31, 1),
        "CriterionReport": lambda: nonprincipality_verdict(
            eta37(), ingest_records(FIXTURE), 1, 1, 1),
        "HConstructionReport": lambda: build_h(
            psi, 32, 31, 1, phi, [31, 37], padic_context(37, 30, 6), 12)[1],
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
