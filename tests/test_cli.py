"""CLI behavior: output shapes, exit codes, determinism, cache transparency."""

import json
import os
import shlex
from pathlib import Path

from eiscong.cli import Cache, fixture_path, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bernoulli_commands(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "13")
    assert code == 0
    assert json.loads(out)["value"] == "0"
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    assert json.loads(out)["value"] == "-691/2730"


def test_eta_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "eta",
                           "--psi", "trivial", "--k", "32", "--sigma", "31,37",
                           "--p", "37")
    assert code == 0
    payload = json.loads(out)
    assert payload["valuation"] == 2
    assert payload["factors"][0]["valuation"] == 1
    assert payload["factors"][1]["valuation"] == 1


def test_chars_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "chars", "--f", "31",
                           "--parity", "-1", "--conductor", "31")
    assert code == 0
    assert json.loads(out)["count"] == 15


def test_chars_conductor_must_be_positive_and_divide_the_modulus(capsys):
    # before: an empty list of characters with exit 0
    for conductor in ("0", "-3", "5"):
        code, out, err = run_cli(capsys, "--no-cache", "chars", "--f", "12",
                                 "--conductor", conductor)
        assert (code, out) == (1, ""), conductor
        assert json.loads(err) == {
            "error": "parameter",
            "message": f"conductor {conductor} must be >= 1 and divide the modulus 12"}


def test_aux_char_rejects_a_value_field_ramified_at_p(capsys):
    # characters of conductor 7 take values in Q(zeta_6), and p = 3 divides 6
    code, out, err = run_cli(capsys, "--no-cache", "aux-char", "--p", "3", "--k", "2",
                             "--ell", "7")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "parameter",
        "message": "p = 3 divides the conductor 6; ramified primes are unsupported"}


def test_eisenstein_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "eisenstein",
                           "--l", "12", "--phi", "trivial", "--prec", "6")
    payload = json.loads(out)
    assert payload["coefficients"][0] == "691/65520"
    assert payload["coefficients"][2] == "2049"
    assert payload["weight"] == 12 and payload["level"] == 1


def test_scan_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "scan",
                           "--k", "12", "--p", "691", "--sigma", "691")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 1
    assert payload["records"][0]["depth"] == 1
    assert (payload["s_max"], payload["records"][0]["capped"]) == (3, False)


def test_scan_prints_an_exact_depth(capsys):
    # v_3(a_q - 1 - q^21) is 3 at q = 2: before, 3^3 gave depth 3 marked
    # capped in `scan` and printed as if exact by `report`
    code, out, err = run_cli(capsys, "--no-cache", "scan", "--k", "22", "--p", "3",
                             "--sigma", "3")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["s_max"] == 6
    assert [(r["depth"], r["capped"]) for r in payload["records"]] == [(3, False)]
    assert payload["records"][0]["eigenvalues"]["2"] == "441"


def test_criterion_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "criterion",
                           "--p", "37", "--k", "32", "--sigma", "31,37",
                           "--records", fixture_path("example37.json"),
                           "--assume-nontrivial-extension")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "non-principal"
    assert payload["depth_sum_over_e"] == "19"
    assert payload["valp_congruence_module"] == "2"


def test_report_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "report",
                           "--p", "691", "--k", "12", "--sigma", "691",
                           "--prec", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["criterion"]["verdict"] == "inconclusive"
    assert payload["eta"]["valuation"] == 1


def test_example37_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "example37",
                           "--prec", "25")
    assert code == 0
    payload = json.loads(out)
    assert payload["criterion"]["verdict"] == "non-principal"
    assert payload["eta"]["valuation"] == 2


def test_exit_codes(tmp_path, capsys):
    # unknown subcommand -> usage, exit 1
    code, _, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "nope")
    assert code == 1
    # missing subcommand -> exit 1, the usage on stderr and nothing on stdout
    code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.endswith("error: the following arguments are required: COMMAND\n")
    # parameter error -> 1
    code, _, err = run_cli(capsys, "--cache-dir", str(tmp_path), "eta",
                           "--psi", "trivial", "--k", "32", "--sigma", "31",
                           "--p", "37")
    assert code == 1
    assert "parameter" in err
    # computation error (no recorded prime outside Sigma) -> 2
    code, _, err = run_cli(capsys, "--no-cache", "scan", "--k", "12", "--p", "691",
                           "--sigma", "2,3,5,7,11,13,691")
    assert code == 2
    assert "computation" in err


def test_determinism_and_cache_transparency(tmp_path, capsys):
    args = ("eta", "--psi", "trivial", "--k", "32", "--sigma", "31,37", "--p", "37")
    _, cold, _ = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
    _, warm, _ = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
    _, nocache, _ = run_cli(capsys, "--no-cache", *args)
    assert cold == warm == nocache
    # cache entries exist
    cache = Cache(str(tmp_path))
    names = [n for n, _ in cache.entries()]
    assert names


def test_verify_cache(tmp_path, capsys):
    # each entry is parsed again and rendered as main printed it, pretty too
    for args in (("bernoulli", "--n", "12"), ("--pretty", "bernoulli", "--n", "12"),
                 ("eta", "--psi", "trivial", "--k", "32", "--sigma", "31,37",
                  "--p", "37"),
                 ("chars", "--f", "12")):
        run_cli(capsys, "--cache-dir", str(tmp_path), *args)
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["checked"] == 4 and not payload["mismatches"]
    assert payload["unverifiable"] == []


def write_entry(path, key, description, text):
    """A schema-4 cache entry: the key, the description line, the stdout text."""
    with open(path, "wb") as fh:
        fh.write(f"{key}\n{description}\n{text}".encode("utf-8"))


def test_verify_cache_detects_tampering(tmp_path, capsys):
    args = ("--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    run_cli(capsys, *args)
    cache = Cache(str(tmp_path))
    (name, (key, description, text)), = list(cache.entries())
    write_entry(os.path.join(cache.root, name), key, json.dumps(description),
                text.replace("-691/2730", "0"))
    assert run_cli(capsys, *args)[1] == '{"n":12,"value":"0"}\n'   # a hit prints what is stored
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    payload = json.loads(out)
    assert not payload["ok"] and payload["mismatches"] == [{"file": name, "key": key}]


def test_pretty_output(tmp_path, capsys):
    _, compact, _ = run_cli(capsys, "--cache-dir", str(tmp_path),
                            "bernoulli", "--n", "12")
    _, pretty, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "--pretty",
                           "bernoulli", "--n", "12")
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact
    # a --pretty hit prints the bytes of a --pretty miss
    args = ("eta", "--psi", "trivial", "--k", "32", "--sigma", "31,37", "--p", "37")
    _, miss, _ = run_cli(capsys, "--no-cache", "--pretty", *args)
    _, cold, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "--pretty", *args)
    _, warm, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "--pretty", *args)
    assert cold == warm == miss and miss.count("\n") > 10


def test_criterion_without_assertion_is_inconclusive(capsys):
    # dim H^1_Sigma(Q, chi) <= 1 from the Selmer bound allows dimension 0
    code, out, _ = run_cli(capsys, "--no-cache", "criterion", "--p", "37", "--k", "32",
                           "--sigma", "31,37", "--records", fixture_path("example37.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["hypothesis_source"] == "selmer-upper-only"
    assert payload["verdict"] == "inconclusive"
    assert payload["conclusion"] == "dim H^1_Sigma(Q, chi) = 1 is not established"


def test_records_must_match_the_command_parameters(capsys):
    records = fixture_path("example37.json")   # p = 37, weight 32
    for command in (("criterion",), ("report", "--prec", "10")):
        code, out, err = run_cli(capsys, "--no-cache", *command, "--p", "37", "--k", "12",
                                 "--sigma", "31,37", "--records", records)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "parameter"
        assert "k = 12" in json.loads(err)["message"]


def test_verify_cache_lists_foreign_entries_as_unverifiable(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "bernoulli", "--n", "12"]
    run_cli(capsys, *argv)
    cache = Cache(str(tmp_path))
    (_, (key, description, text)), = list(cache.entries())
    schema_2 = {"key": key, "version": 2, "command": "bernoulli", "params": {"n": 12},
                "payload": json.loads(text)}

    def typed(other):
        """An entry for the command line other, keyed as main keys it."""
        return Cache.key_text(other), dict(description, argv=other)

    foreign = {
        "a-no-argv.entry": (key, {"version": 4}),
        "b-schema-3.entry": (key, dict(description, version=3)),
        "c-argv-of-numbers.entry": (key, dict(description, argv=[*argv[:-1], 12])),
        "d-argv-not-a-list.entry": (key, dict(description, argv=" ".join(argv))),
        "e-rejected.entry": typed(["bernoulli", "--n", "x"]),
        "f-help.entry": typed(["bernoulli", "-h"]),
        "g-uncached.entry": typed(["report", "--p", "13", "--k", "10", "--sigma", "13"]),
        "h-verify-cache.entry": typed(["verify-cache"]),
        "i-other-key.entry": (Cache.key_text([*argv[:-1], "13"]), description),
        "j-not-json.entry": (key, None),
    }
    for name, (line1, line2) in foreign.items():
        write_entry(os.path.join(cache.root, name), line1,
                    "{not json" if line2 is None else json.dumps(line2), text)
    with open(os.path.join(cache.root, "k-schema-2-json.entry"), "w") as fh:
        json.dump(schema_2, fh)
    code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert (code, err) == (0, "")
    payload = json.loads(out)      # the parser's help and usage text were discarded
    assert payload["checked"] == 1 and payload["ok"]
    assert payload["unverifiable"] == sorted(foreign) + ["k-schema-2-json.entry"]


def test_verify_cache_reports_an_entry_whose_recompute_raises(tmp_path, capsys):
    run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    cache = Cache(str(tmp_path))
    (_, (_, description, text)), = list(cache.entries())
    argv = ["bernoulli", "--n", "-1"]
    key = Cache.key_text(argv)
    write_entry(os.path.join(cache.root, "0-negative-index.entry"), key,
                json.dumps(dict(description, argv=argv)), text)
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 2 and not payload["ok"] and payload["unverifiable"] == []
    assert payload["mismatches"] == [{"file": "0-negative-index.entry", "key": key,
                                      "error": "Bernoulli index must be non-negative"}]


def test_two_spellings_are_two_entries_with_equal_bytes(tmp_path, capsys):
    # the key is the command line as typed: each spelling is its own entry,
    # stored by its first run and served to its second
    cache = str(tmp_path)
    spellings = [
        (["--cache-dir", cache, "bernoulli", "--n", "12"],
         [f"--cache-dir={cache}", "bernoulli", "--n=12"],
         ["--cache-dir", cache, "bernoulli", "--n", "5", "--n", "12"]),
        (["--cache-dir", cache, "eta", "--p", "37", "--k", "32", "--sigma", "31,37"],
         ["--cache-dir", cache, "eta", "--sigma", "31,37", "--k", "32", "--p", "37",
          "--psi", "trivial"]),
    ]
    entries = 0
    for lines in spellings:
        outputs = set()
        for argv in lines:
            for _ in range(2):
                code, out, err = run_cli(capsys, *argv)
                assert (code, err) == (0, ""), argv
                outputs.add(out)
            entries += 1
            assert len(list(Cache(cache).entries())) == entries, argv
            assert Cache(cache).get(argv) == out, argv
        assert len(outputs) == 1, lines


def test_a_value_holding_a_newline_is_served_as_a_hit(tmp_path, monkeypatch, capsys):
    import eiscong.cli as cli
    argv = ["--cache-dir", str(tmp_path), "bernoulli", "--n", "12\n"]
    _, expected, _ = run_cli(capsys, "--no-cache", "bernoulli", "--n", "12")
    assert run_cli(capsys, *argv) == (0, expected, "")
    (name, (key, description, text)), = list(Cache(str(tmp_path)).entries())
    assert "\n" not in key and description["argv"] == argv and text == expected
    monkeypatch.setattr(cli, "_parse_args", None)   # a hit parses nothing
    monkeypatch.setattr(cli, "run_cached", None)    # and computes nothing
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_negative_eisenstein_precision_is_a_parameter_error(capsys):
    code, out, err = run_cli(capsys, "--no-cache", "eisenstein", "--l", "4", "--prec", "-5")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "parameter", "message": "precision P = -5 must be >= 0"}


def test_sigma_entries_must_be_primes(capsys):
    for entry in ("1", "0"):
        code, out, err = run_cli(capsys, "--no-cache", "eta", "--k", "32", "--sigma",
                                 f"{entry},37", "--p", "37")
        assert (code, out) == (1, ""), entry
        assert json.loads(err) == {"error": "parameter",
                                   "message": f"--sigma entries must be primes, got [{entry}]"}


def test_sigma_must_list_integers(capsys):
    for text, message in (("x", "bad --sigma value 'x'"),
                          (",", "--sigma must list at least one prime")):
        code, out, err = run_cli(capsys, "--no-cache", "eta", "--k", "32", "--sigma", text,
                                 "--p", "37")
        assert (code, out) == (1, ""), text
        assert json.loads(err) == {"error": "parameter", "message": message}


def test_build_h_precision_must_reach_the_unit_coefficient(capsys):
    # before: exit 1 with "coefficient index 1 beyond precision 0"
    code, out, err = run_cli(capsys, "--no-cache", "build-h", "--p", "37", "--k", "32",
                             "--ell", "31", "--sigma", "31,37", "--prec", "0")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "parameter",
        "message": "precision 0 is below ell^(m-1) = 1, the index of the unit coefficient of H"}


def test_report_without_cusp_forms_is_inconclusive(capsys):
    # dim S_10 = 0: the scan has no records, and no external ones are given
    code, out, _ = run_cli(capsys, "--no-cache", "report", "--p", "13", "--k", "10",
                           "--sigma", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["depths"]["level1_scan"]["records"] == []
    assert payload["criterion"]["verdict"] == "inconclusive"
    assert payload["criterion"]["conclusion"] == "no eigensystem records available"


def test_a_report_without_a_congruence_certifies_no_extension(capsys):
    # dim S_10 = 0, so no level-1 record has depth >= 1 to certify a nontrivial
    # extension, and the Selmer bound 1 alone does not give dim H^1 = 1
    code, out, _ = run_cli(capsys, "--no-cache", "report", "--p", "13", "--k", "10",
                           "--sigma", "13")
    assert code == 0
    assert json.loads(out)["criterion"]["hypothesis"] == {
        "dim_chi_upper_bound": 1, "nontrivial_extension_certificate": None,
        "dim_chi_equals_1": False}


def test_scan_weight_must_be_even_and_non_negative(capsys):
    for k in ("11", "13", "-4"):
        code, out, err = run_cli(capsys, "--no-cache", "scan", "--k", k, "--p", "37",
                                 "--sigma", "37")
        assert (code, out) == (1, ""), k
        assert json.loads(err) == {"error": "parameter",
                                   "message": f"weight k = {k} must be even and >= 0"}


def _assert_m_max_rejected(capsys, *command):
    code, out, err = run_cli(capsys, "--no-cache", *command, "--p", "37", "--k", "32")
    assert (code, out) == (1, ""), command
    assert json.loads(err) == {
        "error": "parameter",
        "message": f"conductor exponent bound m_max = {command[-1]} must be >= 1"}


def test_aux_char_mmax_below_one_is_a_parameter_error(capsys):
    # before: an empty search printed "context_conductor": 0 with exit 0
    for mmax in ("0", "-1"):
        _assert_m_max_rejected(capsys, "aux-char", "--ell", "101", "--mmax", mmax)


def test_report_mmax_below_one_is_a_parameter_error(capsys):
    # before: the report carried the empty search's certificate, exit 0
    _assert_m_max_rejected(capsys, "report", "--sigma", "37,101", "--mmax", "0")


def test_report_checks_mmax_without_an_auxiliary_prime(capsys):
    # before: with no auxiliary prime in Sigma the search was skipped, exit 0
    for mmax in ("0", "-3"):
        _assert_m_max_rejected(capsys, "report", "--sigma", "37", "--mmax", mmax)


def test_build_h_m_below_one_is_a_parameter_error(capsys):
    # before: exit 2 with a "computation" error about a search that never ran
    _assert_m_max_rejected(capsys, "build-h", "--ell", "101", "--sigma", "37,101", "--mmax", "0")


def test_build_h_builds_f_at_the_exponent_of_the_conductor_found(capsys):
    # before: phi of conductor 19 (m = 1) with F built at m = 2, so F and G had
    # constant terms on different cusps and the report said cusps_vanish: false
    code, out, _ = run_cli(capsys, "--no-cache", "build-h", "--p", "37", "--k", "32",
                           "--ell", "19", "--mmax", "2", "--sigma", "19,37", "--prec", "30")
    payload = json.loads(out)
    assert code == 0 and payload["aux_char"]["conductor"] == 19
    report = payload["report"]
    assert (report["m"], report["cusp_count"], report["cusps_vanish"]) == (1, 2, True)
    assert report["passed"] is True


def test_report_skips_2_when_choosing_the_auxiliary_prime(capsys):
    # before: ell = 2 was taken from Sigma and the search refused it, exit 1
    code, out, err = run_cli(capsys, "--no-cache", "report", "--p", "37", "--k", "32",
                             "--sigma", "2,31,37")
    assert (code, err) == (0, "")
    assert json.loads(out)["aux_char"]["conductor"] == 31


def test_criterion_rejects_a_depth_no_residual_checks(tmp_path, capsys):
    # before: both records gave verdict non-principal
    path = tmp_path / "rec.json"
    for level, eigenvalues, depth in ((1, {"2": str(1 + 2 ** 31)}, 7), (31, {"31": "5"}, 9)):
        path.write_text(json.dumps([{"weight": 32, "level": level, "p": 37,
                                     "prime_label": "X", "eigenvalues": eigenvalues,
                                     "depth": depth}]))
        code, out, err = run_cli(capsys, "--no-cache", "criterion", "--p", "37", "--k", "32",
                                 "--sigma", "37", "--records", str(path),
                                 "--assume-nontrivial-extension")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "parameter"
        assert "inconsistent" in json.loads(err)["message"]


def test_cut_and_retired_flag_names_are_unrecognized(capsys):
    # before: a flag cut to a unique prefix parsed, so `--s 37` read as
    # `--sigma 37` (exit 0), and `report --psi` and `selmer --fres` fed a
    # character or residue degree into bounds that hold for psi = 1 only; and
    # `--smax` capped the depths that scans now read exactly
    records = fixture_path("example37.json")
    build_h = ("build-h", "--p", "37", "--k", "32", "--ell", "19", "--sigma", "19,37",
               "--prec", "30")
    for argv in (("eta", "--p", "37", "--k", "32", "--s", "37"),
                 ("example37", "--s", "1"),
                 ("criterion", "--p", "37", "--k", "32", "--sigma", "31,37",
                  "--records", records, "--s", "1"),
                 (*build_h, "--m", "2"),
                 ("report", "--p", "37", "--k", "32", "--sigma", "31,37",
                  "--records", records, "--psi", "11:[2]"),
                 ("selmer", "--p", "37", "--k", "32", "--sigma", "31,37", "--fres", "2"),
                 ("selmer", "--p", "37", "--k", "32", "--sigma", "31,37", "--fres", "0"),
                 ("scan", "--k", "12", "--p", "691", "--sigma", "691", "--smax", "3"),
                 ("report", "--p", "691", "--k", "12", "--sigma", "691", "--smax", "3"),
                 ("example37", "--smax", "3")):
        code, out, err = run_cli(capsys, "--no-cache", *argv)
        assert (code, out) == (1, ""), argv
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"), argv
    code, out, err = run_cli(capsys, "--no-c", "bernoulli", "--n", "3")
    assert (code, out) == (1, "")
    assert err.endswith("error: unrecognized arguments: --no-c\n")


def test_no_verdict_on_an_eta_that_is_not_p_integral(tmp_path, capsys):
    # (p - 1) | k gives val_p(eta) = -1, and before, depth sums of 0 and 3
    # "exceeded" it: each command printed non-principal, and selmer printed
    # lower_bound_1mk = -1
    records = {}
    for p, k in ((13, 12), (3, 22)):
        _, out, _ = run_cli(capsys, "--no-cache", "scan", "--k", str(k), "--p", str(p),
                            "--sigma", str(p))
        records[p] = tmp_path / f"rec{p}.json"
        records[p].write_text(json.dumps(json.loads(out)["records"]))
    criterion13 = ("criterion", "--p", "13", "--k", "12", "--sigma", "13",
                   "--records", str(records[13]), "--assume-nontrivial-extension")
    for argv, message in (
            (criterion13, "need even k with 2 <= k <= p-3"),
            ((*criterion13, "--dim-chi-upper", "1"), "val_p(eta) = -1 < 0"),
            (("criterion", "--p", "3", "--k", "22", "--sigma", "3", "--records",
              str(records[3]), "--dim-chi-upper", "1"), "val_p(eta) = -1 < 0"),
            (("report", "--p", "13", "--k", "12", "--sigma", "13", "--prec", "5",
              "--assume-nontrivial-extension"), "need even k with 2 <= k <= p-3"),
            (("selmer", "--p", "13", "--k", "12", "--sigma", "13"),
             "need even k with 2 <= k <= p-3")):
        code, out, err = run_cli(capsys, "--no-cache", *argv)
        assert (code, out) == (1, ""), argv
        assert json.loads(err)["error"] == "parameter", argv
        assert message in json.loads(err)["message"], argv


def test_criterion_reads_integers_not_truncations(tmp_path, capsys):
    # before, int() truncated each value and the verdict was non-principal
    data = json.loads(Path(fixture_path("example37.json")).read_text(encoding="utf-8"))
    for rec, (field, value) in zip(data["records"], (("depth", 1.9), ("weight", 32.5),
                                                     ("level", 31.7), ("p", 37.2),
                                                     ("depth", True))):
        rec[field] = value
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "--no-cache", "criterion", "--p", "37", "--k", "32",
                             "--sigma", "31,37", "--records", str(path),
                             "--assume-nontrivial-extension")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "parameter"
    assert json.loads(err)["message"].endswith("record 0: depth 1.9 is not an integer")


def readme_command_lines():
    """The `eiscong ...` lines of README's "Command line" block, continuations
    joined, with each path resolved against the repository root."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        assert words[0] == "eiscong", line
        yield [str(root / w) if (root / w).is_file() else w for w in words[1:]]


def test_readme_command_lines_run(capsys):
    lines = list(readme_command_lines())
    assert len(lines) == 13
    for argv in lines:
        code, _, err = run_cli(capsys, "--no-cache", *argv)
        assert (code, err) == (0, ""), argv


def test_ell_outside_sigma_is_a_parameter_error(capsys):
    # before, build-h exited 0 with an eta missing the factor 1 - psi(31) 31^32
    for command, sigma in ((("build-h", "--ell", "31"), "[37]"),
                           (("report", "--ell", "19"), "[31, 37]")):
        code, out, err = run_cli(capsys, "--no-cache", *command, "--p", "37", "--k", "32",
                                 "--sigma", sigma[1:-1].replace(" ", ""), "--prec", "5")
        assert (code, out) == (1, ""), command
        assert json.loads(err) == {
            "error": "parameter",
            "message": f"ell = {command[-1]} must belong to Sigma = {sigma}"}


def test_criterion_checks_its_bound_and_takes_no_field_flags(capsys):
    args = ("criterion", "--p", "37", "--k", "32", "--sigma", "31,37",
            "--records", fixture_path("example37.json"))
    code, out, err = run_cli(capsys, "--no-cache", *args, "--dim-chi-upper", "-3")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "parameter",
                               "message": "dimension bound dim_chi_upper = -3 must be >= 0"}
    # the records fix psi, and the criterion has no e or f_res, so none is a flag
    for flag, value in (("--psi", "11:[2]"), ("--fres", "4"), ("--e", "2")):
        code, out, err = run_cli(capsys, "--no-cache", *args, flag, value)
        assert (code, out) == (1, ""), flag
        assert f"unrecognized arguments: {flag} {value}" in err


def test_criterion_and_example37_reach_the_same_verdict(capsys):
    # one verdict layer: the criterion command and the full report agree
    _, out, _ = run_cli(capsys, "--no-cache", "criterion", "--p", "37", "--k", "32",
                        "--sigma", "31,37", "--records", fixture_path("example37.json"),
                        "--assume-nontrivial-extension")
    criterion = json.loads(out)
    _, out, _ = run_cli(capsys, "--no-cache", "example37", "--prec", "10")
    report = json.loads(out)
    keys = ("depths", "depth_sum_over_e", "valp_congruence_module", "verdict", "conclusion")
    assert criterion["eta"] == report["eta"] == report["criterion"]["eta"]
    assert {k: criterion[k] for k in keys} == {k: report["criterion"][k] for k in keys}
    assert criterion["verdict"] == "non-principal"


def test_corrupt_cache_entries_are_misses(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "bernoulli", "--n", "12"]
    _, expected, _ = run_cli(capsys, "--no-cache", *argv[2:])
    cache = Cache(str(tmp_path))
    key = Cache.key_text(argv)
    head = f'{key}\n{{"version":4,"argv":{json.dumps(argv)}}}\n'.encode()
    schema_2 = {"key": key, "version": 2, "command": "bernoulli", "params": {"n": 12},
                "payload": json.loads(expected)}
    os.makedirs(cache.root)
    for content in (b"", key.encode(), head,                       # truncated
                    head + expected.encode()[:-1],                   # truncated stdout
                    head + expected.encode().replace(b"-691", b"\xff691"),   # not UTF-8
                    b"\x80" + head[1:] + expected.encode(),         # key not UTF-8
                    head.replace(b"'12'", b"'13'", 1) + expected.encode(),  # another key
                    json.dumps(schema_2).encode()):                 # schema 2
        with open(cache._path(key), "wb") as fh:
            fh.write(content)
        assert cache.get(argv) is None
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, expected, ""), content
    assert cache.get(argv) == expected


def test_verify_cache_lists_corrupt_entries_as_unverifiable(tmp_path, capsys):
    run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    cache = Cache(str(tmp_path))
    (name, _), = list(cache.entries())
    with open(os.path.join(cache.root, name), "rb") as fh:
        entry = fh.read()
    key, _, text = entry.split(b"\n", 2)
    corrupt = {"a-array.entry": b"[]", "b-number.entry": b"7",
               "c-not-utf8.entry": b"\xff\xfe{}\n{}\n{}\n",
               "d-truncated.entry": entry[:-1],
               "e-description-not-an-object.entry": key + b"\n[]\n" + text}
    for corrupt_name, content in corrupt.items():
        with open(os.path.join(cache.root, corrupt_name), "wb") as fh:
            fh.write(content)
    assert [entry for name, entry in cache.entries() if name in corrupt] == [None] * 5
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 1 and payload["ok"]
    assert payload["unverifiable"] == sorted(corrupt)


def test_unwritable_cache_dir_still_prints_the_result(tmp_path, capsys):
    args = ("eta", "--psi", "trivial", "--k", "32", "--sigma", "31,37", "--p", "37")
    _, expected, _ = run_cli(capsys, "--no-cache", *args)
    not_a_dir = tmp_path / "cache-file"
    not_a_dir.write_text("")
    code, out, err = run_cli(capsys, "--cache-dir", str(not_a_dir), *args)
    assert (code, out) == (0, expected)
    (line,) = err.splitlines()
    warning = json.loads(line)
    assert warning["warning"] == "cache"
    assert warning["message"].startswith("entry not stored: ")
    assert not_a_dir.read_text() == ""


def test_entries_from_other_code_are_not_served(tmp_path, monkeypatch, capsys):
    import eiscong
    import eiscong.cli as cli
    argv = ["--cache-dir", str(tmp_path), "bernoulli", "--n", "12"]
    key = Cache.key_text(argv)
    assert key == f"{eiscong.__version__}|{cli._code_digest()}|{argv!r}"
    monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
    run_cli(capsys, *argv)
    cache = Cache(str(tmp_path))
    (name, (other, description, text)), = list(cache.entries())
    assert other != key
    write_entry(os.path.join(cache.root, name), other, json.dumps(description),
                text.replace("-691/2730", "0"))
    assert json.loads(run_cli(capsys, *argv)[1])["value"] == "0"
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["value"] == "-691/2730"
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert json.loads(out) == {"checked": 1, "mismatches": [], "unverifiable": [name],
                               "ok": True}


def test_an_edited_fixture_is_a_cache_miss(tmp_path):
    # before: the key hashed only the *.py sources, so example37 served the
    # stdout of the records it read before the fixture was edited
    import shutil
    import subprocess
    import sys
    import eiscong
    package = tmp_path / "src" / "eiscong"
    shutil.copytree(os.path.dirname(eiscong.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))

    def example37(*options):
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from eiscong.cli import main; sys.exit(main())",
             *options, "example37", "--prec", "10"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1"))
        return run.stdout

    cache = ("--cache-dir", str(tmp_path / "cache"))
    before = example37(*cache)
    fixture = package / "fixtures" / "example37.json"
    data = json.loads(fixture.read_text(encoding="utf-8"))
    data["records"] = data["records"][1:]
    fixture.write_text(json.dumps(data), encoding="utf-8")
    after = example37("--no-cache")
    assert after != before
    assert example37(*cache) == after


# ---------------------------------------------------------------------------
# the parser built from COMMANDS against a plain argparse parser
# ---------------------------------------------------------------------------

def reference_parser():
    """A plain argparse parser built from COMMANDS, with abbreviations off,
    since a flag is named by its exact name only.  Unlike the CLI's parser,
    it declares required flags with required=True and exits 2 on a
    rejection."""
    import argparse
    from eiscong.cli import COMMANDS
    ap = argparse.ArgumentParser(prog="eiscong", allow_abbrev=False)
    ap.add_argument("--cache-dir", default="./.eiscache")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--pretty", action="store_true")
    sub = ap.add_subparsers(dest="command")
    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec.help, allow_abbrev=False)
        for flag in spec.flags:
            if flag.type is bool:
                sp.add_argument("--" + flag.name, action="store_true")
            else:
                sp.add_argument("--" + flag.name, type=flag.type, default=flag.default,
                                required=flag.required, choices=flag.choices)
    return ap


def parse_quietly(parse, argv):
    """parse(argv), or the SystemExit code when it stops, with the output of
    both kept off the test's stdout and stderr."""
    import contextlib
    import io
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return parse(argv)
    except SystemExit as exc:
        return exc.code


def parse_both(reference, argv):
    """What each parser makes of argv: (options, command, params), or the
    exit code when it stops (0 for help, 1 for a rejection)."""
    from eiscong.cli import COMMANDS, _parse_args
    args = parse_quietly(reference.parse_args, argv)
    if isinstance(args, int):
        expected = 0 if args == 0 else 1
    elif args.command is None:
        expected = 1
    else:
        expected = ({"cache_dir": args.cache_dir, "no_cache": args.no_cache,
                     "pretty": args.pretty}, args.command,
                    {f.dest: getattr(args, f.dest) for f in COMMANDS[args.command].flags})
    return parse_quietly(_parse_args, list(argv)), expected


def command_lines():
    """Every command with its required flags only and with each optional flag,
    written as `--flag value`, `--flag=value` and every prefix of the flag
    (each one but the whole name a rejection);
    repeated, negative, non-integer and out-of-choice values; unknown, missing
    and misplaced options; help."""
    from eiscong.cli import COMMANDS
    yield from ([], ["nope"], ["-h"], ["--help"], ["--he"], ["--cache-dir"], ["--bogus"],
                ["--", "bernoulli", "--n", "3"], ["bernoulli", "--n", "3", "--"],
                ["--bogus", "bernoulli", "-h"], ["bernoulli", "--n", "3", "extra"],
                ["--no-c", "--pre", "--cache=d", "bernoulli", "--n", "3"],
                ["--cache-dir=d", "--no-cache", "--no-cache", "bernoulli", "--n", "3"],
                ["--cache-dir", "--pretty", "bernoulli", "--n", "3"],
                ["--pretty=1", "bernoulli", "--n", "3"], ["--=x", "bernoulli", "--n", "3"],
                ["bernoulli", "--n", "3 "],
                ["bernoulli", "--n", " -3"], ["bernoulli", "--n", "-3\n"],
                ["bernoulli", "--n", "-.5"], ["bernoulli", "--n", "--n", "3"],
                ["bernoulli", "--n=", "3"], ["bernoulli", "--n=-3"])
    for name, spec in COMMANDS.items():
        def value(flag, other=False):
            if flag.choices:
                return str(flag.choices[other])
            return ("7" if other else "5") if flag.type is int else ("y" if other else "x")

        required = [a for f in spec.flags if f.required for a in ("--" + f.name, value(f))]
        yield [name, *required]
        yield [name, "-h", *required]
        yield [name, *required, "--bogus", "1"]
        for top in ("--pretty", "--no-cache", "--cache-dir=d"):
            yield [name, *required, top]
        for flag in spec.flags:
            option = "--" + flag.name
            if flag.required:
                yield [name, *[a for f in spec.flags if f.required and f is not flag
                               for a in ("--" + f.name, value(f))]]
            if flag.type is bool:
                yield [name, *required, option]
                yield [name, *required, option + "=1"]
                yield [name, *required, option, option]
                continue
            for cut in range(3, len(option) + 1):
                yield [name, *required, option[:cut], value(flag, True)]
                yield [name, *required, option[:cut] + "=" + value(flag, True)]
            yield [name, *required, option, value(flag), option, value(flag, True)]
            yield [name, *required, option]
            yield [name, option, value(flag, True), *required]
            for bad in ("-3", "-1", "2", "x", "1.5", "", "-x", "1_0"):
                yield [name, *required, option, bad]
                yield [name, *required, option + "=" + bad]


def test_parser_matches_the_argparse_reference(capsys):
    reference = reference_parser()
    lines = list(command_lines())
    assert len(lines) > 800
    accepted = 0
    for argv in lines:
        got, expected = parse_both(reference, argv)
        assert got == expected, argv
        accepted += isinstance(got, tuple)
    assert 300 < accepted < len(lines) - 300
    # -h followed by more characters: argparse rejects it up to Python 3.12
    # and prints help from 3.13
    import sys
    code, out, err = run_cli(capsys, "-hx", "bernoulli", "--n", "3")
    if sys.version_info < (3, 13):
        assert (code, out) == (1, "")
        assert err.endswith("error: argument -h/--help: ignored explicit argument 'x'\n")
    else:
        assert (code, err) == (0, "") and out.startswith("usage: eiscong [-h] ")


def test_the_cache_directory_rule_agrees_with_the_parser(monkeypatch):
    # main reads an entry's directory off the tokens before the command,
    # without argparse; where it names one, argparse reads the same one and
    # caches the command, and where it names none, argparse does not cache
    # or the line puts `--` before its command
    import functools
    import eiscong.cli as cli
    from eiscong.cli import COMMANDS, _cache_dir, _parse_args
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))   # built once
    checked = 0
    for line in command_lines():
        for prefix in ([], ["--cache-dir", "d"], ["--pretty", "--cache-dir=e", "--pretty"]):
            argv = prefix + line
            parsed = parse_quietly(_parse_args, argv)
            if isinstance(parsed, int):
                continue
            options, command, _ = parsed
            caches = COMMANDS[command].cached and not options["no_cache"]
            root = _cache_dir(argv)
            if root is not None or not caches:
                assert root == (options["cache_dir"] if caches else None), argv
            else:
                assert "--" in argv[:argv.index(command)], argv
            checked += caches
    assert checked > 500


def test_usage_lines_show_required_flags_without_brackets(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")    # one usage line, unwrapped
    usage = ("usage: eiscong build-h [-h] --p P --k K [--psi PSI] --ell ELL [--mmax MMAX] "
             "--sigma SIGMA [--prec PREC]\n")
    code, out, err = run_cli(capsys, "build-h", "-h")
    assert (code, err) == (0, "") and out.startswith(usage)
    assert "\n  --sigma SIGMA  required\n" in out
    # a rejected line: the unknown flag first, then the missing required ones
    code, out, err = run_cli(capsys, "--no-cache", "build-h", "--p", "37", "--bogus", "1")
    assert (code, out) == (1, "")
    assert err.endswith("error: unrecognized arguments: --bogus 1\n")
    code, out, err = run_cli(capsys, "--no-cache", "build-h", "--p", "37")
    assert (code, out) == (1, "")
    assert err == usage + ("eiscong build-h: error: the following arguments are required: "
                           "--k, --ell, --sigma\n")


def test_help_lists_every_command_and_flag(monkeypatch, capsys):
    from eiscong.cli import COMMANDS
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps help to the terminal width
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: eiscong [-h] ")
    commands = out.split("\n  COMMAND\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert [line.split()[0] for line in commands] == list(COMMANDS)
    for name, spec in COMMANDS.items():
        code, out, err = run_cli(capsys, name, "-h")
        assert (code, err) == (0, "") and out.startswith(f"usage: eiscong {name} [-h]")
        assert all(f"\n  --{flag.name}" in out for flag in spec.flags), name
