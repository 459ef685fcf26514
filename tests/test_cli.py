"""CLI behavior: output shapes, exit codes, determinism, cache transparency."""

import json
import os

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


def test_eisenstein_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "eisenstein",
                           "--l", "12", "--phi", "trivial", "--prec", "6")
    payload = json.loads(out)
    assert payload["coefficients"][0] == "691/65520"
    assert payload["coefficients"][2] == "2049"
    assert payload["weight"] == 12 and payload["level"] == 1


def test_scan_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "scan",
                           "--k", "12", "--p", "691", "--sigma", "691",
                           "--smax", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 1
    assert payload["records"][0]["depth"] == 1


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
    # missing subcommand -> exit 1
    code, _, _ = run_cli(capsys, "--cache-dir", str(tmp_path))
    assert code == 1
    # parameter error -> 1
    code, _, err = run_cli(capsys, "--cache-dir", str(tmp_path), "eta",
                           "--psi", "trivial", "--k", "32", "--sigma", "31",
                           "--p", "37")
    assert code == 1
    assert "parameter" in err
    # computation error (indeterminate valuation) -> 2
    code, _, err = run_cli(capsys, "--no-cache", "eta", "--psi", "trivial",
                           "--k", "32", "--sigma", "31,37", "--p", "37",
                           "--s", "1")
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
    for args in (("bernoulli", "--n", "12"),
                 ("eta", "--psi", "trivial", "--k", "32", "--sigma", "31,37",
                  "--p", "37"),
                 ("chars", "--f", "12")):
        run_cli(capsys, "--cache-dir", str(tmp_path), *args)
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["checked"] == 3 and not payload["mismatches"]


def test_verify_cache_detects_tampering(tmp_path, capsys):
    run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    cache = Cache(str(tmp_path))
    (name, entry), = list(cache.entries())
    entry["payload"]["value"] = "0"
    with open(os.path.join(cache.root, name), "w") as fh:
        json.dump(entry, fh)
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    payload = json.loads(out)
    assert not payload["ok"] and len(payload["mismatches"]) == 1


def test_pretty_output(tmp_path, capsys):
    _, compact, _ = run_cli(capsys, "--cache-dir", str(tmp_path),
                            "bernoulli", "--n", "12")
    _, pretty, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "--pretty",
                           "bernoulli", "--n", "12")
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty and "\n  " not in compact


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
    run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    cache = Cache(str(tmp_path))
    (_, entry), = list(cache.entries())
    chars_v1 = {"key": "chars|conductor=|f=12|parity=", "version": 1, "command": "chars",
                "params": {"f": "12", "parity": "", "conductor": ""}, "payload": {}}
    foreign = {
        "a-no-params.json": dict(entry, params={}),
        "b-chars-v1.json": chars_v1,
        "c-chars-text-params.json": dict(chars_v1, version=entry["version"]),
        "d-wrong-type.json": dict(entry, params={"n": "12"}),
        "e-extra-flag.json": dict(entry, params={"n": 12, "seed": 0}),
        "f-uncached.json": dict(entry, command="report"),
        "g-not-json.json": None,
    }
    for name, content in foreign.items():
        with open(os.path.join(cache.root, name), "w") as fh:
            fh.write("{not json" if content is None else json.dumps(content))
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 1 and payload["ok"]
    assert payload["unverifiable"] == sorted(foreign)


def test_verify_cache_reports_an_entry_whose_recompute_raises(tmp_path, capsys):
    run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    cache = Cache(str(tmp_path))
    (name, entry), = list(cache.entries())
    params = {"n": -1}
    bad = dict(entry, params=params, key=Cache.key_text("bernoulli", params))
    with open(os.path.join(cache.root, "0-negative-index.json"), "w") as fh:
        json.dump(bad, fh)
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 2 and not payload["ok"] and payload["unverifiable"] == []
    assert payload["mismatches"] == [{"file": "0-negative-index.json", "key": bad["key"],
                                      "error": "Bernoulli index must be non-negative"}]


def test_every_declared_flag_changes_the_cache_key(monkeypatch, capsys):
    import eiscong.cli as cli
    keys = []
    monkeypatch.setattr(cli, "run_cached", lambda command, params, cache:
                        keys.append(Cache.key_text(command, params)) or {})

    def other(flag):
        if flag.choices:
            return next(c for c in flag.choices if c != flag.default)
        if flag.type is int:
            return 6 if flag.default is None else flag.default + 1
        return "y"

    for name, spec in cli.COMMANDS.items():
        if not spec.cached:
            continue
        base = {f.name: 5 if f.type is int else "x" for f in spec.flags if f.required}
        variants = [base] + [base | {f.name: other(f)} for f in spec.flags]
        seen = []
        for values in variants:
            argv = [a for n, v in values.items() for a in ("--" + n, str(v))]
            assert main(["--no-cache", name, *argv]) == 0
            seen.append(keys[-1])
        assert len(set(seen)) == len(seen) == len(spec.flags) + 1, name
    capsys.readouterr()


def test_scan_precision_below_one_is_a_parameter_error(capsys):
    for command in (("scan", "--k", "12", "--p", "691", "--sigma", "691", "--smax", "0"),
                    ("scan", "--k", "12", "--p", "691", "--sigma", "691", "--smax", "-2"),
                    ("example37", "--smax", "0", "--prec", "10")):
        code, out, err = run_cli(capsys, "--no-cache", *command)
        assert (code, out) == (1, ""), command
        assert json.loads(err)["error"] == "parameter"
        assert "must be >= 1" in json.loads(err)["message"]


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


def test_residue_field_degree_below_one_is_a_parameter_error(capsys):
    records = fixture_path("example37.json")
    for command in (("selmer", "--fres", "0"), ("selmer", "--fres", "-1"),
                    ("criterion", "--records", records, "--fres", "0")):
        code, out, err = run_cli(capsys, "--no-cache", *command, "--p", "37", "--k", "32",
                                 "--sigma", "31,37")
        assert (code, out) == (1, ""), command
        fres = command[-1]
        assert json.loads(err) == {
            "error": "parameter",
            "message": f"residue field degree f_res = {fres} must be >= 1"}


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
    _assert_m_max_rejected(capsys, "build-h", "--ell", "101", "--sigma", "37,101", "--m", "0")


def test_corrupt_cache_entries_are_misses(tmp_path, capsys):
    args = ("bernoulli", "--n", "12")
    _, expected, _ = run_cli(capsys, "--no-cache", *args)
    cache = Cache(str(tmp_path))
    path = cache._path(Cache.key_text("bernoulli", {"n": 12}))
    os.makedirs(cache.root)
    for content in (b"[]", b'{"key": "\xff\xfe"}', b"\x80not utf-8"):
        with open(path, "wb") as fh:
            fh.write(content)
        assert cache.get(Cache.key_text("bernoulli", {"n": 12})) is None
        code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
        assert (code, out, err) == (0, expected, ""), content
    assert cache.get(Cache.key_text("bernoulli", {"n": 12})) == json.loads(expected)


def test_verify_cache_lists_corrupt_entries_as_unverifiable(tmp_path, capsys):
    run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    cache = Cache(str(tmp_path))
    corrupt = {"a-array.json": b"[]", "b-number.json": b"7", "c-not-utf8.json": b"\xff\xfe{}"}
    for name, content in corrupt.items():
        with open(os.path.join(cache.root, name), "wb") as fh:
            fh.write(content)
    assert [entry for name, entry in cache.entries() if name in corrupt] == [None] * 3
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
    args = ("--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    key = Cache.key_text("bernoulli", {"n": 12})
    assert key.startswith(f"{eiscong.__version__}|{cli._code_digest()}|bernoulli|")
    monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
    run_cli(capsys, *args)
    cache = Cache(str(tmp_path))
    (name, entry), = list(cache.entries())
    assert entry["key"] != key
    entry["payload"]["value"] = "0"
    with open(os.path.join(cache.root, name), "w") as fh:
        json.dump(entry, fh)
    assert json.loads(run_cli(capsys, *args)[1])["value"] == "0"
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["value"] == "-691/2730"
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert json.loads(out) == {"checked": 1, "mismatches": [], "unverifiable": [name],
                               "ok": True}
