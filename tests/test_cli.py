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


def test_chars_conductor_must_be_positive_and_divide_the_modulus(capsys):
    # before: an empty list of characters with exit 0
    for conductor in ("0", "-3", "5"):
        code, out, err = run_cli(capsys, "--no-cache", "chars", "--f", "12",
                                 "--conductor", conductor)
        assert (code, out) == (1, ""), conductor
        assert json.loads(err) == {
            "error": "parameter",
            "message": f"conductor {conductor} must be >= 1 and divide the modulus 12"}


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


def write_entry(path, key, description, text):
    """A schema-3 cache entry: the key, the description line, the stdout text."""
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
    run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    cache = Cache(str(tmp_path))
    (_, (key, description, text)), = list(cache.entries())
    text_params = {"f": "12", "parity": "", "conductor": ""}
    schema_2 = {"key": key, "version": 2, "command": "bernoulli", "params": {"n": 12},
                "payload": json.loads(text)}
    foreign = {
        "a-no-params.entry": (key, dict(description, params={})),
        "b-schema-2.entry": (key, dict(description, version=2)),
        "c-chars-text-params.entry": (Cache.key_text("chars", text_params),
                                      dict(description, command="chars", params=text_params)),
        "d-wrong-type.entry": (key, dict(description, params={"n": "12"})),
        "e-extra-flag.entry": (key, dict(description, params={"n": 12, "seed": 0})),
        "f-uncached.entry": (key, dict(description, command="report")),
        "g-other-key.entry": (key.replace("|bernoulli|", "|chars|"), description),
        "h-not-json.entry": (key, None),
    }
    for name, (line1, line2) in foreign.items():
        write_entry(os.path.join(cache.root, name), line1,
                    "{not json" if line2 is None else json.dumps(line2), text)
    with open(os.path.join(cache.root, "i-schema-2-json.entry"), "w") as fh:
        json.dump(schema_2, fh)
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 1 and payload["ok"]
    assert payload["unverifiable"] == sorted(foreign) + ["i-schema-2-json.entry"]


def test_verify_cache_reports_an_entry_whose_recompute_raises(tmp_path, capsys):
    run_cli(capsys, "--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    cache = Cache(str(tmp_path))
    (_, (_, description, text)), = list(cache.entries())
    params = {"n": -1}
    key = Cache.key_text("bernoulli", params)
    write_entry(os.path.join(cache.root, "0-negative-index.entry"), key,
                json.dumps(dict(description, params=params)), text)
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 2 and not payload["ok"] and payload["unverifiable"] == []
    assert payload["mismatches"] == [{"file": "0-negative-index.entry", "key": key,
                                      "error": "Bernoulli index must be non-negative"}]


def test_every_declared_flag_changes_the_cache_key(monkeypatch, capsys):
    import eiscong.cli as cli
    keys = []
    monkeypatch.setattr(cli, "run_cached", lambda command, params, cache:
                        keys.append(Cache.key_text(command, params)) or "{}\n")

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
    key = Cache.key_text("bernoulli", {"n": 12})
    head = f'{key}\n{{"version":3,"command":"bernoulli","params":{{"n":12}}}}\n'.encode()
    schema_2 = {"key": key, "version": 2, "command": "bernoulli", "params": {"n": 12},
                "payload": json.loads(expected)}
    os.makedirs(cache.root)
    for content in (b"", key.encode(), head,                       # truncated
                    head + expected.encode()[:-1],                   # truncated stdout
                    head + expected.encode().replace(b"-691", b"\xff691"),   # not UTF-8
                    b"\x80" + head[1:] + expected.encode(),         # key not UTF-8
                    head.replace(b"n=12", b"n=13") + expected.encode(),  # another key
                    json.dumps(schema_2).encode()):                 # schema 2
        with open(cache._path(key), "wb") as fh:
            fh.write(content)
        assert cache.get(key) is None
        code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
        assert (code, out, err) == (0, expected, ""), content
    assert cache.get(key) == expected


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
    args = ("--cache-dir", str(tmp_path), "bernoulli", "--n", "12")
    key = Cache.key_text("bernoulli", {"n": 12})
    assert key == f"{eiscong.__version__}|{cli._code_digest()}|bernoulli|n=12"
    monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
    run_cli(capsys, *args)
    cache = Cache(str(tmp_path))
    (name, (other, description, text)), = list(cache.entries())
    assert other != key
    write_entry(os.path.join(cache.root, name), other, json.dumps(description),
                text.replace("-691/2730", "0"))
    assert json.loads(run_cli(capsys, *args)[1])["value"] == "0"
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(out)["value"] == "-691/2730"
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "verify-cache")
    assert json.loads(out) == {"checked": 1, "mismatches": [], "unverifiable": [name],
                               "ok": True}


# ---------------------------------------------------------------------------
# the table-driven parser against the argparse parser it replaced
# ---------------------------------------------------------------------------

def reference_parser():
    """The argparse parser the CLI used to build from COMMANDS."""
    import argparse
    from eiscong.cli import COMMANDS
    ap = argparse.ArgumentParser(prog="eiscong")
    ap.add_argument("--cache-dir", default="./.eiscache")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--pretty", action="store_true")
    sub = ap.add_subparsers(dest="command")
    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        for flag in spec.flags:
            if flag.type is bool:
                sp.add_argument("--" + flag.name, action="store_true")
            else:
                sp.add_argument("--" + flag.name, type=flag.type, default=flag.default,
                                required=flag.required, choices=flag.choices)
    return ap


def parse_both(reference, argv):
    """What each parser makes of argv: (options, command, params), or the
    exit code when it stops (0 for help, 1 for a rejection)."""
    import contextlib
    import io
    from eiscong.cli import COMMANDS, _parse_args, _Stop
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = reference.parse_args(argv)
        if args.command is None:
            expected = 1
        else:
            expected = ({"cache_dir": args.cache_dir, "no_cache": args.no_cache,
                         "pretty": args.pretty}, args.command,
                        {f.dest: getattr(args, f.dest) for f in COMMANDS[args.command].flags})
    except SystemExit as exc:
        expected = 0 if exc.code == 0 else 1
    try:
        options, command, params = _parse_args(list(argv))
        got = 1 if command is None else (options, command, params)
    except _Stop as stop:
        got = stop.code
    return got, expected


def command_lines():
    """Every command with its required flags only and with each optional flag,
    written as `--flag value`, `--flag=value` and every prefix of the flag;
    repeated, negative, non-integer and out-of-choice values; unknown, missing
    and misplaced options; help."""
    from eiscong.cli import COMMANDS
    yield from ([], ["nope"], ["-h"], ["--help"], ["--he"], ["--cache-dir"], ["--bogus"],
                ["--", "bernoulli", "--n", "3"], ["bernoulli", "--n", "3", "--"],
                ["--bogus", "bernoulli", "-h"], ["bernoulli", "--n", "3", "extra"],
                ["--no-c", "--pre", "--cache=d", "bernoulli", "--n", "3"],
                ["--cache-dir=d", "--no-cache", "--no-cache", "bernoulli", "--n", "3"],
                ["--cache-dir", "--pretty", "bernoulli", "--n", "3"],
                ["--pretty=1", "bernoulli", "--n", "3"], ["-hx", "bernoulli", "--n", "3"],
                ["--=x", "bernoulli", "--n", "3"], ["bernoulli", "--n", "3 "],
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


def test_parser_matches_the_argparse_reference():
    reference = reference_parser()
    lines = list(command_lines())
    assert len(lines) > 800
    accepted = 0
    for argv in lines:
        got, expected = parse_both(reference, argv)
        assert got == expected, argv
        accepted += isinstance(got, tuple)
    assert 300 < accepted < len(lines) - 300


def test_help_lists_every_command_and_flag(capsys):
    from eiscong.cli import COMMANDS
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: eiscong [-h] ")
    assert all(f"\n  {name} " in out for name in COMMANDS)
    for name, spec in COMMANDS.items():
        code, out, err = run_cli(capsys, name, "-h")
        assert (code, err) == (0, "") and out.startswith(f"usage: eiscong {name} [-h]")
        assert all(f"\n  --{flag.name}" in out for flag in spec.flags), name
