"""Import budget: `import eiscong.cli` loads no arithmetic and no argparse,
json or OpenSSL, a cache hit, compact or pretty, loads none of them either,
and the package exports resolve lazily to the objects of their home
modules.

Each check runs in a fresh interpreter with PYTHONPATH=src, so that modules
imported by other tests do not count."""

import ast
import json
import os
import subprocess
import sys

from eiscong.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'eiscong')"


def fresh(code: str, *args: str) -> list[str]:
    """Lines of stdout of `python -c code args` in a fresh interpreter."""
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return run.stdout.splitlines()


def test_importing_the_cli_loads_no_arithmetic():
    (line,) = fresh(f"import json, sys, eiscong.cli; print(json.dumps({LOADED}))")
    assert json.loads(line) == ["eiscong", "eiscong.cli", "eiscong.errors"]


def test_a_cache_hit_loads_no_arithmetic(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "bernoulli", "--n", "12"]
    assert main(argv) == 0
    miss = capsys.readouterr().out
    code = ("import json, sys; from eiscong.cli import main; code = main(sys.argv[1:]); "
            f"print(json.dumps([code, {LOADED}]))")
    out, loaded = fresh(code, *argv)
    assert out + "\n" == miss
    assert json.loads(loaded) == [0, ["eiscong", "eiscong.cli", "eiscong.errors"]]


# Run with -S, so that no site hook (a .pth file) preloads modules; the
# result is printed with repr because json is one of the modules checked.
HIT = ("import sys; import eiscong.cli; "
       "loaded = lambda: [m for m in ('argparse', 'json', 'hashlib', '_hashlib') "
       "if m in sys.modules]; "
       "imported = loaded(); code = eiscong.cli.main(sys.argv[1:]); "
       "print(repr([imported, code, loaded(), eiscong.cli._code_digest()]))")


def hit(argv):
    """(stdout, the HIT result) of argv in a fresh interpreter."""
    run = subprocess.run([sys.executable, "-S", "-c", HIT, *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    out, result = run.stdout.rsplit("\n", 2)[:2]
    return out + "\n", ast.literal_eval(result)


def test_a_pretty_hit_prints_the_bytes_of_a_pretty_miss(tmp_path, capsys):
    argv = ["--pretty", "--cache-dir", str(tmp_path), "eta", "--p", "37", "--k", "32",
            "--sigma", "31,37"]
    assert main(argv) == 0
    miss = capsys.readouterr().out
    assert miss.count("\n") > 10
    out, (_, code, loaded, _) = hit(argv)
    assert (out, code, loaded) == (miss, 0, [])


def test_a_hit_loads_no_json_or_openssl(tmp_path, capsys):
    import hashlib
    argv = ["--cache-dir", str(tmp_path), "build-h", "--p", "37", "--k", "32", "--ell", "31",
            "--sigma", "31,37", "--prec", "20"]
    assert main(argv) == 0
    miss = capsys.readouterr().out
    out, result = hit(argv)
    assert out == miss
    here = os.path.join(SRC, "eiscong")
    names = [n for n in os.listdir(here) if n.endswith(".py")]
    names += [f"fixtures/{n}" for n in os.listdir(os.path.join(here, "fixtures"))
              if n.endswith(".json")]
    assert "fixtures/example37.json" in names
    reference = hashlib.sha256()
    for name in sorted(names):
        with open(os.path.join(here, name), "rb") as fh:
            reference.update(f"{name} {hashlib.sha256(fh.read()).hexdigest()}\n".encode())
    # a hit is looked up before the command line is parsed: no argparse either
    assert result == [[], 0, [], reference.hexdigest()]


def test_package_exports_resolve_lazily():
    code = f"""
import json, sys
import eiscong
loaded = {LOADED}
homes = {{}}
for name in eiscong.__all__:
    obj = getattr(eiscong, name)
    home = sys.modules[obj.__module__]
    homes[name] = [home.__name__, getattr(home, name) is obj]
star = {{}}
exec("from eiscong import *", star)
try:
    eiscong.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({{"loaded": loaded, "homes": homes, "dir": sorted(dir(eiscong)),
                  "star": sorted(k for k in star if k != "__builtins__"),
                  "all": eiscong.__all__, "missing": missing}}))
"""
    (line,) = fresh(code)
    got = json.loads(line)
    assert got["loaded"] == ["eiscong"]
    assert len(got["all"]) == 35
    for name, (home, same) in got["homes"].items():
        assert home.startswith("eiscong.") and home != "eiscong.cli" and same, name
    assert got["star"] == sorted(got["all"])
    assert set(got["all"]) <= set(got["dir"])
    assert got["missing"] == "module 'eiscong' has no attribute 'no_such_name'"


# One cache miss per argument string, in one fresh interpreter started with -S
# so that no site hook (a .pth file) preloads modules: the exit codes, the
# eiscong modules loaded and which of `dataclasses` and `fractions` were loaded.
MISSES = ("import json, sys; from eiscong.cli import main; "
          "codes = [main(['--no-cache', *argv.split()]) for argv in sys.argv[1:]]; "
          f"print(json.dumps([codes, {LOADED}, "
          "[m for m in ('dataclasses', 'fractions') if m in sys.modules]]))")

SCAN = "scan --k 84 --p 233 --sigma 233"
BUILD_H = "build-h --p 37 --k 32 --ell 31 --sigma 31,37 --prec 20"
SELMER = "selmer --p 37 --k 32 --sigma 31,37"
AUX_CHAR = "aux-char --p 37 --k 32 --ell 31"


def misses(*commands: str):
    """(eiscong modules, stdlib modules of the two checked) loaded by the misses."""
    run = subprocess.run([sys.executable, "-S", "-c", MISSES, *commands], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    codes, loaded, stdlib = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    return loaded, stdlib


def test_hecke1_imports_no_qexp_or_characters_even_lazily():
    with open(os.path.join(SRC, "eiscong", "hecke1.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert {".errors", ".poly"} <= imported
    assert not [name for name in imported
                if {"exact", "qexp", "characters"} & set(name.split("."))]


def test_a_scan_miss_loads_poly_and_hecke1_alone():
    assert misses(SCAN) == (["eiscong", "eiscong.cli", "eiscong.commands", "eiscong.errors",
                             "eiscong.hecke1", "eiscong.poly"], [])


def command_lines(cache_dir) -> dict[str, str]:
    """One miss per command, verify-cache on the cache in cache_dir."""
    from eiscong.cli import fixture_path
    return {
        "bernoulli": "bernoulli --n 12", "eta": "eta --p 37 --k 32 --sigma 31,37",
        "chars": "chars --f 31", "eisenstein": "eisenstein --l 12 --prec 5",
        "build-h": BUILD_H, "scan": SCAN, "selmer": SELMER, "aux-char": AUX_CHAR,
        "kummer": "kummer --p 37 --k 32",
        "criterion": f"criterion --p 37 --k 32 --sigma 31,37 --records "
                     f"{fixture_path('example37.json')} --assume-nontrivial-extension",
        "report": "report --p 37 --k 32 --sigma 31,37 --prec 10",
        "example37": "example37 --prec 10",
        "verify-cache": f"--cache-dir {cache_dir} verify-cache",
    }


# README's table: the modules a miss of each command loads besides eiscong,
# cli, errors and commands.  report runs with an auxiliary prime (31), and
# verify-cache on a cache holding one scan.
ALL = ("poly", "exact", "characters", "lfunc", "qexp", "hecke1", "criteria")
MISS_TABLE = {
    "scan": ("poly", "hecke1"),
    "chars": ("poly", "exact", "characters"),
    **dict.fromkeys(("bernoulli", "eta", "kummer"), ("poly", "exact", "characters", "lfunc")),
    "selmer": ("poly", "exact", "characters", "lfunc", "criteria"),
    **dict.fromkeys(("eisenstein", "build-h", "aux-char"),
                    ("poly", "exact", "characters", "lfunc", "qexp")),
    "criterion": ("poly", "exact", "characters", "lfunc", "criteria", "hecke1"),
    **dict.fromkeys(("report", "example37"), ALL),
    "verify-cache": ("poly", "hecke1"),
}


def test_every_miss_loads_the_modules_of_its_readme_row(tmp_path):
    from eiscong.cli import COMMANDS
    assert main(["--cache-dir", str(tmp_path), *SCAN.split()]) == 0
    lines = command_lines(tmp_path)
    assert MISS_TABLE.keys() == lines.keys() == COMMANDS.keys()
    base = ["eiscong", "eiscong.cli", "eiscong.commands", "eiscong.errors"]
    for command, modules in MISS_TABLE.items():
        loaded, _ = misses(lines[command])
        assert loaded == sorted(base + [f"eiscong.{m}" for m in modules]), command


def test_no_command_loads_dataclasses(tmp_path):
    from eiscong.cli import COMMANDS
    commands = command_lines(tmp_path)
    assert commands.keys() == COMMANDS.keys()
    loaded, stdlib = misses(*commands.values())
    assert "eiscong.qexp" in loaded and "eiscong.hecke1" in loaded
    assert "dataclasses" not in stdlib
