"""Import budget: `import eiscong.cli` and a cache hit load no arithmetic and
no argparse, json or OpenSSL, and the package exports resolve lazily to the
objects of their home modules.

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


def test_a_hit_loads_no_argparse_json_or_openssl(tmp_path, capsys):
    import hashlib
    argv = ["--cache-dir", str(tmp_path), "build-h", "--p", "37", "--k", "32", "--ell", "31",
            "--sigma", "31,37", "--prec", "20"]
    assert main(argv) == 0
    miss = capsys.readouterr().out
    run = subprocess.run([sys.executable, "-S", "-c", HIT, *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    out, result = run.stdout.rsplit("\n", 2)[:2]
    assert out + "\n" == miss
    here = os.path.join(SRC, "eiscong")
    reference = hashlib.sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                reference.update(f"{name} {hashlib.sha256(fh.read()).hexdigest()}\n".encode())
    assert ast.literal_eval(result) == [[], 0, [], reference.hexdigest()]


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
    assert len(got["all"]) == 36
    for name, (home, same) in got["homes"].items():
        assert home.startswith("eiscong.") and home != "eiscong.cli" and same, name
    assert got["star"] == sorted(got["all"])
    assert set(got["all"]) <= set(got["dir"])
    assert got["missing"] == "module 'eiscong' has no attribute 'no_such_name'"


# One cache miss per argument string, in one fresh interpreter started with -S
# so that no site hook (a .pth file) preloads modules: the exit codes, the
# eiscong modules loaded and whether `dataclasses` was loaded.
MISSES = ("import json, sys; from eiscong.cli import main; "
          "codes = [main(['--no-cache', *argv.split()]) for argv in sys.argv[1:]]; "
          f"print(json.dumps([codes, {LOADED}, 'dataclasses' in sys.modules]))")

SCAN = "scan --k 84 --p 233 --sigma 233"
BUILD_H = "build-h --p 37 --k 32 --ell 31 --sigma 31,37 --prec 20"
SELMER = "selmer --p 37 --k 32 --sigma 31,37"
AUX_CHAR = "aux-char --p 37 --k 32 --ell 31"


def misses(*commands: str):
    run = subprocess.run([sys.executable, "-S", "-c", MISSES, *commands], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    codes, loaded, dataclasses = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    return loaded, dataclasses


def test_a_scan_miss_loads_exact_and_hecke1_alone():
    assert misses(SCAN) == (["eiscong", "eiscong.cli", "eiscong.commands", "eiscong.errors",
                             "eiscong.exact", "eiscong.hecke1"], False)


def test_selmer_aux_char_and_build_h_misses_do_not_load_hecke1():
    for command in (SELMER, AUX_CHAR):
        loaded, _ = misses(command)
        assert "eiscong.criteria" in loaded and "eiscong.hecke1" not in loaded, command
        assert "eiscong.qexp" not in loaded, command
    loaded, _ = misses(BUILD_H)
    assert "eiscong.qexp" in loaded and "eiscong.hecke1" not in loaded


def test_no_command_loads_dataclasses(tmp_path):
    from eiscong.cli import COMMANDS, fixture_path
    commands = {
        "bernoulli": "bernoulli --n 12", "eta": "eta --p 37 --k 32 --sigma 31,37",
        "chars": "chars --f 31", "eisenstein": "eisenstein --l 12 --prec 5",
        "build-h": BUILD_H, "scan": SCAN, "selmer": SELMER, "aux-char": AUX_CHAR,
        "kummer": "kummer --p 37 --k 32",
        "criterion": f"criterion --p 37 --k 32 --sigma 31,37 --records "
                     f"{fixture_path('example37.json')} --assume-nontrivial-extension",
        "report": "report --p 691 --k 12 --sigma 691 --prec 10",
        "example37": "example37 --prec 10",
        "verify-cache": f"--cache-dir {tmp_path} verify-cache",
    }
    assert commands.keys() == COMMANDS.keys()
    loaded, dataclasses = misses(*commands.values())
    assert "eiscong.qexp" in loaded and "eiscong.hecke1" in loaded
    assert not dataclasses
