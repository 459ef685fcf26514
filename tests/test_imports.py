"""Import budget: `import eiscong.cli` and a cache hit load no arithmetic, and
the package exports resolve lazily to the objects of their home modules.

Each check runs in a fresh interpreter with PYTHONPATH=src, so that modules
imported by other tests do not count."""

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
