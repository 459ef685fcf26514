"""Mutation gate for the checks behind a printed verdict, certificate or
cache hit.

Each row of ``MUTANTS`` names a file of ``src/eiscong``, a text that occurs
in it exactly once, the text that replaces it and the check that the edit
removes.  For every row the runner copies the checkout into a temporary
directory, applies the row to the copy's ``src/``, and runs the tier-1 tests
there with ``-x``.

The gate: every row not marked equivalent is killed (some test fails), and
every row marked equivalent carries the argument why no input tells it from
the original, and survives.  Before the rows, the unedited copy must pass,
so that a failing checkout cannot pass as a killed row.

Run from any directory, with pytest installed:

    python tests/mutants.py

It prints one line per row and exits 1 when the gate fails.  pytest does
not collect this file, since its name does not match ``test_*.py``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".eiscache", ".pytest_cache",
                                ".perfbench_work", ".benchmarks", "*.egg-info", "build")


class Mutant(namedtuple("Mutant", "file old new reason equivalent", defaults=(None,))):
    """One edit of src/eiscong/<file>; equivalent is None or the argument
    that the edit changes no output."""

    __slots__ = ()


MUTANTS = (
    # the verdict and the bounds it compares
    Mutant("criteria.py", "if established and depth_sum > rhs:",
           "if established and depth_sum >= rhs:",
           "the verdict needs sum(depths) > val_p(eta), not >="),
    Mutant("poly.py", "return -(-k * idx // 12)", "return -(-k * idx // 12) + 1",
           "the Sturm bound, one too large"),
    Mutant("poly.py", "return -(-k * idx // 12)", "return -(-k * idx // 12) - 1",
           "the Sturm bound, one too small"),
    Mutant("criteria.py", '"dim_chi_equals_1": dim_chi_upper == 1 and certificate is not None}',
           '"dim_chi_equals_1": dim_chi_upper == 1}',
           "dim H^1 = 1 granted by the upper bound alone, without a certificate"),
    Mutant("criteria.py", "return b1_omega_min_valuation(k - 1, p) + sum(", "return sum(",
           "selmer_lower_1mk without its B_(1,omega^(k-1)) term"),
    Mutant("criteria.py", "congruence_certificate=any(r.depth >= 1 for r in records),",
           "congruence_certificate=True,",
           "full_report grants the level-1 certificate without a depth >= 1 record"),
    # the depths the verdict sums
    Mutant("hecke1.py", "for q, aq in eigenvalues.items() if q not in sigma)",
           "for q, aq in eigenvalues.items())",
           "congruence_depth reads the primes in Sigma too"),
    Mutant("hecke1.py", "sigma, s = sigma_with_p(p, sigma), 3", "sigma, s = sigma_with_p(p, sigma), 2",
           "depth_scan starts at p^2, below the p^3 its depths are checked against"),
    Mutant("hecke1.py", "        if all(d < s for d in depths):", "        if True:",
           "depth_scan stops at its first precision, so a depth can be capped"),
    Mutant("hecke1.py", "if v is None or _mat_vec(T2, v, mod) != [alpha * x % mod for x in v]:",
           "if v is None:",
           "the engine keeps a vector that is not an eigenvector of T_2"),
    Mutant("criteria.py", "computed = congruence_depth(evs, rec_weight, rec_p, sigma, depth + 1)",
           "computed = congruence_depth(evs, rec_weight, rec_p, sigma, depth)",
           "record ingestion reads a depth mod p^depth, which caps it instead of checking it"),
    # the construction of H
    Mutant("qexp.py", "and self.congruent_to_fm_mod_eta and self.cusps_vanish)",
           "and self.congruent_to_fm_mod_eta)",
           "HConstructionReport.passed without cusps_vanish"),
    Mutant("qexp.py", "cusps_ok = all((fm_cusp_constant(", "cusps_ok = True or all((fm_cusp_constant(",
           "build_h reports vanishing cusp constants without computing them"),
    Mutant("qexp.py", "\n                and self.unit_coeff_valuation == 0", "",
           "HConstructionReport.passed without the unit coefficient"),
    Mutant("qexp.py", "min(valp_cyc(c, ctx) for c in G.coefficients)",
           "min(valp_cyc(c, ctx) for c in G.coefficients[1:])",
           "the congruence depth of H skips the unit a_0(G); it differs where p divides "
           "every a_n(G) with 1 <= n <= P, as at p = 13, k = 8, ell = 3, P = 1"),
    Mutant("exact.py", "        if v < s:\n            return v - valp_int(x.den, p)",
           "        if v <= s:\n            return v - valp_int(x.den, p)",
           "valp_cyc accepts a valuation equal to the working precision",
           "every coefficient of r is a nonzero residue in [0, p^s), so its valuation is "
           "below s, and v is either below s or INF: v <= s holds exactly when v < s"),
    # the cache
    Mutant("cli.py", "return entry[2] if entry is not None and entry[0] == key else None",
           "return entry[2] if entry is not None else None",
           "Cache.get serves an entry without comparing its line 1 with the key"),
    Mutant("cli.py", 'return "|".join((__version__, _code_digest(), repr(list(argv))))',
           'return "|".join((__version__, repr(list(argv))))',
           "the key leaves out the code digest, so an edited source or fixture is served"),
    Mutant("cli.py", 'if token != "--pretty":', 'if token not in ("--pretty", "--no-cache"):',
           "--no-cache looks up and stores an entry"),
    Mutant("commands.py", "        if text != fresh:", "        if False:",
           "verify-cache recomputes without comparing the stored bytes"),
)


def tier1(checkout: str) -> int:
    """The exit code of tier-1 with -x in checkout (0 passed, 1 a test failed)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutant) -> int:
    """Tier-1's exit code on a copy of the checkout with mutant applied
    (None: the unedited copy)."""
    with tempfile.TemporaryDirectory(prefix="eiscong-mutant-") as tmp:
        checkout = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, checkout, ignore=IGNORE)
        if mutant is not None:
            path = os.path.join(checkout, "src", "eiscong", mutant.file)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.file}: the text of row {mutant.reason!r} occurs "
                                 f"{text.count(mutant.old)} times, not once")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        return tier1(checkout)


def main() -> int:
    code = run(None)
    if code != 0:
        print(f"the unedited checkout fails tier-1 (pytest exit {code}); no row is judged")
        return 1
    failed = 0
    for i, mutant in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        code = run(mutant)
        if code not in (0, 1):
            raise SystemExit(f"row {i}: pytest exited {code}")
        killed = code == 1
        ok = killed != (mutant.equivalent is not None)
        failed += not ok
        status = ("killed" if killed else "survived") + ("" if ok else "  <- GATE FAILS")
        print(f"{i:2d} {status:<10} {time.perf_counter() - start:5.1f} s  "
              f"{mutant.file}: {mutant.reason}", flush=True)
    print(f"{len(MUTANTS)} rows, {failed} failing the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
