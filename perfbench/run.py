"""The eiscong benchmark.

    python3 perfbench/run.py --workload {construct,scan,session} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the commands import eiscong from its
``src``.  Load model: a closed loop with one client.  The benchmark starts
one eiscong command at a time as a fresh process, exactly as the console
script runs it, and waits for it, so every command pays interpreter start,
imports and cold per-process caches the way a user does.

With ``--trace 0`` it repeats the round drawn from the seed until
``--seconds`` have passed, and reports the end-to-end metrics from each
command's mean latency over the rounds, in reference seconds (see
``CALIBRATION``); ``setup_s`` is the median of imports timed before each
round.  With ``--trace 1`` it runs the round untraced, through ``tracer.py``
and untraced again, and reports the per-layer metrics.  Every command's stdout is
checked against the sha256 recorded in ``digests.json``; the last line of
stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

from metrics import (PER_LAYER, LayerTotals, is_failure, layer_metrics,
                     module_shares, tail)
from workloads import FIXTURE, WORKLOADS, Step, draw

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURE_PATH = os.path.join(SRC, "eiscong", "fixtures", "example37.json")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
TRACER = os.path.join(HERE, "tracer.py")
# The body of the installed `eiscong` console script.
ENTRY = "import sys; from eiscong.cli import main; sys.exit(main())"
SETUP_REPS = 5  # imports timed before each round
DEADLINE_S = 170
# Host speed.  On a shared host the speed of every process drifts by up to 2x
# over tens of seconds.  Once per CAL_EVERY_S of a timed run the benchmark
# times a fresh Python process running CALIBRATION, and it reports end-to-end
# times in reference seconds: measured seconds times CAL_REF_S over the
# median calibration time of the run, i.e. the time on a host where that
# process takes CAL_REF_S.  The script uses no eiscong code, so a change to
# eiscong moves reference seconds as it moves measured ones.  A whole process
# is timed because a tight loop inside the benchmark does not slow down the
# way interpreter start and allocation-heavy work do.
CALIBRATION = """\
from fractions import Fraction
acc, total, table = 0, Fraction(0), {}
for i in range(1, 2500):
    acc = (acc * 31 + i * i) % 1000003
    total += Fraction(1, i % 97 + 1)
    table[i % 512] = [acc, i]
"""
CAL_REF_S = 0.100
CAL_EVERY_S = 1.0

END_TO_END = (
    ("wall_s", "s"), ("cmd_p50_s", "s"), ("cmd_tail_s", "s"),
    ("hit_p50_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


@dataclass
class Round:
    latency_s: list[float] = field(default_factory=list)      # per step run
    max_rss_kb: int = 0
    stdout_bytes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    totals: LayerTotals = field(default_factory=LayerTotals)


def command_args(step: Step, round_dir: str) -> list[str]:
    """eiscong arguments of a step, with its cache directory and the fixture."""
    args = [FIXTURE_PATH if a == FIXTURE else a for a in step.argv]
    return ["--cache-dir", os.path.join(round_dir, step.cache), *args]


class Runner:
    """Starts eiscong commands one at a time and checks their output."""

    def __init__(self, workdir: str, digests: dict[str, str]):
        self.workdir = workdir
        self.digests = digests
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.out_path = os.path.join(workdir, "stdout")
        self.err_path = os.path.join(workdir, "stderr")
        self.command_id = 0
        self.cal_s: list[float] | None = None   # calibration times, when timing
        self.cal_due = 0.0

    def spawn(self, argv: list[str]) -> tuple[float, int, int]:
        """(latency_s, exit code, ru_maxrss in KiB) of one eiscong process,
        after a calibration process if one is due."""
        if self.cal_s is not None and time.perf_counter() >= self.cal_due:
            latency, code, _ = self._spawn(["-c", CALIBRATION], os.environ)
            if code != 0:
                raise RuntimeError(f"calibration process failed: {self.stderr()}")
            self.cal_s.append(latency)
            self.cal_due = time.perf_counter() + CAL_EVERY_S
        return self._spawn(argv, self.env)

    def _spawn(self, argv: list[str], env) -> tuple[float, int, int]:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, self.out_path, flags, 0o600),
                   (os.POSIX_SPAWN_OPEN, 2, self.err_path, flags, 0o600)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss

    def import_s(self, reps: int) -> list[float]:
        """Times of `reps` fresh `import eiscong.cli`."""
        times = []
        for _ in range(reps):
            latency, code, _ = self.spawn(["-c", "import eiscong.cli"])
            if code != 0:
                raise RuntimeError(f"import eiscong.cli failed: {self.stderr()}")
            times.append(latency)
        return times

    def stdout(self) -> bytes:
        with open(self.out_path, "rb") as fh:
            return fh.read()

    def stderr(self) -> str:
        with open(self.err_path, "rb") as fh:
            return fh.read()[-400:].decode("utf-8", "replace")

    def run_round(self, steps: list[Step], traced: bool,
                  stop_at: float | None = None) -> Round:
        """Runs the steps in order, in fresh cache directories; stops before
        the first step that would start after perf_counter() ``stop_at``."""
        rnd = Round()
        round_dir = tempfile.mkdtemp(dir=self.workdir)
        spans_path = os.path.join(self.workdir, "spans.jsonl")
        first_digest: dict[str, str] = {}
        try:
            for step in steps:
                if stop_at is not None and time.perf_counter() >= stop_at:
                    break
                args = command_args(step, round_dir)
                if traced:
                    self.command_id += 1
                    args = [TRACER, spans_path, str(self.command_id), *args]
                else:
                    args = ["-c", ENTRY, *args]
                latency, code, rss = self.spawn(args)
                out = self.stdout()
                digest = hashlib.sha256(out).hexdigest()
                miss = first_digest.get(step.key) if step.expect_hit else None
                first_digest.setdefault(step.key, digest)
                rnd.attempted += 1
                if is_failure(code, digest, self.digests.get(step.key), miss):
                    rnd.failures.append(f"{step.key}: exit {code}, sha256 {digest[:12]}; "
                                        f"{self.stderr().strip()}")
                rnd.latency_s.append(latency)
                rnd.max_rss_kb = max(rnd.max_rss_kb, rss)
                rnd.stdout_bytes += len(out)
                if traced:
                    self._fold_spans(spans_path, rnd.totals)
        finally:
            shutil.rmtree(round_dir)
        return rnd

    @staticmethod
    def _fold_spans(path: str, totals: LayerTotals) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            spans = [json.loads(line)[1:] for line in fh]
        os.unlink(path)
        totals.add_command(header["names"], spans, header["counters"])


def timed_wall_s(steps: list[Step], rnd: Round) -> float:
    """Summed latency of the round's timed steps (replays excluded)."""
    return sum(t for step, t in zip(steps, rnd.latency_s) if not step.replay)


def end_to_end(steps: list[Step], rounds: list[Round], setup: list[float],
               cal_s: list[float]) -> tuple[dict, dict]:
    """Metric values and their printed details.  Every round runs a prefix of
    the same steps (only the last one stops early), and each step counts at
    its mean latency over the rounds that ran it.  Times are scaled to
    reference seconds by CAL_REF_S over the median calibration time."""
    scale = CAL_REF_S / statistics.median(cal_s)
    mean = [statistics.fmean(r.latency_s[i] for r in rounds if i < len(r.latency_s)) * scale
            for i in range(len(steps))]
    timed = [t for step, t in zip(steps, mean) if not step.replay]
    hits = [t for step, t in zip(steps, mean) if step.expect_hit]
    tail_s, tail_label = tail(timed)
    values = {
        "wall_s": sum(timed),
        "cmd_p50_s": statistics.median(timed),
        "cmd_tail_s": tail_s,
        "hit_p50_s": statistics.median(hits),
        "peak_rss_mb": max(r.max_rss_kb for r in rounds) / 1024,
        "setup_s": statistics.median(setup) * scale,
    }
    whole = sum(len(r.latency_s) == len(steps) for r in rounds)
    each = (f"each command's mean over {whole} rounds"
            + (" and part of one more" if whole < len(rounds) else ""))
    details = {
        "wall_s": f"sum over the {len(timed)} timed commands, {each}",
        "cmd_p50_s": f"median of {len(timed)} commands, {each}",
        "cmd_tail_s": f"{tail_label} commands, {each}",
        "hit_p50_s": f"median of {len(hits)} cache hits, {each}",
        "peak_rss_mb": f"largest ru_maxrss of {sum(r.attempted for r in rounds)} commands",
        "setup_s": f"fresh `import eiscong.cli`, median of {len(setup)}",
    }
    return values, details


# The traffic each workload is meant to have (README.md): layers that must
# hold at least the given share, and layers that must stay under 1%.
EXPECTED_TRAFFIC = {
    "construct": (("exact", "qexp"), 0.8, ("hecke1",)),
    "scan": (("hecke1",), 0.9, ("exact", "qexp")),
    "session": (("startup", "cli"), 0.5, ()),
}


def traffic_lines(workload: str, shares: dict[str, float], traced: Round,
                  expected_hits: int) -> list[str]:
    """The traffic check: module shares of module self time (startup: of
    latency), against EXPECTED_TRAFFIC."""
    modules = sum(v for k, v in shares.items() if k != "startup")
    of_modules = {k: v / modules for k, v in shares.items() if k != "startup"}
    lines = ["traffic, share of module self time: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(of_modules.items(), key=lambda kv: -kv[1]))]
    lines.append(f"startup (outside cli.main), share of latency: {shares['startup']:.3f}")
    busy, floor, idle = EXPECTED_TRAFFIC[workload]
    if "startup" in busy:
        share = shares["startup"] + shares["cli"]
        basis = "of latency"
    else:
        share = sum(of_modules[n] for n in busy)
        basis = "of module self time"
    idle_share = sum(of_modules[n] for n in idle)
    ok = share >= floor and idle_share < 0.01
    lines.append(f"traffic check: {'+'.join(busy)} = {share:.3f} {basis} (expected >= {floor})"
                 + (f", {'+'.join(idle)} = {idle_share:.4f} (expected < 0.01)" if idle else "")
                 + (": confirmed" if ok else ": NOT confirmed"))
    t = traced.totals
    lines.append(f"cache: {t.counters.get('cli.cache_get.hits', 0)} hits of "
                 f"{t.calls.get('cli.cache_get', 0)} gets; "
                 f"{expected_hits} commands expected to hit")
    return lines


def run(args) -> tuple[dict, list[str], int, int]:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        digests = json.load(fh)
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=parent)
    lines: list[str] = []
    try:
        runner = Runner(workdir, digests)
        runner.import_s(1)  # writes the bytecode cache
        steps = draw(args.workload, args.seed)
        if args.trace:
            # Untraced rounds before and after the traced one, so that a
            # steady drift in host speed cancels out of the overhead.
            before = runner.run_round(steps, traced=False)
            traced = runner.run_round(steps, traced=True)
            after = runner.run_round(steps, traced=False)
            rounds = [before, traced, after]
            plain_s = (timed_wall_s(steps, before) + timed_wall_s(steps, after)) / 2
            values = layer_metrics(traced.totals, traced.stdout_bytes,
                                   timed_wall_s(steps, traced) - plain_s)
            units = {name: unit for name, unit, _ in PER_LAYER}
            lines += [f"{name:36s} {values[name]:.6g} {units[name]}" for name, _, _ in PER_LAYER]
            shares = module_shares(traced.totals, sum(traced.latency_s))
            lines += traffic_lines(args.workload, shares, traced,
                                   sum(step.expect_hit for step in steps))
        else:
            # The first round runs whole; later ones until --seconds are up.
            runner.cal_s = []
            rounds, setup = [], []
            stop_at = time.perf_counter() + args.seconds
            while not rounds or time.perf_counter() < stop_at:
                setup += runner.import_s(SETUP_REPS)
                rnd = runner.run_round(steps, traced=False, stop_at=stop_at if rounds else None)
                if rnd.attempted:
                    rounds.append(rnd)
            values, details = end_to_end(steps, rounds, setup, runner.cal_s)
            units = dict(END_TO_END)
            cal_ms = statistics.median(runner.cal_s) * 1e3
            lines.append(f"host speed: calibration process median {cal_ms:.4g} ms of "
                         f"{len(runner.cal_s)}; times below are in reference seconds, "
                         f"measured x {CAL_REF_S * 1e3:g} ms / {cal_ms:.4g} ms")
            lines += [f"{name:12s} {values[name]:.6g} {units[name]:3s} ({details[name]})"
                      for name, _ in END_TO_END]
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(parent)
        except OSError:
            pass
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    lines.append(f"failed_frac  {len(failures) / attempted:.6g} frac "
                 f"({len(failures)} of {attempted} commands)")
    lines += [f"FAILED {f}" for f in failures]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return metrics, lines, attempted, len(failures)


def _interrupt(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eiscong", "cli.py")):
        print(f"no eiscong sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _interrupt)
    signal.alarm(DEADLINE_S)
    try:
        metrics, lines, attempted, failed = run(args)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"workload {args.workload} seed {args.seed}: {mode}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
