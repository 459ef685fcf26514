"""Fixed command pools and the seeded generator of the three workloads.

A workload round is a list of ``Step``s: the eiscong arguments of one
command, the cache directory it runs against (by name, inside the round's
work directory), and whether the benchmark expects it to be served from the
disk cache.  The generator only chooses items and their order from the pools
below; the program receives nothing but the generated arguments.

Pools are split into strata of items with nearly equal cost, and a round
draws one item per stratum (``construct``, ``scan``), or covers the whole pool
and then draws repeats of the cacheable commands (``session``), so that
rounds drawn from different seeds do the same work to within a few percent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Placeholder for the fixture path; the runner substitutes the checkout's copy.
FIXTURE = "@fixture/example37.json"


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]   # eiscong arguments, without --cache-dir
    cache: str              # cache directory name, relative to the round's dir
    expect_hit: bool        # served from the disk cache by an earlier step
    replay: bool = False    # warm replay after the timed sequence

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def build_h_argv(p: int, k: int, ell: int) -> tuple[str, ...]:
    """`build-h` at the Sturm bound k(ell+1)/12 of Gamma0(ell)."""
    prec = -(-k * (ell + 1) // 12)
    return ("build-h", "--p", str(p), "--k", str(k), "--ell", str(ell),
            "--sigma", f"{min(ell, p)},{max(ell, p)}", "--prec", str(prec))


def scan_argv(k: int, p: int) -> tuple[str, ...]:
    return ("scan", "--k", str(k), "--p", str(p), "--sigma", str(p))


# Strata of items that cost the same, cheapest first, so that every seed's
# round does the same work; the seed draws the item of a stratum and the
# order.  Rounds are kept short (about 3.5 s of commands on a quiet 2-core
# x86-64 container under Python 3.11) so that a timed run repeats each
# command several times.  Fastest of four cold runs on that container under
# load: 0.57-0.67 s, 1.04 s, 0.75 s, 1.34 s.  The three items of the first
# stratum differ by up to 15%, about 2% of a round.
CONSTRUCT_STRATA = (   # (p, k, ell)
    ((691, 12, 29), (691, 12, 37), (37, 32, 19)),
    ((59, 44, 19),),
    ((101, 68, 11),),
    ((37, 32, 23),),
)

# (k, p) irregular pairs: p divides the numerator of B_k.  A scan spends 99%
# of its time on the Miller basis over Q, which depends on k alone, so items
# of one weight cost the same.  Fastest of three under load: 1.48-1.52 s,
# 1.50 s, 2.14-2.23 s, 2.81 s.
SCAN_STRATA = (
    ((84, 233), (84, 271)),
    ((92, 587),),
    ((100, 263), (100, 379)),
    ((110, 157),),
)

SESSION_POOL = (
    ("eta", "--psi", "trivial", "--k", "32", "--sigma", "31,37", "--p", "37"),
    ("eta", "--psi", "31:[5]", "--k", "32", "--sigma", "31,37", "--p", "37"),
    ("selmer", "--p", "37", "--k", "32", "--sigma", "31,37"),
    ("selmer", "--p", "691", "--k", "12", "--sigma", "691"),
    ("kummer", "--p", "37", "--k", "32"),
    ("kummer", "--p", "59", "--k", "44"),
    ("aux-char", "--p", "37", "--k", "32", "--ell", "31"),
    ("aux-char", "--p", "59", "--k", "44", "--ell", "13"),
    ("chars", "--f", "31", "--parity", "-1", "--conductor", "31"),
    ("chars", "--f", "77"),
    ("bernoulli", "--n", "32"),
    ("bernoulli", "--n", "120"),
    ("bernoulli", "--n", "400"),
    ("eisenstein", "--l", "12", "--phi", "trivial", "--prec", "20"),
    ("eisenstein", "--l", "1", "--phi", "31:[5]", "--prec", "40"),
    ("criterion", "--p", "37", "--k", "32", "--sigma", "31,37",
     "--records", FIXTURE, "--assume-nontrivial-extension"),
    ("report", "--p", "691", "--k", "12", "--sigma", "691"),
    ("report", "--p", "59", "--k", "44", "--sigma", "59"),
    ("example37",),
    ("scan", "--k", "32", "--p", "37", "--sigma", "37"),
)
SESSION_LENGTH = 40

# Subcommands the CLI never caches.
UNCACHED = {"criterion", "report"}

WORKLOADS = ("construct", "scan", "session")   # why each: BENCHMARK.json, README.md


def pool(workload: str) -> list[tuple[str, ...]]:
    """Every command a workload can draw."""
    if workload == "construct":
        return [build_h_argv(*item) for stratum in CONSTRUCT_STRATA for item in stratum]
    if workload == "scan":
        return [scan_argv(*item) for stratum in SCAN_STRATA for item in stratum]
    if workload == "session":
        return list(SESSION_POOL)
    raise KeyError(workload)


def _stratified(rng: random.Random, argvs: list[tuple[str, ...]]) -> list[Step]:
    """The drawn items in seeded order, then two passes of replays: enough
    cache hits per round for a steady hit_p50_s."""
    rng.shuffle(argvs)
    steps = [Step(a, f"c{i}", False) for i, a in enumerate(argvs)]
    replays = [Step(s.argv, s.cache, True, replay=True) for s in steps]
    return steps + replays + replays


def draw(workload: str, seed: int) -> list[Step]:
    """The steps of a round; the same (workload, seed) gives the same steps."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "construct":
        return _stratified(rng, [build_h_argv(*rng.choice(s)) for s in CONSTRUCT_STRATA])
    if workload == "scan":
        return _stratified(rng, [scan_argv(*rng.choice(s)) for s in SCAN_STRATA])
    if workload == "session":
        cached = [a for a in SESSION_POOL if a[0] not in UNCACHED]
        argvs = list(SESSION_POOL)
        argvs += [rng.choice(cached) for _ in range(SESSION_LENGTH - len(argvs))]
        rng.shuffle(argvs)
        seen = set()
        steps = []
        for a in argvs:
            steps.append(Step(a, "c", a in seen and a[0] not in UNCACHED))
            seen.add(a)
        return steps
    raise KeyError(workload)
