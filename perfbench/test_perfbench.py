"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from metrics import (PER_LAYER, LayerTotals, is_failure, layer_metrics, self_times, tail,
                     tail_percentile)
from run import CAL_REF_S, DIGESTS_PATH, END_TO_END, HERE, ROOT, SRC, Round, end_to_end
from workloads import (CONSTRUCT_STRATA, SESSION_LENGTH, SESSION_POOL, UNCACHED,
                       WORKLOADS, Step, build_h_argv, draw, pool)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_value_and_fallback_to_max():
    assert tail([float(x) for x in range(40, 0, -1)]) == (30.0, "p75 of 40")
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


def test_self_time_subtracts_direct_children_only():
    spans = [(0.0, 10.0, -1),   # root
             (1.0, 4.0, 0),     # child of root
             (2.0, 3.0, 1),     # grandchild
             (5.0, 9.0, 0)]     # second child of root
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_totals_fold_nested_spans():
    names = ["cli.main", "criteria.aux_char_search", "characters.char_product",
             "exact.valp_cyc", "exact.cyc_mul"]
    spans = [[0, 0.0, 10.0, -1, 0],
             [1, 1.0, 6.0, 0, 0],
             [2, 1.5, 2.0, 1, 0],
             [2, 2.5, 3.0, 1, 0],
             [3, 3.0, 5.0, 1, 1],
             [4, 4.0, 4.5, 4, 0],
             [2, 7.0, 8.0, 0, 0]]   # not inside the search: not a tried character
    totals = LayerTotals()
    totals.add_command(names, spans, {"exact.cyc_mul.coeff_ops": 64})
    m = layer_metrics(totals, stdout_bytes=12, overhead_s=0.5)
    assert m["exact.self_s"] == pytest.approx(2.0)
    assert m["exact.errors"] == 1
    assert m["criteria.aux_char_search.self_s"] == pytest.approx(2.0)
    assert m["criteria.aux_char_search.tried"] == 2
    assert m["characters.self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["exact.cyc_mul.calls"] == 1
    assert m["exact.cyc_mul.coeff_ops"] == 64
    assert m["hecke1.self_s"] == 0.0
    assert totals.main_s == 10.0


def test_end_to_end_means_over_rounds_in_reference_seconds():
    steps = [Step(("a",), "c", False), Step(("b",), "c", False),
             Step(("a",), "c", True, replay=True)]
    whole = Round(latency_s=[1.0, 3.0, 0.2], max_rss_kb=2048)
    part = Round(latency_s=[2.0], max_rss_kb=1024)      # stopped after one step
    cal_s = [2 * CAL_REF_S] * 3                          # half the reference speed
    values, _ = end_to_end(steps, [whole, part], [0.4, 0.2, 0.3], cal_s)
    assert values["wall_s"] == pytest.approx((1.5 + 3.0) / 2)
    assert values["cmd_p50_s"] == pytest.approx((0.75 + 1.5) / 2)
    assert values["cmd_tail_s"] == pytest.approx(1.5)
    assert values["hit_p50_s"] == pytest.approx(0.1)
    assert values["setup_s"] == pytest.approx(0.15)
    assert values["peak_rss_mb"] == 2.0


def test_digest_gate():
    good = "a" * 64
    assert not is_failure(0, good, good)
    assert is_failure(1, good, good)
    assert is_failure(0, "b" * 64, good)
    assert is_failure(0, good, None)
    # a cache hit must print exactly what its miss printed
    assert not is_failure(0, good, good, miss_digest=good)
    assert is_failure(0, good, good, miss_digest="c" * 64)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_draw_is_a_function_of_the_seed(workload):
    assert draw(workload, 7) == draw(workload, 7)
    assert draw(workload, 7) != draw(workload, 8)


def test_construct_draws_one_item_per_stratum_then_replays_it_twice():
    steps = draw("construct", 3)
    timed = [s for s in steps if not s.replay]
    assert len(timed) == len(CONSTRUCT_STRATA)
    for stratum in CONSTRUCT_STRATA:
        argvs = {build_h_argv(*item) for item in stratum}
        assert sum(s.argv in argvs for s in timed) == 1
    assert not any(s.expect_hit for s in timed)
    assert len({s.cache for s in timed}) == len(timed)
    assert [(s.argv, s.cache) for s in steps if s.replay] == [(s.argv, s.cache) for s in timed] * 2


def test_session_covers_the_pool_and_marks_hits():
    steps = draw("session", 5)
    assert len(steps) == SESSION_LENGTH
    assert {s.argv for s in steps} == set(SESSION_POOL)
    seen = set()
    for s in steps:
        assert s.expect_hit == (s.argv in seen and s.argv[0] not in UNCACHED)
        assert s.argv not in seen or s.argv[0] not in UNCACHED   # repeats are cacheable
        seen.add(s.argv)


def test_every_pool_item_has_a_recorded_digest():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        digests = json.load(fh)
    keys = {" ".join(a) for w in WORKLOADS for a in pool(w)}
    assert keys == set(digests)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def test_tracer_rebinds_names_imported_by_other_modules(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "tracer.py"), str(spans_path), "3",
         "--no-cache", "bernoulli", "--n", "12"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"n": 12, "value": "-691/2730"}
    lines = spans_path.read_text().splitlines()
    header = json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    names = [header["names"][s[1]] for s in spans]
    assert names[0] == "cli.main" and spans[0][4] == -1
    assert "cli.run_cached" in names
    # cli binds bernoulli with `from .lfunc import bernoulli`
    i = names.index("lfunc.bernoulli")
    assert names[spans[i][4]] == "cli.run_cached"
    assert all(s[0] == 3 for s in spans)


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
