"""Pure helpers of the benchmark: percentiles, the output gate and the
aggregation of traced spans into per-layer metrics."""

from __future__ import annotations

# Percentiles cmd_tail_s may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

MODULES = ("cli", "criteria", "qexp", "hecke1", "lfunc", "characters", "exact")


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile q among n samples, in exact
    arithmetic (q has at most one decimal)."""
    return -(-round(q * 10) * n // 1000)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples
    strictly beyond its nearest-rank position, or None if there is none."""
    best = None
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= TAIL_BEYOND:
            best = q
    return best


def tail(values: list[float]) -> tuple[float, str]:
    """(value, label) of the tail latency: the nearest-rank value at
    tail_percentile(n), or the maximum when n is too small for any."""
    xs = sorted(values)
    q = tail_percentile(len(xs))
    if q is None:
        return xs[-1], f"max of {len(xs)}"
    return xs[_rank(q, len(xs)) - 1], f"p{q:g} of {len(xs)}"


def is_failure(returncode: int, digest: str, expected: str | None,
               miss_digest: str | None = None) -> bool:
    """The output gate: a command fails if it exits nonzero, if its stdout
    digest differs from the one recorded for its pool item (or none is
    recorded), or, when it is a cache hit, from what its miss printed."""
    if returncode != 0 or expected is None or digest != expected:
        return True
    return miss_digest is not None and digest != miss_digest


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its direct
    children.  ``spans`` holds (start, end, parent) with parent the index of
    the enclosing span, or -1; children never outlive their parent."""
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class LayerTotals:
    """Per-name call counts, self times and errors summed over the traced
    commands of one round, plus the counts the tracer keeps by itself."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.aux_tried = 0
        self.main_s = 0.0

    def add_command(self, names: list[str], spans: list[list], counters: dict) -> None:
        """Fold one command's spans ([name_id, start, end, parent, failed])."""
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        for span, st in zip(spans, selfs):
            name = names[span[0]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + st
            if span[4]:
                self.errors[name] = self.errors.get(name, 0) + 1
            parent = span[3]
            if parent < 0:
                self.main_s += span[2] - span[1]
            elif (name == "characters.char_product"
                  and names[spans[parent][0]] == "criteria.aux_char_search"):
                self.aux_tried += 1
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def module_self_s(self, module: str) -> float:
        return sum((v for k, v in self.self_s.items() if k.split(".")[0] == module), 0.0)

    def module_errors(self, module: str) -> int:
        return sum(v for k, v in self.errors.items() if k.split(".")[0] == module)


# (metric, unit, better) of the traced run, in report order.
PER_LAYER = (
    ("exact.self_s", "s", "lower"),
    ("exact.cyc_mul.calls", "count", "lower"),
    ("exact.cyc_mul.self_s", "s", "lower"),
    ("exact.cyc_mul.coeff_ops", "count", "lower"),
    ("exact.cyc_add.calls", "count", "lower"),
    ("exact.cyc_lift.calls", "count", "lower"),
    ("exact.cyc_inverse.calls", "count", "lower"),
    ("exact.valp_cyc.calls", "count", "lower"),
    ("exact.valp_cyc.self_s", "s", "lower"),
    ("exact.padic_context.self_s", "s", "lower"),
    ("exact.errors", "count", "lower"),
    ("qexp.self_s", "s", "lower"),
    ("qexp.multiply.self_s", "s", "lower"),
    ("qexp.eisenstein_qexp.self_s", "s", "lower"),
    ("qexp.build_h.self_s", "s", "lower"),
    ("hecke1.self_s", "s", "lower"),
    ("hecke1.miller_basis.calls", "count", "lower"),
    ("hecke1.miller_basis.self_s", "s", "lower"),
    ("hecke1.hecke_matrix.calls", "count", "lower"),
    ("hecke1.hecke_matrix.self_s", "s", "lower"),
    ("hecke1.charpoly.self_s", "s", "lower"),
    ("hecke1.eigensystems_mod.self_s", "s", "lower"),
    ("lfunc.self_s", "s", "lower"),
    ("lfunc.bernoulli.self_s", "s", "lower"),
    ("lfunc.gen_bernoulli.calls", "count", "lower"),
    ("lfunc.gen_bernoulli.self_s", "s", "lower"),
    ("lfunc.eta.self_s", "s", "lower"),
    ("characters.self_s", "s", "lower"),
    ("characters.char_eval.calls", "count", "lower"),
    ("characters.char_eval.self_s", "s", "lower"),
    ("characters.enumerate_chars.self_s", "s", "lower"),
    ("criteria.self_s", "s", "lower"),
    ("criteria.aux_char_search.self_s", "s", "lower"),
    ("criteria.aux_char_search.tried", "count", "lower"),
    ("criteria.selmer_upper_km1.self_s", "s", "lower"),
    ("criteria.ingest_records.self_s", "s", "lower"),
    ("criteria.full_report.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cache_get.calls", "count", "lower"),
    ("cli.cache_hit_ratio", "fraction", "higher"),
    ("cli.cache_get.self_s", "s", "lower"),
    ("cli.cache_put.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(t: LayerTotals, stdout_bytes: int, overhead_s: float) -> dict[str, float]:
    """The PER_LAYER values of one traced round."""
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        module, _, rest = name.partition(".")
        if rest == "self_s":
            out[name] = t.module_self_s(module)
        elif rest == "errors":
            out[name] = t.module_errors(module)
        elif name.endswith(".calls"):
            out[name] = t.calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = t.self_s.get(name[:-len(".self_s")], 0.0)
    gets = t.calls.get("cli.cache_get", 0)
    out["exact.cyc_mul.coeff_ops"] = t.counters.get("exact.cyc_mul.coeff_ops", 0)
    out["criteria.aux_char_search.tried"] = t.aux_tried
    out["cli.import_s"] = t.counters.get("cli.import_s", 0.0)
    out["cli.cache_hit_ratio"] = t.counters.get("cli.cache_get.hits", 0) / gets if gets else 0.0
    out["cli.stdout_bytes"] = stdout_bytes
    out["trace.overhead_s"] = overhead_s
    return out


def module_shares(t: LayerTotals, latency_s: float) -> dict[str, float]:
    """Each module's traced self time, and the time outside cli.main
    (interpreter start, imports, tracer set-up and exit), as shares of the
    summed command latency."""
    shares = {m: t.module_self_s(m) / latency_s for m in MODULES}
    shares["startup"] = (latency_s - t.main_s) / latency_s
    return shares

