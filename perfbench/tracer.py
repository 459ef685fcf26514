"""Run one eiscong command with spans around the calls into its modules.

Usage: python3 tracer.py SPANS.jsonl COMMAND_ID EISCONG_ARGS...

Every public function of the seven eiscong modules, the arithmetic methods
of ``CycElem`` and the ``get``/``put`` methods of the CLI ``Cache`` are
replaced by a wrapper that records (name, start, end, parent, failed) in
memory, including where another module bound the function with
``from ... import``.  The command then runs through ``eiscong.cli.main``
exactly as the console script runs it, and on exit the spans are written to
SPANS.jsonl: one header object, then one array per span,
``[command_id, name_id, start, end, parent, failed]``.  The header holds the
name table and the counts kept beside the spans.
"""

import functools
import importlib
import json
import sys
import time

from metrics import MODULES

# CycElem method -> span name (reflected operators share the span).
CYC_METHODS = {
    "__add__": "cyc_add", "__radd__": "cyc_add",
    "__sub__": "cyc_sub", "__rsub__": "cyc_sub",
    "__mul__": "cyc_mul", "__rmul__": "cyc_mul",
    "__neg__": "cyc_neg", "__truediv__": "cyc_div", "__pow__": "cyc_pow",
    "inverse": "cyc_inverse", "lift": "cyc_lift",
    "galois_conjugate": "cyc_conjugate", "norm": "cyc_norm",
}
CACHE_METHODS = {"get": "cache_get", "put": "cache_put"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack = [-1]
        self.counters = {"exact.cyc_mul.coeff_ops": 0, "cli.cache_get.hits": 0}

    def wrap(self, name, fn, after=None):
        """fn with a span named ``name``; after(args, result) runs on success."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_id, 0.0, 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_coeff_ops(self, args, result):
        a, b = args[0], args[1]
        self.counters["exact.cyc_mul.coeff_ops"] += (
            len(a.coeffs) * len(getattr(b, "coeffs", (b,))))

    def _count_hit(self, args, result):
        if result is not None:
            self.counters["cli.cache_get.hits"] += 1

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        # Rebind every name that refers to a wrapped function, including the
        # names other modules bound with `from ... import`.
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        exact, cli = modules[MODULES.index("exact")], modules[MODULES.index("cli")]
        for meth, short in CYC_METHODS.items():
            after = self._count_coeff_ops if short == "cyc_mul" else None
            fn = exact.CycElem.__dict__[meth]
            setattr(exact.CycElem, meth, self.wrap(f"exact.{short}", fn, after))
        for meth, short in CACHE_METHODS.items():
            after = self._count_hit if short == "cache_get" else None
            fn = cli.Cache.__dict__[meth]
            setattr(cli.Cache, meth, self.wrap(f"cli.{short}", fn, after))

    def dump(self, path: str, command_id: int) -> None:
        header = {"command": command_id, "names": self.names, "counters": self.counters}
        lines = [json.dumps(header)]
        lines.extend(json.dumps([command_id, *s]) for s in self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")


def main(argv: list[str]) -> int:
    spans_path, command_id, args = argv[0], int(argv[1]), argv[2:]
    t_import = time.perf_counter()
    import eiscong.cli
    tracer = Tracer()
    tracer.counters["cli.import_s"] = time.perf_counter() - t_import
    tracer.install(eiscong)
    try:
        return eiscong.cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, command_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
