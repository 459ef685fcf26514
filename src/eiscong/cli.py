"""Command-line front end.

Every subcommand prints a single JSON document (compact by default,
indented with --pretty) whose arithmetic values are exact decimal strings;
runs with identical arguments are byte-identical.  ``COMMANDS`` declares each
subcommand once; the parser, the dispatch and the cache key are built from
it.  Pure computations are cached on disk under --cache-dir (default
./.eiscache), keyed on the code (``__version__`` and a sha256 of the
package's sources), the command and every declared flag; `verify-cache`
recomputes every entry and checks the stored payloads byte for byte.

This module imports only the standard library and ``errors`` at load time;
each command imports its arithmetic when it runs, so a cache hit loads none.
A cache entry that cannot be read or parsed is a miss, and a result that
cannot be stored is still printed, with a warning on stderr.

Exit codes: 0 success, 1 parameter/usage error, 2 computation error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from collections import namedtuple

from . import __version__
from .errors import ComputationError, EiscongError, ParameterError

# Version 2 stores params typed (ints, None, booleans) rather than as text.
CACHE_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

@functools.cache
def _code_digest() -> str:
    """sha256 over the package's *.py sources in sorted name order, read as
    bytes once per process (the compute modules are not imported)."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(f"{name} {hashlib.sha256(fh.read()).hexdigest()}\n".encode())
    return h.hexdigest()


def _read_entry(path: str):
    """The JSON object stored at path, or None if it is unreadable, not UTF-8,
    not JSON or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    return entry if isinstance(entry, dict) else None


class Cache:
    """Content-addressed JSON cache: one file per (code, command, parameters)
    key, written atomically (temp file + rename)."""

    def __init__(self, root: str):
        self.root = os.path.join(root, str(CACHE_SCHEMA_VERSION))

    @staticmethod
    def key_text(command: str, params: dict) -> str:
        return "|".join((__version__, _code_digest(), command,
                         json.dumps(params, sort_keys=True, separators=(",", ":"))))

    def _path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.root, digest + ".json")

    def get(self, key: str):
        entry = _read_entry(self._path(key))
        if (entry is None or entry.get("key") != key
                or entry.get("version") != CACHE_SCHEMA_VERSION):
            return None
        return entry.get("payload")

    def put(self, command: str, params: dict, key: str, payload) -> None:
        import tempfile
        os.makedirs(self.root, exist_ok=True)
        entry = {"key": key, "version": CACHE_SCHEMA_VERSION,
                 "command": command, "params": params, "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, separators=(",", ":"))
            os.replace(tmp, self._path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def entries(self):
        if not os.path.isdir(self.root):
            return
        for name in sorted(os.listdir(self.root)):
            if name.endswith(".json"):
                yield name, _read_entry(os.path.join(self.root, name))


# ---------------------------------------------------------------------------
# command computations (typed keyword arguments -> JSON payload)
# ---------------------------------------------------------------------------

def _parse_sigma(text: str) -> list[int]:
    from .exact import is_prime
    try:
        out = sorted({int(x) for x in text.split(",") if x.strip() != ""})
    except ValueError as exc:
        raise ParameterError(f"bad --sigma value {text!r}") from exc
    if not out:
        raise ParameterError("--sigma must list at least one prime")
    bad = [x for x in out if not is_prime(x)]
    if bad:
        raise ParameterError(f"--sigma entries must be primes, got {bad}")
    return out


def _bernoulli(n):
    from .lfunc import bernoulli
    return {"n": n, "value": str(bernoulli(n))}


def _eta(p, k, psi, sigma, s):
    from .characters import parse_char, primitive_char
    from .exact import padic_context
    from .lfunc import eta
    psi0 = primitive_char(parse_char(psi))
    sigma = _parse_sigma(sigma)
    value = eta(psi0, k, sigma, padic_context(p, psi0.order, s))
    return {"p": p, "k": k, "psi": psi0.canonical_text(), "sigma": sigma} | value.as_dict()


def _chars(f, parity, conductor):
    from .characters import conductor as char_conductor, enumerate_chars
    chars = enumerate_chars(f, parity=parity, exact_conductor=conductor)
    return {
        "modulus": f,
        "count": len(chars),
        "characters": [
            {"char": c.canonical_text(), "order": c.order, "parity": c.parity,
             "conductor": char_conductor(c)} for c in chars],
    }


def _eisenstein(l, phi, prec):
    from .characters import parse_char
    from .qexp import eisenstein_qexp
    return eisenstein_qexp(l, parse_char(phi), prec).as_dict()


def _build_h(p, k, psi, ell, m, sigma, s, prec):
    from math import lcm
    from .characters import parse_char, primitive_char
    from .criteria import aux_char_search
    from .exact import padic_context
    from .qexp import build_h
    psi = primitive_char(parse_char(psi))
    sigma = _parse_sigma(sigma)
    aux = aux_char_search(p, k, psi, ell, m, s=s)
    if not aux.found:
        raise ComputationError(
            f"no auxiliary character of conductor {ell}^m (m <= {m}) satisfies "
            "the p-unit condition")
    ctx = padic_context(p, lcm(psi.order, aux.char.order), s)
    h, rep = build_h(psi, k, ell, m, aux.char, sigma, ctx, prec)
    return {"aux_char": aux.as_dict(), "report": rep.as_dict(), "h": h.as_dict()}


def _scan(k, p, sigma, smax):
    from .exact import sturm_bound
    from .hecke1 import depth_scan
    sigma = _parse_sigma(sigma)
    records, skipped = depth_scan(k, p, sigma, smax)
    return {
        "k": k, "p": p, "sigma": sigma, "s_max": smax,
        "sturm_bound": sturm_bound(k, 1),
        "records": [r.as_dict() | {"capped": r.capped} for r in records],
        "skipped": [sk._asdict() for sk in skipped],
    }


def _selmer(p, k, sigma, fres):
    from .criteria import selmer_upper_km1
    return selmer_upper_km1(p, k, _parse_sigma(sigma), fres).as_dict()


def _aux_char(p, k, psi, ell, mmax, s):
    from .characters import parse_char, primitive_char
    from .criteria import aux_char_search
    return aux_char_search(p, k, primitive_char(parse_char(psi)), ell, mmax, s=s).as_dict()


def _kummer(p, k):
    from .lfunc import kummer_check
    return kummer_check(p, k)


def _criterion(p, k, psi, sigma, records, s, e, fres, dim_chi_upper,
               assume_nontrivial_extension):
    from .characters import parse_char, primitive_char
    from .criteria import (dim_chi_hypothesis, ingest_records, nonprincipality_verdict,
                           selmer_upper_km1)
    from .exact import padic_context
    from .lfunc import eta
    records = ingest_records(records, p=p, weight=k)
    psi = primitive_char(parse_char(psi))
    sigma = _parse_sigma(sigma)
    eta_value = eta(psi, k, sigma, padic_context(p, psi.order, s))
    explicit = dim_chi_upper is not None
    if not explicit:
        dim_chi_upper = selmer_upper_km1(p, k, sigma, fres).dim_chi_upper
    established = dim_chi_hypothesis(
        dim_chi_upper, assumed=assume_nontrivial_extension)["dim_chi_equals_1"]
    source = ("explicit" if explicit else "selmer-upper-plus-assertion" if established
              else "selmer-upper-only")
    crit = nonprincipality_verdict(eta_value, records, e=e, f_res=fres,
                                   dim_chi_upper=1 if established else None)
    return {"p": p, "k": k, "sigma": sigma, "dim_chi_upper": dim_chi_upper,
            "hypothesis_source": source} | crit.as_dict()


def _report(p, k, psi, sigma, s, prec, ell, mmax, records, smax,
            assume_nontrivial_extension):
    from .characters import parse_char, primitive_char
    from .criteria import full_report
    return full_report(
        p, k, primitive_char(parse_char(psi)), _parse_sigma(sigma), s=s, prec=prec,
        ell=ell, m_max=mmax, records_path=records,
        assume_nontrivial_extension=assume_nontrivial_extension, s_max=smax)


def _example37(s, prec, smax):
    from .characters import parse_char
    from .criteria import full_report
    return full_report(37, 32, parse_char("trivial"), [31, 37], s=s, prec=prec,
                       records_path=fixture_path("example37.json"), s_max=smax)


def fixture_path(name: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "fixtures", name)


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

class Flag(namedtuple("Flag", "name type default required choices",
                      defaults=(int, None, False, None))):
    """One subcommand option --name; type bool makes it a switch."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")

    def add_to(self, parser) -> None:
        if self.type is bool:
            parser.add_argument("--" + self.name, action="store_true")
        else:
            parser.add_argument("--" + self.name, type=self.type, default=self.default,
                                required=self.required, choices=self.choices)

    def accepts(self, value) -> bool:
        """Whether a stored parameter value is one this flag can produce."""
        if value is None:
            return self.default is None and not self.required
        return type(value) is self.type and (self.choices is None or value in self.choices)


class Command(namedtuple("Command", "fn help flags cached reads_cache",
                         defaults=((), True, False))):
    """A subcommand: fn maps the flags' typed values to the JSON payload.
    cached: pure, stored under --cache-dir and keyed by every flag;
    reads_cache: fn takes the Cache as its first argument."""

    __slots__ = ()

    def accepts(self, params) -> bool:
        return (isinstance(params, dict) and params.keys() == {f.dest for f in self.flags}
                and all(f.accepts(params[f.dest]) for f in self.flags))


def _required(name, type=int):
    return Flag(name, type, required=True)


P, K, ELL, SIGMA = _required("p"), _required("k"), _required("ell"), _required("sigma", str)
PSI = Flag("psi", str, "trivial")
S = Flag("s", default=6)
SMAX = Flag("smax", default=3)
MMAX = Flag("mmax", default=1)
FRES = Flag("fres", default=1)
NONTRIVIAL = Flag("assume-nontrivial-extension", bool, False)
REPORT_PREC = Flag("prec", default=40)


def _verify_cache(cache: Cache) -> dict:
    checked = 0
    mismatches = []
    unknown = []
    for name, entry in cache.entries():
        entry = entry if isinstance(entry, dict) else {}
        command, params = entry.get("command"), entry.get("params")
        spec = COMMANDS.get(command) if isinstance(command, str) else None
        if (spec is None or not spec.cached or not spec.accepts(params)
                or entry.get("version") != CACHE_SCHEMA_VERSION
                or entry.get("key") != Cache.key_text(command, params)):
            unknown.append(name)
            continue
        checked += 1
        try:
            fresh = _render(spec.fn(**params), False)
        except EiscongError as exc:
            mismatches.append({"file": name, "key": entry["key"], "error": str(exc)})
            continue
        if _render(entry.get("payload"), False) != fresh:
            mismatches.append({"file": name, "key": entry["key"]})
    return {"checked": checked, "mismatches": mismatches,
            "unverifiable": unknown, "ok": not mismatches}


COMMANDS = {
    "bernoulli": Command(_bernoulli, "exact Bernoulli number", (_required("n"),)),
    "eta": Command(_eta, "congruence-module bound and its valuation",
                   (P, K, PSI, SIGMA, S)),
    "chars": Command(_chars, "enumerate Dirichlet characters",
                     (_required("f"), Flag("parity", choices=(-1, 1)), Flag("conductor"))),
    "eisenstein": Command(_eisenstein, "Eisenstein series q-expansion",
                          (_required("l"), Flag("phi", str, "trivial"),
                           Flag("prec", default=50))),
    "build-h": Command(_build_h, "construct and verify the cuspidal combination H",
                       (P, K, PSI, ELL, Flag("m", default=1), SIGMA, S,
                        Flag("prec", default=100))),
    "scan": Command(_scan, "depth scan of level-1 eigensystems", (K, P, SIGMA, SMAX)),
    "selmer": Command(_selmer, "Selmer group bounds", (P, K, SIGMA, FRES)),
    "aux-char": Command(_aux_char, "search for a p-unit auxiliary character",
                        (P, K, PSI, ELL, MMAX, S)),
    "kummer": Command(_kummer, "Kummer congruence check", (P, K)),
    "criterion": Command(_criterion, "non-principality verdict from eigensystem records",
                         (P, K, PSI, SIGMA, _required("records", str), S,
                          Flag("e", default=1), FRES, Flag("dim-chi-upper"), NONTRIVIAL),
                         cached=False),
    "report": Command(_report, "full composite report",
                      (P, K, PSI, SIGMA, S, REPORT_PREC, Flag("ell"), MMAX,
                       Flag("records", str), SMAX, NONTRIVIAL), cached=False),
    "example37": Command(_example37, "preset: the full p=37, k=32, level-31 example",
                         (S, REPORT_PREC, SMAX)),
    "verify-cache": Command(_verify_cache, "recompute every cache entry and compare bytes",
                            cached=False, reads_cache=True),
}


def run_cached(command: str, params: dict, cache: Cache | None):
    """The payload of command, from the cache if it holds one.  A miss that
    cannot be stored warns on stderr and still returns the payload."""
    if cache is None:
        return COMMANDS[command].fn(**params)
    key = Cache.key_text(command, params)
    hit = cache.get(key)
    if hit is not None:
        return hit
    payload = COMMANDS[command].fn(**params)
    try:
        cache.put(command, params, key, payload)
    except OSError as exc:
        print(json.dumps({"warning": "cache", "message": f"entry not stored: {exc}"}),
              file=sys.stderr)
    return payload


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eiscong",
        description="Exact Eisenstein-congruence toolkit: congruence bounds, "
                    "constructive q-expansion congruences, depth scans, Selmer "
                    "bounds, and the non-principality criterion.")
    ap.add_argument("--cache-dir", default="./.eiscache",
                    help="cache directory (default ./.eiscache)")
    ap.add_argument("--no-cache", action="store_true", help="bypass the cache")
    ap.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = ap.add_subparsers(dest="command")
    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        for flag in spec.flags:
            flag.add_to(sp)
    return ap


def _render(payload, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, indent=2)
    return json.dumps(payload, separators=(",", ":"))


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        ap.print_usage()
        return 1
    spec = COMMANDS[args.command]
    params = {f.dest: getattr(args, f.dest) for f in spec.flags}
    try:
        if spec.cached:
            cache = None if args.no_cache else Cache(args.cache_dir)
            payload = run_cached(args.command, params, cache)
        elif spec.reads_cache:
            payload = spec.fn(Cache(args.cache_dir), **params)
        else:
            payload = spec.fn(**params)
    except ParameterError as exc:
        print(json.dumps({"error": "parameter", "message": str(exc)}), file=sys.stderr)
        return 1
    except EiscongError as exc:
        print(json.dumps({"error": "computation", "message": str(exc)}), file=sys.stderr)
        return 2
    print(_render(payload, args.pretty))
    return 0


if __name__ == "__main__":
    sys.exit(main())
