"""Command-line front end.

Every subcommand prints a single JSON document (compact by default,
indented with --pretty) whose arithmetic values are exact decimal strings;
runs with identical arguments are byte-identical.  ``COMMANDS`` declares each
subcommand and its flags once; the argument parser, the -h/--help text, the
dispatch and the cache key are built from it.  The parser accepts what
argparse accepts: ``--flag value`` and ``--flag=value``, a unique prefix of a
flag (``--no-c``, ``--par -1``), negative numbers as values, the last value of
a repeated flag, and the top-level options only before the command.

Pure computations are cached on disk under --cache-dir (default
./.eiscache), one file per key.  The key is the code (``__version__`` and a
sha256 of the package's sources), the command and every declared flag.  An
entry holds the key on line 1, a JSON object naming the schema, the command
and its parameters on line 2 (read only by `verify-cache`), and then the
command's compact stdout, so a hit compares line 1 with the key and prints
the rest as stored; `verify-cache` recomputes every entry and checks the
stored bytes.

A cache hit imports nothing beyond this module, ``errors`` and the
interpreter's builtin sha256: no argparse, no json, no OpenSSL, and not
``commands``, which holds what each command computes and is imported, with
the arithmetic it needs, when a command runs.  An entry that cannot
be read, is not UTF-8, is truncated or holds another key is a miss, and a
result that cannot be stored is still printed, with a warning on stderr.

Exit codes: 0 success or help, 1 usage or parameter error, 2 computation error.
"""

import functools
import os
import sys
from collections import namedtuple

# The interpreter's own sha256, not OpenSSL's: hashlib would map libcrypto.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:     # a build without the builtin hashes
    from hashlib import sha256

from . import __version__
from .errors import EiscongError, ParameterError

# Version 3: line 1 the key, line 2 the JSON description, then the stdout text.
CACHE_SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

@functools.cache
def _code_digest() -> str:
    """sha256 over the package's *.py sources in sorted name order, read as
    bytes once per process (the compute modules are not imported)."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(f"{name} {sha256(fh.read()).hexdigest()}\n".encode())
    return h.hexdigest()


def _read_entry(path: str):
    """(line 1, line 2, rest) of the entry file at path, or None if it cannot
    be read, is not UTF-8 or is truncated (the rest must end in a newline)."""
    try:
        with open(path, "rb") as fh:
            key, description, text = fh.read().decode("utf-8").split("\n", 2)
    except (OSError, ValueError):
        return None
    return (key, description, text) if text.endswith("\n") else None


class Cache:
    """Content-addressed cache of stdout texts: one file per (code, command,
    parameters) key, written atomically (temp file + rename)."""

    def __init__(self, root: str):
        self.root = os.path.join(root, str(CACHE_SCHEMA_VERSION))

    @staticmethod
    def key_text(command: str, params: dict) -> str:
        """One line: the code, the command and the repr of every parameter
        (int, str, bool or None) by name, so distinct parameters give
        distinct keys."""
        values = ",".join(f"{name}={value!r}" for name, value in sorted(params.items()))
        return "|".join((__version__, _code_digest(), command, values))

    def _path(self, key: str) -> str:
        return os.path.join(self.root, sha256(key.encode("utf-8")).hexdigest() + ".entry")

    def get(self, key: str):
        """The stored stdout text of key, or None."""
        entry = _read_entry(self._path(key))
        return entry[2] if entry is not None and entry[0] == key else None

    def put(self, command: str, params: dict, key: str, text: str) -> None:
        import json
        import tempfile
        os.makedirs(self.root, exist_ok=True)
        description = json.dumps({"version": CACHE_SCHEMA_VERSION, "command": command,
                                  "params": params}, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(f"{key}\n{description}\n{text}".encode("utf-8"))
            os.replace(tmp, self._path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def entries(self):
        """(file name, (key, description, stdout text) or None) of every
        entry by name; None when the file cannot be read, is truncated or
        its line 2 is not a JSON object."""
        if not os.path.isdir(self.root):
            return
        import json
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".entry"):
                continue
            entry = _read_entry(os.path.join(self.root, name))
            if entry is not None:
                key, description, text = entry
                try:
                    description = json.loads(description)
                except ValueError:
                    description = None
                entry = (key, description, text) if isinstance(description, dict) else None
            yield name, entry


def fixture_path(name: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "fixtures", name)


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

class Flag(namedtuple("Flag", "name type default required choices help",
                      defaults=(int, None, False, None, None))):
    """One option --name; type bool makes it a switch."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")

    def accepts(self, value) -> bool:
        """Whether a stored parameter value is one this flag can produce."""
        if value is None:
            return self.default is None and not self.required
        return type(value) is self.type and (self.choices is None or value in self.choices)

    def usage(self) -> str:
        if self.type is bool:
            return "--" + self.name
        if self.choices:
            return f"--{self.name} {{{','.join(map(str, self.choices))}}}"
        return f"--{self.name} {self.dest.upper()}"

    def describe(self) -> str:
        if self.help is not None:
            return self.help
        return ("switch" if self.type is bool else "required" if self.required
                else f"default {self.default}")


class Command(namedtuple("Command", "fn help flags cached reads_cache",
                         defaults=((), True, False))):
    """A subcommand: fn names the function of ``eiscong.commands`` that maps
    the flags' typed values to the JSON payload, imported when the command
    runs, so that a cache hit compiles none of them.  cached: pure, stored
    under --cache-dir and keyed by every flag; reads_cache: fn takes the
    Cache as its first argument."""

    __slots__ = ()

    def run(self, *args, **params):
        from . import commands
        return getattr(commands, self.fn)(*args, **params)

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


COMMANDS = {
    "bernoulli": Command("bernoulli", "exact Bernoulli number", (_required("n"),)),
    "eta": Command("eta", "congruence-module bound and its valuation",
                   (P, K, PSI, SIGMA, S)),
    "chars": Command("chars", "enumerate Dirichlet characters",
                     (_required("f"), Flag("parity", choices=(-1, 1)), Flag("conductor"))),
    "eisenstein": Command("eisenstein", "Eisenstein series q-expansion",
                          (_required("l"), Flag("phi", str, "trivial"),
                           Flag("prec", default=50))),
    "build-h": Command("build_h", "construct and verify the cuspidal combination H",
                       (P, K, PSI, ELL, Flag("m", default=1), SIGMA, S,
                        Flag("prec", default=100))),
    "scan": Command("scan", "depth scan of level-1 eigensystems", (K, P, SIGMA, SMAX)),
    "selmer": Command("selmer", "Selmer group bounds", (P, K, SIGMA, FRES)),
    "aux-char": Command("aux_char", "search for a p-unit auxiliary character",
                        (P, K, PSI, ELL, MMAX, S)),
    "kummer": Command("kummer", "Kummer congruence check", (P, K)),
    "criterion": Command("criterion", "non-principality verdict from eigensystem records",
                         (P, K, PSI, SIGMA, _required("records", str), S,
                          Flag("e", default=1), FRES, Flag("dim-chi-upper"), NONTRIVIAL),
                         cached=False),
    "report": Command("report", "full composite report",
                      (P, K, PSI, SIGMA, S, REPORT_PREC, Flag("ell"), MMAX,
                       Flag("records", str), SMAX, NONTRIVIAL), cached=False),
    "example37": Command("example37", "preset: the full p=37, k=32, level-31 example",
                         (S, REPORT_PREC, SMAX)),
    "verify-cache": Command("verify_cache", "recompute every cache entry and compare bytes",
                            cached=False, reads_cache=True),
}


OPTIONS = (Flag("cache-dir", str, "./.eiscache", help="cache directory (default ./.eiscache)"),
           Flag("no-cache", bool, False, help="bypass the cache"),
           Flag("pretty", bool, False, help="indent the JSON output"))
DESCRIPTION = ("Exact Eisenstein-congruence toolkit: congruence bounds, constructive "
               "q-expansion congruences, depth scans, Selmer bounds, and the "
               "non-principality criterion.")


def run_cached(command: str, params: dict, cache: Cache | None) -> str:
    """The compact stdout text of command, from the cache if it holds the
    entry.  A miss that cannot be stored warns on stderr and still returns
    the text."""
    if cache is None:
        return _render(COMMANDS[command].run(**params))
    key = Cache.key_text(command, params)
    text = cache.get(key)
    if text is None:
        text = _render(COMMANDS[command].run(**params))
        try:
            cache.put(command, params, key, text)
        except OSError as exc:
            _stderr_json({"warning": "cache", "message": f"entry not stored: {exc}"})
    return text


def _render(payload) -> str:
    import json
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _pretty(text: str) -> str:
    import json
    return json.dumps(json.loads(text), indent=2) + "\n"


def _stderr_json(obj: dict) -> None:
    import json
    print(json.dumps(obj), file=sys.stderr)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Stop(Exception):
    """The command line ends without a command to run: code 0 with help for
    stdout, code 1 with a usage error for stderr."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code, self.text = code, text


def _usage(prog: str, flags) -> str:
    words = [f.usage() if f.required else f"[{f.usage()}]" for f in flags]
    tail = ["COMMAND ..."] if flags is OPTIONS else []
    return " ".join(["usage:", prog, "[-h]", *words, *tail]) + "\n"


def _fail(prog: str, flags, message) -> _Stop:
    return _Stop(1, f"{_usage(prog, flags)}{prog}: error: {message}\n")


def _help(prog: str, flags, description: str) -> str:
    tables = [("options", [("-h, --help", "show this help message and exit")]
               + [(f.usage(), f.describe()) for f in flags])]
    if flags is OPTIONS:
        tables.insert(0, ("commands", [(name, c.help) for name, c in COMMANDS.items()]))
    text = [_usage(prog, flags), "\n", description, "\n"]
    for title, rows in tables:
        width = max(len(left) for left, _ in rows)
        text += [f"\n{title}:\n"] + [f"  {left:<{width}}  {right}\n" for left, right in rows]
    return "".join(text)


def _is_negative_number(token: str) -> bool:
    """argparse's test -\\d+|-\\d*\\.\\d+ (a final newline allowed) for a
    token that starts with '-' and is still a value."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = body.partition(".")
    digits = frac.isdecimal() and (not whole or whole.isdecimal()) if dot else body.isdecimal()
    return token.startswith("-") and digits


def _option(token: str, names):
    """(option string, attached value or None) that token names among names,
    None if token is a value, or ("", None) for an unknown option.  A long
    option may be cut to a unique prefix; an ambiguous one raises ValueError."""
    if token in names:
        return token, None
    if len(token) < 2 or token[0] != "-":
        return None
    if token.startswith("--") and token != "--":
        name, eq, value = token.partition("=")
        hits = [name] if name in names else [n for n in names if n.startswith(name)]
        if len(hits) > 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    return None if _is_negative_number(token) or " " in token else ("", None)


def _parse_flags(prog: str, flags, args: list, description: str):
    """(values by dest, the command and its arguments, unknown tokens) of
    args under flags.  Under OPTIONS the first value is the command and ends
    the options; under a command's flags every value is unknown."""
    names = {"--" + f.name: f for f in flags} | {"-h": None, "--help": None}
    try:
        kinds = [_option(token, names) for token in args]
    except ValueError as exc:
        raise _fail(prog, flags, exc) from None
    values = {f.dest: f.default for f in flags}
    given, unknown, i = set(), [], 0
    while i < len(args):
        kind, token = kinds[i], args[i]
        i += 1
        if kind is None and flags is OPTIONS:
            return values, args[i - 1:], unknown
        if kind is None or not kind[0]:
            unknown.append(token)
            continue
        name, value = kind
        flag = names[name]
        if flag is None or flag.type is bool:
            if value is not None:
                raise _fail(prog, flags, f"argument {name}: ignored explicit argument {value!r}")
            if flag is None:
                raise _Stop(0, _help(prog, flags, description))
            value = True
        else:
            if value is None:
                if i == len(args) or kinds[i] is not None:
                    raise _fail(prog, flags, f"argument {name}: expected one argument")
                value, i = args[i], i + 1
            try:
                value = flag.type(value)
            except ValueError:
                raise _fail(prog, flags, f"argument {name}: invalid int value: {value!r}") from None
            if flag.choices is not None and value not in flag.choices:
                raise _fail(prog, flags, f"argument {name}: invalid choice: {value!r}")
        values[flag.dest] = value
        given.add(flag)
    missing = ["--" + f.name for f in flags if f.required and f not in given]
    if missing:
        raise _fail(prog, flags, f"the following arguments are required: {', '.join(missing)}")
    return values, [], unknown


def _parse_args(argv: list):
    """(top-level options, command or None, its parameters); raises _Stop
    for help and for every rejected command line."""
    options, rest, unknown = _parse_flags("eiscong", OPTIONS, argv, DESCRIPTION)
    command = params = None
    if rest:
        command, spec = rest[0], COMMANDS.get(rest[0])
        if spec is None:
            raise _fail("eiscong", OPTIONS, f"invalid command {command!r} "
                        f"(choose from {', '.join(COMMANDS)})")
        params, _, more = _parse_flags(f"eiscong {command}", spec.flags, rest[1:], spec.help)
        unknown += more
    if unknown:
        raise _fail("eiscong", OPTIONS, f"unrecognized arguments: {' '.join(unknown)}")
    return options, command, params


def main(argv=None) -> int:
    try:
        options, command, params = _parse_args(sys.argv[1:] if argv is None else argv)
    except _Stop as stop:
        (sys.stdout if stop.code == 0 else sys.stderr).write(stop.text)
        return stop.code
    if command is None:
        sys.stdout.write(_usage("eiscong", OPTIONS))
        return 1
    spec = COMMANDS[command]
    try:
        if spec.cached:
            cache = None if options["no_cache"] else Cache(options["cache_dir"])
            text = run_cached(command, params, cache)
        elif spec.reads_cache:
            text = _render(spec.run(Cache(options["cache_dir"]), **params))
        else:
            text = _render(spec.run(**params))
    except ParameterError as exc:
        _stderr_json({"error": "parameter", "message": str(exc)})
        return 1
    except EiscongError as exc:
        _stderr_json({"error": "computation", "message": str(exc)})
        return 2
    sys.stdout.write(_pretty(text) if options["pretty"] else text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
