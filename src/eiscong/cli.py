"""Command-line front end.

Every subcommand prints a single JSON document (compact by default,
indented with --pretty) whose arithmetic values are exact decimal strings;
runs with identical arguments are byte-identical.  ``COMMANDS`` declares each
subcommand and its flags once; the argparse parser, the -h/--help text and
the dispatch are built from it.  Abbreviations are off, so a cut or retired
flag name is an unrecognized argument, and the top-level options go before
the command.  Every rejected command line prints the usage line and the
reason on stderr and exits 1; an unknown flag is reported before a missing
required one, and the usage line shows required flags without brackets.

Pure computations are cached on disk under --cache-dir (default
./.eiscache), one file per key.  The key is the code (``__version__`` and a
sha256 of the package's sources and packaged fixtures) and the command line
exactly as typed, so two spellings of one command are two entries with the
same bytes.  An entry holds the key on line 1, a JSON object naming the
schema and the command line on line 2 (read only by `verify-cache`), and
then the stdout exactly as printed, compact or pretty.  ``main`` looks the
entry up before it parses anything: ``_cache_dir`` reads the directory off
the options before the command, and a hit compares line 1 with the key and
prints the rest.  The command line is parsed only on a miss, and
`verify-cache` parses every stored one again, recomputes it and checks the
stored bytes.

A cache hit imports nothing beyond this module, ``errors`` and the
interpreter's builtin sha256: no argparse, no json, no OpenSSL, and not
``commands``, which holds what each command computes and is imported, with
the arithmetic it needs, when a command runs.  An entry that cannot be read,
is not UTF-8, is truncated or holds another key is a miss, and a result that
cannot be stored is still printed, with a warning on stderr.

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

# Version 4: line 1 the key, line 2 the JSON description, then the stdout text.
CACHE_SCHEMA_VERSION = 4


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

@functools.cache
def _code_digest() -> str:
    """sha256 over the package's *.py sources and fixtures/*.json, by name in
    sorted order, read once per process (no compute module is imported)."""
    here = os.path.dirname(os.path.abspath(__file__))
    names = [n for n in os.listdir(here) if n.endswith(".py")]
    names += [f"fixtures/{n}" for n in os.listdir(os.path.join(here, "fixtures"))
              if n.endswith(".json")]
    h = sha256()
    for name in sorted(names):
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
    """Content-addressed cache of stdout texts: one file per (code, command
    line) key, written atomically (temp file + rename)."""

    def __init__(self, root: str):
        self.root = os.path.join(root, str(CACHE_SCHEMA_VERSION))

    @staticmethod
    def key_text(argv) -> str:
        """One line: the code and the repr of the command line as typed (repr
        quotes a newline inside a value)."""
        return "|".join((__version__, _code_digest(), repr(list(argv))))

    def _path(self, key: str) -> str:
        return os.path.join(self.root, sha256(key.encode("utf-8")).hexdigest() + ".entry")

    def get(self, argv):
        """The stored stdout text of the command line argv, or None."""
        key = self.key_text(argv)
        entry = _read_entry(self._path(key))
        return entry[2] if entry is not None and entry[0] == key else None

    def put(self, argv, text: str) -> None:
        import json
        import tempfile
        os.makedirs(self.root, exist_ok=True)
        key = self.key_text(argv)
        description = json.dumps({"version": CACHE_SCHEMA_VERSION, "argv": list(argv)},
                                 separators=(",", ":"))
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

    def describe(self) -> str:
        if self.help is not None:
            return self.help
        return ("switch" if self.type is bool else "required" if self.required
                else f"default {self.default}")


class Command(namedtuple("Command", "fn help flags cached reads_cache",
                         defaults=((), True, False))):
    """A subcommand: fn names the function of ``eiscong.commands`` that maps
    the flags' typed values to the JSON payload, imported when the command
    runs, so that a cache hit compiles none of them.  cached: pure (its
    stdout is a function of the command line and the code alone), stored
    under --cache-dir; reads_cache: fn takes the Cache as its first
    argument."""

    __slots__ = ()

    def run(self, *args, **params):
        from . import commands
        return getattr(commands, self.fn)(*args, **params)


def _required(name, type=int):
    return Flag(name, type, required=True)


P, K, ELL, SIGMA = _required("p"), _required("k"), _required("ell"), _required("sigma", str)
PSI = Flag("psi", str, "trivial")
MMAX = Flag("mmax", default=1)
NONTRIVIAL = Flag("assume-nontrivial-extension", bool, False)
REPORT_PREC = Flag("prec", default=40)


COMMANDS = {
    "bernoulli": Command("bernoulli", "exact Bernoulli number", (_required("n"),)),
    "eta": Command("eta", "congruence-module bound and its valuation",
                   (P, K, PSI, SIGMA)),
    "chars": Command("chars", "enumerate Dirichlet characters",
                     (_required("f"), Flag("parity", choices=(-1, 1)), Flag("conductor"))),
    "eisenstein": Command("eisenstein", "Eisenstein series q-expansion",
                          (_required("l"), Flag("phi", str, "trivial"),
                           Flag("prec", default=50))),
    "build-h": Command("build_h", "construct and verify the cuspidal combination H",
                       (P, K, PSI, ELL, MMAX, SIGMA, Flag("prec", default=100))),
    "scan": Command("scan", "depth scan of level-1 eigensystems", (K, P, SIGMA)),
    "selmer": Command("selmer", "Selmer group bounds of the trivial character", (P, K, SIGMA)),
    "aux-char": Command("aux_char", "search for a p-unit auxiliary character",
                        (P, K, PSI, ELL, MMAX)),
    "kummer": Command("kummer", "Kummer congruence check", (P, K)),
    "criterion": Command("criterion", "non-principality verdict from eigensystem records",
                         (P, K, SIGMA, _required("records", str), Flag("dim-chi-upper"),
                          NONTRIVIAL),
                         cached=False),
    "report": Command("report", "full composite report for the trivial character",
                      (P, K, SIGMA, REPORT_PREC, Flag("ell"), MMAX,
                       Flag("records", str), NONTRIVIAL), cached=False),
    "example37": Command("example37", "preset: the full p=37, k=32, level-31 example",
                         (REPORT_PREC,)),
    "verify-cache": Command("verify_cache", "recompute every cache entry and compare bytes",
                            cached=False, reads_cache=True),
}


OPTIONS = (Flag("cache-dir", str, "./.eiscache", help="cache directory (default ./.eiscache)"),
           Flag("no-cache", bool, False, help="bypass the cache"),
           Flag("pretty", bool, False, help="indent the JSON output"))
DESCRIPTION = ("Exact Eisenstein-congruence toolkit: congruence bounds, constructive "
               "q-expansion congruences, depth scans, Selmer bounds, and the "
               "non-principality criterion.")


def run_cached(command: str, params: dict, pretty: bool, cache: Cache | None, argv) -> str:
    """The stdout text of a cached command, computed and rendered as ``main``
    prints it, and stored in cache under the command line argv unless cache
    is None.  A text that cannot be stored warns on stderr and is still
    returned."""
    text = _render(COMMANDS[command].run(**params), pretty)
    if cache is not None:
        try:
            cache.put(argv, text)
        except OSError as exc:
            _stderr_json({"warning": "cache", "message": f"entry not stored: {exc}"})
    return text


def _render(payload, pretty: bool) -> str:
    import json
    if pretty:
        return json.dumps(payload, indent=2) + "\n"
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _stderr_json(obj: dict) -> None:
    import json
    print(json.dumps(obj), file=sys.stderr)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _cache_dir(argv: list):
    """The directory of argv's cache entry, read off the options before the
    command alone (``--cache-dir V``, ``--cache-dir=V`` and ``--pretty``), or
    None: at ``--no-cache``, ``-h``, ``--`` or any other option token, and
    when the first positional token is not a cached command.  It decides only
    where an entry is looked up and stored, never what is printed, since a
    hit needs line 1 to hold argv itself."""
    root = OPTIONS[0].default
    tokens = iter(argv)
    for token in tokens:
        if token == "--cache-dir":
            root = next(tokens, None)
            if root is None:
                return None
        elif token.startswith("--cache-dir="):
            root = token[len("--cache-dir="):]
        elif token.startswith("-"):
            if token != "--pretty":
                return None
        else:
            spec = COMMANDS.get(token)
            return root if spec is not None and spec.cached else None
    return None


def _parser():
    """(the argparse parser built from OPTIONS and COMMANDS, the subparser of
    each command by name).  Flags keep their exact names, a required flag is
    declared optional so that ``_parse_args`` can report it after any unknown
    one, and marked required only while a usage line or help is formatted,
    and a rejection prints the usage line and the reason on stderr and exits
    1."""
    import argparse

    class Parser(argparse.ArgumentParser):
        required_actions = ()

        def _formatted(self, format_text):
            for action in self.required_actions:
                action.required = True
            try:
                return format_text()
            finally:
                for action in self.required_actions:
                    action.required = False

        def format_usage(self):
            return self._formatted(super().format_usage)

        def format_help(self):
            return self._formatted(super().format_help)

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    def add_flags(parser, flags):
        for f in flags:
            if f.type is bool:
                parser.add_argument("--" + f.name, action="store_true", help=f.describe())
            else:
                action = parser.add_argument("--" + f.name, type=f.type, default=f.default,
                                             choices=f.choices, help=f.describe())
                if f.required:
                    parser.required_actions += (action,)
        return parser

    top = add_flags(Parser(prog="eiscong", description=DESCRIPTION, allow_abbrev=False),
                    OPTIONS)
    sub = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, spec in COMMANDS.items():
        add_flags(sub.add_parser(name, help=spec.help, description=spec.help,
                                 allow_abbrev=False), spec.flags)
    return top, sub.choices


def _parse_args(argv: list):
    """(top-level options, command, its parameters); raises SystemExit, code
    0 after help and 1 for every rejected command line.  An unknown flag is
    reported before a missing required one, so that a mistyped name is named
    as such."""
    top, commands = _parser()
    args, unknown = top.parse_known_args(argv)
    if unknown:
        top.error(f"unrecognized arguments: {' '.join(unknown)}")
    flags = COMMANDS[args.command].flags
    missing = ["--" + f.name for f in flags if f.required and getattr(args, f.dest) is None]
    if missing:
        commands[args.command].error(
            f"the following arguments are required: {', '.join(missing)}")
    return ({f.dest: getattr(args, f.dest) for f in OPTIONS}, args.command,
            {f.dest: getattr(args, f.dest) for f in flags})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    root = _cache_dir(argv)
    cache = None if root is None else Cache(root)
    if cache is not None:
        text = cache.get(argv)
        if text is not None:
            sys.stdout.write(text)
            return 0
    try:
        options, command, params = _parse_args(argv)
    except SystemExit as stop:
        return stop.code
    spec = COMMANDS[command]
    pretty = options["pretty"]
    try:
        if spec.cached:
            text = run_cached(command, params, pretty, cache, argv)
        elif spec.reads_cache:
            text = _render(spec.run(Cache(options["cache_dir"]), **params), pretty)
        else:
            text = _render(spec.run(**params), pretty)
    except ParameterError as exc:
        _stderr_json({"error": "parameter", "message": str(exc)})
        return 1
    except EiscongError as exc:
        _stderr_json({"error": "computation", "message": str(exc)})
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
