"""What each subcommand computes: the typed values of its flags in, its JSON
payload out.  ``eiscong.cli`` declares the commands and imports this module
when one of them runs, never on a cache hit, and each function imports the
arithmetic it uses when it is called."""

from .cli import CACHE_SCHEMA_VERSION, COMMANDS, Cache, _parse_args, _render, fixture_path
from .errors import ComputationError, EiscongError, ParameterError


def _parse_sigma(text: str) -> list[int]:
    from .poly import is_prime
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


def bernoulli(n):
    from .lfunc import bernoulli as bernoulli_number
    return {"n": n, "value": str(bernoulli_number(n))}


def eta(p, k, psi, sigma):
    from .characters import parse_char, primitive_char
    from .exact import padic_context
    from .lfunc import eta as eta_bound
    psi0 = primitive_char(parse_char(psi))
    sigma = _parse_sigma(sigma)
    value = eta_bound(psi0, k, sigma, padic_context(p, psi0.order))
    return {"p": p, "k": k, "psi": psi0.canonical_text(), "sigma": sigma} | value.as_dict()


def chars(f, parity, conductor):
    from .characters import conductor as char_conductor, enumerate_chars
    chars = enumerate_chars(f, parity=parity, exact_conductor=conductor)
    return {
        "modulus": f,
        "count": len(chars),
        "characters": [
            {"char": c.canonical_text(), "order": c.order, "parity": c.parity,
             "conductor": char_conductor(c)} for c in chars],
    }


def eisenstein(l, phi, prec):
    from .characters import parse_char
    from .qexp import eisenstein_qexp
    return eisenstein_qexp(l, parse_char(phi), prec).as_dict()


def build_h(p, k, psi, ell, mmax, sigma, prec):
    from .characters import parse_char, primitive_char
    from .qexp import aux_char_and_h
    psi = primitive_char(parse_char(psi))
    aux, built = aux_char_and_h(p, k, psi, ell, mmax, _parse_sigma(sigma), prec)
    if built is None:
        raise ComputationError(
            f"no auxiliary character of conductor {ell}^m (m <= {mmax}) satisfies "
            "the p-unit condition")
    h, rep = built
    return {"aux_char": aux.as_dict(), "report": rep.as_dict(), "h": h.as_dict()}


def scan(k, p, sigma):
    from .poly import sturm_bound
    from .hecke1 import depth_scan
    sigma = _parse_sigma(sigma)
    records, skipped, s = depth_scan(k, p, sigma)
    return {
        "k": k, "p": p, "sigma": sigma, "s_max": s,
        "sturm_bound": sturm_bound(k, 1),
        "records": [r.as_dict() | {"capped": False} for r in records],
        "skipped": [sk._asdict() for sk in skipped],
    }


def selmer(p, k, sigma):
    from .criteria import selmer_upper_km1
    return selmer_upper_km1(p, k, _parse_sigma(sigma)).as_dict()


def aux_char(p, k, psi, ell, mmax):
    from .characters import parse_char, primitive_char
    from .qexp import aux_char_search
    return aux_char_search(p, k, primitive_char(parse_char(psi)), ell, mmax).as_dict()


def kummer(p, k):
    from .lfunc import kummer_check
    return kummer_check(p, k)


def criterion(p, k, sigma, records, dim_chi_upper, assume_nontrivial_extension):
    """Non-principal iff the hypothesis holds and sum(depths) > val_p(eta),
    both integers.  The records fix psi: ingestion checks each depth on
    integer residues against 1 + q^(k-1), so psi is trivial, eta lies in Q
    and every record's coefficients lie in Z_p."""
    from .characters import trivial_char
    from .criteria import (dim_chi_hypothesis, ingest_records, nonprincipality_verdict,
                           selmer_upper_km1)
    from .exact import padic_context
    from .lfunc import eta
    records = ingest_records(records, p=p, weight=k)
    sigma = _parse_sigma(sigma)
    eta_value = eta(trivial_char(), k, sigma, padic_context(p, 1))
    explicit = dim_chi_upper is not None
    if not explicit:
        dim_chi_upper = selmer_upper_km1(p, k, sigma).dim_chi_upper
    hypothesis = dim_chi_hypothesis(dim_chi_upper, assumed=assume_nontrivial_extension)
    source = ("explicit" if explicit else "selmer-upper-plus-assertion"
              if hypothesis["dim_chi_equals_1"] else "selmer-upper-only")
    crit = nonprincipality_verdict(eta_value, records, hypothesis=hypothesis)
    return {"p": p, "k": k, "sigma": sigma, "dim_chi_upper": dim_chi_upper,
            "hypothesis_source": source} | crit.as_dict()


def report(p, k, sigma, prec, ell, mmax, records, assume_nontrivial_extension):
    from .criteria import full_report
    return full_report(
        p, k, _parse_sigma(sigma), prec=prec, ell=ell, m_max=mmax, records_path=records,
        assume_nontrivial_extension=assume_nontrivial_extension)


def example37(prec):
    from .criteria import full_report
    return full_report(37, 32, [31, 37], prec=prec, m_max=1,
                       records_path=fixture_path("example37.json"))


def _parse_quietly(argv):
    """(options, command, params) of a stored command line, or None where the
    parser stops (a rejection, or help), with the parser's output discarded."""
    import contextlib
    import io
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return _parse_args(argv)
    except SystemExit:
        return None


def verify_cache(cache: Cache) -> dict:
    """Parse every entry's command line again, recompute its stdout as
    ``main`` renders it and compare that with the stored bytes; list the
    entries that cannot be recomputed as unverifiable."""
    checked = 0
    mismatches = []
    unknown = []
    for name, entry in cache.entries():
        key, description, text = entry or ("", {}, "")
        argv = description.get("argv")
        parsed = None
        if (description.get("version") == CACHE_SCHEMA_VERSION and isinstance(argv, list)
                and all(isinstance(a, str) for a in argv) and key == Cache.key_text(argv)):
            parsed = _parse_quietly(argv)
        if parsed is None or not COMMANDS[parsed[1]].cached:
            unknown.append(name)
            continue
        options, command, params = parsed
        checked += 1
        try:
            fresh = _render(COMMANDS[command].run(**params), options["pretty"])
        except EiscongError as exc:
            mismatches.append({"file": name, "key": key, "error": str(exc)})
            continue
        if text != fresh:
            mismatches.append({"file": name, "key": key})
    return {"checked": checked, "mismatches": mismatches,
            "unverifiable": unknown, "ok": not mismatches}
