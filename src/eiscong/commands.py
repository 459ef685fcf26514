"""What each subcommand computes: the typed values of its flags in, its JSON
payload out.  ``eiscong.cli`` declares the commands and imports this module
when one of them runs, never on a cache hit, and each function imports the
arithmetic it uses when it is called."""

from .cli import CACHE_SCHEMA_VERSION, COMMANDS, Cache, _render, fixture_path
from .errors import ComputationError, EiscongError, ParameterError


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


def bernoulli(n):
    from .lfunc import bernoulli as bernoulli_number
    return {"n": n, "value": str(bernoulli_number(n))}


def eta(p, k, psi, sigma, s):
    from .characters import parse_char, primitive_char
    from .exact import padic_context
    from .lfunc import eta as eta_bound
    psi0 = primitive_char(parse_char(psi))
    sigma = _parse_sigma(sigma)
    value = eta_bound(psi0, k, sigma, padic_context(p, psi0.order, s))
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


def build_h(p, k, psi, ell, m, sigma, s, prec):
    from math import lcm
    from .characters import parse_char, primitive_char
    from .criteria import aux_char_search
    from .exact import padic_context
    from .qexp import build_h as construct_h
    psi = primitive_char(parse_char(psi))
    sigma = _parse_sigma(sigma)
    aux = aux_char_search(p, k, psi, ell, m, s=s)
    if not aux.found:
        raise ComputationError(
            f"no auxiliary character of conductor {ell}^m (m <= {m}) satisfies "
            "the p-unit condition")
    ctx = padic_context(p, lcm(psi.order, aux.char.order), s)
    h, rep = construct_h(psi, k, ell, m, aux.char, sigma, ctx, prec)
    return {"aux_char": aux.as_dict(), "report": rep.as_dict(), "h": h.as_dict()}


def scan(k, p, sigma, smax):
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


def selmer(p, k, sigma, fres):
    from .criteria import selmer_upper_km1
    return selmer_upper_km1(p, k, _parse_sigma(sigma), fres).as_dict()


def aux_char(p, k, psi, ell, mmax, s):
    from .characters import parse_char, primitive_char
    from .criteria import aux_char_search
    return aux_char_search(p, k, primitive_char(parse_char(psi)), ell, mmax, s=s).as_dict()


def kummer(p, k):
    from .lfunc import kummer_check
    return kummer_check(p, k)


def criterion(p, k, psi, sigma, records, s, e, fres, dim_chi_upper,
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


def report(p, k, psi, sigma, s, prec, ell, mmax, records, smax,
            assume_nontrivial_extension):
    from .characters import parse_char, primitive_char
    from .criteria import full_report
    return full_report(
        p, k, primitive_char(parse_char(psi)), _parse_sigma(sigma), s=s, prec=prec,
        ell=ell, m_max=mmax, records_path=records,
        assume_nontrivial_extension=assume_nontrivial_extension, s_max=smax)


def example37(s, prec, smax):
    from .characters import parse_char
    from .criteria import full_report
    return full_report(37, 32, parse_char("trivial"), [31, 37], s=s, prec=prec,
                       records_path=fixture_path("example37.json"), s_max=smax)


def verify_cache(cache: Cache) -> dict:
    """Recompute every entry of cache and compare its stdout with the stored
    bytes; list the entries that cannot be recomputed as unverifiable."""
    checked = 0
    mismatches = []
    unknown = []
    for name, entry in cache.entries():
        key, description, text = entry or ("", {}, "")
        command, params = description.get("command"), description.get("params")
        spec = COMMANDS.get(command) if isinstance(command, str) else None
        if (spec is None or not spec.cached or not spec.accepts(params)
                or description.get("version") != CACHE_SCHEMA_VERSION
                or key != Cache.key_text(command, params)):
            unknown.append(name)
            continue
        checked += 1
        try:
            fresh = _render(spec.run(**params))
        except EiscongError as exc:
            mismatches.append({"file": name, "key": key, "error": str(exc)})
            continue
        if text != fresh:
            mismatches.append({"file": name, "key": key})
    return {"checked": checked, "mismatches": mismatches,
            "unverifiable": unknown, "ok": not mismatches}
