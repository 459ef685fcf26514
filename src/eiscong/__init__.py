"""Exact verification of Eisenstein congruences.

Library layout:

- ``exact``: rationals, cyclotomic field arithmetic, p-adic valuations at a
  chosen prime above p.
- ``characters``: Dirichlet characters: enumeration, evaluation, conductors.
- ``lfunc``: Bernoulli numbers, L-values at non-positive integers, the
  congruence bound eta, and Kummer congruence utilities.
- ``qexp``: truncated q-expansions, Eisenstein series, Hecke operators, and
  the constructive cuspidal congruence.
- ``hecke1``: the level-1 Hecke engine (echelon basis, eigensystems mod p^s,
  congruence-depth scans).
- ``criteria``: Selmer bound calculators, the auxiliary-character search, and
  the non-principality criterion with external-record ingestion.
- ``cli``: the ``eiscong`` command-line front end and its on-disk cache;
  ``commands``: what each of its subcommands computes.

The names in ``__all__`` are re-exported from those modules lazily (PEP 562):
``eiscong.bernoulli`` imports ``eiscong.lfunc`` on first access, so importing
one submodule, such as ``eiscong.cli``, loads no other.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("DirichletChar", "enumerate_chars", "parse_char", "trivial_char"),
                    "characters"),
    **dict.fromkeys(("CycElem", "PadicContext", "padic_context", "sturm_bound", "teichmuller",
                     "valp_cyc", "valp_rational"), "exact"),
    **dict.fromkeys(("EigensystemRecord", "depth_scan", "eigensystems_mod", "miller_basis"),
                    "hecke1"),
    **dict.fromkeys(("EtaValue", "bernoulli", "eta", "gen_bernoulli", "kummer_check",
                     "l_nonpositive"), "lfunc"),
    **dict.fromkeys(("QExpansion", "build_fm", "build_g", "build_h", "eisenstein_qexp",
                     "hecke_tq", "multiply", "v_operator"), "qexp"),
    **dict.fromkeys(("aux_char_search", "full_report", "herbrand_eigenspace", "ingest_records",
                     "nonprincipality_verdict", "selmer_lower_1mk", "selmer_upper_km1"),
                    "criteria"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
