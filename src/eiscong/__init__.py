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
- ``cli``: the ``eiscong`` command-line front end and its on-disk cache.
"""

from .characters import DirichletChar, enumerate_chars, parse_char, trivial_char
from .exact import CycElem, PadicContext, padic_context, teichmuller, valp_cyc, valp_rational
from .hecke1 import EigensystemRecord, depth_scan, eigensystems_mod, miller_basis
from .lfunc import EtaValue, bernoulli, eta, gen_bernoulli, kummer_check, l_nonpositive
from .qexp import (
    QExpansion, build_fm, build_g, build_h, eisenstein_qexp, hecke_tq, multiply, sturm_bound, v_operator,
)
from .criteria import (
    aux_char_search,
    full_report,
    herbrand_eigenspace,
    ingest_records,
    nonprincipality_verdict,
    selmer_lower_1mk,
    selmer_upper_km1,
)

__version__ = "0.1.0"

__all__ = [
    "CycElem", "DirichletChar", "EigensystemRecord", "EtaValue", "PadicContext",
    "QExpansion", "aux_char_search", "bernoulli", "build_fm", "build_g", "build_h",
    "depth_scan", "eigensystems_mod", "eisenstein_qexp", "enumerate_chars", "eta",
    "full_report", "gen_bernoulli", "hecke_tq", "herbrand_eigenspace",
    "ingest_records", "kummer_check", "l_nonpositive", "miller_basis", "multiply",
    "nonprincipality_verdict", "padic_context", "parse_char", "selmer_lower_1mk",
    "selmer_upper_km1", "sturm_bound", "teichmuller", "trivial_char", "v_operator",
    "valp_cyc", "valp_rational",
]
