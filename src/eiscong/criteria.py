"""Decision procedures: Selmer-group bound calculators, the auxiliary
character search certifying the p-unit condition, the congruence-counting
non-principality criterion for the Eisenstein ideal, and ingestion of
externally computed eigensystem records.

The criterion compares the congruence depths of Hecke eigensystems against
the valuation of the congruence-module bound eta(psi, k): when
sum(depths)/e exceeds f_res * e * val_p(eta) and the opposite-direction
Selmer group is one-dimensional, the Eisenstein ideal cannot be principal.

``hecke1`` and ``qexp`` are imported by ``ingest_records`` and
``full_report``, the only functions that use them, so the Selmer and
auxiliary-character commands load neither.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from math import lcm

from .characters import (
    DirichletChar,
    char_eval,
    char_inverse,
    char_product,
    enumerate_chars,
    primitive_char,
    trivial_char,
)
from .errors import ComputationError, ParameterError, SchemaError
from .exact import (INF, CycElem, PadicContext, factorize, is_prime, padic_context, valp_cyc,
                    valp_rational)
from .lfunc import EtaValue, b1_omega_min_valuation, bernoulli_mod, eta, l_nonpositive


# ---------------------------------------------------------------------------
# Selmer bounds
# ---------------------------------------------------------------------------

def _min_val1(x: Fraction, p: int) -> int:
    """min(val_p(x), 1) for a rational x (x = 0 counts as 1)."""
    v = valp_rational(x, p)
    return 1 if v == INF else min(int(v), 1)


def selmer_lower_1mk(p: int, k: int, sigma, f_res: int) -> int:
    """Lower bound on val_p(#H^1_Sigma(Q, F(1-k))):
    f_res * (min(val_p(B_(1,omega^(k-1))), 1) + sum_l min(val_p(1 - l^k), 1))."""
    if k % 2 != 0 or not 2 <= k <= p - 1:
        raise ParameterError("need even k with 2 <= k <= p-1")
    if f_res < 1:
        raise ParameterError(f"residue field degree f_res = {f_res} must be >= 1")
    sigma = sorted(set(int(x) for x in sigma))
    if p not in sigma:
        raise ParameterError("Sigma must contain p")
    total = b1_omega_min_valuation(k - 1, p)
    for ell in sigma:
        if ell != p:
            total += _min_val1(1 - Fraction(ell) ** k, p)
    return f_res * total


def local_factor(ell: int, n: int, p: int, psi: DirichletChar, mode: str,
                 ctx: PadicContext | None = None):
    """Correction exponent for adding the prime ell to the ramification set.

    mode "lemma21": the full valuation val(psi(ell) ell^(n+1) - 1), computed
    in the coefficient ring of psi (a context is required when psi is
    nontrivial).  mode "lemma11": min(val_p(ell^(n+1) - 1), 1); valid only
    for trivial psi with ell != 1 mod p.
    """
    if n == 0:
        raise ParameterError("n must be nonzero")
    if not is_prime(ell) or ell == p:
        raise ParameterError("ell must be a prime different from p")
    psi = primitive_char(psi)
    if mode == "lemma11":
        if not psi.is_trivial():
            raise ParameterError("lemma11 mode requires trivial psi")
        if ell % p == 1:
            raise ParameterError(f"lemma11 requires ell != 1 mod p (got ell = {ell})")
        return _min_val1(Fraction(ell) ** (n + 1) - 1, p)
    if mode == "lemma21":
        if psi.is_trivial():
            x = Fraction(ell) ** (n + 1) - 1
            v = valp_rational(x, p)
            return v if v == INF else int(v)
        if ctx is None:
            raise ParameterError("lemma21 with nontrivial psi needs a PadicContext")
        val = char_eval(psi, ell).lift(ctx.f) * (Fraction(ell) ** (n + 1)) - CycElem.one(ctx.f)
        return valp_cyc(val, ctx)
    raise ParameterError(f"unknown mode {mode!r}")


def herbrand_eigenspace(p: int, r: int) -> str:
    """Triviality of the r-th power eigenspace of the p-part of the class
    group of Q(mu_p): "trivial" iff p does not divide the numerator of
    B_(p-r) (with the converse direction supplying "nontrivial").

    Requires r odd with 1 < r < p - 1.
    """
    if r % 2 == 0 or not 1 < r < p - 1:
        raise ParameterError("need odd r with 1 < r < p-1")
    return "trivial" if bernoulli_mod(p - r, p) != 0 else "nontrivial"


class SelmerBoundReport(namedtuple(
        "SelmerBoundReport",
        "p k sigma residue_field_degree lower_bound_1mk dim_chi_inverse_lower"
        " upper_bound_km1_terms herbrand_status dim_chi_upper")):
    """Computed bounds on the two Selmer groups entering the criterion.

    ``upper_bound_km1_terms`` holds one (ell, term) pair per prime of Sigma
    other than p; ``dim_chi_upper`` is None when no upper bound applies."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "sigma": list(self.sigma),
            "residue_field_degree": self.residue_field_degree,
            "lower_bound_1mk": self.lower_bound_1mk,
            "dim_chi_inverse_lower": self.dim_chi_inverse_lower,
            "upper_bound_km1_terms": [
                {"ell": ell, "term": t} for ell, t in self.upper_bound_km1_terms],
            "herbrand_status": self.herbrand_status,
            "dim_chi_upper": self.dim_chi_upper,
        }


def selmer_upper_km1(p: int, k: int, sigma, f_res: int) -> SelmerBoundReport:
    """Upper bound on dim H^1_Sigma(Q, F(k-1)): at most 1 from the class
    group eigenspace (when Herbrand applies) plus min(val_p(1-l^(k-2)), 1)
    per extra prime; combined with the lower bound for F(1-k)."""
    if k % 2 != 0 or not 2 <= k <= p - 1:
        raise ParameterError("need even k with 2 <= k <= p-1")
    sigma_t = tuple(sorted(set(int(x) for x in sigma)))
    if p not in sigma_t:
        raise ParameterError("Sigma must contain p")
    if k - 1 > 1:
        status = herbrand_eigenspace(p, k - 1)
    else:
        status = "not-applicable"
    terms = []
    for ell in sigma_t:
        if ell == p:
            continue
        terms.append((ell, local_factor(ell, 1 - k, p, trivial_char(1), "lemma11")))
    dim_upper = (1 + sum(t for _, t in terms)) if status == "trivial" else None
    lower = selmer_lower_1mk(p, k, sigma_t, f_res)
    return SelmerBoundReport(
        p=p, k=k, sigma=sigma_t, residue_field_degree=f_res,
        lower_bound_1mk=lower, dim_chi_inverse_lower=lower // f_res,
        upper_bound_km1_terms=tuple(terms), herbrand_status=status,
        dim_chi_upper=dim_upper)


# ---------------------------------------------------------------------------
# auxiliary character search
# ---------------------------------------------------------------------------

class AuxCharCertificate(namedtuple(
        "AuxCharCertificate",
        "found char conductor val_l_psi_phi val_l_phi_inv context_conductor context_precision"
        " searched_m_max")):
    """Outcome of the p-unit auxiliary-character search at conductor ell^m;
    ``char`` (a DirichletChar), ``conductor`` and the two valuations are None
    when none was found."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "found": self.found,
            "char": self.char.canonical_text() if self.char else None,
            "conductor": self.conductor,
            "val_L_psi_phi_0": self.val_l_psi_phi,
            "val_L_phi_inv_2mk": self.val_l_phi_inv,
            "context_conductor": self.context_conductor,
            "context_precision": self.context_precision,
            "searched_m_max": self.searched_m_max,
        }


def _carmichael_odd_prime_power(ell: int, m: int) -> int:
    """Exponent of (Z/ell^m)^* for odd prime ell."""
    return (ell - 1) * ell ** (m - 1)


def aux_char_search(p: int, k: int, psi: DirichletChar, ell: int, m_max: int,
                    s: int = 6) -> AuxCharCertificate:
    """First character phi of conductor ell^m (m <= m_max) with
    phi(-1) = (-1)^(k-1) and both L(psi*phi, 0) and L(phi^(-1), 2-k) of
    valuation zero at the chosen prime above p.

    Enumeration is lexicographic in exponent vectors, so reruns (and reruns
    with a larger m_max) return the same certificate.  A not-found outcome
    reports the exhausted search range rather than failing.
    """
    if not is_prime(ell) or ell == p or ell == 2:
        raise ParameterError("ell must be an odd prime different from p")
    if k < 2:
        raise ParameterError("weight must be >= 2")
    psi = primitive_char(psi)
    parity = (-1) ** (k - 1)
    ctx_m = None
    for m in range(1, m_max + 1):
        # per-conductor context; first-found stability keeps the result
        # independent of m_max
        f_work = lcm(psi.order, _carmichael_odd_prime_power(ell, m))
        if f_work % p == 0:
            raise ParameterError(
                f"value field conductor {f_work} is divisible by p = {p}")
        ctx_m = padic_context(p, f_work, s)
        for phi in enumerate_chars(ell**m, parity=parity, exact_conductor=ell**m):
            chi1 = primitive_char(char_product(psi, phi))
            l1 = l_nonpositive(chi1, 0)
            if l1.is_zero():
                continue
            v1 = valp_cyc(l1.lift(ctx_m.f), ctx_m)
            if v1 != 0:
                continue
            chi2 = primitive_char(char_inverse(phi))
            l2 = l_nonpositive(chi2, 2 - k)
            if l2.is_zero():
                continue
            v2 = valp_cyc(l2.lift(ctx_m.f), ctx_m)
            if v2 != 0:
                continue
            return AuxCharCertificate(
                found=True, char=phi, conductor=ell**m,
                val_l_psi_phi=v1, val_l_phi_inv=v2,
                context_conductor=ctx_m.f, context_precision=ctx_m.s,
                searched_m_max=m_max)
    return AuxCharCertificate(
        found=False, char=None, conductor=None,
        val_l_psi_phi=None, val_l_phi_inv=None,
        context_conductor=ctx_m.f if ctx_m else 0,
        context_precision=ctx_m.s if ctx_m else s,
        searched_m_max=m_max)


# ---------------------------------------------------------------------------
# the non-principality criterion
# ---------------------------------------------------------------------------

class CriterionReport(namedtuple(
        "CriterionReport",
        "eta e f_res depth_records depth_sum_over_e valp_congruence_module verdict"
        " conclusion_text")):
    """Verdict of the congruence-counting criterion, from an EtaValue and a
    tuple of EigensystemRecords; the two sums are Fractions."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "eta": self.eta.as_dict(),
            "e": self.e,
            "f_res": self.f_res,
            "record_count": len(self.depth_records),
            "depths": [r.depth for r in self.depth_records],
            "depth_sum_over_e": str(self.depth_sum_over_e),
            "valp_congruence_module": str(self.valp_congruence_module),
            "verdict": self.verdict,
            "conclusion": self.conclusion_text,
        }


def dim_chi_hypothesis(dim_chi_upper: int | None, *, congruence_certificate: bool = False,
                       assumed: bool = False) -> dict:
    """Decide whether dim H^1_Sigma(Q, chi) = 1 is established.  An upper
    bound of 1 alone leaves dimension 0 open; a nontrivial extension must
    also be known, certified by a level-1 congruence or asserted by the
    user.  Both the criterion command and the full report decide here."""
    certificate = ("level1-congruence" if congruence_certificate
                   else "user-assertion" if assumed else None)
    return {"dim_chi_upper_bound": dim_chi_upper,
            "nontrivial_extension_certificate": certificate,
            "dim_chi_equals_1": dim_chi_upper == 1 and certificate is not None}


def nonprincipality_verdict(eta_value: EtaValue, records, e: int, f_res: int,
                            dim_chi_upper: int | None) -> CriterionReport:
    """Decide the criterion: non-principal iff sum(depths)/e exceeds
    f_res * e * val_p(eta) and the opposite Selmer group is known to be
    one-dimensional (dim_chi_upper == 1); otherwise inconclusive, naming
    the failing condition.
    """
    records = tuple(records)
    if e < 1 or f_res < 1:
        raise ParameterError("e and f_res must be positive")
    for rec in records:
        if rec.p != eta_value.p:
            raise ParameterError("records mix different primes p")
        if rec.depth is None:
            raise ParameterError("records must carry congruence depths")
    if len({(r.weight, r.level) for r in records}) > 1:
        raise ParameterError("records mix different weights or levels")
    if eta_value.valuation_vpi == INF:
        raise ComputationError("eta vanishes; the congruence module is infinite")
    depth_sum = Fraction(sum(r.depth for r in records), e)
    rhs = Fraction(f_res * e * eta_value.valuation_vpi)
    if dim_chi_upper == 1 and depth_sum > rhs:
        verdict = "non-principal"
        conclusion = ("the Eisenstein ideal is not principal and "
                      "#T_mod > dim H^1_Sigma(Q, chi^{-1})")
    else:
        verdict = "inconclusive"
        reasons = []
        if dim_chi_upper != 1:
            reasons.append("dim H^1_Sigma(Q, chi) = 1 is not established")
        if depth_sum <= rhs:
            reasons.append(
                f"depth sum {depth_sum} does not exceed val_p(#O/eta) = {rhs}")
        conclusion = "; ".join(reasons)
    return CriterionReport(
        eta=eta_value, e=e, f_res=f_res, depth_records=records,
        depth_sum_over_e=depth_sum, valp_congruence_module=rhs,
        verdict=verdict, conclusion_text=conclusion)


# ---------------------------------------------------------------------------
# external record ingestion
# ---------------------------------------------------------------------------

_RECORD_FIELDS = {"weight", "level", "p", "prime_label", "eigenvalues", "depth", "source"}


def ingest_records(path, *, p: int | None = None, weight: int | None = None) -> list:
    """Load externally computed eigensystem records (JSON array, or an object
    with a "records" array) as EigensystemRecords.  Depths are re-checked
    against the supplied eigenvalue residues, and each record's p and weight
    against the given ones; source is forced to "external"."""
    from .hecke1 import EigensystemRecord
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict) and "records" in data:
        data = data["records"]
    if not isinstance(data, list):
        raise SchemaError(f"{path}: expected a JSON array of records")
    if not data:
        raise SchemaError(f"{path}: no records")
    out = []
    for i, raw in enumerate(data):
        where = f"{path}: record {i}"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: not an object")
        missing = _RECORD_FIELDS - set(raw) - {"source"}
        if missing:
            raise SchemaError(f"{where}: missing fields {sorted(missing)}")
        try:
            rec_weight = int(raw["weight"])
            level = int(raw["level"])
            rec_p = int(raw["p"])
            depth = int(raw["depth"])
            label = str(raw["prime_label"])
            evs = {int(q): int(str(v)) for q, v in raw["eigenvalues"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"{where}: malformed field: {exc}") from exc
        if depth < 0:
            raise SchemaError(f"{where}: negative depth")
        if (p is not None and rec_p != p) or (weight is not None and rec_weight != weight):
            raise ParameterError(
                f"{where}: p = {rec_p}, weight = {rec_weight} does not match "
                f"p = {p}, k = {weight}")
        sigma = {rec_p} | {q for q, _ in factorize(level)}
        residual_vals = []
        for q, aq in evs.items():
            if q in sigma:
                continue
            r = aq - (1 + q ** (rec_weight - 1))
            if r != 0:
                v = valp_rational(Fraction(r), rec_p)
                residual_vals.append(int(v))
        if residual_vals and min(residual_vals) != depth:
            raise SchemaError(
                f"{where}: depth {depth} inconsistent with eigenvalues "
                f"(computed {min(residual_vals)})")
        out.append(EigensystemRecord(
            weight=rec_weight, level=level, p=rec_p, prime_label=label,
            eigenvalues=evs, depth=depth, source="external"))
    return out


# ---------------------------------------------------------------------------
# composite report
# ---------------------------------------------------------------------------

def full_report(p: int, k: int, psi: DirichletChar, sigma, *,
                s: int = 6, prec: int = 40, ell: int | None = None,
                m_max: int = 1, records_path=None,
                assume_nontrivial_extension: bool = False, s_max: int = 3) -> dict:
    """Assemble the full pipeline into one JSON-ready report with sections
    parameters, eta, selmer, aux_char, h_construction, depths, criterion."""
    from .hecke1 import depth_scan, scan_prime_bound
    from .qexp import build_h
    sigma = sorted(set(int(x) for x in sigma))
    if p not in sigma:
        raise ParameterError(f"p = {p} must belong to Sigma = {sigma}")
    psi = primitive_char(psi)

    report: dict = {}
    report["parameters"] = {
        "p": p, "k": k, "psi": psi.canonical_text(), "sigma": sigma,
        "s": s, "precision": prec, "s_max": s_max,
        "assume_nontrivial_extension": bool(assume_nontrivial_extension),
    }

    eta_f = psi.order
    if eta_f % p == 0:
        raise ParameterError("value field of psi is ramified at p")
    ctx_eta = padic_context(p, eta_f, s)
    eta_value = eta(psi, k, sigma, ctx_eta)
    report["eta"] = eta_value.as_dict()

    f_res = ctx_eta.residue_degree
    selmer = selmer_upper_km1(p, k, sigma, f_res)
    report["selmer"] = selmer.as_dict()

    if ell is None:
        candidates = [q for q in sigma if q != p and psi.modulus % q != 0]
        ell = candidates[0] if candidates else None
    aux = None
    if ell is not None:
        aux = aux_char_search(p, k, psi, ell, m_max, s=s)
        report["aux_char"] = aux.as_dict()
    else:
        report["aux_char"] = None

    if aux is not None and aux.found:
        work_f = lcm(psi.order, aux.char.order)
        ctx_h = padic_context(p, work_f, s)
        _, h_rep = build_h(psi, k, ell, 1, aux.char, sigma, ctx_h, prec)
        report["h_construction"] = h_rep.as_dict()
    else:
        report["h_construction"] = None

    depths_section: dict = {}
    internal_records = []
    if psi.is_trivial():
        internal_records, skipped = depth_scan(k, p, sigma, s_max)
        depths_section["level1_scan"] = {
            "prime_bound": scan_prime_bound(k),
            "note": "depths verified over recorded primes up to the scan bound",
            "records": [r.as_dict() for r in internal_records],
            "skipped": [{"weight": sk.weight, "p": sk.p, "reason": sk.reason}
                        for sk in skipped],
        }
    else:
        depths_section["level1_scan"] = None
    external_records = []
    if records_path is not None:
        external_records = ingest_records(records_path, p=p, weight=k)
        depths_section["external"] = [r.as_dict() for r in external_records]
    else:
        depths_section["external"] = None
    report["depths"] = depths_section

    hypothesis = dim_chi_hypothesis(
        selmer.dim_chi_upper,
        congruence_certificate=any(r.depth and r.depth >= 1 for r in internal_records),
        assumed=assume_nontrivial_extension)

    criterion_records = external_records if external_records else internal_records
    if criterion_records:
        crit = nonprincipality_verdict(
            eta_value, criterion_records, e=1, f_res=f_res,
            dim_chi_upper=1 if hypothesis["dim_chi_equals_1"] else None)
        report["criterion"] = {"hypothesis": hypothesis, **crit.as_dict()}
    else:
        report["criterion"] = {"hypothesis": hypothesis, "verdict": "inconclusive",
                               "conclusion": "no eigensystem records available"}
    return report
