"""Decision procedures: Selmer-group bound calculators, the congruence-counting
non-principality criterion for the Eisenstein ideal, and ingestion of
externally computed eigensystem records.

The criterion compares the congruence depths of Hecke eigensystems against
the valuation of the congruence-module bound eta(1, k), in integers: when
sum(depths) exceeds val_p(eta) and the opposite-direction Selmer group is
one-dimensional, the Eisenstein ideal cannot be principal.  Every record's
coefficients lie in Z_p (ingestion checks them on integer residues), so
there is no ramification index or residue degree to scale by.
Depths are decided by ``hecke1.congruence_depth``, dim H^1_Sigma(Q, chi) = 1
by ``dim_chi_hypothesis`` and p in Sigma by ``poly.sigma_with_p``, once each.

``hecke1`` and ``qexp`` are imported by the functions that use them
(``ingest_records``, ``full_report``), so the Selmer command loads neither,
and ``build-h`` and ``aux-char``, whose search lives in ``qexp``, load no
``criteria``.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple

from .characters import trivial_char
from .errors import ComputationError, ParameterError, SchemaError
from .exact import START_PRECISION, padic_context
from .lfunc import EtaValue, b1_omega_min_valuation, bernoulli_mod, eta
from .poly import INF, factorize, is_prime, sigma_with_p


# ---------------------------------------------------------------------------
# Selmer bounds
# ---------------------------------------------------------------------------

def selmer_lower_1mk(p: int, k: int, sigma) -> int:
    """Lower bound on val_p(#H^1_Sigma(Q, F(1-k))):
    min(val_p(B_(1,omega^(k-1))), 1) + sum_l min(val_p(1 - l^k), 1), where
    each term of the sum is 1 iff l^k = 1 mod p.  k = p - 1 is out of range:
    B_(1,omega^(p-2)) has p in its denominator."""
    if k % 2 != 0 or not 2 <= k <= p - 3:
        raise ParameterError("need even k with 2 <= k <= p-3")
    sigma = sigma_with_p(p, sigma)
    return b1_omega_min_valuation(k - 1, p) + sum(
        pow(ell, k, p) == 1 for ell in sigma if ell != p)


def local_factor(ell: int, n: int, p: int) -> int:
    """Correction exponent for adding the prime ell to the ramification set
    (lemma 11): min(val_p(ell^(n+1) - 1), 1), that is 1 iff
    ell^(n+1) = 1 mod p (for n + 1 < 0, mod p inverts ell); valid for
    ell != 1 mod p."""
    if n == 0:
        raise ParameterError("n must be nonzero")
    if not is_prime(ell) or ell == p:
        raise ParameterError("ell must be a prime different from p")
    if ell % p == 1:
        raise ParameterError(f"lemma11 requires ell != 1 mod p (got ell = {ell})")
    return int(pow(ell, n + 1, p) == 1)


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
        "p k sigma lower_bound_1mk upper_bound_km1_terms herbrand_status dim_chi_upper")):
    """Computed bounds on the two Selmer groups entering the criterion.

    ``upper_bound_km1_terms`` holds one (ell, term) pair per prime of Sigma
    other than p; ``dim_chi_upper`` is None when no upper bound applies.
    The residue field is F_p, so ``as_dict`` prints a residue field degree
    of 1 and the dimension lower bound equal to ``lower_bound_1mk``."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "sigma": list(self.sigma),
            "residue_field_degree": 1,
            "lower_bound_1mk": self.lower_bound_1mk,
            "dim_chi_inverse_lower": self.lower_bound_1mk,
            "upper_bound_km1_terms": [
                {"ell": ell, "term": t} for ell, t in self.upper_bound_km1_terms],
            "herbrand_status": self.herbrand_status,
            "dim_chi_upper": self.dim_chi_upper,
        }


def selmer_upper_km1(p: int, k: int, sigma) -> SelmerBoundReport:
    """Upper bound on dim H^1_Sigma(Q, F(k-1)): at most 1 from the class
    group eigenspace (when Herbrand applies) plus min(val_p(1-l^(k-2)), 1)
    per extra prime; combined with the lower bound for F(1-k), which also
    checks k and Sigma."""
    sigma_t = tuple(sigma_with_p(p, sigma))
    lower = selmer_lower_1mk(p, k, sigma_t)
    status = herbrand_eigenspace(p, k - 1) if k - 1 > 1 else "not-applicable"
    terms = tuple((ell, local_factor(ell, 1 - k, p)) for ell in sigma_t if ell != p)
    dim_upper = (1 + sum(t for _, t in terms)) if status == "trivial" else None
    return SelmerBoundReport(
        p=p, k=k, sigma=sigma_t, lower_bound_1mk=lower, upper_bound_km1_terms=terms,
        herbrand_status=status, dim_chi_upper=dim_upper)


# ---------------------------------------------------------------------------
# the non-principality criterion
# ---------------------------------------------------------------------------

class CriterionReport(namedtuple(
        "CriterionReport",
        "eta depth_records depth_sum valp_congruence_module verdict conclusion_text")):
    """Verdict of the congruence-counting criterion, from an EtaValue and a
    tuple of EigensystemRecords; the two sides are integers.  ``as_dict``
    still prints "e" and "f_res" as 1 and the depth sum under the key
    "depth_sum_over_e", the payload keys of the scaled criterion."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "eta": self.eta.as_dict(),
            "e": 1,
            "f_res": 1,
            "record_count": len(self.depth_records),
            "depths": [r.depth for r in self.depth_records],
            "depth_sum_over_e": str(self.depth_sum),
            "valp_congruence_module": str(self.valp_congruence_module),
            "verdict": self.verdict,
            "conclusion": self.conclusion_text,
        }


def dim_chi_hypothesis(dim_chi_upper: int | None, *, congruence_certificate: bool = False,
                       assumed: bool = False) -> dict:
    """Decide whether dim H^1_Sigma(Q, chi) = 1 is established.  An upper
    bound of 1 alone leaves dimension 0 open; a nontrivial extension must
    also be known, certified by a level-1 congruence or asserted by the
    user.  The criterion command and the full report decide here, and pass
    the returned dict to ``nonprincipality_verdict``."""
    if dim_chi_upper is not None and dim_chi_upper < 0:
        raise ParameterError(f"dimension bound dim_chi_upper = {dim_chi_upper} must be >= 0")
    certificate = ("level1-congruence" if congruence_certificate
                   else "user-assertion" if assumed else None)
    return {"dim_chi_upper_bound": dim_chi_upper,
            "nontrivial_extension_certificate": certificate,
            "dim_chi_equals_1": dim_chi_upper == 1 and certificate is not None}


def nonprincipality_verdict(eta_value: EtaValue, records, *,
                            hypothesis: dict) -> CriterionReport:
    """Decide the criterion: non-principal iff sum(depths) exceeds
    val_p(eta) and ``hypothesis``, the decision of ``dim_chi_hypothesis``,
    establishes dim H^1_Sigma(Q, chi) = 1; otherwise inconclusive, naming
    the failing condition.  An eta that is not p-integral is a
    ParameterError: no depth sum can be compared with it.
    """
    records = tuple(records)
    for rec in records:
        if rec.p != eta_value.p:
            raise ParameterError("records mix different primes p")
        if rec.depth is None:
            raise ParameterError("records must carry congruence depths")
    if len({(r.weight, r.level) for r in records}) > 1:
        raise ParameterError("records mix different weights or levels")
    if eta_value.valuation_vpi == INF:
        raise ComputationError("eta vanishes; the congruence module is infinite")
    if eta_value.valuation_vpi < 0:
        raise ParameterError(f"val_p(eta) = {eta_value.valuation_vpi} < 0: eta is not "
                             "p-integral, so depths cannot be compared with it")
    depth_sum = sum(r.depth for r in records)
    rhs = eta_value.valuation_vpi
    established = hypothesis["dim_chi_equals_1"]
    if established and depth_sum > rhs:
        verdict = "non-principal"
        conclusion = ("the Eisenstein ideal is not principal and "
                      "#T_mod > dim H^1_Sigma(Q, chi^{-1})")
    else:
        verdict = "inconclusive"
        reasons = []
        if not established:
            reasons.append("dim H^1_Sigma(Q, chi) = 1 is not established")
        if depth_sum <= rhs:
            reasons.append(
                f"depth sum {depth_sum} does not exceed val_p(#O/eta) = {rhs}")
        conclusion = "; ".join(reasons)
    return CriterionReport(
        eta=eta_value, depth_records=records, depth_sum=depth_sum, valp_congruence_module=rhs,
        verdict=verdict, conclusion_text=conclusion)


# ---------------------------------------------------------------------------
# external record ingestion
# ---------------------------------------------------------------------------

_RECORD_FIELDS = {"weight", "level", "p", "prime_label", "eigenvalues", "depth", "source"}


# canonical decimal text; int() also reads '02', '2_9', '+2' and ' 2'
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def _decimal(value, what: str) -> int:
    """A JSON integer, or the int whose canonical decimal text `value` is."""
    if type(value) is int or isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError(f"{what} {value!r} is not a JSON integer or canonical decimal text")


def _distinct_keys(pairs) -> dict:
    """A JSON object, for ``json.load``, which would keep the last of two equal keys."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def ingest_records(path, *, p: int, weight: int) -> list:
    """Load externally computed eigensystem records (UTF-8 JSON with no
    duplicate key: an array, or an object with a "records" array) as
    EigensystemRecords: weight, level, p and depth JSON integers, weight >= 2,
    level >= 1, and an eigenvalue a_q for primes q only, keyed by the decimal
    text of q, each a JSON integer or its canonical decimal text.  Each stated
    depth d must be the ``congruence_depth`` of the record's eigenvalue
    residues read mod p^(d+1), with Sigma = {p} and the primes of the level:
    a record with no prime outside Sigma, or whose residuals all vanish, is
    rejected.  Each record's p and weight must match the given ones; source
    is forced to "external"."""
    from .hecke1 import EigensystemRecord, congruence_depth
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_distinct_keys)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also text that is not UTF-8, and a duplicate key
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
        for field in ("weight", "level", "p", "depth"):
            if type(raw[field]) is not int:  # no float or bool that int() would truncate
                raise SchemaError(f"{where}: {field} {raw[field]!r} is not an integer")
        rec_weight, level, rec_p, depth = raw["weight"], raw["level"], raw["p"], raw["depth"]
        try:
            label = str(raw["prime_label"])
            evs = {_decimal(q, "eigenvalue key"): _decimal(v, f"eigenvalue a_{q}")
                   for q, v in raw["eigenvalues"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"{where}: malformed field: {exc}") from exc
        if depth < 0:
            raise SchemaError(f"{where}: negative depth")
        if rec_weight < 2:
            raise SchemaError(f"{where}: weight {rec_weight} must be >= 2")
        if level < 1:
            raise SchemaError(f"{where}: level {level} must be >= 1")
        bad = next((q for q in evs if not is_prime(q)), None)
        if bad is not None:
            raise SchemaError(f"{where}: eigenvalue key {bad} is not a prime")
        if rec_p != p or rec_weight != weight:
            raise ParameterError(
                f"{where}: p = {rec_p}, weight = {rec_weight} does not match "
                f"p = {p}, k = {weight}")
        if not is_prime(rec_p):
            raise ParameterError(f"{where}: p = {rec_p} is not prime")
        sigma = sorted({rec_p} | {q for q, _ in factorize(level)})
        computed = congruence_depth(evs, rec_weight, rec_p, sigma, depth + 1)
        if computed != depth:
            detail = (f"no recorded prime lies outside Sigma = {sigma}" if computed is None
                      else f"computed {computed} mod {rec_p}^{depth + 1}")
            raise SchemaError(f"{where}: depth {depth} inconsistent with eigenvalues ({detail})")
        out.append(EigensystemRecord(
            weight=rec_weight, level=level, p=rec_p, prime_label=label,
            eigenvalues=evs, depth=depth, source="external"))
    return out


# ---------------------------------------------------------------------------
# composite report
# ---------------------------------------------------------------------------

def full_report(p: int, k: int, sigma, *, prec: int, ell: int | None = None, m_max: int,
                records_path=None, assume_nontrivial_extension: bool = False) -> dict:
    """Assemble the full pipeline for the trivial character into one
    JSON-ready report with sections parameters, eta, selmer, aux_char,
    h_construction, depths, criterion.  The Selmer bound and the level-1
    depths hold for psi = 1 only, so the report takes no character.  The
    defaults of prec and m_max live in the flag table of ``cli``; the scan
    picks its own precision, ``parameters.s_max``, and its depths are exact."""
    from .hecke1 import depth_scan, scan_prime_bound
    sigma = sigma_with_p(p, sigma)
    if m_max < 1:
        raise ParameterError(f"conductor exponent bound m_max = {m_max} must be >= 1")
    psi = trivial_char()
    ctx = padic_context(p, 1)
    eta_value = eta(psi, k, sigma, ctx)
    selmer = selmer_upper_km1(p, k, sigma)

    if ell is None:
        ell = next((q for q in sigma if q not in (2, p)), None)
    aux = built = None
    if ell is not None:
        from .qexp import aux_char_and_h
        aux, built = aux_char_and_h(p, k, psi, ell, m_max, sigma, prec)

    records, skipped, s = depth_scan(k, p, sigma)
    external = None if records_path is None else ingest_records(records_path, p=p, weight=k)

    hypothesis = dim_chi_hypothesis(
        selmer.dim_chi_upper,
        congruence_certificate=any(r.depth >= 1 for r in records),
        assumed=assume_nontrivial_extension)
    criterion_records = external or records
    if criterion_records:
        crit = nonprincipality_verdict(eta_value, criterion_records, hypothesis=hypothesis)
        criterion = {"hypothesis": hypothesis, **crit.as_dict()}
    else:
        criterion = {"hypothesis": hypothesis, "verdict": "inconclusive",
                     "conclusion": "no eigensystem records available"}
    return {
        "parameters": {
            "p": p, "k": k, "psi": psi.canonical_text(), "sigma": sigma,
            "s": START_PRECISION, "precision": prec, "s_max": s,
            "assume_nontrivial_extension": bool(assume_nontrivial_extension),
        },
        "eta": eta_value.as_dict(),
        "selmer": selmer.as_dict(),
        "aux_char": aux.as_dict() if aux else None,
        "h_construction": built[1].as_dict() if built else None,
        "depths": {
            "level1_scan": {
                "prime_bound": scan_prime_bound(k),
                "note": "depths verified over recorded primes up to the scan bound",
                "records": [r.as_dict() for r in records],
                "skipped": [sk._asdict() for sk in skipped],
            },
            "external": None if external is None else [r.as_dict() for r in external],
        },
        "criterion": criterion,
    }
