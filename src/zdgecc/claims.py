"""Catalogue of claimed closed-form results and their audits.

``CLAIMS`` is the catalogue: one record per theorem (labelled by its source
theorem number) holding its parameter family (names, hypotheses and the
points the ``audit`` command enumerates), the modulus and graph of its
ground truth, the matrix order there, the claimed spectrum, energy value or
bound, and the audit that checks it.  ``audit`` computes ground truth with
the exact engine and compares, producing a Verified / Refuted /
NotApplicable / MalformedClaim / Skipped verdict with machine-checkable
evidence.

A claim whose multiplicities cannot sum to the matrix order is reported as
MalformedClaim before any numerical comparison; refutations always carry at
least one of: a worst (claimed, computed) eigenvalue pair beyond tolerance,
a trace-zero violation of the claimed multiset, or the multiplicity-count
mismatch itself.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from zdgecc.eccentricity import eccentricity_matrix, is_irreducible
from zdgecc.graphs import (
    Graph,
    build_extended_zdg,
    build_zdg,
    build_zdg_zpzp,
    complement,
    is_complete,
    is_star,
    is_tree,
)
from zdgecc.number_theory import is_prime, primes_up_to
from zdgecc.report import fmt_value, spectrum_json
from zdgecc.spectra import DEFAULT_EXACT_CAP, Spectrum, spectrum
from zdgecc.survey import variant_order


class Verdict(enum.Enum):
    VERIFIED = "Verified"
    REFUTED = "Refuted"
    NOT_APPLICABLE = "NotApplicable"
    MALFORMED_CLAIM = "MalformedClaim"
    SKIPPED = "Skipped"


@dataclass(frozen=True)
class MalformedClaim:
    """Claimed multiset that cannot be a spectrum of the stated matrix."""

    reason: str
    claimed_total: int | None = None
    expected_order: int | None = None


@dataclass(frozen=True)
class AuditVerdict:
    claim_id: str
    params: tuple[tuple[str, int], ...]
    verdict: Verdict
    evidence: dict = field(compare=False)

    def params_token(self) -> str:
        return ";".join(f"{k}={v}" for k, v in self.params)

    def key(self) -> str:
        return f"{self.claim_id}:{self.params_token()}"


# ----------------------------------------------------------------------------
# parameter families


@dataclass(frozen=True)
class Family:
    """Parameter names, hypotheses as (predicate, reason) pairs checked in
    order, and the points the ``audit`` command enumerates from its options."""

    param_names: tuple[str, ...]
    hypotheses: tuple[tuple[Callable[[dict], bool], str], ...]
    enumerate: Callable[[object], list[dict]]


def _primes(args) -> list[dict]:
    return [{"p": p} for p in args.primes or primes_up_to(args.primes_up_to)]


def _prime_pairs(args) -> list[dict]:
    ps = args.primes or [p for p in primes_up_to(args.primes_up_to) if p >= args.primes_from]
    return [{"p1": p1, "p2": p2} for i, p1 in enumerate(ps) for p2 in ps[i + 1 :]]


def _prime_powers(args) -> list[dict]:
    out = []
    # only p <= isqrt(max_power) has p^2 <= max_power
    for p in primes_up_to(math.isqrt(args.max_power)):
        t = 2
        while p**t <= args.max_power:
            out.append({"p": p, "t": t})
            t += 1
    return out


def _composites(args) -> list[dict]:
    return [{"n": n} for n in range(4, args.max_n + 1) if not is_prime(n)]


@functools.lru_cache(maxsize=None)
def _tree_ns(max_n: int) -> tuple[int, ...]:
    """Composite n <= max_n whose zero-divisor graph is a tree; theorems 4.1
    and 4.2 enumerate the same moduli, so each graph is built once."""
    return tuple(n for n in range(4, max_n + 1) if not is_prime(n) and is_tree(build_zdg(n)))


def _tree_moduli(args) -> list[dict]:
    return [{"n": n} for n in _tree_ns(args.max_n)]


_IS_PRIME = (lambda q: is_prime(q.get("p")), "requires a prime")

PAIR = Family(
    ("p1", "p2"),
    ((lambda q: is_prime(q.get("p1")) and is_prime(q.get("p2")) and q.get("p1") != q.get("p2"),
      "requires two distinct primes"),),
    _prime_pairs,
)
PRIME = Family(("p",), (_IS_PRIME,), _primes)
ODD_PRIME = Family(
    ("p",), (_IS_PRIME, (lambda q: q["p"] != 2, "statement excludes p = 2")), _primes
)
PRIME_POWER = Family(
    ("p", "t"),
    (_IS_PRIME, (lambda q: q.get("t", 0) >= 2, "requires t >= 2 (Z_p is an integral domain)")),
    _prime_powers,
)
COMPOSITE = Family(
    ("n",),
    ((lambda q: q.get("n", 0) >= 4 and not is_prime(q["n"]), "requires composite n >= 4"),),
    _composites,
)
TREE = replace(COMPOSITE, enumerate=_tree_moduli)


# ----------------------------------------------------------------------------
# theorem records


def _zdg_order(n: int) -> int:
    return variant_order(n, "zdg")


@dataclass(frozen=True)
class TheoremClaim:
    """One theorem: ``graph(ring(params))`` is its ground truth, with
    ``order(ring(params))`` vertices; ``payload`` is the claimed (value,
    multiplicity, exact) triples (None where none are stated, MalformedClaim
    where they are not real), energy value or gap bound; ``check`` audits an
    applicable point within the exact cap against that ground-truth graph,
    returning (verdict, evidence)."""

    id: str
    kind: str  # spectrum | integrality | energy | gap | structure
    family: Family
    ring: Callable[[dict], int]
    check: Callable[..., tuple[Verdict, dict]]
    source: str
    payload: Callable[[dict], object] | None = None
    graph: Callable[[int], Graph] = build_zdg
    order: Callable[[int], int] = _zdg_order
    eigenvalue_bound: Callable[[dict], int] | None = None
    asserts_complete: bool = False

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.family.param_names

    def applicable(self, params: dict) -> tuple[bool, str]:
        """Whether the claim's stated hypotheses hold for these parameters."""
        for holds, reason in self.family.hypotheses:
            if not holds(params):
                return False, reason
        return True, ""

    def claimed(self, params: dict):
        """The asserted payload: a Spectrum (or MalformedClaim) for spectrum
        claims, the exact energy value for energy claims, the gap bound for
        gap claims; structure claims assert a predicate and have no payload."""
        if self.kind in ("spectrum", "integrality"):
            return claimed_spectrum(self.id, params)
        if self.payload is None:
            raise ValueError(f"claim {self.id} has no closed-form payload")
        return self.payload(params)

    def audit(self, params: dict, tol: float = 1e-7, *, exact_cap: int = DEFAULT_EXACT_CAP) -> "AuditVerdict":
        return audit(self.id, params, tol, exact_cap=exact_cap)


def _lookup(claim_id: str) -> TheoremClaim:
    try:
        return CLAIMS[claim_id]
    except KeyError:
        raise ValueError(f"unknown claim id {claim_id!r}") from None


def _params(**kwargs) -> tuple[tuple[str, int], ...]:
    return tuple((k, int(v)) for k, v in kwargs.items())


# ----------------------------------------------------------------------------
# claimed spectra


def _theta_roots_34(p1: int, p2: int) -> tuple[list[tuple[float, int]], bool]:
    """Residual root set for claim 3.4 from the cleared rational expression.

    The expression is (-x)^(p1-2) * (N(x)/D(x) - (p2-1) x); clearing D gives
    (-x)^(p1-2) * (N(x) - (p2-1) x D(x)).  Returns (real roots with
    multiplicity, all_real flag).
    """
    q = p2 - 1
    # N(x) ascending: constant, x, x^2
    n_coeffs = [36 * q * q - 36 * q, 18 * q * q - 44 * q, -9 * q * q - 4 * q]
    # D(x) = x^3 - 2(p2-3) x^2 - 4(p2-2)
    d_coeffs = [-4 * (p2 - 2), 0, -2 * (p2 - 3), 1]
    # T = N - q * x * D, ascending degree 4
    t_coeffs = [0] * 5
    for i, c in enumerate(n_coeffs):
        t_coeffs[i] += c
    for i, c in enumerate(d_coeffs):
        t_coeffs[i + 1] -= q * c
    roots = np.roots(list(reversed([float(c) for c in t_coeffs])))
    out: list[tuple[float, int]] = []
    all_real = True
    for r in roots:
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r)):
            out.append((float(r.real), 1))
        else:
            all_real = False
    if p1 > 2:
        out.append((0.0, p1 - 2))
    return out, all_real


def _claimed_32(q: dict) -> list[tuple[object, int, bool]]:
    p = q["p"]
    return [
        (-1, p - 2, True),
        (-2, p * p - p - 1, True),
        (2 * p * p - 2 * p - 2, 1, True),
        (Fraction(p**3 - 4 * p * p + p + 4, 2 * p * p - 2 * p - 2), 1, True),
    ]


def _claimed_33(q: dict) -> list[tuple[object, int, bool]]:
    p = q["p"]
    lam = math.sqrt(2 + 2 * p + p**2 + 2 * p**3 - 10 * p**4 + 4 * p**5 + p**6)
    base = -1 - p - p**3
    return [
        (-2, p * p * (p - 1), True),
        (0, p * p - 1, True),
        (base - lam, 1, False),
        (base + lam, 1, False),
    ]


def _claimed_34(q: dict) -> list[tuple[object, int, bool]] | MalformedClaim:
    p1, p2 = q["p1"], q["p2"]
    theta, all_real = _theta_roots_34(p1, p2)
    if not all_real:
        return MalformedClaim(reason="residual root set contains non-real roots")
    pairs = [
        (0, p1 * p1 + 2 * p1 - 4, True),
        (-2, p1 * (p2 - 1), True),
        (2 * p2 - 6, 1, True),
        (2 * (p1 - 1) * (p2 - 1) - 4, 1, True),
    ]
    pairs.extend((v, m, False) for v, m in theta)
    return pairs


def claimed_spectrum(claim_id: str, params: dict) -> Spectrum | MalformedClaim:
    """The closed-form multiset a claim asserts, or MalformedClaim.

    Exact formulas yield exact rationals; surd/residual parts are floats.
    Multiplicities are checked against the matrix order before anything is
    compared numerically.
    """
    claim = _lookup(claim_id)
    ok, why = claim.applicable(params)
    if not ok:
        raise ValueError(f"claim {claim_id} not applicable: {why}")
    pairs = claim.payload(params) if claim.kind in ("spectrum", "integrality") else None
    if pairs is None:
        raise ValueError(f"claim {claim_id} asserts no spectrum at {params}")
    expected = claim.order(claim.ring(params))
    if isinstance(pairs, MalformedClaim):
        return replace(pairs, expected_order=expected)
    spec = Spectrum.from_pairs(pairs)
    if spec.order != expected:
        return MalformedClaim(
            reason="claimed multiplicities do not sum to the matrix order",
            claimed_total=spec.order,
            expected_order=expected,
        )
    return spec


# ----------------------------------------------------------------------------
# comparison machinery


def _claimed_sanity(spec: Spectrum) -> dict:
    exact_part = sum(
        (e.value * e.multiplicity for e in spec.entries if e.exact), Fraction(0)
    )
    float_part = sum(
        e.value * e.multiplicity for e in spec.entries if not e.exact
    )
    total = float(exact_part) + float_part
    zero = abs(total) <= 1e-6 * max(1, spec.order)
    return {
        "claimed_trace": fmt_value(exact_part) if spec.all_exact else fmt_value(total),
        "claimed_trace_zero": zero,
    }


def _compare_spectra(claimed: Spectrum, computed: Spectrum, tol: float) -> dict:
    """Positional comparison of equally-sized sorted multisets."""
    cl = claimed.expand()
    co = computed.expand()
    assert len(cl) == len(co)
    max_dev = 0.0
    worst = None
    exact_mismatch = False
    for a, b in zip(cl, co):
        if a.exact and b.exact and a.value != b.value:
            exact_mismatch = True
        dev = abs(a.float_value - b.float_value)
        if dev > max_dev or (worst is None):
            max_dev = dev
            worst = (a.value_text(), b.value_text())
    matches = (not exact_mismatch) and max_dev <= tol
    return {
        "matches": matches,
        "max_deviation": fmt_value(max_dev),
        "worst_pair": {"claimed": worst[0], "computed": worst[1]} if worst else None,
        "exact_mismatch": exact_mismatch,
    }


def _computed_spectrum(graph, exact_cap: int) -> Spectrum:
    mat = eccentricity_matrix(graph)
    spec = spectrum(mat, "exact", exact_cap=exact_cap)
    # sanity preflight: trace zero and multiplicity sum
    if spec.order != mat.shape[0]:
        raise ArithmeticError("computed multiplicities do not sum to the order")
    if abs(spec.eigen_sum()) > 1e-7 * max(1, mat.shape[0]):
        raise ArithmeticError("computed spectrum violates trace zero")
    exact_sum = sum(
        (e.value * e.multiplicity for e in spec.entries if e.exact), Fraction(0)
    )
    if spec.all_exact and exact_sum != 0:
        raise ArithmeticError("computed exact spectrum violates trace zero")
    return spec


# ----------------------------------------------------------------------------
# audits: each takes (claim, params, graph, tol, exact_cap) for an applicable
# point within the exact cap, where graph is the ground truth
# claim.graph(claim.ring(params)), and returns (verdict, evidence)


def _verdict(ok: bool) -> Verdict:
    return Verdict.VERIFIED if ok else Verdict.REFUTED


def _spectrum_audit(claim: TheoremClaim, q: dict, graph: Graph, tol: float, exact_cap: int):
    claimed = claimed_spectrum(claim.id, q)
    computed = _computed_spectrum(graph, exact_cap)
    if isinstance(claimed, MalformedClaim):
        return Verdict.MALFORMED_CLAIM, {
            "reason": claimed.reason,
            "claimed_multiplicity_total": claimed.claimed_total,
            "matrix_order": claimed.expected_order,
            "computed_spectrum": spectrum_json(computed),
        }
    ev = {
        "claimed_spectrum": spectrum_json(claimed),
        "computed_spectrum": spectrum_json(computed),
    }
    ev.update(_claimed_sanity(claimed))
    cmp = _compare_spectra(claimed, computed, tol)
    ev["max_deviation"] = cmp["max_deviation"]
    ev["worst_pair"] = cmp["worst_pair"]
    if claim.asserts_complete:
        ev["complete"] = is_complete(graph)
        if not ev["complete"]:
            return Verdict.REFUTED, ev
    return _verdict(cmp["matches"]), ev


def _integrality_audit(claim: TheoremClaim, q: dict, graph: Graph, tol: float, exact_cap: int):
    claimed_integral = q["t"] == 2
    computed = _computed_spectrum(graph, exact_cap)
    cert = computed.certificate
    ev = {
        "computed_integral": cert.integral,
        "claimed_integral": claimed_integral,
        "factorization": cert.text(),
        "residual": None if cert.integral else cert.residual.text(),
    }
    if cert.integral != claimed_integral:
        return Verdict.REFUTED, ev
    if claimed_integral:
        claimed = claimed_spectrum(claim.id, q)
        cmp = _compare_spectra(claimed, computed, tol)
        ev["claimed_spectrum"] = spectrum_json(claimed)
        ev["computed_spectrum"] = spectrum_json(computed)
        ev["max_deviation"] = cmp["max_deviation"]
        if not cmp["matches"]:
            return Verdict.REFUTED, ev
    return Verdict.VERIFIED, ev


def _energy_audit(claim: TheoremClaim, q: dict, graph: Graph, tol: float, exact_cap: int):
    spec_c = _computed_spectrum(complement(graph), exact_cap)
    formula = claim.payload(q)
    exact_energy = spec_c.energy_exact()
    ev = {
        "complement_energy": fmt_value(spec_c.energy()),
        "complement_energy_exact": None if exact_energy is None else fmt_value(exact_energy),
        "formula_value": fmt_value(formula),
        "complement_spectrum": spectrum_json(spec_c),
    }
    if exact_energy is not None:
        return _verdict(exact_energy == formula), ev
    return _verdict(abs(spec_c.energy() - float(formula)) <= tol), ev


def _gap_audit(claim: TheoremClaim, q: dict, graph: Graph, tol: float, exact_cap: int):
    spec_g = _computed_spectrum(graph, exact_cap)
    spec_c = _computed_spectrum(complement(graph), exact_cap)
    bound = claim.payload(q)
    gap = abs(spec_g.energy() - spec_c.energy())
    ev = {
        "energy": fmt_value(spec_g.energy()),
        "complement_energy": fmt_value(spec_c.energy()),
        "gap": fmt_value(gap),
        "bound": fmt_value(bound),
    }
    ok_gap = gap <= bound + tol
    if claim.eigenvalue_bound is not None:
        lam_bound = claim.eigenvalue_bound(q)
        worst = max(abs(e.float_value) for s in (spec_g, spec_c) for e in s.entries)
        ev["eigenvalue_bound"] = fmt_value(lam_bound)
        ev["max_abs_eigenvalue"] = fmt_value(worst)
        ok_gap = ok_gap and worst <= lam_bound + tol
    return _verdict(ok_gap), ev


def _tree_iff_2p_audit(claim: TheoremClaim, q: dict, graph: Graph, tol: float, exact_cap: int):
    n = q["n"]
    tree = is_tree(graph)
    is_2p = n % 2 == 0 and is_prime(n // 2)
    star = is_star(graph) if tree else False
    ev = {"tree": tree, "n_is_2p": is_2p, "star": star}
    return _verdict(tree == is_2p and (not is_2p or star)), ev


def _irreducible_audit(claim: TheoremClaim, q: dict, graph: Graph, tol: float, exact_cap: int):
    if not is_tree(graph):
        return Verdict.NOT_APPLICABLE, {"reason": "zero-divisor graph is not a tree"}
    irr = is_irreducible(eccentricity_matrix(graph))
    return _verdict(irr), {"irreducible": irr}


def _least_eigenvalue_audit(claim: TheoremClaim, q: dict, graph: Graph, tol: float, exact_cap: int):
    if not is_tree(graph):
        return Verdict.NOT_APPLICABLE, {"reason": "zero-divisor graph is not a tree"}
    if graph.n_vertices < 3:
        return Verdict.NOT_APPLICABLE, {
            "reason": "statement excludes trees on fewer than 3 vertices"
        }
    least = spectrum(eccentricity_matrix(graph), "float").least()
    star = is_star(graph)
    at_minus_two = abs(least + 2.0) <= 1e-9
    ev = {"least_eigenvalue": fmt_value(least), "star": star}
    return _verdict(least <= -2.0 + 1e-9 and (at_minus_two == star)), ev


def audit(
    claim_id: str,
    params: dict,
    tol: float = 1e-7,
    *,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> AuditVerdict:
    """Audit one claim at one parameter point."""
    claim = _lookup(claim_id)
    prm = _params(**params)
    ok, why = claim.applicable(params)
    if not ok:
        # the tree audits report the modulus itself as the reason
        reason = "n is prime" if claim.kind == "structure" else why
        return AuditVerdict(claim.id, prm, Verdict.NOT_APPLICABLE, {"reason": reason})
    modulus = claim.ring(params)
    if claim.kind != "structure":
        order = claim.order(modulus)
        if order > exact_cap:
            return AuditVerdict(
                claim.id, prm, Verdict.SKIPPED,
                {"reason": f"order {order} exceeds exact cap {exact_cap}"},
            )
    verdict, evidence = claim.check(claim, params, claim.graph(modulus), tol, exact_cap)
    return AuditVerdict(claim.id, prm, verdict, evidence)


def audit_structure(n: int, tol: float = 1e-7) -> list[AuditVerdict]:
    """Tree/star/irreducibility audits for one modulus (claims 4.1-4.3)."""
    out = [audit("4.3", {"n": n}, tol)]
    g_tree = out[0].evidence.get("tree")
    if g_tree:
        out.append(audit("4.1", {"n": n}, tol))
        out.append(audit("4.2", {"n": n}, tol))
    return out


def audit_integrality(
    p: int, t: int, tol: float = 1e-7, *, exact_cap: int = DEFAULT_EXACT_CAP
) -> list[AuditVerdict]:
    """Integrality audits for Z_{p^t}: plain graph (5.1) and extended (5.2)."""
    return [
        audit("5.1", {"p": p, "t": t}, tol, exact_cap=exact_cap),
        audit("5.2", {"p": p, "t": t}, tol, exact_cap=exact_cap),
    ]


def audit_energy(
    family: str, params: dict, tol: float = 1e-7, *, exact_cap: int = DEFAULT_EXACT_CAP
) -> list[AuditVerdict]:
    """Energy and gap audits: family 'semiprime' -> 6.1+6.3, 'prime_cube' -> 6.2+6.4."""
    if family == "semiprime":
        ids = ("6.1", "6.3")
    elif family == "prime_cube":
        ids = ("6.2", "6.4")
    else:
        raise ValueError(f"unknown family {family!r}")
    return [audit(cid, params, tol, exact_cap=exact_cap) for cid in ids]


def source(claim_id: str) -> str:
    return CLAIMS[claim_id].source


# ----------------------------------------------------------------------------
# the catalogue: id, kind, family, ground-truth modulus, audit, source, payload


CLAIMS: dict[str, TheoremClaim] = {c.id: c for c in (
    TheoremClaim(
        "3.1", "spectrum", PAIR, lambda q: q["p1"] * q["p2"], _spectrum_audit,
        "Theorem 3.1: spectrum {-2^(p1+p2-4), (2p1-4)^1, (2p2-4)^1} for the zero-divisor graph of Z_{p1 p2}",
        lambda q: [(-2, q["p1"] + q["p2"] - 4, True), (2 * q["p1"] - 4, 1, True), (2 * q["p2"] - 4, 1, True)],
    ),
    TheoremClaim(
        "3.2", "spectrum", ODD_PRIME, lambda q: q["p"] ** 3, _spectrum_audit,
        "Theorem 3.2: spectrum {-1^(p-2), -2^(p^2-p-1), (2p^2-2p-2)^1, ((p^3-4p^2+p+4)/(2p^2-2p-2))^1} for Z_{p^3}, p odd",
        _claimed_32,
    ),
    TheoremClaim(
        "3.3", "spectrum", PRIME, lambda q: q["p"] ** 4, _spectrum_audit,
        "Theorem 3.3: spectrum {-2^(p^2(p-1)), 0^(p^2-1), (-1-p-p^3 +/- Lambda)^1} for Z_{p^4}",
        _claimed_33,
    ),
    TheoremClaim(
        "3.4", "spectrum", PAIR, lambda q: q["p1"] ** 2 * q["p2"], _spectrum_audit,
        "Theorem 3.4: explicit part {0, -2, 2p2-6, 2(p1-1)(p2-1)-4} plus residual root set for Z_{p1^2 p2}",
        _claimed_34,
    ),
    TheoremClaim(
        "4.1", "structure", TREE, lambda q: q["n"], _least_eigenvalue_audit,
        "Theorem 4.1: least eccentricity eigenvalue of a tree (not P2) is <= -2, equal iff the tree is a star",
    ),
    TheoremClaim(
        "4.2", "structure", TREE, lambda q: q["n"], _irreducible_audit,
        "Theorem 4.2: the eccentricity matrix of a tree is irreducible",
    ),
    TheoremClaim(
        "4.3", "structure", COMPOSITE, lambda q: q["n"], _tree_iff_2p_audit,
        "Theorem 4.3: the zero-divisor graph of Z_n is a tree iff n = 2p, and then a star",
    ),
    TheoremClaim(
        "5.1", "integrality", PRIME_POWER, lambda q: q["p"] ** q["t"], _integrality_audit,
        "Theorem 5.1: eccentricity eigenvalues of the zero-divisor graph of Z_{p^t} are integers iff t = 2",
        lambda q: [(q["p"] - 2, 1, True), (-1, q["p"] - 2, True)] if q["t"] == 2 else None,
    ),
    TheoremClaim(
        "5.2", "spectrum", PRIME_POWER, lambda q: q["p"] ** q["t"], _spectrum_audit,
        "Theorem 5.2: the extended zero-divisor graph of Z_{p^t} (t >= 2) is complete with integral spectrum",
        lambda q: [(-1, q["p"] ** (q["t"] - 1) - 2, True), (q["p"] ** (q["t"] - 1) - 2, 1, True)],
        graph=build_extended_zdg, asserts_complete=True,
    ),
    TheoremClaim(
        "5.3", "spectrum", PRIME, lambda q: q["p"], _spectrum_audit,
        "Theorem 5.3: spectrum {-2^(2(p-1)), (2p-6)^2} for the zero-divisor graph of Z_p x Z_p",
        lambda q: [(-2, 2 * (q["p"] - 1), True), (2 * q["p"] - 6, 2, True)],
        graph=build_zdg_zpzp, order=lambda p: 2 * (p - 1),
    ),
    TheoremClaim(
        "6.1", "energy", PAIR, lambda q: q["p1"] * q["p2"], _energy_audit,
        "Theorem 6.1: eccentricity energy of the complement for Z_{p1 p2} equals 2(p1+p2-4)",
        lambda q: Fraction(2 * (q["p1"] + q["p2"] - 4)),
    ),
    TheoremClaim(
        "6.2", "energy", PRIME, lambda q: q["p"] ** 3, _energy_audit,
        "Theorem 6.2: eccentricity energy of the complement for Z_{p^3} equals 2p(p-1)-2",
        lambda q: Fraction(2 * q["p"] * (q["p"] - 1) - 2),
    ),
    TheoremClaim(
        "6.3", "gap", PAIR, lambda q: q["p1"] * q["p2"], _gap_audit,
        "Theorem 6.3: |E(G) - E(complement)| <= 3(p1+p2-2)^2 for Z_{p1 p2}; proof bounds each |lambda| by 2(p1+p2-2)",
        lambda q: Fraction(3 * (q["p1"] + q["p2"] - 2) ** 2),
        eigenvalue_bound=lambda q: 2 * (q["p1"] + q["p2"] - 2),
    ),
    TheoremClaim(
        "6.4", "gap", PRIME, lambda q: q["p"] ** 3, _gap_audit,
        "Theorem 6.4: |E(G) - E(complement)| <= 3(p^2-1)^2 for Z_{p^3}",
        lambda q: Fraction(3 * (q["p"] ** 2 - 1) ** 2),
    ),
)}
THEOREM_IDS = tuple(CLAIMS)
