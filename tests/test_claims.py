import json
import math
from argparse import Namespace
from fractions import Fraction

import pytest

from zdgecc.claims import (
    MalformedClaim,
    Verdict,
    audit,
    audit_energy,
    audit_integrality,
    audit_structure,
    claimed_spectrum,
    source,
)
from zdgecc.number_theory import is_prime, primes_up_to


def entries(spec):
    return [(e.value if e.exact else e.float_value, e.multiplicity) for e in spec.entries]


# ---------------------------------------------------------------------------
# claimed spectra


def test_claimed_spectrum_31():
    spec = claimed_spectrum("3.1", {"p1": 5, "p2": 7})
    assert entries(spec) == [(Fraction(-2), 8), (Fraction(6), 1), (Fraction(10), 1)]


def test_claimed_spectrum_32_p3():
    spec = claimed_spectrum("3.2", {"p": 3})
    assert entries(spec) == [
        (Fraction(-2), 5),
        (Fraction(-1), 1),
        (Fraction(-1, 5), 1),
        (Fraction(10), 1),
    ]


def test_claimed_spectrum_53_malformed():
    got = claimed_spectrum("5.3", {"p": 3})
    assert isinstance(got, MalformedClaim)
    assert got.claimed_total == 6
    assert got.expected_order == 4


def test_claimed_spectrum_33_malformed():
    got = claimed_spectrum("3.3", {"p": 2})
    assert isinstance(got, MalformedClaim)
    assert got.claimed_total == 9
    assert got.expected_order == 7


def test_claimed_spectrum_52():
    spec = claimed_spectrum("5.2", {"p": 3, "t": 2})
    assert entries(spec) == [(Fraction(-1), 1), (Fraction(1), 1)]
    tiny = claimed_spectrum("5.2", {"p": 2, "t": 2})
    assert entries(tiny) == [(Fraction(0), 1)]


def test_claimed_spectrum_not_applicable():
    with pytest.raises(ValueError):
        claimed_spectrum("3.2", {"p": 2})


# ---------------------------------------------------------------------------
# audits: spectra


def test_audit_31_verified_across_range():
    ps = [p for p in primes_up_to(31) if p >= 3]
    for i, p1 in enumerate(ps):
        for p2 in ps[i + 1 :]:
            v = audit("3.1", {"p1": p1, "p2": p2})
            assert v.verdict is Verdict.VERIFIED, (p1, p2, v.evidence)


def test_audit_32_refuted_with_trace_violation():
    for p in (3, 5):
        v = audit("3.2", {"p": p})
        assert v.verdict is Verdict.REFUTED
        assert v.evidence["claimed_trace_zero"] is False
        assert float(v.evidence["max_deviation"]) > 1e-7


def test_audit_32_not_applicable_at_2():
    v = audit("3.2", {"p": 2})
    assert v.verdict is Verdict.NOT_APPLICABLE


def test_audit_33_malformed():
    for p in (2, 3):
        v = audit("3.3", {"p": p})
        assert v.verdict is Verdict.MALFORMED_CLAIM
        assert v.evidence["claimed_multiplicity_total"] == p**3 + 1
        assert v.evidence["matrix_order"] == p**3 - 1


def test_audit_34_malformed():
    # the cleared residual quartic (x^4 + 22x^2 + 4x - 36 at (2,3)) has a
    # complex pair, so the claimed root set cannot be a real spectrum
    v = audit("3.4", {"p1": 2, "p2": 3})
    assert v.verdict is Verdict.MALFORMED_CLAIM
    assert "non-real" in v.evidence["reason"]


def test_audit_31_star_case_refuted():
    # for p1 = 2 the graph is a star: the center's eccentricity is 1, the
    # block-diagonal form breaks down, and the claimed spectrum fails
    v = audit("3.1", {"p1": 2, "p2": 7})
    assert v.verdict is Verdict.REFUTED
    assert float(v.evidence["max_deviation"]) > 0.5


def test_audit_53_malformed():
    for p in (3, 5):
        v = audit("5.3", {"p": p})
        assert v.verdict is Verdict.MALFORMED_CLAIM


def test_audit_52_verified():
    v = audit("5.2", {"p": 3, "t": 2})
    assert v.verdict is Verdict.VERIFIED
    assert v.evidence["complete"] is True
    for p, t in ((2, 3), (2, 4), (3, 3), (5, 2), (2, 7)):
        assert audit("5.2", {"p": p, "t": t}).verdict is Verdict.VERIFIED


# ---------------------------------------------------------------------------
# audits: integrality


def test_audit_integrality_t2():
    v = audit("5.1", {"p": 5, "t": 2})
    assert v.verdict is Verdict.VERIFIED
    assert v.evidence["computed_integral"] is True


def test_audit_integrality_t3_and_up():
    for p, t in ((2, 3), (2, 4), (3, 3), (3, 4), (5, 3)):
        v = audit("5.1", {"p": p, "t": t})
        assert v.verdict is Verdict.VERIFIED
        assert v.evidence["computed_integral"] is False
        assert v.evidence["residual"]


def test_audit_integrality_residuals():
    v8 = audit("5.1", {"p": 2, "t": 3})
    assert v8.evidence["residual"] == "-2 - 2*x + x^2"
    v27 = audit("5.1", {"p": 3, "t": 3})
    assert v27.evidence["residual"] == "-2 - 11*x + x^2"


def test_audit_integrality_oversize_skipped():
    v = audit("5.1", {"p": 2, "t": 9}, exact_cap=150)
    assert v.verdict is Verdict.SKIPPED


def test_audit_integrality_helper():
    out = audit_integrality(3, 3)
    assert [v.claim_id for v in out] == ["5.1", "5.2"]
    assert [v.verdict for v in out] == [Verdict.VERIFIED, Verdict.VERIFIED]


# ---------------------------------------------------------------------------
# audits: structure


def test_audit_structure_verified():
    v14 = audit("4.3", {"n": 14})
    assert v14.verdict is Verdict.VERIFIED
    assert v14.evidence == {"tree": True, "n_is_2p": True, "star": True}
    v15 = audit("4.3", {"n": 15})
    assert v15.verdict is Verdict.VERIFIED
    assert v15.evidence["tree"] is False
    v4 = audit("4.3", {"n": 4})
    assert v4.verdict is Verdict.VERIFIED


def test_audit_structure_refuted_8_9():
    for n in (8, 9):
        v = audit("4.3", {"n": n})
        assert v.verdict is Verdict.REFUTED
        assert v.evidence["tree"] is True
        assert v.evidence["n_is_2p"] is False


def test_audit_structure_survey_500():
    expected_refuted = {8, 9}
    got = set()
    from zdgecc.number_theory import is_prime

    for n in range(4, 501):
        if is_prime(n):
            continue
        if audit("4.3", {"n": n}).verdict is Verdict.REFUTED:
            got.add(n)
    assert got == expected_refuted


def test_audit_41_42():
    v41 = audit("4.1", {"n": 14})
    assert v41.verdict is Verdict.VERIFIED
    assert abs(float(v41.evidence["least_eigenvalue"]) + 2) < 1e-9
    v42 = audit("4.2", {"n": 14})
    assert v42.verdict is Verdict.VERIFIED
    # P2 (n = 9) is excluded from the least-eigenvalue statement
    assert audit("4.1", {"n": 9}).verdict is Verdict.NOT_APPLICABLE
    assert audit("4.2", {"n": 9}).verdict is Verdict.VERIFIED
    # non-tree
    assert audit("4.1", {"n": 15}).verdict is Verdict.NOT_APPLICABLE


def test_audit_structure_helper():
    out = audit_structure(8)
    assert [v.claim_id for v in out] == ["4.3", "4.1", "4.2"]
    assert [v.verdict for v in out] == [
        Verdict.REFUTED,
        Verdict.VERIFIED,
        Verdict.VERIFIED,
    ]
    out15 = audit_structure(15)
    assert [v.claim_id for v in out15] == ["4.3"]


# ---------------------------------------------------------------------------
# audits: energies


def test_audit_energy_61():
    v = audit("6.1", {"p1": 5, "p2": 7})
    assert v.verdict is Verdict.VERIFIED
    assert v.evidence["complement_energy_exact"] == "16"


def test_audit_energy_62():
    v = audit("6.2", {"p": 3})
    assert v.verdict is Verdict.VERIFIED
    assert v.evidence["complement_energy_exact"] == "10"


def test_audit_energy_gap_63_64():
    v = audit("6.3", {"p1": 3, "p2": 5})
    assert v.verdict is Verdict.VERIFIED
    assert float(v.evidence["gap"]) <= 108
    v64 = audit("6.4", {"p": 3})
    assert v64.verdict is Verdict.VERIFIED


def test_audit_energy_helper():
    out = audit_energy("semiprime", {"p1": 5, "p2": 7})
    assert [v.claim_id for v in out] == ["6.1", "6.3"]
    out_cube = audit_energy("prime_cube", {"p": 3})
    assert [v.claim_id for v in out_cube] == ["6.2", "6.4"]


# ---------------------------------------------------------------------------
# verdict mechanics


def test_verdict_keys():
    v = audit("4.3", {"n": 8})
    assert v.key() == "4.3:n=8"
    v31 = audit("3.1", {"p1": 3, "p2": 5})
    assert v31.key() == "3.1:p1=3;p2=5"


def test_audit_deterministic_evidence_bytes():
    a = audit("3.2", {"p": 3})
    b = audit("3.2", {"p": 3})
    assert a.verdict == b.verdict
    assert json.dumps(a.evidence, sort_keys=True) == json.dumps(b.evidence, sort_keys=True)


def test_refuted_carries_machine_checkable_evidence():
    v = audit("3.2", {"p": 3})
    ev = v.evidence
    assert (
        ev.get("claimed_trace_zero") is False
        or float(ev.get("max_deviation", 0)) > 1e-7
        or "claimed_multiplicity_total" in ev
    )
    assert ev["worst_pair"]["claimed"] != ev["worst_pair"]["computed"]


def test_sources_exist():
    for cid in ("3.1", "4.3", "6.4"):
        assert source(cid)


def test_claim_registry():
    from zdgecc.claims import CLAIMS, THEOREM_IDS

    assert len(CLAIMS) == 14
    assert set(THEOREM_IDS) == set(CLAIMS)
    c = CLAIMS["3.1"]
    assert c.kind == "spectrum" and c.param_names == ("p1", "p2")
    assert c.applicable({"p1": 3, "p2": 3}) == (False, "requires two distinct primes")
    assert c.audit({"p1": 3, "p2": 5}).verdict is Verdict.VERIFIED
    assert CLAIMS["6.1"].claimed({"p1": 5, "p2": 7}) == Fraction(16)
    assert CLAIMS["6.3"].claimed({"p1": 5, "p2": 7}) == Fraction(300)
    assert CLAIMS["6.4"].claimed({"p": 3}) == Fraction(3 * 64)
    assert CLAIMS["4.3"].kind == "structure"


def test_unknown_claim():
    with pytest.raises(ValueError):
        audit("9.9", {"p": 3})


@pytest.mark.parametrize("max_power", [1, 3, 4, 8, 9, 30, 128, 1000, 1024])
def test_prime_powers_sieve_only_to_isqrt(monkeypatch, max_power):
    from zdgecc import claims

    asked = []

    def recording_sieve(n):
        asked.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(claims, "primes_up_to", recording_sieve)
    points = claims.PRIME_POWER.enumerate(Namespace(max_power=max_power))
    brute = [
        {"p": p, "t": t}
        for p in range(2, max_power + 1) if is_prime(p)
        for t in range(2, max_power.bit_length() + 1) if p**t <= max_power
    ]
    assert points == brute
    assert asked and max(asked) <= math.isqrt(max_power)
