"""Acceptance gate: the eleven headline claims this package exists to
recompute.  One test per criterion; run with -v for one line each.

Criteria 1-10 are exact identities (integer or polynomial equality).
Each identity is stated once, as a check of the `p2lab verify all`
registry in `p2lab.cli`; GATE is this gate's spec, naming the checks each
criterion consists of, and the criterion holds when all of them pass.
``test_check`` asserts every check of the report, one test id per check,
as `p2lab verify all` prints one line per check.  Criterion 11 is the
numerical budget for the chart-switching integrator.
"""
import json
from fnmatch import fnmatchcase
from fractions import Fraction

from p2lab import atlas, blowup, flow

# the README's three known discrepancies: (computed, expected)
KNOWN = {
    "table[generic] C5.D1": (0, 1),
    "table[generic] C6.D7": (0, 1),
    "orbit-stated-high": ({3: "(-3, 4)", 4: "(-4, 5)", 5: "(-5, 6)"},
                          {3: "(-6, 10)", 4: "(-20, 34)", 5: "(-34, 116)"}),
}

# criterion -> the registry checks it consists of, as fnmatch patterns
GATE = {
    1: ("dynkin-gram",),
    2: ("anticanonical-combination", "anticanonical-null"),
    3: ("complement-forward", "complement-gram", "complement-reverse"),
    4: ("table*",),
    5: ("section-expansion",),
    6: ("orbit-invariants", "orbit-stated-low"),
    7: ("residual shift-up", "residual shift-down", "residual negation",
        "phase residual *", "conjugation", "control sign-flip-only",
        "control unshifted-reflection"),
    8: ("jacobian *", "glue *", "consistency", "hamiltonian-polynomial *",
        "cocycle W1.W3", "cocycle W3.W12", "cocycle-additivity",
        "involution", "period-first-cycle", "period-second-cycle"),
    9: ("euler-invariants",),
    10: ("quadric W1", "quadric W3", "control quadric-published-sign"),
}


def matching(report, pattern):
    ids = [cid for cid in report if fnmatchcase(cid, pattern)]
    assert ids, f"no check matches {pattern!r}"
    return ids


def assert_check(check):
    if check["id"] in KNOWN:
        assert check["status"] == "known-discrepancy", check
        assert (check["computed"], check["expected"]) == KNOWN[check["id"]]
    else:
        assert check["status"] == "pass", check


def assert_criterion(report, n):
    for pattern in GATE[n]:
        for cid in matching(report, pattern):
            assert_check(report[cid])


def test_criterion_01_boundary_gram_matrix(report):
    assert_criterion(report, 1)


def test_criterion_02_anticanonical_class(report):
    assert_criterion(report, 2)


def test_criterion_03_orthogonal_complement(report):
    assert_criterion(report, 3)


def test_criterion_04_intersection_tables(report):
    assert_criterion(report, 4)
    # the discrepancies are exactly the allowlisted pairs
    known = {cid for cid in matching(report, "table*")
             if report[cid]["status"] == "known-discrepancy"}
    assert known == {f"table[generic] {a}.{b}" for a, b in blowup.ALLOWLIST}


def test_criterion_05_section_expansion(report):
    assert_criterion(report, 5)


def test_criterion_06_orbit(report):
    assert_criterion(report, 6)


def test_criterion_07_backlund_residuals(report):
    assert_criterion(report, 7)


def test_criterion_08_atlas(report):
    assert_criterion(report, 8)
    for c in (Fraction(0), Fraction(1), Fraction(-5, 7)):
        assert atlas.period_c2_minus_c1(c) == c
        assert atlas.period_c4_minus_c3(c) == -c - 1


def test_criterion_09_euler_invariants(report):
    assert_criterion(report, 9)


def test_criterion_10_quadric(report):
    assert_criterion(report, 10)


def test_criterion_11_numerics():
    config = flow.IntegratorConfig(rtol=1e-10)

    # invariant loci over t in [0, 2]
    init0 = flow.FlowState("W1", 0.3, 0.0, 0.0, 0.0)
    assert flow.invariant_drift(flow.integrate(0.0, init0, 2.0, config),
                                "p") < 1e-8
    initm = flow.FlowState("W1", 0.3, -0.18, 0.0, -1.0)
    assert flow.invariant_drift(flow.integrate(-1.0, initm, 2.0, config),
                                "shifted") < 1e-8

    # scalar reduction agreement
    worst_q, _ = flow.riccati_compare(0.0, 1.5, 0.0, config)
    assert worst_q < 1e-8

    # forward-backward reversibility
    init = flow.FlowState("W1", 0.0, 0.0, 0.0, 0.5)
    assert flow.reversibility_error(0.5, init, 2.0, config) < 1e-6

    # flow commutes with the parameter-shift symmetry
    initb = flow.FlowState("W1", 0.4, 0.2, 0.0, 0.5)
    assert flow.backlund_numeric_check(0.5, initb, 2.0, config) < 1e-6

    # a generic trajectory crosses a pole: at least one chart switch,
    # with the exact transition applied at the switch point
    traj = flow.integrate(0.5, init, 2.0, config)
    assert len(traj.switches) >= 1
    assert flow.switch_continuity_ok(traj)


def test_check(check_id, report):
    # every check passes except the README's three known discrepancies
    assert_check(report[check_id])


# the passing checks that report unequal values: each keeps a verdict of
# its own, because making its strings equal would move the pinned digest
UNEQUAL = {
    "complement-forward": "two bases of one lattice; the verdict compares "
                          "the spans",
    "complement-reverse": "a basis against the span it must equal, named "
                          "in words",
    "hamiltonian-polynomial W3": "the Hamiltonian against the words 'a "
                                 "polynomial'; building it is the check",
    "hamiltonian-polynomial W12": "the Hamiltonian against the words 'a "
                                  "polynomial'; building it is the check",
    "hamilton-field-base": "the expected strings write t/2 where the field "
                           "prints 1/2*t; the verdict compares the field",
}


def test_a_passing_check_reports_equal_values(report):
    # a value check passes exactly when the values it reports are equal,
    # as printed, except for the checks of UNEQUAL
    unequal = [cid for cid, c in report.items() if c["status"] == "pass"
               and c["computed"] is not None and c["expected"] is not None
               and json.dumps(c["computed"]) != json.dumps(c["expected"])]
    assert unequal == list(UNEQUAL)
