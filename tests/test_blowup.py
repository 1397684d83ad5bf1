"""The blow-up engine: curve transforms through the eight centers,
derived divisor classes, and reproduction of the stated intersection
numbers from nothing but defining equations.  Verdicts the `verify`
registry states are asserted once, by `test_acceptance.test_check`."""
import pytest

from p2lab import blowup, lattice
from p2lab.blowup import (
    CurveSpec,
    NotSquarefree,
    RegimeSplit,
    chain_trace,
    curve_specs,
    engine_classes,
    multiplicities,
)
from p2lab.exact import Polynomial, rf


def test_section_multiplicities():
    spec = curve_specs()["S"]
    tr = chain_trace(spec)
    assert tr.multiplicities == (1, 1, 1, 1, 0, 0, 0, 0)
    # the section leaves the last chart through the fiber-coordinate
    # inversion with a single order of vanishing
    assert tr.dropped_section_power == 1


@pytest.mark.parametrize("name,mults", [
    ("C1", (1, 0, 0, 0, 0, 0, 0, 0)),
    ("C2", (1, 0, 0, 0, 0, 0, 0, 0)),
    ("C4", (1, 1, 1, 1, 1, 1, 1, 0)),
    ("C5", (0, 0, 0, 0, 0, 0, 0, 0)),
    ("C6", (1, 1, 1, 1, 1, 1, 1, 1)),
])
def test_curve_multiplicities(name, mults):
    assert multiplicities(curve_specs()[name]) == mults


def test_engine_agrees_with_registry():
    # the registry compares the classes both sides name; here, that the
    # curves which should be shared are
    for regime in lattice.REGIMES:
        shared = set(engine_classes(regime)) & set(lattice.named_classes(regime))
        split_out = {"c=0": {"C2", "C5"}, "c=-1": {"C6"}}.get(regime, set())
        assert {"S", "f", "C1", "C3", "C4", "C5", "C6"} - split_out <= shared


@pytest.mark.parametrize("regime", lattice.REGIMES)
def test_engine_classes_are_derived_once_and_read_only(regime):
    eng = engine_classes(regime)
    assert engine_classes(regime) is eng
    with pytest.raises(TypeError):
        eng["C1"] = eng["C3"]
    with pytest.raises(TypeError):
        del eng["S"]
    assert engine_classes(regime)["S"] == lattice.DivisorClass.of(S=1)


def test_section_class_is_boundary_anchor():
    assert blowup.section_class() == lattice.named_classes()["D0"]


def test_regime_split_errors():
    # each degeneration shows up as the defining polynomial factoring
    # with a chart-variable component; the engine refuses to guess
    for name, regime in (("C2", "c=0"), ("C5", "c=0"), ("C6", "c=-1")):
        with pytest.raises(RegimeSplit):
            chain_trace(curve_specs(regime)[name], regime)


def test_squarefree_guard():
    y3 = Polynomial.variable("y3")
    bad = CurveSpec("doubled", "W3", y3 * y3)
    with pytest.raises(NotSquarefree):
        chain_trace(bad)


def test_stated_table_spot_values():
    rows = {(a, b): v for a, b, v in blowup.stated_intersections("generic")}
    assert rows[("C2", "C4")] == 2
    assert rows[("C1", "D1")] == 1
    assert rows[("C3", "D7")] == 1


def test_degenerate_regime_extra_component():
    # the splitting component is a new -2-curve attached to the graph
    e0 = engine_classes("c=0")
    assert lattice.pair(e0["C2prime"], e0["C2prime"]) == -2
    em = engine_classes("c=-1")
    assert lattice.pair(em["C4prime"], em["C4prime"]) == -2


def test_base_class_degrees():
    specs = curve_specs()
    # the section itself is excluded: its class is a basis element, not
    # a combination the (a, b) bookkeeping applies to
    with pytest.raises(blowup.BlowupError):
        blowup.base_class(specs["S"])
    assert blowup.base_class(specs["C1"]) == (0, 1)
    assert blowup.base_class(specs["C4"]) == (1, 2)
    assert blowup.base_class(specs["C6"]) == (1, 3)


def test_total_class_matches_engine():
    specs = curve_specs()
    eng = engine_classes()
    for name in ("C1", "C4", "C5", "C6"):
        assert blowup.total_class(specs[name]) == eng[name], name


def test_unreduced_numerators_match_the_canonical_route(monkeypatch):
    # the charts' traces from the pair's numerator against the ones from
    # the canonical numerator it replaced
    def traces():
        out = {}
        for regime in lattice.REGIMES:
            for name, spec in curve_specs(regime).items():
                out[regime, name] = (blowup.to_w1(spec, regime)
                                     if spec.chart != "W4" else None,
                                     blowup.to_w4(spec, regime))
                if name != "S":
                    out[regime, name] += blowup.base_class(spec, regime)
        return out

    got = traces()
    monkeypatch.setattr(blowup, "_numerator_after", lambda poly, bindings:
                        rf(poly).substitute(bindings).num)
    assert got == traces()
