"""Replay the mutants that CHANGES.md records, and fail if one survives.

Each record names a file, an old text that must occur in it exactly once,
the new text that replaces it, the test ids that must fail under the
edit, and its source: the CHANGES.md entry that records it (by the start
of the entry's headline) and the mutant as described there.

    python tests/mutants.py

For each record the script copies this checkout, without ``.git`` and the
caches, to a temporary directory outside it, applies the edit there and
runs the record's ids in one child ``python`` with the copy as its working
directory.  The child runs pytest under the ``p2lab-mutants`` Hypothesis
profile (``tests/conftest.py``: no shrink phase, no example database), so
a failing property stops at its first failing example.  pytest's
``pythonpath = ["src"]`` puts the copy's ``src`` first, and the child
reports the file ``p2lab`` was imported from, which must lie in the copy.

Before any mutant, every old text is looked up in this checkout, and the
ids of all records run once on an unmutated copy, where each must pass.
The script prints one line per record and exits 1 if an old text is
stale, a named id does not pass on the unmutated copy, or a mutant
survives: some named id did not fail.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache",
                              "__pycache__", ".benchmarks", "*.egg-info",
                              "build", "results")

Mutant = namedtuple("Mutant", "file old new kills source")

# the CHANGES.md entries, by the start of their headlines
_CHAIN = "The blow-up chain is declared once: "
_SAME = "A verify check's verdict comes from the values it reports: "
_CUT = "The two stdlib stand-ins keep only the surface p2lab uses: "

_ACC = "tests/test_acceptance.py::"
_CLI = "tests/test_cli.py::"
_BLOWUP_ROUTE = "tests/test_blowup.py::test_the_prepared_blow_ups_match_the_two_step_route"
_EULER_KILLS = (_ACC + "test_check[euler-invariants]",
                _ACC + "test_criterion_09_euler_invariants")

MUTANTS = (
    # -- the blow-up chain's centers, and the prepared blow-ups ----------
    Mutant("src/p2lab/blowup.py",
           'Polynomial.variable("t"), 2 * Polynomial.variable("c") + 1)',
           'Polynomial.variable("t"), 2 * Polynomial.variable("c") - 1)',
           (_ACC + "test_check[class[generic] C6]",
            _ACC + "test_check[table[c=-1] C4prime.C4prime]",
            "tests/test_blowup.py::test_degenerate_regime_extra_component",
            "tests/test_atlas.py::test_w12_chart_is_the_blow_up_chain"),
           _CHAIN + "the last center 2c + 1 -> 2c - 1"),
    Mutant("src/p2lab/blowup.py",
           'Polynomial.variable("t"), 2 *',
           '-Polynomial.variable("t"), 2 *',
           (_ACC + "test_check[class[generic] C4]",
            _ACC + "test_criterion_04_intersection_tables",
            "tests/test_atlas.py::test_w12_chart_is_the_blow_up_chain"),
           _CHAIN + "the seventh center t -> -t"),
    Mutant("src/p2lab/blowup.py",
           "Polynomial.const(2), Polynomial.zero(),",
           "Polynomial.const(-2), Polynomial.zero(),",
           (_ACC + "test_check[table[generic] C6.D4]",
            _ACC + "test_check[class[generic] C6]",
            "tests/test_atlas.py::test_w12_chart_is_the_blow_up_chain"),
           _CHAIN + "the fifth center 2 -> -2"),
    Mutant("src/p2lab/blowup.py",
           "        center = _specialize(center, regime)\n",
           "",
           (_BLOWUP_ROUTE + "[c=0]", _BLOWUP_ROUTE + "[c=-1]"),
           _CHAIN + "c not set in the center"),
    Mutant("src/p2lab/blowup.py",
           "_p(ny) * _p(nz) + center",
           "_p(ny) * _p(nz) - center",
           (_BLOWUP_ROUTE + "[generic]", _BLOWUP_ROUTE + "[c=0]",
            _BLOWUP_ROUTE + "[c=-1]"),
           _CHAIN + "the center subtracted"),
    Mutant("src/p2lab/blowup.py",
           'z = "v8" if z == "z8" else z',
           "z = z",
           (_BLOWUP_ROUTE + "[generic]", _BLOWUP_ROUTE + "[c=0]",
            _BLOWUP_ROUTE + "[c=-1]"),
           _CHAIN + "the fifth step binding z8 rather than v8"),
    # -- verdicts from the reported values -------------------------------
    Mutant("src/p2lab/cli.py",
           "[[-2, 2], [2, -2]]",
           "[[-2, 2], [2, -3]]",
           (_ACC + "test_check[complement-gram]",
            _ACC + "test_criterion_03_orthogonal_complement"),
           _SAME + "complement-gram's reported expected value"),
    Mutant("src/p2lab/cli.py",
           "computed == expected, computed, expected, note",
           "computed != expected, computed, expected, note",
           _EULER_KILLS + (_ACC + "test_check[complement-gram]",),
           _SAME + "_same comparing with !="),
    Mutant("src/p2lab/cli.py",
           "[0, 12, -10, 10, 2, 1]",
           "[0, 12, -10, 10, 2, 2]",
           _EULER_KILLS,
           _SAME + "the Euler invariants' expected value ending in 2"),
    # -- the report writer, the stored rational and their neighbours -----
    Mutant("src/p2lab/cli.py",
           """head += f'"{k}": '""",
           """head += f'{k}: '""",
           (_CLI + "test_the_report_writer_matches_json_dumps",
            _CLI + "test_the_report_writer_writes_each_report_as_json_does[all]"),
           _CUT + "_write dropping the quotes around an int key"),
    Mutant("src/p2lab/cli.py",
           "elif type(k) is int:",
           "elif isinstance(k, int):",
           (_CLI + "test_the_report_writer_refuses_what_a_report_cannot_hold[bool-key]",),
           _CUT + "_write taking a bool key as an int"),
    Mutant("src/p2lab/cli.py",
           "elif isinstance(v, list):",
           "elif isinstance(v, (list, tuple)):",
           (_CLI + "test_the_report_writer_refuses_what_a_report_cannot_hold[tuple]",),
           _CUT + "_write taking a tuple as a list"),
    Mutant("src/p2lab/exact.py",
           "return a.numerator * b.denominator < b.numerator * a.denominator",
           "return a.numerator * b.denominator > b.numerator * a.denominator",
           ("tests/test_exact.py::test_the_stored_rational_matches_fraction",),
           _CUT + "_Rat.__lt__ comparing with >"),
    Mutant("src/p2lab/exact.py",
           "return _Rat(n + b * d, d)",
           "return _Rat(n - b * d, d)",
           ("tests/test_exact.py::test_the_stored_rational_matches_fraction",),
           _CUT + "_Rat.__add__'s int branch computing n - b * d"),
    Mutant("src/p2lab/exact.py",
           "                raise NotPolynomial(v.den)\n",
           "                pass\n",
           ("tests/test_exact.py::test_subs_poly_refuses_a_binding_with_a_denominator[quotient]",
            "tests/test_exact.py::test_a_prepared_substitution_matches_the_mapping_route"),
           _CUT + "subs_poly taking a binding with a denominator"),
    Mutant("src/p2lab/flow.py",
           "if rtol == math.inf or atol == math.inf:",
           "if rtol == math.inf:",
           ("tests/test_flow.py::test_an_infinite_tolerance_is_refused[atol]",),
           _CUT + "IntegratorConfig taking an infinite atol"),
)

# The child: run the ids under pytest, then write which passed, which
# failed, and where p2lab came from, to the file named by argv[1].
CHILD = """
import json, sys
import pytest

outcomes = {}

class Record:
    def pytest_runtest_logreport(self, report):
        if report.failed:
            outcomes[report.nodeid] = "failed"
        elif report.when == "call" and report.passed:
            outcomes.setdefault(report.nodeid, "passed")

pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-profile=p2lab-mutants",
             *sys.argv[2:]], plugins=[Record()])
p2lab = sys.modules.get("p2lab")
with open(sys.argv[1], "w") as f:
    json.dump({"outcomes": outcomes,
               "p2lab": getattr(p2lab, "__file__", None)}, f)
"""


def occurrences(m: Mutant) -> int:
    """How often the record's old text occurs in its file."""
    return (ROOT / m.file).read_text().count(m.old)


def run_ids(ids, mutant: Mutant | None = None) -> dict:
    """The outcome of each id, on a fresh copy of the checkout with the
    mutant's edit applied (none if mutant is None)."""
    with tempfile.TemporaryDirectory(prefix="p2lab-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if mutant is not None:
            path = copy / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        out = Path(tmp) / "outcomes.json"
        subprocess.run([sys.executable, "-c", CHILD, str(out), *ids],
                       cwd=copy, stdout=subprocess.DEVNULL, timeout=1800)
        if not out.exists():
            raise SystemExit(f"the child wrote no outcomes for {ids}")
        found = json.loads(out.read_text())
        where = found["p2lab"]
        if where is None or copy.resolve() not in Path(where).resolve().parents:
            raise SystemExit(f"p2lab was imported from {where}, "
                             f"not from the copy {copy}")
        return found["outcomes"]


def main() -> int:
    start = time.perf_counter()
    stale = [m for m in MUTANTS if occurrences(m) != 1]
    for m in stale:
        print(f"STALE     {m.source}: {m.file} has {occurrences(m)} "
              f"occurrences of {m.old!r}, not 1")
    if stale:
        return 1
    ids = list(dict.fromkeys(i for m in MUTANTS for i in m.kills))
    outcomes = run_ids(ids)
    not_passing = [i for i in ids if outcomes.get(i) != "passed"]
    for i in not_passing:
        print(f"UNMUTATED {i}: {outcomes.get(i, 'not run')}, not passed")
    if not_passing:
        return 1
    print(f"unmutated: the {len(ids)} named ids pass")
    survived = 0
    for m in MUTANTS:
        outcomes = run_ids(m.kills, m)
        alive = [i for i in m.kills if outcomes.get(i) != "failed"]
        if alive:
            survived += 1
            print(f"SURVIVED  {m.source}: {', '.join(alive)} did not fail")
        else:
            print(f"killed    {m.source}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
