"""Deterministic hypothesis configuration, and the session's verify
report.

The gcd-backed strategies have heavy-tailed runtimes, so randomized
example selection makes the suite flaky in wall-clock terms.  Derandomize
everything: each run explores the same examples, and a budget that passed
once keeps passing.

`p2lab verify all` runs once per session; its checks are parametrized as
one test id each and read through the ``report`` fixture.

Child processes get this checkout's ``src`` first on their PYTHONPATH
(``checkout_env``), so they run the code under test, not an installed copy.
"""
import functools
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from p2lab import cli

settings.register_profile(
    "p2lab",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.filter_too_much,
                           HealthCheck.too_slow],
)
# the same, ten times deeper: CI runs the generated-code properties of
# tests/test_flow.py, the report writer's, the prepared substitution's,
# the stored rational's and the prepared blow-ups' under it once
# (--hypothesis-profile=p2lab-deep)
settings.register_profile("p2lab-deep", settings.get_profile("p2lab"),
                          max_examples=600)
settings.load_profile("p2lab")


@functools.cache
def _verify_all() -> dict:
    checks = cli.run_suite("all")["checks"]
    by_id = {c["id"]: c for c in checks}
    assert len(by_id) == len(checks), "check ids must be unique"
    return by_id


def pytest_generate_tests(metafunc):
    # one test id per `p2lab verify all` check, in the report's order
    if "check_id" in metafunc.fixturenames:
        ids = list(_verify_all())
        metafunc.parametrize("check_id", ids, ids=ids)


@pytest.fixture(scope="session")
def report() -> dict:
    """`p2lab verify all`'s checks by id, computed once per session: the
    registry in `p2lab.cli` states each identity, and tests read its
    verdicts here instead of deriving them again."""
    return _verify_all()


@pytest.fixture(scope="session")
def checkout_env() -> dict:
    """The environment for a child python, with this checkout's ``src``
    ahead of anything else on its PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
