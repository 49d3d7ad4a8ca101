"""The invariant suites of `gpnf.selftest`, one test each, and their runner."""

import json

import pytest

from gpnf import selftest
from gpnf.cli import dispatch


@pytest.mark.parametrize("fn", [fn for _name, fn in selftest.SUITES],
                         ids=[name for name, _fn in selftest.SUITES])
def test_suite(fn):
    fn()


def _false():
    selftest._check(1 == 2, "one is two")


def test_runner_reports_a_failing_suite(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "SUITES", [("true suite", lambda: None),
                                             ("false suite", _false)])
    assert dispatch(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS  true suite", "FAIL  false suite: AssertionError: one is two"]
    assert dispatch(["selftest", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"schema": 1, "ok": False}
