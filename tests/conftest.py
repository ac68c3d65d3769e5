import pytest

from hptcanon import ring, verify
from hptcanon.group import GroupTable, build_standard_table
from hptcanon.rules import build_rules

# Acceptance results land here; the terminal-summary hook prints one
# PASS/FAIL line per criterion after the run.  Criteria that never report
# (errored or deselected while others ran) show up as FAIL.
_CRITERIA_TOTAL = 11
_criteria_results = {}


def _record_criterion(number, ok, detail):
    _criteria_results[number] = (bool(ok), detail)


@pytest.fixture(scope="session")
def table():
    return build_standard_table()


@pytest.fixture(scope="session")
def rules(table):
    return build_rules(table)


@pytest.fixture(scope="session")
def r_rules():
    """Rules over the alternate basis <R,P>; `r_rules.table` is its table."""
    return build_rules(GroupTable([("R", ring.R), ("P", ring.P)]))


@pytest.fixture(scope="session")
def checks():
    """One `verify.run_all()` at its defaults, results by check name."""
    return {res.name: res for res in verify.run_all()}


@pytest.fixture(scope="session")
def criteria():
    return _record_criterion


def pytest_terminal_summary(terminalreporter):
    if not _criteria_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in range(1, _CRITERIA_TOTAL + 1):
        if number in _criteria_results:
            ok, detail = _criteria_results[number]
            status = "PASS" if ok else "FAIL"
        else:
            status, detail = "FAIL", "no result recorded"
        terminalreporter.write_line(f"{status} criterion {number}: {detail}")
