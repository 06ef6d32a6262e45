import itertools
import re

import pytest

from bosonorder import StringType

_CRITERION = re.compile(r"test_criterion_(\d+)")


@pytest.fixture(scope="session")
def every_small_type():
    """All 819 types of at most 3 factors with exponents 1..3, whatever the
    signs of their excess and prefix excesses."""
    return [StringType(r, s) for n in (1, 2, 3)
            for r in itertools.product((1, 2, 3), repeat=n)
            for s in itertools.product((1, 2, 3), repeat=n)]


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # acceptance criteria report one PASS/FAIL line each in the terminal
    # summary, whatever way the test ended
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    m = _CRITERION.match(item.name)
    if m is None or item.module.__name__ != "test_acceptance":
        return
    status = "PASS" if report.passed else "FAIL"
    doc = (item.function.__doc__ or "").strip().splitlines()
    title = doc[0] if doc else item.name
    item.config._acceptance_lines.append(
        f"criterion {m.group(1)} {status}: {title}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
