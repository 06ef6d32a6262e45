import itertools
import re

import pytest

from bosonorder import StringType

_CRITERION = re.compile(r"test_criterion_(\d+)")


def all_small_types(max_n=3, max_entry=3, nonneg_prefixes_only=True):
    """Every type with n factors and entries in 1..max_entry; by default only
    those whose prefix excesses stay nonnegative (the closed form's domain)."""
    types = []
    for n in range(1, max_n + 1):
        for r in itertools.product(range(1, max_entry + 1), repeat=n):
            for s in itertools.product(range(1, max_entry + 1), repeat=n):
                t = StringType(r, s)
                if not nonneg_prefixes_only or t.has_nonnegative_prefixes():
                    types.append(t)
    return types


@pytest.fixture(scope="session")
def sweep_types():
    return all_small_types()


@pytest.fixture(scope="session")
def every_small_type():
    """All 819 types of at most 3 factors with exponents 1..3, negative
    prefix excesses included."""
    return all_small_types(nonneg_prefixes_only=False)


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
