"""Shared pytest plumbing: a cache directory per test and the
acceptance-criteria summary block."""

import pytest


def _fresh_cache_dir(tmp_path_factory):
    """Point ``CHAINLENS_CACHE_DIR`` at a fresh directory until the
    fixture ends, so nothing writes under the home directory or reads
    cache entries written elsewhere. Stage subprocesses inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("CHAINLENS_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


# one for the module-scoped fixtures, which run before any test's
_module_cache_dir = pytest.fixture(scope="module", autouse=True)(_fresh_cache_dir)
# and one for each test
_cache_dir = pytest.fixture(autouse=True)(_fresh_cache_dir)

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion_report():
    """Record one pass/fail line for an acceptance criterion.

    The line prints immediately (visible with -s and in failure
    output) and again in the terminal summary so a plain `pytest -v`
    run always ends with one line per criterion.
    """

    def _report(number: int, ok: bool, detail: str) -> None:
        line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
