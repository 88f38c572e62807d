"""Shared pytest configuration: acceptance summary lines, and a fixed
available memory for the memory guards.

Each acceptance test registers a one-line verdict; the terminal summary
prints them all so a single run shows the full pass/fail table.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")


def sysconf_with_4_gib_available(name, sysconf=os.sysconf):
    """os.sysconf, except that 4 GiB of physical memory reads as available."""
    return 4 * 2 ** 30 // _PAGE_SIZE if name == "SC_AVPHYS_PAGES" else sysconf(name)

_ACCEPTANCE_LINES = {}


def record_acceptance(number, description, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d}: {mark} - {description}"
    if detail:
        line += f" ({detail})"
    _ACCEPTANCE_LINES[number] = line
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for n in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(_ACCEPTANCE_LINES[n])
