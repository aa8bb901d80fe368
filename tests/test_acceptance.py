"""Acceptance suite: one test per criterion, all tolerances exact.

The criteria run through the same checks as the ``verify`` CLI subcommand
(welschinger.verification), so the command-line gate and this module cannot
diverge.  Each test prints its criterion verdict so a verbose run shows one
pass/fail line per criterion.
"""

import pytest

from welschinger.verification import all_checks

_CHECKS = all_checks()


@pytest.mark.parametrize("name,check", _CHECKS, ids=[name for name, _ in _CHECKS])
def test_acceptance_criterion(name, check, capsys):
    passed, details = check()
    with capsys.disabled():
        print(f"\n[{'PASS' if passed else 'FAIL'}] {name}")
    assert passed, f"criterion failed: {name}\n" + "\n".join(details)
