"""Shared pytest hooks and fixtures.

Prints one uncaptured PASS/FAIL line per acceptance criterion so the result
of each contract is visible in the raw test log even though pytest captures
stdout of passing tests.
"""

import re

import numpy as np
import pytest

import dsunet.losses
import dsunet.tensor

_CRITERION = re.compile(r"test_criterion_0*(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None or report.when != "call":
        return
    number = int(m.group(1))
    label = m.group(2).replace("_", " ")
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {number} ({label}): {outcome}")


@pytest.fixture
def received_grads(monkeypatch):
    """Record (tensor, gradient dtype) for every gradient a backward pass
    hands to a tensor, before the tensor's own buffer casts it."""
    original = dsunet.tensor._accumulate
    calls = []

    def recording(t, g):
        calls.append((t, np.asarray(g).dtype))
        original(t, g)

    for module in (dsunet.tensor, dsunet.losses):
        monkeypatch.setattr(module, "_accumulate", recording)
    return calls
