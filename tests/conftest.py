import pytest

import robustgrid.ccg as ccg_module
import robustgrid.oracle as oracle_module


def reference_only(inst, budget):
    return [frozenset()]


@pytest.fixture
def reference_start(monkeypatch):
    """CCG's memory starts from the reference realization alone instead of
    the cover, so a small toy still takes several iterations: for tests of
    the loop's and the referee's mechanics rather than of the start."""
    monkeypatch.setattr(ccg_module, "cover", reference_only)


@pytest.fixture
def referee_reference_start(monkeypatch):
    """The enumeration referee's restricted LP starts from the reference
    realization alone instead of the cover, so its first LP falls short of
    the optimum on a small toy: for tests of row generation itself."""
    monkeypatch.setattr(oracle_module, "cover", reference_only)
