"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memsim.mainmem import MemorySystem
from repro.platform.configs import machine_m1, machine_m2
from repro.workloads.generators import generate_dataset
from tests.mirror_oracles import LedgerShadow


@pytest.fixture(scope="session", autouse=True)
def mirror_ledger_shadow():
    """Every ``HBPlusTree.verify_mirror`` call in the suite runs the
    whole-image compare beside the write ledger and fails on the first
    difference (:mod:`tests.mirror_oracles`)."""
    shadow = LedgerShadow()
    shadow.install()
    yield shadow
    shadow.uninstall()


@pytest.fixture(scope="session")
def m1():
    return machine_m1()


@pytest.fixture(scope="session")
def m2():
    return machine_m2()


@pytest.fixture()
def mem(m1):
    return MemorySystem.from_spec(m1.cpu)


@pytest.fixture(scope="session")
def dataset64():
    """A medium 64-bit dataset shared (read-only) across tests."""
    return generate_dataset(4096, key_bits=64, seed=7)


@pytest.fixture(scope="session")
def dataset32():
    return generate_dataset(4096, key_bits=32, seed=7)


@pytest.fixture(scope="session")
def small_dataset64():
    return generate_dataset(512, key_bits=64, seed=11)


def sorted_pairs(keys, values):
    order = np.argsort(keys)
    return keys[order], values[order]
