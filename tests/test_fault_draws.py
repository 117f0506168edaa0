"""The fault-draw table: bit-identical to numpy's counter-based stream.

Every hook site's decision for operation ``N`` is the first one or two
``random()`` doubles of ``np.random.default_rng([seed, site_id, N])``.
The injector reads them from ``uniform_draws`` blocks; these tests pin
the table to numpy's own generator, and the injector's schedules to
the ones the generator alone produces.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, TransferFault
from repro.faults.injector import DRAW_BLOCK, _site_id, uniform_draws

SEEDS = (0, 1, 7, 0x7FFFFFFF)
SITES = ("transfer", "kernel", "sync", "mirror", "storage.write",
         "storage.media", "storage.read")
#: offsets inside a block, and block starts covering the table's ends
OFFSETS = (0, 1, 2, DRAW_BLOCK // 2, DRAW_BLOCK - 2, DRAW_BLOCK - 1)
STARTS = (0, DRAW_BLOCK, 7 * DRAW_BLOCK, 2**31 - DRAW_BLOCK,
          2**32 - DRAW_BLOCK)


def _numpy_draws(seed, site, index):
    rng = np.random.default_rng([seed, _site_id(site), index])
    return rng.random(), rng.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("site", SITES)
def test_table_matches_numpy(seed, site):
    for start in STARTS:
        first, second = uniform_draws(seed, _site_id(site), start,
                                      DRAW_BLOCK)
        for off in OFFSETS:
            assert (first[off], second[off]) == _numpy_draws(
                seed, site, start + off)


def test_table_is_exact_over_a_whole_block():
    first, second = uniform_draws(7, _site_id("transfer"), 3 * DRAW_BLOCK,
                                  DRAW_BLOCK)
    for off in range(DRAW_BLOCK):
        assert (first[off], second[off]) == _numpy_draws(
            7, "transfer", 3 * DRAW_BLOCK + off)


def test_index_at_the_32_bit_edge():
    for seed in SEEDS:
        first, second = uniform_draws(seed, _site_id("kernel"),
                                      2**32 - 1, 1)
        assert (first[0], second[0]) == _numpy_draws(seed, "kernel",
                                                     2**32 - 1)


def test_table_rejects_multi_word_entropy():
    with pytest.raises(ValueError):
        uniform_draws(0, 0, 2**32 - 1, 2)
    with pytest.raises(ValueError):
        uniform_draws(2**32, 0, 0, 1)


class _GeneratorInjector(FaultInjector):
    """The injector with every draw from a fresh generator: the
    schedule the table must reproduce."""

    def _draws(self, site, index):
        rng = self._rng(site, index)
        return rng.random(), rng.random()


def _drive(injector, ops):
    mirror = np.zeros(64, dtype=np.uint64)
    for _ in range(ops):
        for hook in (injector.on_transfer, injector.on_kernel_launch,
                     injector.on_sync):
            try:
                hook(*((128,) if hook == injector.on_transfer else ()))
            except Exception:
                pass
        injector.maybe_corrupt(mirror)
    return mirror


@pytest.mark.parametrize("seed", (1, 7, 0x7FFFFFFF))
def test_schedules_match_the_generator(seed):
    plan = FaultPlan.uniform(0.05, seed=seed)
    table, generator = FaultInjector(plan), _GeneratorInjector(plan)
    # enough operations to cross a block boundary at every site
    ops = DRAW_BLOCK + 200
    flipped = _drive(table, ops)
    np.testing.assert_array_equal(flipped, _drive(generator, ops))
    assert table.schedule() == generator.schedule()
    assert table.stats.snapshot() == generator.stats.snapshot()
    assert table.stats.total_faults > 0


def test_index_past_the_table_uses_the_generator():
    plan = FaultPlan(seed=5, transfer_fail=0.5)
    fired = []
    for start in (2**32 - 2, 2**32, 2**32 + 1):
        inj = FaultInjector(plan)
        inj._op_counts["transfer"] = start
        try:
            inj.on_transfer(8)
            fired.append(False)
        except TransferFault:
            fired.append(True)
        u_fail, _ = _numpy_draws(5, "transfer", start)
        assert fired[-1] == (u_fail < 0.5)
