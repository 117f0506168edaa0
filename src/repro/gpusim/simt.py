"""A literal SIMT interpreter.

Kernels are Python *generator functions*: they receive a
:class:`ThreadCtx` plus the launch arguments, and ``yield`` one
instruction tuple per simulated operation:

===============================  =============================================
``("gld", buffer, index)``       global load of element ``index``; the loaded
                                 value is sent back into the generator
``("gst", buffer, index, v)``    global store
``("shst", name, index, v)``     shared-memory store
``("shld", name, index)``        shared-memory load (value sent back)
``("sync",)``                    ``__syncthreads()`` block-wide barrier
===============================  =============================================

The interpreter executes threads warp by warp in lock step.  Per round
it gathers the pending instruction of every runnable thread of a warp:

* global accesses to one buffer coalesce into 32/64/128-byte
  transactions through :meth:`DeviceMemory.warp_access`;
* mixed instruction kinds (or different target buffers) within a warp
  are *divergence* — each group is serialized and counted;
* shared accesses are checked for bank conflicts
  (``(byte_address / 4) % banks``);
* a barrier parks the thread until every live thread of the block has
  reached one.

This is slow and is meant for correctness: the benchmarks use the
vectorised twin of each kernel, which the tests verify produces
identical results and identical transaction counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.obs.stats import Stats


@dataclass
class GpuKernelStats(Stats):
    """Execution statistics of one kernel launch."""

    blocks: int = 0
    threads: int = 0
    #: warp-instruction slots issued (proxy for dynamic instruction count)
    warp_instructions: int = 0
    global_transactions: int = 0
    shared_accesses: int = 0
    bank_conflicts: int = 0
    barriers: int = 0
    #: rounds in which a warp's threads did not execute one common op
    divergent_rounds: int = 0


class SharedMemory:
    """Per-block ``__shared__`` storage with bank-conflict accounting."""

    def __init__(self, banks: int = 32):
        self.banks = banks
        self._arrays: Dict[str, np.ndarray] = {}

    def declare(self, name: str, shape, dtype=np.int64) -> None:
        self._arrays[name] = np.zeros(shape, dtype=dtype)

    def load(self, name: str, index: int):
        return self._arrays[name].reshape(-1)[index]

    def store(self, name: str, index: int, value) -> None:
        self._arrays[name].reshape(-1)[index] = value

    def bank_of(self, name: str, index: int) -> int:
        itemsize = self._arrays[name].dtype.itemsize
        return (index * itemsize // 4) % self.banks

    def conflict_degree(self, accesses: Iterable[Tuple[str, int]]) -> int:
        """Extra cycles caused by bank conflicts for one warp round.

        Accesses to the same word broadcast; distinct words in the same
        bank serialize.  Returns ``max(words per bank) - 1``.
        """
        per_bank: Dict[int, set] = {}
        for name, index in accesses:
            bank = self.bank_of(name, index)
            per_bank.setdefault(bank, set()).add((name, index))
        if not per_bank:
            return 0
        return max(len(words) for words in per_bank.values()) - 1


@dataclass
class ThreadCtx:
    """What a kernel thread knows about itself (CUDA's built-ins)."""

    thread_idx: Tuple[int, int]
    block_idx: int
    block_dim: Tuple[int, int]
    grid_dim: int
    shared: SharedMemory

    @property
    def global_query_index(self) -> int:
        """Convention used by the search kernels: one query per team
        (= one ``threadIdx.y`` slice of the block)."""
        return self.block_idx * self.block_dim[1] + self.thread_idx[1]


class _Thread:
    __slots__ = ("gen", "ctx", "pending", "alive", "at_sync", "send_value")

    def __init__(self, gen, ctx: ThreadCtx):
        self.gen = gen
        self.ctx = ctx
        self.pending = None
        self.alive = True
        self.at_sync = False
        self.send_value = None

    def advance(self, value=None) -> None:
        """Feed ``value`` into the generator and fetch the next op."""
        try:
            self.pending = self.gen.send(value)
        except StopIteration:
            self.alive = False
            self.pending = None


class KernelLaunch:
    """Configures and executes one kernel over a grid of blocks."""

    def __init__(
        self,
        device_memory: DeviceMemory,
        kernel_fn: Callable,
        grid_dim: int,
        block_dim: Tuple[int, int],
        warp_size: int = 32,
        shared_decls: Optional[Dict[str, tuple]] = None,
        shared_banks: int = 32,
        fault_hook: Optional[Callable[[], None]] = None,
    ):
        if grid_dim <= 0 or block_dim[0] <= 0 or block_dim[1] <= 0:
            raise ValueError("grid and block dimensions must be positive")
        self.memory = device_memory
        self.kernel_fn = kernel_fn
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        self.warp_size = warp_size
        self.shared_decls = shared_decls or {}
        self.shared_banks = shared_banks
        #: invoked once before execution; may raise an injected
        #: launch fault / hang (see :mod:`repro.faults`)
        self.fault_hook = fault_hook

    def run(self, *args) -> GpuKernelStats:
        """Execute the kernel; returns the accumulated statistics."""
        if self.fault_hook is not None:
            self.fault_hook()
        stats = GpuKernelStats()
        for block in range(self.grid_dim):
            block_stats = self._run_block(block, args)
            stats.add(block_stats)
        stats.blocks = self.grid_dim
        return stats

    # ------------------------------------------------------------------

    def _run_block(self, block: int, args) -> GpuKernelStats:
        stats = GpuKernelStats()
        shared = SharedMemory(self.shared_banks)
        for name, (shape, dtype) in self.shared_decls.items():
            shared.declare(name, shape, dtype)
        threads: List[_Thread] = []
        bx, by = self.block_dim
        for y in range(by):
            for x in range(bx):
                ctx = ThreadCtx(
                    thread_idx=(x, y),
                    block_idx=block,
                    block_dim=self.block_dim,
                    grid_dim=self.grid_dim,
                    shared=shared,
                )
                gen = self.kernel_fn(ctx, *args)
                threads.append(_Thread(gen, ctx))
        stats.threads += len(threads)
        for t in threads:
            t.advance(None)

        warps = [
            threads[i: i + self.warp_size]
            for i in range(0, len(threads), self.warp_size)
        ]
        while True:
            alive = [t for t in threads if t.alive]
            if not alive:
                break
            runnable = [t for t in alive if not t.at_sync]
            if not runnable:
                # barrier release: every live thread reached __syncthreads
                stats.barriers += 1
                for t in alive:
                    t.at_sync = False
                    t.advance(None)
                continue
            progressed = False
            for warp in warps:
                ready = [t for t in warp if t.alive and not t.at_sync]
                if not ready:
                    continue
                progressed = True
                self._step_warp(ready, warp, stats)
            if not progressed:
                raise RuntimeError(
                    "SIMT deadlock: threads blocked but no barrier release"
                )
        return stats

    def _step_warp(self, ready: List[_Thread], warp: List[_Thread],
                   stats: GpuKernelStats) -> None:
        """Issue one instruction round for a warp."""
        groups: Dict[tuple, List[_Thread]] = {}
        for t in ready:
            op = t.pending
            kind = op[0]
            if kind == "gld" or kind == "gst":
                key = (kind, id(op[1]))
            else:
                key = (kind,)
            groups.setdefault(key, []).append(t)
        alive_in_warp = [t for t in warp if t.alive]
        if len(groups) > 1 or len(ready) != len(alive_in_warp):
            stats.divergent_rounds += 1
        for key, members in groups.items():
            kind = key[0]
            stats.warp_instructions += 1
            if kind == "sync":
                for t in members:
                    t.at_sync = True
                continue
            if kind == "gld":
                buf: DeviceBuffer = members[0].pending[1]
                itemsize = buf.array.dtype.itemsize
                ranges = [
                    (t.pending[2] * itemsize, itemsize) for t in members
                ]
                stats.global_transactions += self.memory.warp_access(ranges)
                flat = buf.array.reshape(-1)
                values = [flat[t.pending[2]] for t in members]
                for t, v in zip(members, values):
                    t.advance(v)
                continue
            if kind == "gst":
                buf = members[0].pending[1]
                itemsize = buf.array.dtype.itemsize
                ranges = [
                    (t.pending[2] * itemsize, itemsize) for t in members
                ]
                stats.global_transactions += self.memory.warp_access(ranges)
                flat = buf.array.reshape(-1)
                for t in members:
                    flat[t.pending[2]] = t.pending[3]
                for t in members:
                    t.advance(None)
                continue
            if kind in ("shld", "shst"):
                shared = members[0].ctx.shared
                accesses = [(t.pending[1], t.pending[2]) for t in members]
                stats.shared_accesses += len(members)
                stats.bank_conflicts += shared.conflict_degree(accesses)
                if kind == "shst":
                    for t in members:
                        shared.store(t.pending[1], t.pending[2], t.pending[3])
                    for t in members:
                        t.advance(None)
                else:
                    values = [
                        shared.load(t.pending[1], t.pending[2]) for t in members
                    ]
                    for t, v in zip(members, values):
                        t.advance(v)
                continue
            raise ValueError(f"unknown kernel instruction kind: {kind!r}")
