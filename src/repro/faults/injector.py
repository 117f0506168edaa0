"""The injector: counter-based deterministic fault decisions.

Each hook site (``"transfer"``, ``"kernel"``, ``"mirror"``, ``"sync"``)
keeps its own operation counter.  The decision for the N-th operation
at a site derives every random draw from ``(plan.seed, site, N)``
through a counter-based RNG, so:

* replaying the same plan against the same operation sequence yields an
  *identical* fault schedule (the acceptance criterion),
* decisions at one site never perturb another site's stream,
* for a fixed ``(site, N)`` the underlying uniform draw is shared
  across plans with different rates — raising a rate can only add
  faults, never move them (common random numbers).

The counter-based RNG is ``np.random.default_rng([seed, site_id, N])``.
Building that generator costs ~20 µs, more than most operations it
screens, so the hook sites read its first two doubles from a draw
table instead: :func:`uniform_draws` computes them for a block of
:data:`DRAW_BLOCK` consecutive indices at once, bit-identical to
numpy's SeedSequence → PCG64 → ``random()`` chain.  Draws beyond the
first two (a fired bit flip's position, the storage hooks) and indices
past the table's 32-bit range still build the generator; every fault
schedule is the same either way.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    KernelHang,
    KernelLaunchFault,
    PartialRead,
    SyncInterrupted,
    TornWrite,
    TransferFault,
    TransferTimeout,
)
from repro.obs.stats import Stats


def _site_id(site: str) -> int:
    """Stable 32-bit id of a site name (Python's hash() is salted)."""
    return zlib.crc32(site.encode("ascii"))


#: consecutive operation indices per block of a site's draw table
DRAW_BLOCK = 1024

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U64(0xCA01F9DD), _U64(0x4973F715)
_POOL = 4
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit words and the
# low word's 32-bit halves
_PCG_HI, _PCG_LO = _U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645)
_PCG_LO0, _PCG_LO1 = _PCG_LO & _M32, _PCG_LO >> _U64(32)


def _hash_consts(init: int, mult: int, n: int) -> List[np.uint64]:
    """The first ``n`` multipliers of a SeedSequence hash sequence (it
    depends on the call count only, never on the data)."""
    out, h = [], init
    for _ in range(n):
        h = (h * mult) & 0xFFFFFFFF
        out.append(_U64(h))
    return out


# mix_entropy: one hashmix per pool word, then one per ordered pair of
# distinct pool words; generate_state: one per 32-bit output word
_A_MUL = _hash_consts(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_A_XOR = [_U64(_INIT_A)] + _A_MUL[:-1]
_B_MUL = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_B_XOR = [_U64(_INIT_B)] + _B_MUL[:-1]


def _mul_hi64(a: np.ndarray) -> np.ndarray:
    """High 64 bits of ``a * _PCG_LO`` (a 64x64 -> 128-bit product),
    from 32-bit partial products."""
    a0, a1 = a & _M32, a >> _U64(32)
    p00, p01 = a0 * _PCG_LO0, a0 * _PCG_LO1
    p10, p11 = a1 * _PCG_LO0, a1 * _PCG_LO1
    mid = (p00 >> _U64(32)) + (p01 & _M32) + (p10 & _M32)
    return (p11 + (p01 >> _U64(32)) + (p10 >> _U64(32))
            + (mid >> _U64(32)))


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 state step, ``state * MULT + inc`` mod 2^128."""
    new_hi = _mul_hi64(lo) + lo * _PCG_HI + hi * _PCG_LO
    new_lo = lo * _PCG_LO
    out_lo = new_lo + inc_lo
    return new_hi + inc_hi + (out_lo < new_lo).astype(_U64), out_lo


def uniform_draws(seed: int, site_id: int, start: int,
                  n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first two ``random()`` doubles of
    ``np.random.default_rng([seed, site_id, i])`` for ``i`` in
    ``[start, start + n)``, as two float64 arrays.

    A vectorised twin of numpy's chain, in explicit ``uint64``
    arithmetic that keeps every 32-bit intermediate masked: SeedSequence
    pool mixing of the three entropy words, ``generate_state(4,
    uint64)``, PCG64 seeding and two XSL-RR outputs, each shifted to a
    53-bit double.  Every entropy word must be below 2^32 (one
    SeedSequence word each), so ``seed`` and ``site_id`` are 32-bit and
    ``start + n <= 2**32``.
    """
    if not (0 <= seed < 1 << 32 and 0 <= site_id < 1 << 32
            and 0 <= start and start + n <= 1 << 32):
        raise ValueError("draw-table entropy words must be 32-bit")
    words = [np.full(n, seed, dtype=_U64), np.full(n, site_id, dtype=_U64),
             np.arange(start, start + n, dtype=_U64),
             np.zeros(n, dtype=_U64)]
    calls = iter(zip(_A_XOR, _A_MUL))

    def hashmix(value):
        xor, mul = next(calls)
        value = ((value ^ xor) * mul) & _M32
        return value ^ (value >> _U64(16))

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> _U64(16))

    pool = [hashmix(w) for w in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state = []
    for i, (xor, mul) in enumerate(zip(_B_XOR, _B_MUL)):
        value = ((pool[i % _POOL] ^ xor) * mul) & _M32
        state.append(value ^ (value >> _U64(16)))
    # little-endian pairs of 32-bit words -> seed (hi, lo), inc (hi, lo)
    s_hi, s_lo, i_hi, i_lo = (state[2 * k] | (state[2 * k + 1] << _U64(32))
                              for k in range(4))
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1; step; add seed;
    # step
    inc_hi = (i_hi << _U64(1)) | (i_lo >> _U64(63))
    inc_lo = (i_lo << _U64(1)) | _U64(1)
    zero = np.zeros(n, dtype=_U64)
    hi, lo = _lcg_step(zero, zero, inc_hi, inc_lo)
    lo_sum = lo + s_lo
    hi = hi + s_hi + (lo_sum < lo).astype(_U64)
    hi, lo = _lcg_step(hi, lo_sum, inc_hi, inc_lo)
    out = []
    for _ in range(2):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> _U64(58)
        x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        out.append((x >> _U64(11)).astype(np.float64)
                   * (1.0 / 9007199254740992.0))
    return out[0], out[1]


@dataclass
class FaultStats(Stats):
    """How often each fault kind fired (and how often it could have)."""

    exported = ("total_faults",)

    transfer_ops: int = 0
    kernel_ops: int = 0
    mirror_ops: int = 0
    sync_ops: int = 0
    storage_write_ops: int = 0
    storage_media_ops: int = 0
    storage_read_ops: int = 0
    transfer_fails: int = 0
    transfer_timeouts: int = 0
    kernel_fails: int = 0
    kernel_hangs: int = 0
    bitflips: int = 0
    sync_interrupts: int = 0
    torn_writes: int = 0
    storage_bitflips: int = 0
    partial_reads: int = 0

    @property
    def total_faults(self) -> int:
        return (
            self.transfer_fails + self.transfer_timeouts + self.kernel_fails
            + self.kernel_hangs + self.bitflips + self.sync_interrupts
            + self.torn_writes + self.storage_bitflips + self.partial_reads
        )


class FaultInjector:
    """Turns a :class:`FaultPlan` into fault decisions at hook sites.

    The injector is passive: the instrumented components
    (:class:`repro.gpusim.transfer.PcieLink`,
    :class:`repro.gpusim.device.GpuDevice`,
    :class:`repro.core.hbtree.HBPlusTree`) call its ``on_*`` hooks and
    translate raised :class:`~repro.faults.plan.FaultError` subclasses
    into failed operations.  ``active`` gates everything — a paused or
    disabled injector never fires (used while building a tree, during
    cost-model sampling, and to model "faults cleared" recovery).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.active = True
        self.stats = FaultStats()
        self.events: List[FaultEvent] = []
        self._op_counts: Dict[str, int] = {}
        #: site -> (block, first doubles, second doubles) of the block
        #: of the draw table the site's counter is in
        self._tables: Dict[str, Tuple[int, np.ndarray, np.ndarray]] = {}

    # -- lifecycle ------------------------------------------------------

    def disable(self) -> None:
        """Stop injecting (models the fault condition clearing)."""
        self.active = False

    def enable(self) -> None:
        self.active = True

    @contextmanager
    def paused(self):
        """Temporarily suppress injection (planning, calibration)."""
        prev = self.active
        self.active = False
        try:
            yield self
        finally:
            self.active = prev

    # -- deterministic draws --------------------------------------------

    def _next_index(self, site: str) -> int:
        n = self._op_counts.get(site, 0)
        self._op_counts[site] = n + 1
        return n

    def _rng(self, site: str, index: int) -> np.random.Generator:
        return np.random.default_rng(
            [self.plan.seed & 0x7FFFFFFF, _site_id(site), index]
        )

    def _draws(self, site: str, index: int) -> Tuple[float, float]:
        """The first two doubles of ``self._rng(site, index)``, from
        the site's draw table."""
        if index >= 1 << 32:
            # past the table's one-word index range
            rng = self._rng(site, index)
            return rng.random(), rng.random()
        block = index // DRAW_BLOCK
        table = self._tables.get(site)
        if table is None or table[0] != block:
            first, second = uniform_draws(
                self.plan.seed & 0x7FFFFFFF, _site_id(site),
                block * DRAW_BLOCK, DRAW_BLOCK,
            )
            table = (block, first, second)
            self._tables[site] = table
        off = index - block * DRAW_BLOCK
        return table[1][off], table[2][off]

    def _record(self, kind: FaultKind, site: str, index: int,
                detail: tuple = ()) -> None:
        self.events.append(FaultEvent(kind, site, index, detail))

    # -- hook sites -----------------------------------------------------

    def on_transfer(self, nbytes: int, site: str = "transfer") -> None:
        """Called by the PCIe link before moving ``nbytes``.

        Raises :class:`TransferFault` or :class:`TransferTimeout`.
        """
        if not self.active:
            return
        self.stats.transfer_ops += 1
        index = self._next_index(site)
        u_fail, u_timeout = self._draws(site, index)
        if u_fail < self.plan.transfer_fail:
            self.stats.transfer_fails += 1
            self._record(FaultKind.TRANSFER_FAIL, site, index, (nbytes,))
            raise TransferFault(site, index)
        if u_timeout < self.plan.transfer_timeout:
            self.stats.transfer_timeouts += 1
            self._record(FaultKind.TRANSFER_TIMEOUT, site, index, (nbytes,))
            raise TransferTimeout(site, index)

    def on_kernel_launch(self, site: str = "kernel") -> None:
        """Called before a kernel launch.

        Raises :class:`KernelLaunchFault` or :class:`KernelHang`.
        """
        if not self.active:
            return
        self.stats.kernel_ops += 1
        index = self._next_index(site)
        u_fail, u_hang = self._draws(site, index)
        if u_fail < self.plan.kernel_fail:
            self.stats.kernel_fails += 1
            self._record(FaultKind.KERNEL_FAIL, site, index)
            raise KernelLaunchFault(site, index)
        if u_hang < self.plan.kernel_hang:
            self.stats.kernel_hangs += 1
            self._record(FaultKind.KERNEL_HANG, site, index)
            raise KernelHang(site, index)

    def on_sync(self, site: str = "sync") -> None:
        """Called before an I-segment mirror sync.

        Raises :class:`SyncInterrupted`; the caller must leave the old
        mirror in place (stale) and flag it.
        """
        if not self.active:
            return
        self.stats.sync_ops += 1
        index = self._next_index(site)
        if self._draws(site, index)[0] < self.plan.sync_interrupt:
            self.stats.sync_interrupts += 1
            self._record(FaultKind.SYNC_INTERRUPT, site, index)
            raise SyncInterrupted(site, index)

    def maybe_corrupt(self, array: np.ndarray,
                      site: str = "mirror") -> List[Tuple[int, int]]:
        """Possibly flip one bit of ``array`` in place (device memory).

        Returns the flipped ``(flat_element, bit)`` positions — empty
        when no corruption fired.  Only integer arrays are supported
        (the I-segment mirror is ``uint64``).
        """
        if not self.active or array.size == 0:
            return []
        self.stats.mirror_ops += 1
        index = self._next_index(site)
        if self._draws(site, index)[0] >= self.plan.bitflip:
            return []
        # a fired flip draws its position from the same stream
        rng = self._rng(site, index)
        rng.random()
        flat = array.reshape(-1)
        elem = int(rng.integers(0, flat.size))
        bit = int(rng.integers(0, flat.dtype.itemsize * 8))
        flat[elem] = flat[elem] ^ flat.dtype.type(1 << bit)
        self.stats.bitflips += 1
        self._record(FaultKind.BITFLIP, site, index, (elem, bit))
        return [(elem, bit)]

    # -- storage hook sites (snapshot/restore lifecycle) ----------------

    def on_storage_write(self, nbytes: int,
                         site: str = "storage.write") -> None:
        """Called before an atomic snapshot write of ``nbytes``.

        Raises :class:`TornWrite` carrying the deterministically drawn
        fraction of the payload that reached the medium; the writer must
        persist exactly that prefix (to a temp file — never the target
        path) before propagating, so the crash is observable on disk.
        """
        if not self.active:
            return
        self.stats.storage_write_ops += 1
        index = self._next_index(site)
        rng = self._rng(site, index)
        u_torn, u_frac = rng.random(), rng.random()
        if u_torn < self.plan.torn_write:
            self.stats.torn_writes += 1
            fraction = float(u_frac)
            self._record(FaultKind.TORN_WRITE, site, index,
                         (nbytes, fraction))
            raise TornWrite(site, index, fraction)

    def corrupt_bytes(self, data: bytes,
                      site: str = "storage.media") -> Tuple[bytes, list]:
        """Possibly flip one bit of an at-rest payload.

        Models silent media corruption *after* the checksum was
        computed; returns ``(payload, flips)`` where ``flips`` lists
        the flipped ``(byte, bit)`` positions — empty when nothing
        fired.  The input is never mutated.
        """
        if not self.active or len(data) == 0:
            return data, []
        self.stats.storage_media_ops += 1
        index = self._next_index(site)
        rng = self._rng(site, index)
        if rng.random() >= self.plan.storage_bitflip:
            return data, []
        byte = int(rng.integers(0, len(data)))
        bit = int(rng.integers(0, 8))
        out = bytearray(data)
        out[byte] ^= 1 << bit
        self.stats.storage_bitflips += 1
        self._record(FaultKind.STORAGE_BITFLIP, site, index, (byte, bit))
        return bytes(out), [(byte, bit)]

    def on_storage_read(self, nbytes: int,
                        site: str = "storage.read") -> None:
        """Called after reading ``nbytes`` back from storage.

        Raises :class:`PartialRead` carrying the fraction actually
        read; the reader truncates its buffer to that prefix and lets
        envelope validation reject it (length/CRC mismatch).
        """
        if not self.active:
            return
        self.stats.storage_read_ops += 1
        index = self._next_index(site)
        rng = self._rng(site, index)
        u_partial, u_frac = rng.random(), rng.random()
        if u_partial < self.plan.partial_read:
            self.stats.partial_reads += 1
            fraction = float(u_frac)
            self._record(FaultKind.PARTIAL_READ, site, index,
                         (nbytes, fraction))
            raise PartialRead(site, index, fraction)

    # -- replay ---------------------------------------------------------

    def schedule(self) -> List[Tuple[str, str, int, tuple]]:
        """The fault schedule as plain tuples (stable across runs)."""
        return [
            (e.kind.value, e.site, e.index, tuple(e.detail))
            for e in self.events
        ]

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.plan.seed}, active={self.active}, "
            f"faults={self.stats.total_faults})"
        )
