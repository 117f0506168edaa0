"""GPU device memory with coalesced-transaction accounting.

"Unlike main memory, the GPU memory architecture does not have a fixed
unit of transfer.  As a warp executes an instruction accessing GPU
memory, the GPU translates the access into one or more aligned data
transfers of size 32, 64 or 128 bytes" (paper section 5.2).  The
coalescer here implements exactly that: the byte ranges touched by a
warp's lanes in one instruction are covered greedily by aligned 32/64/
128-byte segments, and each segment is one transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.obs.stats import Stats


def grow_array(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` lengthened to ``size`` elements, contents kept.

    ``array`` is 1-D and either owns its allocation or is a prefix
    view of one.  The result views the same allocation while ``size``
    fits in it.  Past that, a new zeroed allocation of ``size + size
    // 8`` elements takes the old contents: the slack is bounded by
    1/8 of the array, and growth costs amortised O(1) per element.
    Elements past the old length are zero.
    """
    if size < array.size:
        raise ValueError("grow_array cannot shrink an array")
    backing = array if array.base is None else array.base
    if size > backing.size:
        backing = np.zeros(size + size // 8, dtype=array.dtype)
        backing[: array.size] = array
    return backing[:size]


@dataclass
class DeviceBuffer:
    """A named allocation in device memory.

    ``array`` may be a prefix view of a larger allocation that
    :meth:`DeviceMemory.resize` grows into.
    """

    name: str
    array: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    @property
    def allocated_bytes(self) -> int:
        """Bytes of the allocation, slack included."""
        base = self.array.base
        return self.array.nbytes if base is None else base.nbytes


@dataclass
class MemoryCounters(Stats):
    """Transaction statistics for one device."""

    transactions_32: int = 0
    transactions_64: int = 0
    transactions_128: int = 0
    bytes_moved: int = 0
    warp_accesses: int = 0

    @property
    def transactions(self) -> int:
        return self.transactions_32 + self.transactions_64 + self.transactions_128


def coalesce(ranges: Iterable[Tuple[int, int]],
             sizes: Tuple[int, ...] = (32, 64, 128)) -> List[Tuple[int, int]]:
    """Cover byte ranges ``(start, length)`` with aligned transactions.

    Returns a list of ``(aligned_start, size)`` transactions.  The
    algorithm mirrors the hardware: touched 32-byte sectors are
    gathered, adjacent sectors merge into 64/128-byte transactions when
    alignment allows.
    """
    min_size = min(sizes)
    max_size = max(sizes)
    sectors = set()
    for start, length in ranges:
        if length <= 0:
            raise ValueError("access length must be positive")
        first = start // min_size
        last = (start + length - 1) // min_size
        sectors.update(range(first, last + 1))
    if not sectors:
        return []
    transactions: List[Tuple[int, int]] = []
    remaining = sorted(sectors)
    covered = set()
    for sector in remaining:
        if sector in covered:
            continue
        # choose the largest aligned transaction that covers this sector
        # and at least one other pending sector, else the smallest
        best = None
        for size in sorted(sizes, reverse=True):
            span = size // min_size
            base = sector // span * span
            members = {s for s in range(base, base + span) if s in sectors}
            pending = members - covered
            if size == min_size or len(pending) * min_size * 2 > size:
                # worth issuing: at least half the transaction is useful
                best = (base * min_size, size, pending)
                break
        if best is None:
            base = sector // 1 * 1
            best = (base * min_size, min_size, {sector})
        start, size, pending = best
        transactions.append((start, size))
        covered.update(
            range(start // min_size, (start + size) // min_size)
        )
    return transactions


class DeviceMemory:
    """All buffers resident on one GPU plus its transaction counters."""

    def __init__(self, capacity_bytes: int,
                 transaction_sizes: Tuple[int, ...] = (32, 64, 128)):
        if capacity_bytes <= 0:
            raise ValueError("device memory capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.transaction_sizes = transaction_sizes
        self._buffers: Dict[str, DeviceBuffer] = {}
        self.counters = MemoryCounters()

    @property
    def used_bytes(self) -> int:
        return sum(buf.allocated_bytes for buf in self._buffers.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def alloc(self, name: str, shape, dtype) -> DeviceBuffer:
        """Allocate a zeroed buffer; raises MemoryError when over capacity."""
        if name in self._buffers:
            raise ValueError(f"device buffer {name!r} already allocated")
        array = np.zeros(shape, dtype=dtype)
        if array.nbytes > self.free_bytes:
            raise MemoryError(
                f"device memory exhausted: need {array.nbytes} bytes, "
                f"{self.free_bytes} free of {self.capacity_bytes}"
            )
        buf = DeviceBuffer(name=name, array=array)
        self._buffers[name] = buf
        return buf

    def upload(self, name: str, host_array: np.ndarray) -> DeviceBuffer:
        """Allocate (or replace) a buffer with a copy of host data."""
        if name in self._buffers:
            old = self._buffers.pop(name)
            del old
        if host_array.nbytes > self.free_bytes:
            raise MemoryError(
                f"device memory exhausted: need {host_array.nbytes} bytes, "
                f"{self.free_bytes} free of {self.capacity_bytes}"
            )
        buf = DeviceBuffer(name=name, array=host_array.copy())
        self._buffers[name] = buf
        return buf

    def resize(self, name: str, size: int) -> DeviceBuffer:
        """Grow a 1-D buffer to ``size`` elements, keeping its contents.

        A device-side allocation: nothing crosses PCIe.  The buffer
        grows into its allocation's slack, or into a new allocation
        with bounded slack (:func:`grow_array`); the first growth of a
        buffer allocates its slack.  New elements are zero.
        """
        buf = self._buffers[name]
        grown = grow_array(buf.array, size)
        extra = grown.base.nbytes - buf.allocated_bytes
        if extra > self.free_bytes:
            raise MemoryError(
                f"device memory exhausted: need {extra} bytes, "
                f"{self.free_bytes} free of {self.capacity_bytes}"
            )
        buf.array = grown
        return buf

    def free(self, name: str) -> None:
        if name not in self._buffers:
            raise KeyError(f"device buffer {name!r} not allocated")
        del self._buffers[name]

    def get(self, name: str) -> DeviceBuffer:
        return self._buffers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def warp_access(self, ranges: Iterable[Tuple[int, int]]) -> int:
        """Record one warp-wide global memory instruction.

        ``ranges`` are the per-lane ``(byte_offset, length)`` accesses
        (within one buffer).  Returns the number of transactions issued.
        """
        txns = coalesce(ranges, self.transaction_sizes)
        for _start, size in txns:
            if size == 32:
                self.counters.transactions_32 += 1
            elif size == 64:
                self.counters.transactions_64 += 1
            else:
                self.counters.transactions_128 += 1
            self.counters.bytes_moved += size
        self.counters.warp_accesses += 1
        return len(txns)
