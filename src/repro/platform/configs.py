"""Hardware descriptions for the simulated evaluation machines.

All time values are nanoseconds and all sizes bytes unless a unit is part
of the field name.  The specs carry the published characteristics of the
paper's two machines, scaled down by :data:`SCALE_FACTOR` where a quantity
is a *capacity* that must cross the same regime boundaries at our smaller
dataset sizes (LLC size, GPU memory, huge-page size).  Bandwidths and
latencies are kept at their real magnitudes so that absolute throughput
numbers land in the same order of magnitude the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Dataset scaling factor relative to the paper (paper: 8M..1B tuples,
#: simulation default: 128K..16M tuples).  Capacities in the machine
#: configs are divided by this factor.
SCALE_FACTOR = 64

GB = 1024**3
MB = 1024**2
KB = 1024

#: Width of a cache line / the GPU transaction granularity used by the
#: HB+-tree node layouts (bytes).
CACHE_LINE = 64


@dataclass(frozen=True)
class CpuSpec:
    """A multi-core CPU with a cache/TLB hierarchy.

    ``llc_bytes`` is the (scaled) last-level cache capacity, the quantity
    that determines where tree search turns from compute bound into memory
    bound (paper section 5.1).
    """

    name: str
    cores: int
    threads: int
    freq_ghz: float
    llc_bytes: int
    mem_bandwidth_gbs: float
    mem_latency_ns: float
    has_avx2: bool
    simd_width_bits: int = 256
    cache_line: int = CACHE_LINE
    #: data TLB entries for small (4 KB) pages
    tlb_entries_small: int = 64
    #: second-level TLB entries shared by small pages
    stlb_entries: int = 512
    #: TLB entries available for huge pages (the paper: "only four
    #: entries in the last level TLB for 1GB pages")
    tlb_entries_huge: int = 4
    small_page: int = 4 * KB
    #: scaled stand-in for a 1 GB page (1 GB / SCALE_FACTOR = 16 MB)
    huge_page: int = GB // SCALE_FACTOR
    #: memory accesses required for a page walk (Intel SDM: 5 levels for
    #: 4 KB pages, 3 for 1 GB pages)
    page_walk_accesses_small: int = 5
    page_walk_accesses_huge: int = 3
    #: effective average page-walk cost in ns.  Most walk accesses hit
    #: the paging-structure caches, so the cost is far below
    #: ``accesses * mem_latency``; the 5-vs-3 access asymmetry is kept
    #: (this asymmetry is why the all-huge-pages configuration wins in
    #: Fig 7(b) even where it misses more often).
    page_walk_ns_small: float = 26.0
    page_walk_ns_huge: float = 14.0
    #: effective memory-level parallelism of one thread's software
    #: pipeline (limited by line-fill buffers and dependent address
    #: generation; calibrated so P=16 software pipelining yields the
    #: paper's ~2.5x speedup, Fig 20)
    max_memory_parallelism: int = 2

    @property
    def page_walk_cost_small_ns(self) -> float:
        """Average cost of a 4 KB page walk."""
        return self.page_walk_ns_small

    @property
    def page_walk_cost_huge_ns(self) -> float:
        """Average cost of a huge-page walk (cheaper: fewer levels)."""
        return self.page_walk_ns_huge

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz

    @property
    def line_transfer_ns(self) -> float:
        """Time to stream one cache line at full memory bandwidth."""
        return self.cache_line / self.mem_bandwidth_gbs


@dataclass(frozen=True)
class GpuSpec:
    """A discrete CUDA-style GPU.

    The paper's search kernels are device-memory-bandwidth bound, so the
    decisive fields are ``mem_bandwidth_gbs`` and ``device_mem_bytes``
    (the capacity wall that motivates the hybrid design).
    """

    name: str
    sms: int
    cores: int
    freq_ghz: float
    device_mem_bytes: int
    mem_bandwidth_gbs: float
    mem_latency_ns: float
    warp_size: int = 32
    max_resident_threads: int = 2048 * 12
    #: kernel launch / scheduling overhead (K_init in the paper's model)
    kernel_init_ns: float = 8_000.0
    #: supported device-memory transaction sizes
    transaction_sizes: tuple = (32, 64, 128)
    shared_mem_banks: int = 32
    #: fraction of peak bandwidth achieved by dependent random 64-byte
    #: transactions (tree descent is the worst case for GDDR5: no
    #: locality, one address dependency per level)
    random_access_efficiency: float = 0.32

    @property
    def effective_bandwidth_gbs(self) -> float:
        """Sustained bandwidth for the tree-search access pattern."""
        return self.mem_bandwidth_gbs * self.random_access_efficiency


@dataclass(frozen=True)
class PcieSpec:
    """The CPU<->GPU interconnect (T_init + bytes/bandwidth model)."""

    name: str
    bandwidth_gbs: float
    #: per-transfer initialization latency (T_init in the paper's model)
    t_init_ns: float

    def transfer_ns(self, nbytes: int) -> float:
        """Paper section 5.4: ``T = T_init + size / Bandwidth``."""
        return self.t_init_ns + nbytes / self.bandwidth_gbs


@dataclass(frozen=True)
class MachineConfig:
    """A full evaluation platform: CPU + discrete GPU + interconnect."""

    name: str
    cpu: CpuSpec
    gpu: GpuSpec
    pcie: PcieSpec
    #: optimal software-pipeline length found in section 4.2
    software_pipeline_len: int = 16
    #: optimal bucket size found in section 6.3
    bucket_size: int = 16 * 1024

    def with_cpu(self, **kwargs) -> "MachineConfig":
        return replace(self, cpu=replace(self.cpu, **kwargs))

    def with_gpu(self, **kwargs) -> "MachineConfig":
        return replace(self, gpu=replace(self.gpu, **kwargs))


def machine_m1(scale: int = SCALE_FACTOR) -> MachineConfig:
    """The paper's first machine: Xeon E5-2665 + Geforce GTX 780.

    The Xeon E5-2665 (Sandy Bridge) supports AVX but *not* AVX2, which is
    why the paper runs the SIMD node-search comparison (Fig 8) on M2.
    """
    cpu = CpuSpec(
        name="Intel Xeon E5-2665",
        cores=8,
        threads=16,
        freq_ghz=2.4,
        # capacities scale by SCALE_FACTOR; the LLC scales by an extra
        # 8x because tree *depth* does not scale -- preserving the
        # misses-per-query regime (how many tree levels fit in cache)
        # requires a proportionally smaller cache at scaled tree sizes
        llc_bytes=20 * MB // (scale * 8),
        mem_bandwidth_gbs=51.2,
        mem_latency_ns=85.0,
        has_avx2=False,
        huge_page=GB // scale,
    )
    gpu = GpuSpec(
        name="Nvidia Geforce GTX 780",
        sms=12,
        cores=2304,
        freq_ghz=0.863,
        device_mem_bytes=3 * GB // scale,
        mem_bandwidth_gbs=288.4,
        mem_latency_ns=350.0,
        max_resident_threads=2048 * 12,
        kernel_init_ns=12_000.0,
    )
    pcie = PcieSpec(name="PCIe 3.0 x16", bandwidth_gbs=12.0, t_init_ns=9_000.0)
    return MachineConfig(name="M1", cpu=cpu, gpu=gpu, pcie=pcie)


def machine_modern(scale: int = SCALE_FACTOR) -> MachineConfig:
    """A contemporary extrapolation platform (not in the paper).

    Roughly an EPYC-class 32-core server with an A100-class accelerator
    on a PCIe 4.0 x16 link.  Used by the extrapolation benchmark to ask
    how the 2016 design's trade-offs shift on modern hardware: the GPU
    and link got faster *relative to* CPU memory, so the hybrid's edge
    widens and the CPU leaf stage becomes the clear bottleneck.
    """
    cpu = CpuSpec(
        name="32-core server CPU (extrapolation)",
        cores=32,
        threads=64,
        freq_ghz=3.0,
        llc_bytes=256 * MB // (scale * 8),
        mem_bandwidth_gbs=200.0,
        mem_latency_ns=90.0,
        has_avx2=True,
        huge_page=GB // scale,
    )
    gpu = GpuSpec(
        name="A100-class GPU (extrapolation)",
        sms=108,
        cores=6912,
        freq_ghz=1.41,
        device_mem_bytes=40 * GB // scale,
        mem_bandwidth_gbs=1555.0,
        mem_latency_ns=300.0,
        max_resident_threads=2048 * 108,
        kernel_init_ns=6_000.0,
        random_access_efficiency=0.35,
    )
    pcie = PcieSpec(name="PCIe 4.0 x16", bandwidth_gbs=25.0,
                    t_init_ns=5_000.0)
    return MachineConfig(name="MODERN", cpu=cpu, gpu=gpu, pcie=pcie)


def machine_m2(scale: int = SCALE_FACTOR) -> MachineConfig:
    """The paper's second machine: Core i7-4800MQ + Geforce GTX 770M.

    M2's GPU is comparatively weak, which is the setting where the load
    balancing scheme of section 5.5 pays off (Fig 18).
    """
    cpu = CpuSpec(
        name="Intel Core i7-4800MQ",
        cores=4,
        threads=8,
        freq_ghz=2.7,
        # see machine_m1 for the extra 8x on the LLC
        llc_bytes=6 * MB // (scale * 8),
        mem_bandwidth_gbs=25.6,
        mem_latency_ns=75.0,
        has_avx2=True,
        huge_page=GB // scale,
    )
    gpu = GpuSpec(
        name="Nvidia Geforce GTX 770M",
        sms=5,
        cores=960,
        freq_ghz=0.706,
        device_mem_bytes=3 * GB // scale,
        mem_bandwidth_gbs=96.0,
        mem_latency_ns=400.0,
        max_resident_threads=2048 * 5,
        kernel_init_ns=12_000.0,
        # mobile GDDR5 sustains a far smaller fraction of its peak for
        # dependent random transactions; this is what makes the plain
        # HB+-tree *lose* to the CPU tree on M2 (Fig 18) until the load
        # balancing scheme shifts work back to the CPU
        random_access_efficiency=0.13,
    )
    pcie = PcieSpec(name="PCIe 3.0 x8", bandwidth_gbs=6.0, t_init_ns=11_000.0)
    return MachineConfig(name="M2", cpu=cpu, gpu=gpu, pcie=pcie)
