"""The GPU device facade: memory + launch interface + occupancy."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import GpuKernelStats, KernelLaunch
from repro.obs import NULL_OBS
from repro.platform.configs import GpuSpec


class GpuDevice:
    """One simulated discrete GPU built from a :class:`GpuSpec`.

    An optional :class:`repro.faults.FaultInjector` screens every
    kernel launch: a launch fault or hang raises before (launch fault)
    or instead of (hang: the watchdog kills the kernel, its work is
    lost) delivering results.
    """

    def __init__(self, spec: GpuSpec, injector: Optional[object] = None):
        self.spec = spec
        self.memory = DeviceMemory(
            spec.device_mem_bytes, transaction_sizes=spec.transaction_sizes
        )
        #: kernel launches performed (each pays ``kernel_init_ns``)
        self.kernel_launches = 0
        self.stats = GpuKernelStats()
        #: optional :class:`repro.faults.FaultInjector`
        self.injector = injector
        #: :class:`repro.obs.Observability`; the shared disabled bundle
        #: unless threaded in via ``HBPlusTree.attach_obs``
        self.obs = NULL_OBS

    def begin_launch(self) -> None:
        """Screen + count one kernel launch (vectorised kernels call
        this directly; the SIMT path goes through :meth:`launch`).

        Raises the injector's :class:`~repro.faults.KernelLaunchFault`
        or :class:`~repro.faults.KernelHang` when a fault fires; the
        launch counter still advances — the launch was attempted.
        """
        self.kernel_launches += 1
        self.obs.count("live.gpu.kernel_launches")
        if self.injector is not None:
            self.injector.on_kernel_launch()

    def launch(
        self,
        kernel_fn: Callable,
        grid_dim: int,
        block_dim: Tuple[int, int],
        *args,
        shared_decls: Optional[Dict[str, tuple]] = None,
    ) -> GpuKernelStats:
        """Run a kernel on the SIMT interpreter and accumulate stats."""
        launch = KernelLaunch(
            self.memory,
            kernel_fn,
            grid_dim,
            block_dim,
            warp_size=self.spec.warp_size,
            shared_decls=shared_decls,
            shared_banks=self.spec.shared_mem_banks,
            fault_hook=self.begin_launch,
        )
        with self.obs.span(
            "gpu.kernel", category="gpu",
            kernel=getattr(kernel_fn, "__name__", "kernel"),
            grid_dim=grid_dim,
        ):
            stats = launch.run(*args)
        self.stats.add(stats)
        return stats

    def concurrent_queries(self, threads_per_query: int) -> int:
        """Paper section 5.3: ``GPU_Threads / T`` concurrent queries."""
        if threads_per_query <= 0:
            raise ValueError("threads_per_query must be positive")
        return self.spec.max_resident_threads // threads_per_query

    def reset_counters(self) -> None:
        self.memory.counters.reset()
        self.kernel_launches = 0
        self.stats = GpuKernelStats()
