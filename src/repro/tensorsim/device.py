"""Roofline timing model of a GPU.

Each simulated kernel is characterised by its arithmetic work (FLOPs) and
its memory traffic (bytes moved).  Execution time is the classic roofline:

    t = launch_overhead + max(flops / achievable_flops,
                              bytes / achievable_bandwidth)

The *achievable* rates are the peak rates scaled by an efficiency factor;
small kernels never reach peak, which the launch overhead term captures.
Absolute numbers are not the point of this reproduction (the paper ran on a
real V100); the model only has to preserve the *relative* costs that the
checkpointing trade-off depends on: forward vs backward vs recompute time,
and compute-bound vs bandwidth-bound operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.module import OpCost


@dataclass(frozen=True, slots=True)
class DevicePreset:
    """Hardware constants for a device generation."""

    name: str
    peak_flops: float  # FLOP/s (FP32)
    mem_bandwidth: float  # bytes/s
    launch_overhead: float  # seconds per kernel
    memory_capacity: int  # bytes
    compute_efficiency: float = 0.55  # fraction of peak sustained by real kernels
    bandwidth_efficiency: float = 0.75
    #: host link for swapping; PCIe 3.0 x16 sustains ~12 GB/s in practice —
    #: the bottleneck the paper cites when dismissing swapping planners
    pcie_bandwidth: float = 12e9


#: NVIDIA V100 (16 GB SXM2) — the platform used in the paper's evaluation.
V100 = DevicePreset(
    name="V100",
    peak_flops=15.7e12,
    mem_bandwidth=900e9,
    launch_overhead=5e-6,
    memory_capacity=16 * 1024**3,
)

#: A deliberately small device for fast unit tests.
TOY = DevicePreset(
    name="TOY",
    peak_flops=1e12,
    mem_bandwidth=100e9,
    launch_overhead=1e-6,
    memory_capacity=1 * 1024**3,
)


class DeviceModel:
    """Computes kernel execution times from the roofline model.

    Args:
        preset: hardware constants (defaults to :data:`V100`).
    """

    def __init__(self, preset: DevicePreset = V100) -> None:
        self.preset = preset
        self._flops_rate = preset.peak_flops * preset.compute_efficiency
        self._bw_rate = preset.mem_bandwidth * preset.bandwidth_efficiency

    @property
    def memory_capacity(self) -> int:
        return self.preset.memory_capacity

    def kernel_time(self, flops: float, bytes_moved: float) -> float:
        """Execution time of one kernel, in seconds.

        Args:
            flops: floating point operations performed.
            bytes_moved: total DRAM traffic (reads + writes).
        """
        if flops < 0 or bytes_moved < 0:
            raise ValueError("kernel costs must be non-negative")
        compute = flops / self._flops_rate
        memory = bytes_moved / self._bw_rate
        return self.preset.launch_overhead + max(compute, memory)

    def unit_times(self, op_costs: Iterable["OpCost"]) -> tuple[float, float]:
        """(forward, backward) kernel seconds summed over a unit's ops."""
        fwd = 0.0
        bwd = 0.0
        for c in op_costs:
            fwd += self.kernel_time(c.flops, c.bytes_moved)
            bwd += self.kernel_time(c.bwd_flops, c.bwd_bytes)
        return fwd, bwd

    def transfer_time(
        self, nbytes: float, *, pcie_bandwidth: float | None = None
    ) -> float:
        """Host<->device copy time over the PCIe link (swap planners)."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        bandwidth = pcie_bandwidth or self.preset.pcie_bandwidth
        return self.preset.launch_overhead + nbytes / bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceModel({self.preset.name})"
