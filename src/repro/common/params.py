"""Machine parameters mirroring Table 2 of the paper.

Every fetch architecture shares the *common settings* block of Table 2:
pipeline widths 2/4/8, 16 pipeline stages, a 4-entry FTQ, a 64KB 2-way
single-ported L1 instruction cache whose line size is four times the pipe
width, a 64KB 2-way L1 data cache, a 1MB 4-way unified L2 with 15-cycle
latency, and 100-cycle memory.  Architecture-specific predictor budgets
live in :mod:`repro.experiments.configs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.types import INSTRUCTION_BYTES


@dataclass(frozen=True)
class CacheParams:
    """Geometry and latency of one set-associative cache."""

    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def instructions_per_line(self) -> int:
        return self.line_bytes // INSTRUCTION_BYTES


@dataclass(frozen=True)
class CoreParams:
    """Pipeline and window parameters of the simulated core."""

    width: int
    pipeline_depth: int = 16
    ftq_entries: int = 4
    #: Cycles from fetch to dispatch into the issue window.
    dispatch_depth: int = 8
    #: Cycles from fetch to the decode stage (decode-redirect bubble).
    decode_depth: int = 3
    #: Reorder-buffer capacity; gates fetch when full.
    rob_size: int = 0  # 0 -> derived from width in __post_init__

    def __post_init__(self) -> None:
        if self.width not in (1, 2, 4, 8, 16):
            raise ValueError(f"unsupported pipe width {self.width}")
        if self.rob_size == 0:
            object.__setattr__(self, "rob_size", 16 * self.width)


@dataclass(frozen=True)
class MemoryParams:
    """The memory hierarchy of Table 2."""

    il1: CacheParams
    dl1: CacheParams
    l2: CacheParams
    l2_latency: int = 15
    memory_latency: int = 100


@dataclass(frozen=True)
class MachineParams:
    """A complete machine configuration (core + memory)."""

    core: CoreParams
    memory: MemoryParams

    @property
    def width(self) -> int:
        return self.core.width

    def key_payload(self) -> dict:
        """Every parameter as plain data, for artifact-store fingerprints.

        Generated from the dataclass fields (via the store's
        canonicalizer, which tags each dataclass with its class name)
        so a new knob automatically becomes part of the cache key and
        two parameter types with equal fields cannot collide —
        forgetting to invalidate on a parameter change is not an
        available mistake.
        """
        from repro.common.canonical import canonical

        return canonical(self)


def default_memory(width: int) -> MemoryParams:
    """Table 2 memory hierarchy; the I-cache line is 4x the pipe width."""
    line_bytes = 4 * width * INSTRUCTION_BYTES  # 32 / 64 / 128 bytes
    return MemoryParams(
        il1=CacheParams(size_bytes=64 * 1024, assoc=2, line_bytes=line_bytes),
        dl1=CacheParams(size_bytes=64 * 1024, assoc=2, line_bytes=64),
        l2=CacheParams(size_bytes=1024 * 1024, assoc=4, line_bytes=64),
        l2_latency=15,
        memory_latency=100,
    )


def default_machine(width: int) -> MachineParams:
    """The Table 2 machine for a given pipe width (2, 4 or 8)."""
    return MachineParams(core=CoreParams(width=width), memory=default_memory(width))
