"""Simulated tensors.

A :class:`SimTensor` carries no numerical data — only the metadata that
matters for memory planning: its shape, dtype, and (when materialized) the
allocator block backing it.  This mirrors how checkpointing planners reason
about real tensors: by size and liveness, never by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.tensorsim.dtypes import DType, FLOAT32

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tensorsim.allocator import Block, CachingAllocator


@dataclass(frozen=True, slots=True)
class TensorSpec:
    """Shape + dtype of a tensor, independent of whether it is materialized.

    ``nbytes`` (storage size in bytes) is derived once at construction:
    specs are built once per profile trace and read on every allocation.
    It is not a field of identity — equality, hashing and ``repr`` see
    only shape and dtype.
    """

    shape: tuple[int, ...]
    dtype: DType = FLOAT32
    nbytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.shape):
            raise ValueError(f"negative dimension in shape {self.shape}")
        object.__setattr__(
            self, "nbytes", math.prod(self.shape) * self.dtype.itemsize
        )

    @property
    def numel(self) -> int:
        """Number of elements (product of dimensions; 1 for scalars)."""
        return math.prod(self.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def with_shape(self, shape: tuple[int, ...]) -> "TensorSpec":
        """A spec with the same dtype but a different shape."""
        return TensorSpec(shape, self.dtype)

    def __str__(self) -> str:
        return f"{self.dtype.name}{list(self.shape)}"


@dataclass(slots=True)
class SimTensor:
    """A (possibly materialized) tensor in simulated device memory.

    Attributes:
        spec: shape/dtype metadata.
        name: human-readable label, usually ``<module>.<op>`` from the tape.
        block: allocator block backing the tensor, or ``None`` when the
            tensor has been dropped (checkpointed away) or never allocated.
    """

    spec: TensorSpec
    name: str = ""
    block: Optional["Block"] = None

    @property
    def nbytes(self) -> int:
        return self.spec.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.spec.shape

    @property
    def dtype(self) -> DType:
        return self.spec.dtype

    @property
    def is_materialized(self) -> bool:
        """Whether the tensor currently occupies device memory."""
        return self.block is not None

    def materialize(self, allocator: "CachingAllocator") -> "SimTensor":
        """Allocate backing storage (no-op if already materialized)."""
        if self.block is None:
            self.block = allocator.malloc(self.nbytes, owner=self.name)
        return self

    def drop(self, allocator: "CachingAllocator") -> "SimTensor":
        """Release backing storage (no-op if already dropped)."""
        if self.block is not None:
            allocator.free(self.block)
            self.block = None
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialized" if self.is_materialized else "dropped"
        return f"SimTensor({self.name!r}, {self.spec}, {state})"
