"""Multi-dimensional resource vectors.

Snooze estimates and schedules on CPU, memory and network utilization
(Section II.B of the paper).  The consolidation algorithms treat a placement
problem as *vector bin packing*: every VM is a d-dimensional demand vector and
every host a d-dimensional capacity vector.  This module provides the small
value type used everywhere plus helpers that flatten collections of VMs/hosts
into dense numpy matrices for the vectorized algorithm kernels
(:mod:`repro.core`).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

#: Canonical dimension names used when none are specified.  The order matters:
#: it is the order of the columns of every demand/capacity matrix.
DEFAULT_DIMENSIONS: tuple[str, ...] = ("cpu", "memory", "network")

ArrayLike = Union[Sequence[float], np.ndarray, "ResourceVector"]


class ResourceError(ValueError):
    """Raised for invalid resource arithmetic (negative capacity, shape mismatch...)."""


class ResourceVector:
    """An immutable d-dimensional vector of resource quantities.

    Units are fractions of a reference host by convention in the consolidation
    experiments (e.g. ``cpu=0.25`` means a quarter of a host's cores), and
    absolute units (cores, MB, Mbit/s) in the hierarchy simulation; the class
    itself is unit-agnostic.
    """

    __slots__ = ("_values", "_dimensions")

    def __init__(
        self,
        values: ArrayLike,
        dimensions: Sequence[str] = DEFAULT_DIMENSIONS,
    ) -> None:
        if isinstance(values, ResourceVector):
            array = values._values.copy()
            dimensions = values._dimensions
        else:
            array = np.asarray(values, dtype=float).reshape(-1)
        if array.ndim != 1:
            raise ResourceError(f"resource vector must be 1-D, got shape {array.shape}")
        if len(dimensions) != array.shape[0]:
            raise ResourceError(
                f"dimension names {tuple(dimensions)} do not match vector of length {array.shape[0]}"
            )
        if np.any(~np.isfinite(array)):
            raise ResourceError("resource vector contains non-finite values")
        array.setflags(write=False)
        self._values = array
        self._dimensions = tuple(dimensions)

    # ------------------------------------------------------------------ access
    @property
    def values(self) -> np.ndarray:
        """Read-only numpy view of the underlying values."""
        return self._values

    @property
    def dimensions(self) -> tuple[str, ...]:
        """Dimension names in column order."""
        return self._dimensions

    def __getitem__(self, key: Union[int, str]) -> float:
        if isinstance(key, str):
            try:
                key = self._dimensions.index(key)
            except ValueError as exc:
                raise KeyError(key) from exc
        return float(self._values[key])

    def __len__(self) -> int:
        return self._values.shape[0]

    # -------------------------------------------------------------- arithmetic
    def _coerce(self, other: ArrayLike) -> np.ndarray:
        if isinstance(other, ResourceVector):
            if other._dimensions != self._dimensions:
                raise ResourceError(
                    f"dimension mismatch: {self._dimensions} vs {other._dimensions}"
                )
            return other._values
        array = np.asarray(other, dtype=float).reshape(-1)
        if array.shape != self._values.shape:
            raise ResourceError(f"shape mismatch: {self._values.shape} vs {array.shape}")
        return array

    def __sub__(self, other: ArrayLike) -> "ResourceVector":
        return ResourceVector(self._values - self._coerce(other), self._dimensions)

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector(self._values * float(scalar), self._dimensions)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return self._dimensions == other._dimensions and np.array_equal(
            self._values, other._values
        )

    def __hash__(self) -> int:
        return hash((self._dimensions, self._values.tobytes()))

    # -------------------------------------------------------------- predicates
    def is_nonnegative(self, tolerance: float = 1e-9) -> bool:
        """True if no component is (meaningfully) negative."""
        return bool(np.all(self._values >= -tolerance))

    # ------------------------------------------------------------------ norms
    def l1(self) -> float:
        """Sum of components (the L1 size used by one FFD variant)."""
        return float(np.sum(np.abs(self._values)))

    def clamp_nonnegative(self) -> "ResourceVector":
        """Return a copy with negative components snapped to zero."""
        return ResourceVector(np.maximum(self._values, 0.0), self._dimensions)

    def __repr__(self) -> str:
        parts = ", ".join(f"{d}={v:.4g}" for d, v in zip(self._dimensions, self._values))
        return f"ResourceVector({parts})"
