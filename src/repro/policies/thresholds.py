"""Utilization thresholds: overload / underload / moderate bands.

Local Controllers "detect local overload/underload anomaly situations and
report them to the assigned GM" (paper Section II.A).  The thresholds below
define those situations and are also used by the reconfiguration policy to
select the "moderately loaded" hosts it is allowed to re-pack (Section II.C).
Values follow the adaptive-threshold literature the paper cites ([8]
Beloglazov & Buyya): 85-90 % overload, ~20 % underload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class UtilizationThresholds:
    """The two cut points separating the three load bands."""

    #: Below this CPU utilization a host is underloaded (candidate for evacuation + suspend).
    underload: float = 0.2
    #: Above this CPU utilization a host is overloaded (VMs risk performance degradation).
    overload: float = 0.85

    def __post_init__(self) -> None:
        if not (0.0 <= self.underload < self.overload <= 1.0):
            raise ValueError(
                f"thresholds must satisfy 0 <= underload < overload <= 1, "
                f"got underload={self.underload}, overload={self.overload}"
            )

    def is_overloaded(self, utilization: float) -> bool:
        """True if the utilization exceeds the overload threshold."""
        return utilization > self.overload

    def is_underloaded(self, utilization: float) -> bool:
        """True if the utilization is below the underload threshold (but the host is in use)."""
        return utilization < self.underload
