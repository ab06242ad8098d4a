"""Resource monitoring and demand estimation.

Paper Section II.B: "Monitoring is mandatory to take proper scheduling
decisions and is performed at all layers of the system."  Concretely:

* Local Controllers sample the utilization of their VMs into the
  deployment-wide :class:`~repro.monitoring.arrays.TelemetryPlane` and
  periodically report to their Group Manager: one
  :class:`~repro.monitoring.arrays.HostRows` step per monitoring tick for the
  whole fleet, whose report rows the Group Manager keeps in a
  :class:`~repro.monitoring.summary.GroupReports`.
* Resource-demand **estimators** reduce the sample history to one demand
  vector (:mod:`repro.monitoring.estimators`: mean, max, exponential moving
  average, percentile); the estimates drive scheduling.
* Group Managers periodically push an aggregated **summary** (used and total
  capacity) to the Group Leader
  (:class:`~repro.monitoring.summary.GroupManagerSummary`), which is all the
  GL knows when dispatching VM submissions.
"""

from repro.monitoring.arrays import ArrayHostMonitor, TelemetryPlane
from repro.monitoring.estimators import (
    DemandEstimator,
    EwmaEstimator,
    MaxEstimator,
    MeanEstimator,
    PercentileEstimator,
    make_estimator,
)
from repro.monitoring.summary import GroupManagerSummary

__all__ = [
    "TelemetryPlane",
    "ArrayHostMonitor",
    "DemandEstimator",
    "MeanEstimator",
    "MaxEstimator",
    "EwmaEstimator",
    "PercentileEstimator",
    "make_estimator",
    "GroupManagerSummary",
]
