"""SLO-aware control plane for heterogeneous GPU fleets.

Three threads share one cost model (:mod:`repro.cluster.control.costmodel`):

1. **SLO-aware admission/routing** (:class:`SloRouter`) — requests carry
   TTFT/ITL deadlines; placement maximises modelled deadline headroom
   instead of Punica's pack rule, queued work drains earliest-deadline-
   first, and a request is shed only when no engine could meet its
   deadline even under the optimistic (empty-fleet) floor.
2. **Heterogeneous fleets** — :class:`~repro.hw.spec.HwSpec` presets
   (A100-80G / H100 / L4) mix in one pool; the shared cost model prices
   each candidate engine with its own spec, so prefill-heavy work lands
   on high-FLOPs parts and long-decode work on high-bandwidth parts
   without any per-device special cases in the router.
3. **Predictive autoscaling** (:class:`PredictiveConfig`) — EWMA
   arrival-rate forecasting drives warm-up-cost-aware grow/shrink of the
   pool of :class:`~repro.cluster.elastic.ElasticClusterSimulator`.

See docs/slo.md for the cost model, deadline semantics and autoscaler
policy. The control plane is opt-in per simulator: every simulator takes
``control=`` (a :class:`ControlConfig` builds the :class:`SloRouter` in
place of the pack-rule scheduler and scores SLO outcomes at run end), and
the elastic simulator takes ``predictive=``. Left at ``None`` they build
the stock §5.1 policies. This package imports no simulator, so the
simulators can import the router.
"""

from repro.cluster.control.config import (
    ControlConfig,
    EwmaForecast,
    PredictiveConfig,
    SloPolicy,
    score_requests,
    slo_attainment,
)
from repro.cluster.control.costmodel import FleetCostModel, LatencyEstimate
from repro.cluster.control.router import SloRouter

__all__ = [
    "ControlConfig",
    "EwmaForecast",
    "FleetCostModel",
    "LatencyEstimate",
    "PredictiveConfig",
    "SloPolicy",
    "SloRouter",
    "score_requests",
    "slo_attainment",
]
