"""The TweeQL stream-processing engine.

Layering (bottom to top):

- :mod:`repro.engine.types` — rows, schemas, evaluation context.
- :mod:`repro.engine.expressions` — AST → evaluator compilation with SQL
  NULL semantics and the tweet-text operators.
- :mod:`repro.engine.functions` — scalar builtins, web-service UDFs, and
  the UDF registry (the paper's classification/geocoding framework).
- :mod:`repro.engine.aggregates` — aggregate function implementations.
- :mod:`repro.engine.windows` — tumbling/sliding window assignment.
- :mod:`repro.engine.operators` — streaming operators (the filter, which
  reorders its conjuncts by observed selectivity; project, windowed
  group/aggregate, windowed join, limit).
- :mod:`repro.engine.confidence` — CONTROL-style confidence-triggered
  group emission ("Uneven Aggregate Groups").
- :mod:`repro.engine.selectivity` — API filter choice by stream sampling
  ("Uncertain Selectivities").
- :mod:`repro.engine.latency` — caching/batching/async machinery for
  high-latency web-service UDFs.
- :mod:`repro.engine.resilience` — retries, circuit breaking, and
  deterministic fault plans for the services and the stream.
- :mod:`repro.engine.planner` / :mod:`repro.engine.executor` — AST to
  physical pipeline, and the pull-based run loop.
- :mod:`repro.engine.multitenant` — multi-tenant shared-scan groups
  (one connection/scan fanned out to N queries; ``Session.shared()``).
- :mod:`repro.engine.session` — the public ``TweeQL`` façade.
"""

from repro.engine.multitenant import SharedScanGroup
from repro.engine.resilience import (
    CircuitBreaker,
    FaultPlan,
    ResilientService,
    RetryPolicy,
    ServiceFaultModel,
    StreamDrop,
)
from repro.engine.session import EngineConfig, QueryHandle, TweeQL

__all__ = [
    "CircuitBreaker",
    "EngineConfig",
    "FaultPlan",
    "QueryHandle",
    "ResilientService",
    "RetryPolicy",
    "ServiceFaultModel",
    "SharedScanGroup",
    "StreamDrop",
    "TweeQL",
]
