"""Shared observability-test helpers.

The golden and determinism tests run against ``fixed``: a registered
static source of 1000 pre-stamped rows, all at t=0.

The grid's ids — and the golden files named after them — keep the
``w1_`` prefix they were recorded under, when a worker count was part of
each configuration.
"""

from __future__ import annotations

from repro import EngineConfig, TweeQL

N_ROWS = 1000
SCHEMA = ("text", "user_id", "created_at")
ROWS = [
    {"text": f"tweet {i}", "user_id": i % 7, "created_at": 0.0}
    for i in range(N_ROWS)
]

#: Exercises scan, filter and grouped windowed aggregation — 5 output
#: groups at every config.
GROUPED_SQL = (
    "SELECT count(*) AS n FROM fixed WHERE user_id > 1 "
    "GROUP BY user_id WINDOW 60 seconds;"
)


#: Batch sizes of the grid, and their ids.
BATCH_SIZES = [1, 256]
GRID_IDS = [f"w1_b{batch_size}" for batch_size in BATCH_SIZES]


def static_session(
    batch_size: int = 256,
    tracing: bool = True,
    **config_kwargs,
) -> TweeQL:
    """A session over the static ``fixed`` source (no twitter stream)."""
    config = EngineConfig(
        batch_size=batch_size, tracing=tracing, **config_kwargs
    )
    session = TweeQL(config=config)
    session.register_source("fixed", lambda: iter(ROWS), SCHEMA)
    return session
