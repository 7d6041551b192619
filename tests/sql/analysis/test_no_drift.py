"""No-drift property: the analyzer's verdict matches the engine's.

Hypothesis assembles queries from a grammar that mixes valid and invalid
fields, functions, aggregates, and clause tails. For every generated
query:

* analyzer-accepted (no gating errors) ⇒ the engine plans and executes
  it, and the output rows are identical at batch_size {1, 256} — the
  analyzer never green-lights a query the engine rejects,
  and pure performance knobs never change results;
* analyzer-rejected ⇒ ``session.query`` raises a typed
  :class:`TweeQLError` carrying one of the predicted diagnostic codes.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL
from repro.errors import TweeQLError
from repro.sql.analysis import gate_result

BASE_TS = 1_307_000_000.0
SCHEMA = ("tweet_id", "text", "loc", "created_at", "lang", "followers")
WORDS = ("goal", "obama", "quake", "rain", "vote", "march")
LANGS = ("en", "es", "pt")

#: Deterministic stream: enough rows to close several 60-second windows,
#: with keyword/lang/followers variety so predicates are selective.
ROWS = [
    {
        "tweet_id": 1000 + i,
        "created_at": BASE_TS + 13.0 * i,
        "text": f"{WORDS[i % len(WORDS)]} {WORDS[(i * 5 + 2) % len(WORDS)]}",
        "lang": LANGS[i % len(LANGS)],
        "followers": (i * 137) % 2000,
        "loc": "London" if i % 4 else "",
    }
    for i in range(60)
]

SELECT_ITEMS = (
    "text",
    "followers",
    "lang",
    "lower(text) AS t",
    "length(text) AS n",
    "bogs",                    # TQL201
    "sentimant(text) AS s",    # TQL202
    "count(*) AS c",           # TQL207 unless windowed
    "avg(followers) AS f",
    "sum(bogs) AS sb",         # TQL201
)

WHERE_CONJUNCTS = (
    "text CONTAINS 'goal'",
    "followers > 500",
    "lang = 'en'",
    "folowers > 1",            # TQL201
    "text MATCHES '(bad'",     # TQL210
    "count(*) > 1",            # TQL203
)

TAILS = (
    "",
    " GROUP BY lang WINDOW 60 seconds",
    " WINDOW 120 seconds",
    " ORDER BY count(*) DESC",  # TQL205 without a windowed aggregate
    " GROUP BY lang WINDOW 60 seconds ORDER BY count(*) DESC LIMIT 2",
)


@st.composite
def queries(draw):
    items = draw(
        st.lists(st.sampled_from(SELECT_ITEMS), min_size=1, max_size=3)
    )
    conjuncts = draw(
        st.lists(st.sampled_from(WHERE_CONJUNCTS), min_size=0, max_size=2)
    )
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    tail = draw(st.sampled_from(TAILS))
    return f"SELECT {', '.join(items)} FROM s{where}{tail};"


def make_session(batch_size: int = 1) -> TweeQL:
    session = TweeQL(config=EngineConfig(batch_size=batch_size))
    session.register_source(
        "s", lambda: iter([dict(r) for r in ROWS]), SCHEMA
    )
    return session


def run(session: TweeQL, sql: str) -> list[dict]:
    handle = session.query(sql)
    try:
        return handle.all()
    finally:
        handle.close()


@settings(
    max_examples=60,
    deadline=5000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sql=queries())
def test_analyzer_verdict_matches_engine(sql):
    baseline_session = make_session()
    gated = gate_result(baseline_session.analyze(sql))
    if gated.errors:
        expected = {d.code for d in gated.errors}
        with pytest.raises(TweeQLError) as excinfo:
            run(baseline_session, sql)
        assert getattr(excinfo.value, "code", None) in expected
    else:
        baseline = run(baseline_session, sql)
        rows = run(make_session(batch_size=256), sql)
        assert rows == baseline


@settings(
    max_examples=30,
    deadline=5000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sql=queries())
def test_analysis_is_pure(sql):
    """Analyzing never raises and never mutates session state: the same
    query analyzed twice yields identical diagnostics, and analysis does
    not change what executes afterwards."""
    session = make_session()
    first = session.analyze(sql)
    second = session.analyze(sql)
    assert first.diagnostics == second.diagnostics
    assert [d.code for d in first.diagnostics] == [
        d.code for d in second.diagnostics
    ]
