"""``sentiment()`` and ``sentiment_score()`` derive each distinct text once
per plan.

Both builtins map a column of texts through a memo on the plan's own
:class:`~repro.engine.types.EvalContext`: the answer is the classifier's
per-row answer on every path (whole column, one row per batch, under
``AND``/``OR``, a shared-scan tenant, a memo that fills and restarts),
the classifier runs once per distinct text per plan, and the next plan
starts with an empty memo, so it sees a retrained classifier.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL
from repro.clock import VirtualClock
from repro.engine import functions
from repro.engine.functions import default_registry, service_column
from repro.engine.types import EvalContext
from repro.nlp.corpus import LabeledTweet, training_corpus
from repro.nlp.sentiment import SentimentClassifier, train_default_classifier

SCHEMA = ("created_at", "text")
CLASSIFIER = train_default_classifier()

#: Texts that repeat, NULLs, and non-string values (classified as their
#: ``str``).
VALUES = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from(
            ["what a goal :)", "awful defending :(", "great great win",
             "so sad", "tevez scores", "", "  ", "love it", "hate it"]
        ),
        st.integers(-3, 3),
        st.floats(-2.0, 2.0, allow_nan=False),
        st.booleans(),
    ),
    max_size=60,
)


def session_over(values, batch_size=256, classifier=None):
    session = TweeQL(
        config=EngineConfig(batch_size=batch_size), classifier=classifier
    )
    session.register_source(
        "s",
        lambda: iter(
            [{"created_at": float(i), "text": v} for i, v in enumerate(values)]
        ),
        SCHEMA,
    )
    return session


def drain(handle):
    rows = handle.all()
    handle.close()
    return rows


def per_row(values, derive):
    return [None if v is None else derive(str(v)) for v in values]


@pytest.mark.parametrize("cap", [None, 2], ids=["memo", "memo-cap-2"])
@pytest.mark.parametrize("batch_size", [1, 7, 256])
@settings(max_examples=25, deadline=None)
@given(values=VALUES)
def test_text_columns_equal_the_per_row_classifier(batch_size, cap, values):
    labels = per_row(values, CLASSIFIER.classify)
    scores = per_row(values, CLASSIFIER.score)
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(functions, "TEXT_MEMO_MAX", cap)
        session = session_over(values, batch_size)

        rows = drain(session.query(
            "SELECT sentiment(text) AS s, sentiment_score(text) AS c FROM s;"
        ))
        assert [row["s"] for row in rows] == labels
        assert [row["c"] for row in rows] == scores

        kept = drain(session.query(
            "SELECT created_at FROM s WHERE sentiment(text) > 0;"
        ))
        assert [row["created_at"] for row in kept] == [
            float(i) for i, label in enumerate(labels)
            if label is not None and label > 0
        ]

        # A call under OR keeps the whole predicate on the scalar path.
        either = drain(session.query(
            "SELECT created_at FROM s "
            "WHERE sentiment(text) > 0 OR sentiment_score(text) < -0.5;"
        ))
        assert [row["created_at"] for row in either] == [
            float(i) for i, (label, score) in enumerate(zip(labels, scores))
            if label is not None and (label > 0 or score < -0.5)
        ]

        group = session.shared("s")
        try:
            tenant = group.query(
                "SELECT sentiment(text) AS s FROM s "
                "WHERE sentiment_score(text) > -2.0;"
            )
            tenant_rows = tenant.all()
        finally:
            group.close()
        assert [row["s"] for row in tenant_rows] == [
            label for label in labels if label is not None
        ]


def test_classifier_runs_once_per_distinct_text_per_plan(soccer, monkeypatch):
    """Each plan classifies each distinct text once, and a derived
    stream's reader shares its upstream's memo."""
    calls: Counter[str] = Counter()
    real = SentimentClassifier.classify

    def counting(self, text):
        calls[text] += 1
        return real(self, text)

    monkeypatch.setattr(SentimentClassifier, "classify", counting)
    session = TweeQL.for_scenarios(soccer, seed=11, delivery_ratio=1.0)
    upstream = "SELECT text, sentiment(text) AS s FROM twitter WHERE text contains 'goal'"
    texts = None
    for _plan in range(2):
        calls.clear()
        rows = drain(session.query(upstream + ";"))
        texts = [row["text"] for row in rows]
        assert len(set(texts)) < len(texts)
        assert calls == Counter(set(texts))

    session.query(upstream + " INTO STREAM g;").close()
    calls.clear()
    rows = drain(session.query("SELECT s, sentiment(text) AS again FROM g;"))
    assert [row["again"] for row in rows] == [row["s"] for row in rows]
    assert calls == Counter(set(texts))


def test_a_retrained_classifier_is_seen_by_the_next_query(soccer):
    classifier = copy.deepcopy(CLASSIFIER)
    values = [tweet.text for tweet in soccer.tweets[:400]]
    session = session_over(values, classifier=classifier)
    sql = "SELECT sentiment(text) AS s FROM s;"

    before = [row["s"] for row in drain(session.query(sql))]
    assert before == per_row(values, classifier.classify)

    flipped = [
        LabeledTweet(example.text, -example.label)
        for example in training_corpus(size=600, seed=5)
    ]
    classifier.train(flipped)
    after = [row["s"] for row in drain(session.query(sql))]
    assert after == per_row(values, classifier.classify)
    assert after != before


def test_a_text_the_classifier_raises_on_is_not_cached():
    column = service_column(default_registry().lookup("sentiment").impl)
    assert column is not None
    failing = {"boom"}

    def classify(text):
        if text in failing:
            failing.discard(text)
            raise ValueError(text)
        return len(text)

    ctx = EvalContext(clock=VirtualClock(), services={"sentiment": classify})
    with pytest.raises(ValueError, match="boom"):
        column(ctx, ["ok", "boom", "ok"])
    assert ctx.memo["sentiment"] == {"ok": 2}
    assert column(ctx, ["boom", None, 7]) == [4, None, 1]
