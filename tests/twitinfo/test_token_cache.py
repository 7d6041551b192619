"""The per-event token cache: every panel that needs a tweet's content
tokens reads ``TrackedEvent.tokens``; results are exactly what
tokenizing the text again at each use gave."""

import importlib
import re
from collections import Counter

import pytest

from repro import TweeQL
from repro.nlp.keywords import KeywordExtractor
from repro.nlp.similarity import cosine_similarity
from repro.nlp.tokenize import content_tokens
from repro.twitinfo import TwitInfoApp
from repro.twitinfo.app import TextMemo, TrackedEvent
from repro.twitinfo.event import EventDefinition
from repro.twitter.models import Tweet, User


def oracle(event, start=None, end=None, extra_terms=()):
    """Panel entries and peak terms by the text-path formulas as they stood
    before the token cache: tokenize the tweet text at every use."""
    background = KeywordExtractor()
    background.observe_all(t.text for t in event.log.scan())
    idf = background.idf

    def vector(tokens):
        return {t: c * idf(t) for t, c in Counter(tokens).items()}

    keywords = tuple(event.definition.keywords) + tuple(extra_terms)
    query = vector([t for k in keywords for t in content_tokens(k)])
    scored = [(cosine_similarity(vector(content_tokens(t.text)), query), t)
              for t in event.log.scan(start, end)]
    scored.sort(key=lambda pair: -pair[0])
    panel, seen = [], set()
    for similarity, tweet in scored:
        key = re.sub(r"https?://\S+", "", tweet.text.lower())
        key = " ".join(re.sub(r"^rt @\w+:\s*", "", key).split())
        if key not in seen and len(panel) < 10:
            seen.add(key)
            panel.append((tweet.text, tweet.created_at, round(similarity, 6),
                          event.sentiments[tweet.tweet_id]))
    suppressed = {k.lower() for k in event.definition.keywords}
    terms = {}
    for peak in event.peaks:
        tf = Counter(term for tweet in event.log.scan(peak.start, peak.end)
                     for term in set(content_tokens(tweet.text)))
        ranked = sorted((-f * idf(t), t) for t, f in tf.items() if f >= 2)
        top = [t for _score, t in ranked[: 5 + len(suppressed)]]
        terms[peak.label] = tuple(t for t in top if t not in suppressed)[:5]
    return panel, terms


def panel_of(dashboard_json):
    return [
        (e["text"], e["created_at"], e["similarity"], e["sentiment"])
        for e in dashboard_json["relevant_tweets"]
    ]


@pytest.fixture(scope="module")
def tracked(soccer):
    session = TweeQL.for_scenarios(soccer, seed=11)
    app = TwitInfoApp(session)
    event = app.track(
        "Soccer", soccer.keywords, start=soccer.start, end=soccer.end
    )
    return app, event


def test_dashboard_and_peak_terms_equal_the_text_path(tracked):
    app, event = tracked
    panel, terms = oracle(event, event.definition.start, event.definition.end)
    board = app.dashboard(event).to_json()
    assert panel_of(board) == panel
    assert event.peaks
    assert {p.label: p.terms for p in event.peaks} == terms
    assert [tuple(p["terms"]) for p in board["peaks"]] == list(terms.values())
    for peak in event.peaks:
        drilled = app.dashboard(event, peak.label).to_json()
        expected, _terms = oracle(event, peak.start, peak.end, peak.terms)
        assert panel_of(drilled) == expected


def tweet_at(tweet_id, created_at, text):
    return Tweet(
        tweet_id=tweet_id, created_at=created_at,
        user=User(user_id=tweet_id, screen_name=f"u{tweet_id}"), text=text,
    )


def test_ties_go_to_log_order_even_when_ingested_out_of_order():
    event = TrackedEvent(EventDefinition(name="tie", keywords=("goal",)))
    tweets = [
        tweet_at(1, 10.0, "goal tevez alpha"),
        tweet_at(2, 20.0, "goal tevez bravo"),
        tweet_at(3, 30.0, "goal tevez charlie"),
        tweet_at(4, 40.0, "nothing relevant here"),
    ]
    for tweet in reversed(tweets):  # the MemoryTweetLog bisect-insert case
        event.ingest(tweet, 0)
    assert set(event.tokens) == {1, 2, 3, 4}
    assert event.tokens[2] == ("goal", "tevez", "bravo")
    panel = event.relevant()
    assert [entry.tweet.tweet_id for entry in panel] == [1, 2, 3, 4]
    assert len({entry.similarity for entry in panel[:3]}) == 1
    expected, _terms = oracle(event)
    assert [
        (e.tweet.text, e.tweet.created_at, e.similarity, e.sentiment)
        for e in panel
    ] == expected


def test_equal_token_tuples_are_one_object():
    event = TrackedEvent(EventDefinition(name="dup", keywords=("goal",)))
    event.ingest(tweet_at(1, 1.0, "Goal by Tevez!"), 0)
    event.ingest(tweet_at(2, 2.0, "goal by tevez"), 0)
    assert event.tokens[1] is event.tokens[2]


@pytest.fixture()
def tokenize_calls(monkeypatch):
    """text → number of ``tokenize`` calls, counted at every binding the
    TwitInfo path reaches it through: the tokenizer module's own (under
    ``content_tokens``), the classifier's and the app's."""
    # ``repro.nlp.tokenize`` the attribute is the re-exported function.
    real = importlib.import_module("repro.nlp.tokenize").tokenize
    calls = Counter()

    def counting(text, keep_emoticons=True):
        calls[text] += 1
        return real(text, keep_emoticons)

    for name in ("repro.nlp.tokenize", "repro.nlp.sentiment", "repro.twitinfo.app"):
        monkeypatch.setattr(importlib.import_module(name), "tokenize", counting)
    return calls


def test_each_event_tweet_is_tokenized_once(soccer, tokenize_calls, tmp_path):
    """track + detect_peaks + dashboard + a peak drill-down, then
    save/load + dashboard, then monitor and track_many: one ``tokenize``
    call per distinct event text per drain, classifier included."""
    calls = tokenize_calls

    def assert_tokenized_once(*events):
        texts = set()
        for event in events:
            assert len(event.tokens) == len(event.log) > 1000
            texts.update(t.text for t in event.log.scan())
        assert len(texts) < sum(len(event.log) for event in events)
        assert {text: calls[text] for text in texts} == dict.fromkeys(texts, 1)

    def fresh_app():
        calls.clear()
        # Lossless, so every run path logs the same tweets.
        session = TweeQL.for_scenarios(soccer, seed=11, delivery_ratio=1.0)
        return TwitInfoApp(session)

    app = fresh_app()
    event = app.track(
        "Soccer", soccer.keywords, start=soccer.start, end=soccer.end
    )
    event.detect_peaks()
    app.dashboard(event)
    app.dashboard(event, event.peaks[0].label)
    assert_tokenized_once(event)

    path = str(tmp_path / "event.db")
    app.save_event(event, path)
    calls.clear()
    loaded = app.load_event(path)
    app.dashboard(loaded)
    assert_tokenized_once(loaded)
    assert loaded.tokens == event.tokens
    assert loaded.sentiments == event.sentiments

    app = fresh_app()
    monitored = app.create_event(
        "Soccer", soccer.keywords, start=soccer.start, end=soccer.end
    )
    assert list(app.monitor(monitored))[-1].final
    assert_tokenized_once(monitored)
    assert monitored.tokens == event.tokens
    assert monitored.sentiments == event.sentiments

    app = fresh_app()
    together = app.track_many(
        {"Soccer": soccer.keywords, "Goals": ("goal",)},
        start=soccer.start, end=soccer.end,
    )
    assert_tokenized_once(*together)  # once per drain, across its events
    assert together[0].tokens == event.tokens
    assert together[0].sentiments == event.sentiments


def test_ingest_and_ingest_batch_build_the_same_event(soccer):
    """``ingest(tweet, classify(text))`` per tweet and ``ingest_batch``
    over uneven lists through one :class:`TextMemo` leave identical
    events."""
    session = TweeQL.for_scenarios(soccer, seed=11)
    app = TwitInfoApp(session)
    classifier = session.classifier
    matching = [t for t in soccer.tweets if t.matches_any_keyword(soccer.keywords)]
    assert len(matching) > 1000
    matching.append(tweet_at(10**12, matching[-1].created_at, "D:) goal http://t.co/a:)b"))

    def build(feed):
        event = app.create_event(
            "Soccer", soccer.keywords, start=soccer.start, end=soccer.end
        )
        feed(event)
        event.detect_peaks()
        return event

    def per_tweet(event):
        for tweet in matching:
            event.ingest(tweet, classifier.classify(tweet.text))

    def batched(event):
        memo = TextMemo(classifier)
        start = 0
        for size in (1, 7, 256, 3, 10**6):
            event.ingest_batch(matching[start:start + size], memo)
            start += size

    two_calls = build(per_tweet)
    one_call = build(batched)
    assert one_call.tokens == two_calls.tokens
    assert one_call.sentiments == two_calls.sentiments
    assert one_call.peaks and one_call.peaks == two_calls.peaks
    assert [p.terms for p in one_call.peaks] == [p.terms for p in two_calls.peaks]
    assert app.dashboard(one_call).to_json() == app.dashboard(two_calls).to_json()
