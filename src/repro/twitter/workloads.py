"""Scenario workload generators.

Section 4 of the paper commits the demo to three canned TwitInfo scenarios —
"a soccer match, a timeline of earthquakes, and a summary of a month in
Barack Obama's life" — and the TweeQL examples track keywords like "obama"
against background traffic. This module generates all of them as
deterministic, seeded streams of :class:`~repro.twitter.models.Tweet`
objects with retained ground truth:

- the scenario's :class:`GroundTruth` holds every tweet's true sentiment,
  topic, causal event id and retweet source, under the scenario's own ids;
- every scenario carries a list of :class:`ScenarioEvent` records (goal
  times and scorers, quake onsets and magnitudes, news-story days) against
  which peak detection and labeling are scored — these play the role of the
  human annotators in the TwitInfo CHI'11 evaluation.

Tweet arrivals are non-homogeneous Poisson processes built from
piecewise-constant rate tracks: a background-chatter track, a topical base
track, and a burst track per event (sharp onset, staged decay — the shape
of real reaction spikes on Twitter).
"""

from __future__ import annotations

import heapq
import random
from array import array
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Any

from repro import rng as rng_mod
from repro.clock import DEFAULT_EPOCH
from repro.twitter import text as text_mod
from repro.twitter import vocabulary as V
from repro.twitter.models import Tweet, TweetEntities, User
from repro.twitter.users import UserPopulation

#: A composer returns (text, true_sentiment) for a tweet at a given time.
Composer = Callable[[random.Random, float], tuple[str, int]]


@dataclass(frozen=True)
class ScenarioEvent:
    """Ground truth for one real-world moment within a scenario.

    Attributes:
        event_id: unique within the scenario.
        name: human-readable description ("GOAL Tevez 1-0").
        time: the instant the event happened (virtual seconds).
        start/end: the window in which reaction tweets were generated.
        expected_terms: tokens a good peak labeler should surface for this
            event (the paper's "3-0", "Tevez" example).
        info: extra scenario-specific facts (magnitude, place, score…).
    """

    event_id: int
    name: str
    time: float
    start: float
    end: float
    expected_terms: tuple[str, ...] = ()
    info: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class GroundTruth:
    """Everything a scorer needs about a scenario's reality: its events,
    and per-tweet label columns indexed by the scenario's own ``tweet_id
    - 1``. ``sentiment`` is -1, 0 or +1; ``topic`` indexes ``topics``;
    ``event_id`` is the event that caused the tweet and ``retweet_of``
    the id of the tweet it retweets, 0 for none (ids start at 1). A
    tweet's true coordinates are its author's ``user.home``."""

    events: tuple[ScenarioEvent, ...]
    topics: tuple[str, ...] = ()
    sentiment: array = field(default_factory=lambda: array("b"), repr=False)
    topic: array = field(default_factory=lambda: array("B"), repr=False)
    event_id: array = field(default_factory=lambda: array("i"), repr=False)
    retweet_of: array = field(default_factory=lambda: array("i"), repr=False)

    def event_near(self, time: float, tolerance: float) -> ScenarioEvent | None:
        """The event whose instant lies within ``tolerance`` of ``time``."""
        best: ScenarioEvent | None = None
        best_gap = tolerance
        for event in self.events:
            gap = abs(event.time - time)
            if gap <= best_gap:
                best, best_gap = event, gap
        return best


@dataclass
class Scenario:
    """A generated workload: tweets in timestamp order plus ground truth.

    Attributes:
        name: scenario label ("soccer", "earthquakes", "news-month").
        keywords: the ``track`` keywords a TwitInfo event for this scenario
            would use.
        start/end: the covered virtual time span.
        tweets: all tweets, sorted by ``created_at``, ids assigned in order.
        truth: the retained ground truth, per event and per tweet.
    """

    name: str
    keywords: tuple[str, ...]
    start: float
    end: float
    tweets: list[Tweet]
    truth: GroundTruth

    def __len__(self) -> int:
        return len(self.tweets)


# ---------------------------------------------------------------------------
# Poisson-track machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Track:
    """One piecewise-constant-rate Poisson arrival track."""

    start: float
    end: float
    rate: float  # tweets per second
    topic: str
    event_id: int | None
    compose: Composer
    localized: tuple[float, float, float] | None = None  # lat, lon, radius


def _arrivals(rng: random.Random, track: _Track) -> Iterator[float]:
    """Exponential inter-arrival sampling over the track's span."""
    if track.rate <= 0:
        return
    t = track.start
    while True:
        t += rng.expovariate(track.rate)
        if t >= track.end:
            return
        yield t


def _burst_tracks(
    onset: float,
    peak_rate: float,
    topic: str,
    event_id: int,
    compose: Composer,
    stages: tuple[tuple[float, float], ...] = ((60, 1.0), (120, 0.4), (180, 0.15)),
    localized: tuple[float, float, float] | None = None,
) -> list[_Track]:
    """A reaction burst: staged decay from ``peak_rate`` starting at onset.

    ``stages`` is a sequence of (duration_seconds, rate_multiplier).
    """
    tracks: list[_Track] = []
    t = onset
    for duration, multiplier in stages:
        tracks.append(
            _Track(
                start=t,
                end=t + duration,
                rate=peak_rate * multiplier,
                topic=topic,
                event_id=event_id,
                compose=compose,
                localized=localized,
            )
        )
        t += duration
    return tracks


#: Fraction of topical (non-chatter) tweets that are retweets of a recent
#: tweet on the same topic — 2011 event streams were thick with RTs.
RETWEET_RATE = 0.12

#: How many recent topical tweets are retweet candidates.
_RETWEET_POOL = 50


def _materialize(
    name: str,
    keywords: tuple[str, ...],
    start: float,
    end: float,
    tracks: list[_Track],
    events: tuple[ScenarioEvent, ...],
    population: UserPopulation | None,
    seed: int,
    retweet_rate: float = RETWEET_RATE,
) -> Scenario:
    """Sample every track, merge arrivals by time, and mint Tweet objects.

    Texts repeat heavily (small composer vocabularies, and retweets of
    recent tweets), so each distinct text is stored once and parsed for
    entities once, and equal entity records are one object. Those tables
    are local to the call. A retweet copies its original's truth row. A
    None ``population`` is the default one for ``seed``.
    """
    population = population or UserPopulation(seed=seed)
    arrivals_rng = rng_mod.derive(seed, f"{name}:arrivals")
    text_rng = rng_mod.derive(seed, f"{name}:text")
    author_rng = rng_mod.derive(seed, f"{name}:authors")
    retweet_rng = rng_mod.derive(seed, f"{name}:retweets")

    # Each track's times increase, so a stable merge of the per-track
    # lists orders arrivals as a stable sort of all of them by time would.
    per_track = [
        zip(list(_arrivals(arrivals_rng, track)), repeat(track))
        for track in tracks
    ]
    drawn = heapq.merge(*per_track, key=itemgetter(0))

    records: dict[str, tuple[str, TweetEntities]] = {}
    entity_records: dict[TweetEntities, TweetEntities] = {}
    tweets: list[Tweet] = []
    topic_ids: dict[str, int] = {}
    sentiments, topics = array("b"), array("B")
    event_ids, retweet_ofs = array("i"), array("i")
    recent_topical: deque[Tweet] = deque(maxlen=_RETWEET_POOL)
    for index, (t, track) in enumerate(drawn):
        if track.localized is not None:
            lat, lon, radius = track.localized
            author: User = population.sample_author_near(
                author_rng, lat, lon, radius
            )
        else:
            author = population.sample_author(author_rng)

        original: Tweet | None = None
        if (
            track.topic != "chatter"
            and recent_topical
            and retweet_rng.random() < retweet_rate
        ):
            original = retweet_rng.choice(recent_topical)
        if original is not None:
            body = f"RT @{original.screen_name}: {original.text}"
            if len(body) > 140:
                body = body[:139] + "…"
            row = original.tweet_id - 1
            sentiment, topic, event_id = sentiments[row], topics[row], event_ids[row]
            retweet_of = original.tweet_id
        else:
            body, sentiment = track.compose(text_rng, t)
            topic = topic_ids.setdefault(track.topic, len(topic_ids))
            event_id, retweet_of = track.event_id or 0, 0
        sentiments.append(sentiment)
        topics.append(topic)
        event_ids.append(event_id)
        retweet_ofs.append(retweet_of)
        record = records.get(body)
        if record is None:
            entities = TweetEntities.from_text(body)
            entities = entity_records.setdefault(entities, entities)
            record = records[body] = (body, entities)
        text, entities = record
        tweet = Tweet(
            tweet_id=index + 1,
            created_at=t,
            user=author,
            text=text,
            geo=population.geotag_for(author_rng, author),
            entities=entities,
        )
        tweets.append(tweet)
        if track.topic != "chatter" and original is None:
            recent_topical.append(tweet)
    return Scenario(
        name=name,
        keywords=keywords,
        start=start,
        end=end,
        tweets=tweets,
        truth=GroundTruth(
            events, tuple(topic_ids), sentiments, topics, event_ids, retweet_ofs
        ),
    )


def _chatter_tracks(start: float, end: float, rate: float) -> list[_Track]:
    """Background chatter with a mild diurnal swing (hourly steps)."""
    import math

    tracks: list[_Track] = []
    hour = 3600.0
    t = start
    while t < end:
        segment_end = min(t + hour, end)
        # Diurnal factor in [0.6, 1.4]: a sine with 24 h period.
        phase = ((t - DEFAULT_EPOCH) % (24 * hour)) / (24 * hour)
        factor = 1.0 + 0.4 * math.sin(2 * math.pi * (phase - 0.25))
        tracks.append(
            _Track(
                start=t,
                end=segment_end,
                rate=rate * factor,
                topic="chatter",
                event_id=None,
                compose=lambda rng, _t: text_mod.compose_chatter(rng),
            )
        )
        t = segment_end
    return tracks


# ---------------------------------------------------------------------------
# Scenario: soccer match (Figure 1 — Manchester City vs Liverpool)
# ---------------------------------------------------------------------------


def soccer_match_scenario(
    seed: int = rng_mod.DEFAULT_SEED,
    population: UserPopulation | None = None,
    kickoff: float = DEFAULT_EPOCH + 3600.0,
    intensity: float = 1.0,
    goals: tuple[tuple[int, str, str], ...] = (
        (13, "tevez", "1-0"),
        (52, "silva", "2-0"),
        (78, "tevez", "3-0"),
    ),
) -> Scenario:
    """The paper's Figure 1 workload: a soccer match with goal spikes.

    Args:
        seed: determinism seed.
        population: author pool; a default 5000-user population when None.
        kickoff: virtual time of kickoff.
        intensity: global rate multiplier (scale workloads down for fast
            tests, up for throughput benches).
        goals: (minute, scorer, new_score) tuples; the default reproduces
            the paper's annotated example, where Tevez's goal making it 3-0
            is peak "F" labeled with "3-0" and "Tevez".
    """
    start = kickoff - 1800.0  # half an hour of build-up
    full_time = kickoff + 95 * 60.0
    end = full_time + 1800.0  # half an hour of post-match talk

    tracks = _chatter_tracks(start, end, rate=2.0 * intensity)

    def play_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        return text_mod.compose_soccer_play(rng, rng.choice(V.SOCCER_KEYWORDS))

    # Build-up / in-match / post-match commentary.
    tracks.append(
        _Track(start, kickoff, 0.8 * intensity, "soccer", None, play_composer)
    )
    tracks.append(
        _Track(kickoff, full_time, 3.0 * intensity, "soccer", None, play_composer)
    )
    tracks.append(
        _Track(full_time, end, 1.2 * intensity, "soccer", None, play_composer)
    )

    events: list[ScenarioEvent] = []
    for event_id, (minute, scorer, score) in enumerate(goals, start=1):
        onset = kickoff + minute * 60.0
        # City (home side) fans are the majority in this crowd: goals by the
        # home side skew positive overall, which the sentiment pie reflects.
        supporters_positive = 0.65

        def goal_composer(
            rng: random.Random,
            _t: float,
            scorer: str = scorer,
            score: str = score,
            supporters_positive: float = supporters_positive,
        ) -> tuple[str, int]:
            return text_mod.compose_soccer_goal(
                rng, scorer, score, "manchester city", supporters_positive
            )

        tracks.extend(
            _burst_tracks(
                onset,
                peak_rate=18.0 * intensity,
                topic="soccer",
                event_id=event_id,
                compose=goal_composer,
            )
        )
        events.append(
            ScenarioEvent(
                event_id=event_id,
                name=f"GOAL {scorer} {score}",
                time=onset,
                start=onset,
                end=onset + 360.0,
                expected_terms=(scorer, score),
                info={"minute": minute, "scorer": scorer, "score": score},
            )
        )

    return _materialize(
        "soccer",
        V.SOCCER_KEYWORDS,
        start,
        end,
        tracks,
        tuple(events),
        population,
        seed,
    )


# ---------------------------------------------------------------------------
# Scenario: Red Sox vs Yankees (§3.3's regional-sentiment example)
# ---------------------------------------------------------------------------

#: NYC / Boston coordinates and fan radii for localized reaction tracks.
#: Radii are tight enough that the two metros stay disjoint.
_NYC = (40.71, -74.01, 1.2)
_BOSTON = (42.36, -71.06, 1.2)


def baseball_game_scenario(
    seed: int = rng_mod.DEFAULT_SEED,
    population: UserPopulation | None = None,
    first_pitch: float = DEFAULT_EPOCH + 3600.0,
    intensity: float = 1.0,
    homeruns: tuple[tuple[int, str, str, str], ...] = (
        (35, "yankees", "granderson", "1-0"),
        (95, "redsox", "ortiz", "1-1"),
        (150, "yankees", "jeter", "2-1"),
    ),
) -> Scenario:
    """The §3.3 example: a Red Sox–Yankees game where "opinion on an event
    differs by geographic region".

    Each home run spawns *two* localized reaction bursts: fans near the
    scoring team's city react overwhelmingly positively, fans near the
    other city negatively — so drilling the map into a peak shows exactly
    the regional sentiment split the paper describes.

    Args:
        homeruns: (minute, scoring team, slugger, new score) tuples.
    """
    start = first_pitch - 1800.0
    final_out = first_pitch + 190 * 60.0  # ~3h10m game
    end = final_out + 1800.0

    tracks = _chatter_tracks(start, end, rate=2.0 * intensity)

    def play_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        return text_mod.compose_baseball_play(
            rng, rng.choice(V.BASEBALL_KEYWORDS)
        )

    tracks.append(
        _Track(start, first_pitch, 0.6 * intensity, "baseball", None, play_composer)
    )
    tracks.append(
        _Track(first_pitch, final_out, 2.0 * intensity, "baseball", None, play_composer)
    )
    tracks.append(
        _Track(final_out, end, 0.9 * intensity, "baseball", None, play_composer)
    )

    events: list[ScenarioEvent] = []
    for event_id, (minute, team, slugger, score) in enumerate(homeruns, start=1):
        onset = first_pitch + minute * 60.0
        happy_city = _NYC if team == "yankees" else _BOSTON
        unhappy_city = _BOSTON if team == "yankees" else _NYC

        def hr_composer(
            positive_share: float,
            slugger: str = slugger,
            score: str = score,
            team: str = team,
        ):
            def compose(rng: random.Random, _t: float) -> tuple[str, int]:
                return text_mod.compose_baseball_homerun(
                    rng, slugger, score, team, positive_share
                )

            return compose

        # The scoring side's metro erupts happily; the rival's sulks.
        tracks.extend(
            _burst_tracks(
                onset, peak_rate=9.0 * intensity, topic="baseball",
                event_id=event_id, compose=hr_composer(0.85),
                localized=happy_city,
            )
        )
        tracks.extend(
            _burst_tracks(
                onset, peak_rate=6.0 * intensity, topic="baseball",
                event_id=event_id, compose=hr_composer(0.15),
                localized=unhappy_city,
            )
        )
        # Neutral national chatter about the homer.
        tracks.extend(
            _burst_tracks(
                onset, peak_rate=4.0 * intensity, topic="baseball",
                event_id=event_id, compose=hr_composer(0.5),
            )
        )
        events.append(
            ScenarioEvent(
                event_id=event_id,
                name=f"HOME RUN {slugger} ({team}) {score}",
                time=onset,
                start=onset,
                end=onset + 360.0,
                expected_terms=(slugger, score),
                info={"minute": minute, "team": team, "slugger": slugger,
                      "score": score},
            )
        )

    return _materialize(
        "baseball",
        V.BASEBALL_KEYWORDS,
        start,
        end,
        tracks,
        tuple(events),
        population,
        seed,
    )


# ---------------------------------------------------------------------------
# Scenario: earthquake timeline
# ---------------------------------------------------------------------------

#: Default quake sequence: (hour offset, place, magnitude).
DEFAULT_QUAKES: tuple[tuple[float, str, float], ...] = (
    (2.0, "Christchurch", 6.3),
    (9.5, "Tokyo", 5.1),
    (17.0, "Concepción", 6.9),
    (21.5, "Padang", 5.6),
)


def earthquake_scenario(
    seed: int = rng_mod.DEFAULT_SEED,
    population: UserPopulation | None = None,
    start: float = DEFAULT_EPOCH,
    quakes: tuple[tuple[float, str, float], ...] = DEFAULT_QUAKES,
    intensity: float = 1.0,
) -> Scenario:
    """A day of earthquakes: sharp localized spikes, magnitude-scaled.

    Reaction volume scales super-linearly with magnitude, and authors are
    drawn from near the epicenter (people tweet about quakes they felt),
    which feeds TwitInfo's map view clusters.
    """
    population = population or UserPopulation(seed=seed)
    end = start + 24 * 3600.0

    tracks = _chatter_tracks(start, end, rate=2.0 * intensity)

    # A trickle of generic quake talk so the topic exists between events.
    def ambient_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        return text_mod.compose_earthquake(rng, "California", 3.0 + rng.random())

    tracks.append(
        _Track(start, end, 0.05 * intensity, "earthquake", None, ambient_composer)
    )

    gazetteer = population.gazetteer
    events: list[ScenarioEvent] = []
    for event_id, (hour, place, magnitude) in enumerate(quakes, start=1):
        onset = start + hour * 3600.0
        city = gazetteer.lookup(place)
        localized = (
            (city.lat, city.lon, 12.0) if city is not None else None
        )
        # Volume scales with shaking: M5 → ~4/s peak, M7 → ~16/s peak.
        peak_rate = (2.0 ** (magnitude - 3.0)) * intensity

        def quake_composer(
            rng: random.Random,
            _t: float,
            place: str = place,
            magnitude: float = magnitude,
        ) -> tuple[str, int]:
            return text_mod.compose_earthquake(rng, place, magnitude)

        tracks.extend(
            _burst_tracks(
                onset,
                peak_rate=peak_rate,
                topic="earthquake",
                event_id=event_id,
                compose=quake_composer,
                stages=((120, 1.0), (300, 0.5), (600, 0.2), (900, 0.07)),
                localized=localized,
            )
        )
        events.append(
            ScenarioEvent(
                event_id=event_id,
                name=f"M{magnitude:.1f} earthquake {place}",
                time=onset,
                start=onset,
                end=onset + 1920.0,
                expected_terms=(place.lower().split()[0], f"{magnitude:.1f}"),
                info={"place": place, "magnitude": magnitude},
            )
        )

    return _materialize(
        "earthquakes",
        V.EARTHQUAKE_KEYWORDS,
        start,
        end,
        tracks,
        tuple(events),
        population,
        seed,
    )


# ---------------------------------------------------------------------------
# Scenario: a month of news ("obama")
# ---------------------------------------------------------------------------


def news_month_scenario(
    seed: int = rng_mod.DEFAULT_SEED,
    population: UserPopulation | None = None,
    start: float = DEFAULT_EPOCH,
    days: int = 30,
    n_stories: int = 8,
    intensity: float = 1.0,
) -> Scenario:
    """A month of Obama coverage: story-driven multi-hour elevations.

    Each story has its own sentiment mix (a signing skews positive, a budget
    fight skews negative), so per-peak sentiment differs — the drill-down
    behaviour TwitInfo's dashboard demonstrates.
    """
    end = start + days * 24 * 3600.0
    layout_rng = rng_mod.derive(seed, "news:layout")

    tracks = _chatter_tracks(start, end, rate=1.0 * intensity)

    def ambient_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        verb, obj = rng.choice(V.NEWS_STORIES)
        return text_mod.compose_news(rng, verb, obj, positive=0.2, negative=0.2)

    tracks.append(
        _Track(start, end, 0.08 * intensity, "news", None, ambient_composer)
    )

    stories = list(V.NEWS_STORIES)
    layout_rng.shuffle(stories)
    story_days = sorted(layout_rng.sample(range(1, days - 1), k=min(n_stories, days - 2)))

    events: list[ScenarioEvent] = []
    for event_id, day in enumerate(story_days, start=1):
        verb, obj = stories[(event_id - 1) % len(stories)]
        onset = start + day * 24 * 3600.0 + layout_rng.uniform(9, 20) * 3600.0
        positive = layout_rng.uniform(0.15, 0.55)
        negative = layout_rng.uniform(0.15, 0.9 - positive)

        def story_composer(
            rng: random.Random,
            _t: float,
            verb: str = verb,
            obj: str = obj,
            positive: float = positive,
            negative: float = negative,
        ) -> tuple[str, int]:
            return text_mod.compose_news(rng, verb, obj, positive, negative)

        tracks.extend(
            _burst_tracks(
                onset,
                peak_rate=1.2 * intensity,
                topic="news",
                event_id=event_id,
                compose=story_composer,
                stages=((1800, 1.0), (3600, 0.6), (7200, 0.3), (10800, 0.12)),
            )
        )
        key_token = obj.split()[-1]  # "bill", "plan", "justice", …
        events.append(
            ScenarioEvent(
                event_id=event_id,
                name=f"obama {verb} {obj}",
                time=onset,
                start=onset,
                end=onset + 23400.0,
                expected_terms=(key_token,),
                info={
                    "verb": verb,
                    "object": obj,
                    "positive": positive,
                    "negative": negative,
                    "day": day,
                },
            )
        )

    return _materialize(
        "news-month",
        V.NEWS_KEYWORDS,
        start,
        end,
        tracks,
        tuple(events),
        population,
        seed,
    )


# ---------------------------------------------------------------------------
# Scenario: election night (high-stress — rising baseline, late climax)
# ---------------------------------------------------------------------------


def election_night_scenario(
    seed: int = rng_mod.DEFAULT_SEED,
    population: UserPopulation | None = None,
    start: float = DEFAULT_EPOCH + 1800.0,
    intensity: float = 1.0,
    calls: tuple[tuple[float, str, str], ...] = (
        (2.0, "ohio", "harmon"),
        (2.75, "florida", "delgado"),
        (3.5, "colorado", "harmon"),
        (4.25, "virginia", "delgado"),
    ),
    projection_hour: float = 5.0,
    winner: str = "harmon",
) -> Scenario:
    """An election night: state calls on a steadily *rising* baseline.

    The stress here is the baseline itself — anticipation traffic climbs
    all night, so a peak detector tuned for a flat background must track a
    moving mean, and the projection climax lands on the highest baseline
    of all. Sampling thins an already-noisy ramp, which is exactly where
    shot noise phantoms peaks.

    Args:
        calls: (hour offset, state, winning candidate) network calls.
        projection_hour: hour offset of the race-deciding projection.
        winner: the candidate the final projection names.
    """
    end = start + 6 * 3600.0

    tracks = _chatter_tracks(start, end, rate=2.0 * intensity)

    def anticipation_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        return text_mod.compose_election_chatter(rng)

    # The rising baseline: polls-close anticipation, the counting hours,
    # then the everyone-watching climax window.
    ramp = (
        (start, start + 2 * 3600.0, 1.0),
        (start + 2 * 3600.0, start + 4 * 3600.0, 2.0),
        (start + 4 * 3600.0, end, 3.0),
    )
    for seg_start, seg_end, multiplier in ramp:
        tracks.append(
            _Track(
                seg_start, seg_end, multiplier * intensity, "election",
                None, anticipation_composer,
            )
        )

    events: list[ScenarioEvent] = []
    for event_id, (hour, state, called_for) in enumerate(calls, start=1):
        onset = start + hour * 3600.0

        def call_composer(
            rng: random.Random,
            _t: float,
            state: str = state,
            called_for: str = called_for,
        ) -> tuple[str, int]:
            return text_mod.compose_election_call(rng, state, called_for, 0.6)

        tracks.extend(
            _burst_tracks(
                onset,
                peak_rate=14.0 * intensity,
                topic="election",
                event_id=event_id,
                compose=call_composer,
                # A state call dominates conversation for a couple of
                # minutes (not one): the sustained stage is what keeps the
                # burst detectable after heavy sampling.
                stages=((150, 1.0), (180, 0.45), (240, 0.18)),
            )
        )
        events.append(
            ScenarioEvent(
                event_id=event_id,
                name=f"{state} called for {called_for}",
                time=onset,
                start=onset,
                end=onset + 570.0,
                expected_terms=(state, called_for),
                info={"state": state, "winner": called_for, "hour": hour},
            )
        )

    projection_onset = start + projection_hour * 3600.0
    projection_id = len(calls) + 1

    def projection_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        return text_mod.compose_election_projection(rng, winner, 0.65)

    tracks.extend(
        _burst_tracks(
            projection_onset,
            peak_rate=26.0 * intensity,
            topic="election",
            event_id=projection_id,
            compose=projection_composer,
            stages=((120, 1.0), (240, 0.55), (480, 0.25), (720, 0.1)),
        )
    )
    events.append(
        ScenarioEvent(
            event_id=projection_id,
            name=f"projection: {winner} wins",
            time=projection_onset,
            start=projection_onset,
            end=projection_onset + 1560.0,
            expected_terms=("projection", winner),
            info={"winner": winner, "projection": True},
        )
    )

    return _materialize(
        "election",
        V.ELECTION_KEYWORDS,
        start,
        end,
        tracks,
        tuple(events),
        population,
        seed,
    )


# ---------------------------------------------------------------------------
# Scenario: breaking-news cascade (amplifying retweet waves)
# ---------------------------------------------------------------------------

#: The (fictional) fire's location: authors for the first wave are locals.
_CEDAR_RIDGE = (44.05, -121.30, 8.0)

#: Default cascade: (minutes after break, rate multiplier, update text,
#: expected labeler terms). Waves come faster *and* bigger — the
#: retweet-amplification shape of 2011 breaking news.
DEFAULT_CASCADE_WAVES: tuple[tuple[float, float, str, tuple[str, ...]], ...] = (
    (0.0, 1.0, "wildfire breaks out near cedar ridge", ("cedar", "ridge")),
    (25.0, 1.5, "evacuation ordered for cedar ridge", ("evacuation",)),
    (45.0, 2.2, "highway 9 closed as the wildfire spreads", ("highway", "closed")),
    (60.0, 3.3, "governor declares a wildfire emergency", ("governor", "emergency")),
)


def breaking_news_cascade_scenario(
    seed: int = rng_mod.DEFAULT_SEED,
    population: UserPopulation | None = None,
    break_time: float = DEFAULT_EPOCH + 1800.0,
    intensity: float = 1.0,
    waves: tuple[tuple[float, float, str, tuple[str, ...]], ...] = DEFAULT_CASCADE_WAVES,
    base_rate: float = 6.0,
) -> Scenario:
    """A breaking story amplified wave by wave through retweets.

    There is *no* topical traffic before the break (the story does not
    exist yet); then update waves arrive closer and closer together with
    growing amplitude, and the retweet share runs ~3x the normal rate —
    a thick RT cascade. Stresses peak separation: adjacent waves must not
    merge, and a thinned stream must not split one wave into two.

    Args:
        waves: (minutes after break, rate multiplier, update text,
            expected terms) per wave; the first wave is localized to the
            fire's region.
        base_rate: tweets/second of the first wave's burst at intensity 1.
    """
    start = break_time - 1800.0
    end = break_time + 3.5 * 3600.0

    tracks = _chatter_tracks(start, end, rate=2.0 * intensity)

    def ambient_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        return text_mod.compose_cascade_ambient(rng)

    # Sustained coverage exists only once the story has broken.
    tracks.append(
        _Track(break_time, end, 0.8 * intensity, "breaking", None, ambient_composer)
    )

    events: list[ScenarioEvent] = []
    for event_id, (minutes, multiplier, update, terms) in enumerate(waves, start=1):
        onset = break_time + minutes * 60.0

        def wave_composer(
            rng: random.Random, _t: float, update: str = update
        ) -> tuple[str, int]:
            return text_mod.compose_breaking_news(rng, update)

        tracks.extend(
            _burst_tracks(
                onset,
                peak_rate=base_rate * multiplier * intensity,
                topic="breaking",
                event_id=event_id,
                compose=wave_composer,
                stages=((90, 1.0), (180, 0.5), (300, 0.2)),
                localized=_CEDAR_RIDGE if event_id == 1 else None,
            )
        )
        events.append(
            ScenarioEvent(
                event_id=event_id,
                name=update,
                time=onset,
                start=onset,
                end=onset + 570.0,
                expected_terms=terms,
                info={"wave": event_id, "update": update},
            )
        )

    return _materialize(
        "cascade",
        V.CASCADE_KEYWORDS,
        start,
        end,
        tracks,
        tuple(events),
        population,
        seed,
        retweet_rate=0.35,
    )


# ---------------------------------------------------------------------------
# Scenario: bot flood (coordinated spam swamping a genuine signal)
# ---------------------------------------------------------------------------


def bot_flood_scenario(
    seed: int = rng_mod.DEFAULT_SEED,
    population: UserPopulation | None = None,
    start: float = DEFAULT_EPOCH,
    intensity: float = 1.0,
    launch_hour: float = 0.75,
    floods: tuple[tuple[float, float, float], ...] = (
        (1.5, 720.0, 15.0),
        (2.5, 1080.0, 22.0),
    ),
) -> Scenario:
    """A product launch whose keyword a spam botnet floods.

    One genuine reaction burst (the launch keynote) plus square-wave spam
    floods: near-instant onset, a flat plateau of near-duplicate giveaway
    tweets, near-instant stop. The floods *are* ground-truth events — the
    stress is that their square edges, thinned by sampling, are exactly
    the shape that phantoms extra peaks or splits the plateau.

    Args:
        launch_hour: hour offset of the genuine keynote burst.
        floods: (hour offset, duration seconds, tweets/sec at intensity 1)
            per bot flood.
    """
    end = start + 4 * 3600.0

    tracks = _chatter_tracks(start, end, rate=2.0 * intensity)

    def ambient_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        return text_mod.compose_launch_reaction(rng, 0.55)

    tracks.append(
        _Track(start, end, 0.6 * intensity, "botflood", None, ambient_composer)
    )

    launch_onset = start + launch_hour * 3600.0

    def launch_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        return text_mod.compose_launch_reaction(rng, 0.7)

    tracks.extend(
        _burst_tracks(
            launch_onset,
            peak_rate=10.0 * intensity,
            topic="botflood",
            event_id=1,
            compose=launch_composer,
            # Keynote reaction sustains for a couple of minutes before
            # decaying — detectable even after heavy sampling.
            stages=((150, 1.0), (180, 0.5), (240, 0.2)),
        )
    )
    events: list[ScenarioEvent] = [
        ScenarioEvent(
            event_id=1,
            name="solaris launch keynote",
            time=launch_onset,
            start=launch_onset,
            end=launch_onset + 570.0,
            expected_terms=("launch",),
            info={"bot": False},
        )
    ]

    def spam_composer(rng: random.Random, _t: float) -> tuple[str, int]:
        return text_mod.compose_bot_spam(rng)

    for event_id, (hour, duration, rate) in enumerate(floods, start=2):
        onset = start + hour * 3600.0
        tracks.append(
            _Track(
                onset, onset + duration, rate * intensity, "botflood",
                event_id, spam_composer,
            )
        )
        events.append(
            ScenarioEvent(
                event_id=event_id,
                name=f"bot flood #{event_id - 1}",
                time=onset,
                start=onset,
                end=onset + duration,
                expected_terms=("free", "giveaway"),
                info={"bot": True, "duration": duration},
            )
        )

    return _materialize(
        "botflood",
        V.BOTFLOOD_KEYWORDS,
        start,
        end,
        tracks,
        tuple(events),
        population,
        seed,
    )


# ---------------------------------------------------------------------------
# Scenario: pure background chatter
# ---------------------------------------------------------------------------


def background_chatter(
    seed: int = rng_mod.DEFAULT_SEED,
    population: UserPopulation | None = None,
    start: float = DEFAULT_EPOCH,
    duration: float = 3600.0,
    rate: float = 5.0,
) -> Scenario:
    """Topic-free chatter; the null workload for engine/selectivity tests."""
    end = start + duration
    tracks = _chatter_tracks(start, end, rate=rate)
    return _materialize(
        "chatter", (), start, end, tracks, (), population, seed
    )
