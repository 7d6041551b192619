"""The fidelity harness: one scenario, two streams, one verdict.

:class:`FidelityRun` replays a scenario twice —

1. a **firehose pass**: a lossless (delivery ratio 1.0) connection over
   every tweet the scenario generated;
2. a **sample pass**: the tweets returned by the streaming API's
   budgeted ``statuses/sample`` endpoint at the requested rate, replayed
   over an equally lossless connection —

and runs the *same* TwitInfo event (same keywords, same detector
parameters, same bin width) on each. The two passes' digests are scored
against each other with the metrics in :mod:`repro.fidelity.metrics`,
and the sampled side's coverage is estimated from delivered-vs-eligible
counts. At rate 1.0 the two passes see identical streams, so every
score is exactly 1.0 — the identity the property suite pins.

Both passes run on their own virtual clock and seed-derived RNGs; the
resulting :class:`~repro.fidelity.report.FidelityReport` is
deterministic for a given (scenario, seed, rate).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro import rng as rng_mod
from repro.clock import VirtualClock
from repro.engine.session import EngineConfig, TweeQL
from repro.fidelity import metrics
from repro.fidelity.coverage import CoverageEstimate
from repro.fidelity.report import FidelityReport, FidelityScores, StreamDigest
from repro.twitinfo.app import TrackedEvent, TwitInfoApp
from repro.twitinfo.peaks import PeakDetectorParams
from repro.twitter.models import Tweet
from repro.twitter.stream import Firehose, StreamingAPI
from repro.twitter.users import UserPopulation
from repro.twitter.workloads import (
    Scenario,
    baseball_game_scenario,
    bot_flood_scenario,
    breaking_news_cascade_scenario,
    earthquake_scenario,
    election_night_scenario,
    news_month_scenario,
    soccer_match_scenario,
)

#: Scenario name → generator, for the CLI and tests. Keys are the names
#: ``tweeql fidelity --scenario`` accepts.
SCENARIO_BUILDERS = {
    "soccer": soccer_match_scenario,
    "baseball": baseball_game_scenario,
    "earthquakes": earthquake_scenario,
    "news": news_month_scenario,
    "election": election_night_scenario,
    "cascade": breaking_news_cascade_scenario,
    "botflood": bot_flood_scenario,
}


def build_scenario(
    name: str,
    seed: int = rng_mod.DEFAULT_SEED,
    population_size: int = 2000,
    intensity: float = 1.0,
) -> Scenario:
    """Build a registry scenario with its own seeded population."""
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_BUILDERS))
        raise ValueError(f"unknown scenario {name!r} (expected one of: {known})"
                         ) from None
    population = UserPopulation(size=population_size, seed=seed)
    return builder(seed=seed, population=population, intensity=intensity)


@dataclass
class FidelityRun:
    """Replay one scenario through firehose and sample, then score.

    Args:
        scenario: the workload to replay.
        rate: ``statuses/sample`` probability for the sample pass.
        seed: determinism seed for both passes and the sampling draw.
        bin_seconds: timeline bin width for both events.
        topk: how many top terms each digest keeps.
        tolerance_bins: peak-matching tolerance, in bins.
        sample_budget: budget for the metered sample endpoint (the run
            makes exactly one call); None for unmetered.
    """

    scenario: Scenario
    rate: float = 0.01
    seed: int = rng_mod.DEFAULT_SEED
    bin_seconds: float = 60.0
    topk: int = 10
    tolerance_bins: int = 3
    sample_budget: int | None = 1
    _apps: list[TwitInfoApp] = field(default_factory=list, repr=False)

    @property
    def tolerance_seconds(self) -> float:
        return self.tolerance_bins * self.bin_seconds

    # -- passes ---------------------------------------------------------------

    def _run_pass(self, tweets: list[Tweet], rate: float) -> TrackedEvent:
        """One lossless TwitInfo pass over a tweet list."""
        clock = VirtualClock(start=self.scenario.start)
        api = StreamingAPI(
            Firehose(tweets),
            clock=clock,
            delivery_ratio=1.0,
            seed=self.seed,
        )
        session = TweeQL(
            api=api, clock=clock, config=EngineConfig(), seed=self.seed
        )
        app = TwitInfoApp(session)
        self._apps.append(app)
        tracked = app.create_event(
            name=self.scenario.name,
            keywords=self.scenario.keywords,
            bin_seconds=self.bin_seconds,
            detector_params=PeakDetectorParams.for_sampled_stream(rate),
        )
        app.run_event(tracked)
        return tracked

    def sample_tweets(self) -> list[Tweet]:
        """Draw the sample pass's tweets via the metered endpoint.

        The salt is fixed per (scenario, seed), so different rates reuse
        the same per-tweet coin flips: a lower-rate sample is a subset of
        a higher-rate one (nested sampling), which makes the fidelity
        scores monotone-friendly in the rate.
        """
        api = StreamingAPI(
            Firehose(list(self.scenario.tweets)),
            clock=None,
            delivery_ratio=1.0,
            seed=self.seed,
            sample_budget=self.sample_budget,
        )
        return api.sample(rate=self.rate, salt=f"fidelity:{self.scenario.name}")

    # -- digesting ------------------------------------------------------------

    def _digest(self, tracked: TrackedEvent) -> StreamDigest:
        tweets = list(tracked.log.scan())
        term_counts: Counter[str] = Counter()
        coordinates: list[tuple[float, float]] = []
        for tweet in tweets:
            term_counts.update(tracked.tokens[tweet.tweet_id])
            if tweet.geo is not None:
                coordinates.append((tweet.geo[0], tweet.geo[1]))
        top_terms = tuple(
            sorted(term_counts.items(), key=lambda item: (-item[1], item[0]))
            [: self.topk]
        )
        summary = tracked.sentiment_summary()
        peaks = tuple(
            (peak.start, peak.apex_time, peak.apex_count, peak.end)
            for peak in tracked.peaks
        )
        recall = metrics.truth_recall(
            [event.time for event in self.scenario.truth.events],
            [(start, end) for start, _a, _c, end in peaks],
            self.tolerance_seconds,
        )
        return StreamDigest(
            tweets=len(tweets),
            positive=summary.positive,
            negative=summary.negative,
            neutral=summary.neutral,
            geotagged=len(coordinates),
            top_terms=top_terms,
            peaks=peaks,
            truth_recall=recall,
        )

    def _geo_cells(self, tracked: TrackedEvent) -> dict[tuple[int, int], int]:
        return metrics.geo_cells(
            [
                (tweet.geo[0], tweet.geo[1])
                for tweet in tracked.log.scan()
                if tweet.geo is not None
            ]
        )

    # -- the run --------------------------------------------------------------

    def execute(self) -> FidelityReport:
        """Run both passes and score the sample against the firehose."""
        firehose_event = self._run_pass(list(self.scenario.tweets), rate=1.0)
        sample_event = self._run_pass(self.sample_tweets(), rate=self.rate)

        firehose_digest = self._digest(firehose_event)
        sample_digest = self._digest(sample_event)
        tolerance = self.tolerance_seconds

        firehose_terms = [term for term, _count in firehose_digest.top_terms]
        sample_terms = [term for term, _count in sample_digest.top_terms]
        scores = FidelityScores(
            topk_jaccard=metrics.topk_jaccard(firehose_terms, sample_terms),
            topk_rank_correlation=metrics.topk_rank_correlation(
                firehose_terms, sample_terms
            ),
            peak_count=metrics.peak_count_score(
                len(firehose_digest.peaks), len(sample_digest.peaks)
            ),
            peak_timing=metrics.peak_timing_score(
                firehose_digest.apex_points, sample_digest.apex_points,
                tolerance,
            ),
            peak_height=metrics.peak_height_score(
                firehose_digest.apex_points,
                sample_digest.apex_points,
                tolerance,
                scale_other=1.0 / self.rate,
            ),
            geo=metrics.distribution_score(
                self._geo_cells(firehose_event), self._geo_cells(sample_event)
            ),
            sentiment=metrics.sentiment_score(
                firehose_digest.sentiment_counts,
                sample_digest.sentiment_counts,
            ),
        )
        coverage = CoverageEstimate.from_counts(
            observed=sample_digest.tweets, eligible=firehose_digest.tweets
        )
        return FidelityReport(
            scenario=self.scenario.name,
            seed=self.seed,
            rate=self.rate,
            bin_seconds=self.bin_seconds,
            topk=self.topk,
            tolerance_seconds=tolerance,
            firehose=firehose_digest,
            sample=sample_digest,
            coverage=coverage,
            scores=scores,
        )
