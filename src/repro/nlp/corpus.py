"""Distant-supervision training corpus.

The original TweeQL sentiment classifier was trained the way Go et al.'s
"Twitter sentiment" work popularized: collect tweets containing positive or
negative emoticons, label them by the emoticon, and strip the emoticon from
the features. This module generates such a corpus from the same text
composers that drive the workloads, so the classifier's training
distribution matches what queries will classify — with held-out test data
labeled by the *generator's* ground truth rather than the emoticon
heuristic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import rng as rng_mod
from repro.nlp.tokenize import _EMOTICON_RE
from repro.twitter import text as text_mod
from repro.twitter import vocabulary as V


@dataclass(frozen=True)
class LabeledTweet:
    """One training/test example: raw text and its true label (-1/0/+1)."""

    text: str
    label: int


def _compose_any(rng: random.Random) -> tuple[str, int]:
    """Draw a tweet from the full mix of composers."""
    roll = rng.random()
    if roll < 0.45:
        return text_mod.compose_chatter(rng)
    if roll < 0.60:
        scorer = rng.choice(V.SOCCER_PLAYERS_HOME + V.SOCCER_PLAYERS_AWAY)
        score = f"{rng.randint(0, 4)}-{rng.randint(0, 4)}"
        return text_mod.compose_soccer_goal(
            rng, scorer, score, "manchester city", supporters_positive=0.5
        )
    if roll < 0.72:
        return text_mod.compose_soccer_play(rng, rng.choice(V.SOCCER_KEYWORDS))
    if roll < 0.85:
        place = rng.choice(("Tokyo", "Santiago", "Padang", "California"))
        return text_mod.compose_earthquake(rng, place, 4.0 + 3.0 * rng.random())
    verb, obj = rng.choice(V.NEWS_STORIES)
    return text_mod.compose_news(rng, verb, obj, positive=0.3, negative=0.3)


def has_emoticon_label(text: str) -> int | None:
    """Distant-supervision label from emoticons; None when ambiguous/absent."""
    from repro.nlp.tokenize import NEGATIVE_EMOTICONS, POSITIVE_EMOTICONS

    has_positive = any(e in text for e in POSITIVE_EMOTICONS)
    has_negative = any(e in text for e in NEGATIVE_EMOTICONS)
    if has_positive and not has_negative:
        return 1
    if has_negative and not has_positive:
        return -1
    return None


def training_corpus(
    size: int = 4000, seed: int = rng_mod.DEFAULT_SEED
) -> list[LabeledTweet]:
    """Emoticon-labeled training examples (positive/negative only).

    Draws composed tweets until ``size`` of them carry an unambiguous
    emoticon label. The emoticon provides the label; features are extracted
    with emoticons stripped (the classifier does that).
    """
    rng = rng_mod.derive(seed, "corpus:train")
    examples: list[LabeledTweet] = []
    while len(examples) < size:
        text, _true = _compose_any(rng)
        label = has_emoticon_label(text)
        if label is not None:
            examples.append(LabeledTweet(text=text, label=label))
    return examples


def test_corpus(
    size: int = 1000, seed: int = rng_mod.DEFAULT_SEED
) -> list[LabeledTweet]:
    """Ground-truth-labeled held-out examples (includes neutrals).

    Labels come from the composer (what the author *meant*), not from
    emoticons, so accuracy numbers measure real generalization — including
    on tweets whose only sentiment cue is phrasing.
    """
    rng = rng_mod.derive(seed, "corpus:test")
    examples: list[LabeledTweet] = []
    while len(examples) < size:
        text, true_label = _compose_any(rng)
        examples.append(LabeledTweet(text=text, label=true_label))
    return examples


def strip_emoticons(text: str) -> str:
    """Remove every known emoticon from ``text`` (training-feature hygiene).

    Leftmost match first, longest emoticon first where two start at the
    same character — the order ``tokenize`` uses, and one that does not
    depend on the iteration order of the ``EMOTICONS`` set.
    """
    return _EMOTICON_RE.sub(" ", text)
