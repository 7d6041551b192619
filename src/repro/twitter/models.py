"""Tweet and user records.

These mirror the fields of the 2011 Twitter API objects that TweeQL's
``twitter`` stream schema exposed: tweet text, creation time, user name,
free-text profile location, optional exact geotag, and derived entities
(hashtags, mentions, URLs).

A tweet carries only what the API delivered. The generator's labels (true
sentiment, topic, causal event) live on the scenario that made the stream,
in :class:`~repro.twitter.workloads.GroundTruth`: the engine never sees
them, and tests and benchmarks score detectors against them, as TwitInfo's
evaluation scored against human annotators.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from operator import attrgetter
from typing import Any

_HASHTAG_RE = re.compile(r"#(\w+)")
_MENTION_RE = re.compile(r"@(\w+)")
_URL_RE = re.compile(r"https?://\S+")


@dataclass(frozen=True, slots=True)
class User:
    """A Twitter account.

    Attributes:
        user_id: numeric account id.
        screen_name: handle without the leading ``@``.
        location: free-text profile location ("" when unset). Messy on
            purpose: real profile locations were messy, and geocoding them
            is one of the paper's motivating UDFs.
        home: the true (lat, lon) the generator placed this user at —
            ground truth, not visible through the API schema.
        geo_enabled: whether this user's tweets may carry exact geotags.
        followers: follower count (drives retweet-ish text patterns).
        lang: BCP-47 language code; the simulation is English-only but the
            field is kept for schema fidelity.
    """

    user_id: int
    screen_name: str
    location: str = ""
    home: tuple[float, float] | None = None
    geo_enabled: bool = False
    followers: int = 0
    lang: str = "en"


@dataclass(frozen=True, slots=True)
class TweetEntities:
    """Entities parsed from tweet text (the API pre-parsed these)."""

    hashtags: tuple[str, ...] = ()
    mentions: tuple[str, ...] = ()
    urls: tuple[str, ...] = ()

    @classmethod
    def from_text(cls, text: str) -> "TweetEntities":
        """Extract hashtags, mentions, and URLs from raw tweet text.

        A text without ``#``, ``@`` or ``://`` has none of them, and gets
        the one shared empty instance.
        """
        if "#" not in text and "@" not in text and "://" not in text:
            return NO_ENTITIES
        return cls(
            hashtags=tuple(m.group(1).lower() for m in _HASHTAG_RE.finditer(text)),
            mentions=tuple(m.group(1) for m in _MENTION_RE.finditer(text)),
            urls=tuple(m.group(0).rstrip(".,;!?)") for m in _URL_RE.finditer(text)),
        )


#: The entities of a text that has none.
NO_ENTITIES = TweetEntities()


@dataclass(frozen=True, slots=True)
class Tweet:
    """One tweet as delivered by the streaming API.

    Attributes:
        tweet_id: unique, increasing id (Twitter ids were roughly
            time-ordered; the simulator's strictly are).
        created_at: virtual timestamp, seconds since epoch.
        user: the author.
        text: the tweet body (<= 140 characters, as in 2011).
        geo: exact (lat, lon) geotag when the user opted in, else None.
        entities: pre-parsed hashtags/mentions/URLs.
    """

    tweet_id: int
    created_at: float
    user: User
    text: str
    geo: tuple[float, float] | None = None
    entities: TweetEntities | None = None

    def __post_init__(self) -> None:
        if self.entities is None:
            object.__setattr__(self, "entities", TweetEntities.from_text(self.text))

    @property
    def location(self) -> str:
        """The author's free-text profile location."""
        return self.user.location

    @property
    def screen_name(self) -> str:
        """The author's handle."""
        return self.user.screen_name

    def contains(self, needle: str) -> bool:
        """Case-insensitive substring test on the tweet text.

        This is the semantics of TweeQL's ``text contains 'obama'``.
        """
        return needle.casefold() in self.text.casefold()

    def matches_any_keyword(self, keywords: tuple[str, ...]) -> bool:
        """True when any keyword appears in the text (API ``track`` rule)."""
        folded = self.text.casefold()
        return any(k.casefold() in folded for k in keywords)

    def to_row(self) -> dict[str, Any]:
        """Project this tweet onto TweeQL's ``twitter`` stream schema.

        The schema matches the columns the paper's example queries use:
        ``text``, ``loc`` (profile location), ``created_at``, ``user_id``,
        ``screen_name``, ``geo_lat``/``geo_lon`` (exact geotag or None),
        ``location`` (the geotag as a (lat, lon) pair — what the paper's
        ``location in [bounding box …]`` predicate tests), ``lang``,
        ``followers``, and the raw tweet object under ``__tweet__`` for
        UDFs that need entity access.
        """
        geo_lat, geo_lon = self.geo if self.geo is not None else (None, None)
        return {
            "tweet_id": self.tweet_id,
            "text": self.text,
            "loc": self.user.location,
            "created_at": self.created_at,
            "user_id": self.user.user_id,
            "screen_name": self.user.screen_name,
            "geo_lat": geo_lat,
            "geo_lon": geo_lon,
            "location": self.geo,
            "lang": self.user.lang,
            "followers": self.user.followers,
            "__tweet__": self,
        }


def track_rule(keywords: Iterable[str]) -> Callable[[Tweet], bool]:
    """The streaming API's ``track`` rule: whether any keyword is a
    case-insensitive substring of the text (what
    :meth:`Tweet.matches_any_keyword` answers), with the keywords folded
    once instead of per tweet."""
    folded = tuple(keyword.casefold() for keyword in keywords)

    def matches(tweet: Tweet) -> bool:
        text = tweet.text.casefold()
        for keyword in folded:
            if keyword in text:
                return True
        return False

    return matches


def _geo_lat(tweet: Tweet) -> float | None:
    return None if tweet.geo is None else tweet.geo[0]


def _geo_lon(tweet: Tweet) -> float | None:
    return None if tweet.geo is None else tweet.geo[1]


#: One getter per ``twitter`` column, in :meth:`Tweet.to_row` key order:
#: ``TWEET_COLUMNS[name](tweet) == tweet.to_row()[name]``. A tweet-backed
#: batch reads its columns through this table, one column at a time.
TWEET_COLUMNS: dict[str, Callable[[Tweet], Any]] = {
    "tweet_id": attrgetter("tweet_id"),
    "text": attrgetter("text"),
    "loc": attrgetter("user.location"),
    "created_at": attrgetter("created_at"),
    "user_id": attrgetter("user.user_id"),
    "screen_name": attrgetter("user.screen_name"),
    "geo_lat": _geo_lat,
    "geo_lon": _geo_lon,
    "location": attrgetter("geo"),
    "lang": attrgetter("user.lang"),
    "followers": attrgetter("user.followers"),
    "__tweet__": lambda tweet: tweet,
}

#: Column names of the ``twitter`` stream schema, in order (the table
#: above less the raw tweet, which queries cannot name).
TWITTER_SCHEMA: tuple[str, ...] = tuple(
    name for name in TWEET_COLUMNS if not name.startswith("__")
)
