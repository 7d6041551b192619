"""Named-entity extraction (the simulated OpenCalais).

The paper: "Another UDF takes tweet text, passes it to OpenCalais, and
returns named entities mentioned in the text." OpenCalais is a remote
service; our stand-in is a gazetteer/lexicon matcher over the synthetic
vocabulary wrapped — like the geocoder — in the simulated web-service shell
(see :mod:`repro.geo.service`), so the executor sees the same API shape and
latency profile.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.geo.gazetteer import Gazetteer, default_gazetteer
from repro.twitter.vocabulary import KNOWN_ORGANIZATIONS, KNOWN_PEOPLE


@dataclass(frozen=True)
class Entity:
    """One extracted entity."""

    text: str
    type: str  # "Person" | "Organization" | "City"

    def __str__(self) -> str:
        return f"{self.text}/{self.type}"


class EntityExtractor:
    """Lexicon-based NER over people, organizations, and gazetteer cities."""

    def __init__(self, gazetteer: Gazetteer | None = None) -> None:
        gazetteer = gazetteer or default_gazetteer()
        patterns: list[tuple[re.Pattern[str], str, str]] = []
        for person in KNOWN_PEOPLE:
            patterns.append((_word_pattern(person), person, "Person"))
        for organization in KNOWN_ORGANIZATIONS:
            patterns.append((_word_pattern(organization), organization, "Organization"))
        for city in gazetteer.cities:
            patterns.append((_word_pattern(city.name), city.name, "City"))
        # Longest names first so "manchester city" beats "manchester".
        patterns.sort(key=lambda entry: len(entry[1]), reverse=True)
        self._patterns = patterns
        self._finder, self._order, self._overlapping = _candidate_finder(
            tuple(name for _pattern, name, _type in patterns)
        )

    def extract(self, text: str) -> list[Entity]:
        """Entities mentioned in ``text``, deduplicated, longest-match-first.

        A shorter entity fully covered by an already-matched longer one is
        suppressed ("manchester city" absorbs "manchester").

        One lookahead pass names, at each position, the first name in
        longest-first order that matches there; only those names run the
        per-name loop. A name never named can neither emit an entity nor
        cover a span: each of its matches starts where an earlier name
        matches, whose span covers it — unless that earlier name's own
        scan stepped over the position, which only a name that can
        overlap itself does, and then every name runs.
        """
        found: list[Entity] = []
        covered: list[tuple[int, int]] = []
        order = self._order
        named = {order[match.lastindex - 1] for match in self._finder.finditer(text)}
        if named.isdisjoint(self._overlapping):
            patterns = [self._patterns[index] for index in sorted(named)]
        else:
            patterns = self._patterns
        for pattern, canonical, entity_type in patterns:
            for match in pattern.finditer(text):
                span = match.span()
                if any(span[0] >= s and span[1] <= e for s, e in covered):
                    continue
                covered.append(span)
                entity = Entity(text=canonical, type=entity_type)
                if entity not in found:
                    found.append(entity)
        return found

    def __call__(self, text: str) -> list[str]:
        """Service-resolver form: entity strings for one text."""
        return [str(entity) for entity in self.extract(text)]


def _word_pattern(name: str) -> re.Pattern[str]:
    return re.compile(rf"\b{re.escape(name)}\b", re.IGNORECASE)


@lru_cache(maxsize=8)
def _candidate_finder(
    names: tuple[str, ...],
) -> tuple[re.Pattern[str], tuple[int, ...], frozenset[int]]:
    """The one-pass candidate pattern over ``names``, the index into
    ``names`` of each of its groups, and the indexes of the names whose
    matches can overlap each other.

    At each position where some ``\\bname\\b`` matches, the zero-width
    pattern's ``lastindex`` is the group of the first such name. The
    alternatives are nested under their first character, one branch per
    case-insensitive class in first-seen order: names in different
    branches never match at one position, and each branch keeps the
    names' order, so the first match is unchanged, while the regex engine
    tries one branch's names per position instead of every name. Built
    once per name list per process, not per session.
    """
    branches: list[list[int]] = []
    for index, name in enumerate(names):
        for branch in branches:
            if re.fullmatch(re.escape(names[branch[0]][0]), name[0], re.IGNORECASE):
                branch.append(index)
                break
        else:
            branches.append([index])
    alternatives = "|".join(
        re.escape(names[branch[0]][0])
        + "(?:"
        + "|".join(f"({re.escape(names[index][1:])})" for index in branch)
        + ")"
        for branch in branches
    )
    finder = re.compile(rf"(?=\b(?:{alternatives})\b)", re.IGNORECASE)
    order = tuple(index for branch in branches for index in branch)
    overlapping = frozenset(
        index for index, name in enumerate(names) if _self_overlaps(name)
    )
    return finder, order, overlapping


def _self_overlaps(name: str) -> bool:
    """Whether two word-bounded matches of ``name`` can overlap: some
    proper suffix starting at a word boundary inside ``name`` matches its
    prefix of the same length (case-insensitively, as the patterns do)."""
    return any(
        _is_word(name[shift - 1]) != _is_word(name[shift])
        and re.fullmatch(
            re.escape(name[: len(name) - shift]), name[shift:], re.IGNORECASE
        )
        is not None
        for shift in range(1, len(name))
    )


def _is_word(char: str) -> bool:
    return re.match(r"\w", char) is not None
