"""The entity extractor's one-pass candidate search gives exactly the
per-name loop's answer.

``EntityExtractor.extract`` runs one lookahead pattern over the text to
find which names match anywhere, then runs the longest-first per-name
loop over those names only. The reference below is that loop over every
name, as the extractor ran it before the candidate pass existed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.gazetteer import CITIES, City, Gazetteer
from repro.nlp.entities import Entity, EntityExtractor


def reference_extract(extractor: EntityExtractor, text: str) -> list[Entity]:
    """Every name's pattern, longest first; covered matches suppressed."""
    found: list[Entity] = []
    covered: list[tuple[int, int]] = []
    for pattern, canonical, entity_type in extractor._patterns:
        for match in pattern.finditer(text):
            span = match.span()
            if any(span[0] >= s and span[1] <= e for s, e in covered):
                continue
            covered.append(span)
            entity = Entity(text=canonical, type=entity_type)
            if entity not in found:
                found.append(entity)
    return found


#: Extra cities whose matches can overlap each other ("New York New" in
#: "new york new york new" hides a "New York" the lookahead never names),
#: so the extractor must fall back to every name.
OVERLAPPING = (
    City("New York New", "Nowhere", 0.0, 0.0, 1.0),
    City("Walla Walla", "Nowhere", 0.0, 0.0, 1.0),
    City("Walla", "Nowhere", 0.0, 0.0, 1.0),
)

EXTRACTORS = {
    "default": EntityExtractor(),
    "overlapping": EntityExtractor(Gazetteer(CITIES + OVERLAPPING)),
}

#: Case partners ``re.IGNORECASE`` matches that ``casefold()`` does not
#: treat alike (dotless ı, dotted İ, long ſ, the Kelvin sign), and ß.
_VARIANTS = {"i": "iIıİ", "s": "sSſ", "k": "kKK", "ss": "ß"}


def _spelled(name: str) -> st.SearchStrategy[str]:
    """``name`` with each character in a drawn case or case partner."""
    choices = [_VARIANTS.get(c.lower(), c.lower() + c.upper()) for c in name]
    return st.tuples(*(st.sampled_from(c) for c in choices)).map("".join)


def _pieces(extractor: EntityExtractor) -> st.SearchStrategy[str]:
    names = [name for _pattern, name, _type in extractor._patterns]
    name = st.sampled_from(names)
    return st.one_of(
        name.flatmap(_spelled),
        name.map(lambda n: n[:-1]),  # a prefix: no trailing word boundary
        name.map(lambda n: n + "s"),  # a word neighbour glued on
        name.map(lambda n: f"{n} {n}"),  # repeats
        st.sampled_from(
            [" ", "  ", ".", "-", "'", "_", "0", "#", "@", "ß", "ı", "İ",
             "ſ", "K", "é", "ã", "city", "manchester", "new", "york",
             "walla"]
        ),
    )


def _texts(extractor: EntityExtractor) -> st.SearchStrategy[str]:
    return st.lists(_pieces(extractor), max_size=8).map("".join)


@pytest.mark.parametrize("which", sorted(EXTRACTORS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extract_matches_the_per_name_loop(which, data):
    extractor = EXTRACTORS[which]
    text = data.draw(_texts(extractor), label="text")
    assert extractor.extract(text) == reference_extract(extractor, text)


@pytest.mark.parametrize(
    "text",
    [
        "new york new york new",
        "walla walla walla",
        "MANCHESTER CITY and manchester",
        "São Paulo, SÃO PAULO, são paulo",
        "Brasília Bogotá Medellín",
        "kompany ſilva tevez",
        "obama in İstanbul and ıstanbul",
        "",
    ],
)
@pytest.mark.parametrize("which", sorted(EXTRACTORS))
def test_extract_matches_the_per_name_loop_on_named_cases(which, text):
    extractor = EXTRACTORS[which]
    assert extractor.extract(text) == reference_extract(extractor, text)


def test_self_overlapping_name_runs_every_name():
    """A longer name whose scan steps over an overlapping match of its
    own leaves a shorter name's match uncovered there: the extractor
    still reports it."""
    extractor = EXTRACTORS["overlapping"]
    entities = extractor.extract("new york new york new")
    assert Entity("New York", "City") in entities
    assert entities == reference_extract(extractor, "new york new york new")
