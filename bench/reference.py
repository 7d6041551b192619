"""Reference answers, computed in plain Python over ``scenario.tweets``.

Every session the benchmark builds is lossless (``delivery_ratio=1.0``),
so what the program must return is a pure function of the generated
tweets and the scenario's retained ground truth. Nothing here imports
the engine, the SQL front end, or TwitInfo: predicates are re-stated as
string methods, ``re`` and arithmetic on the ``Tweet`` fields, so a bug
shared by the program's fast and slow paths still shows.

Each ``check_*`` returns a list of human-readable misses; an empty list
is a pass. A miss is a failed op, never a skipped one.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from collections import Counter

# -- keyword matching (the streaming API's ``track`` rule) -----------------


def keyword_matches(tweets, keywords) -> list:
    """Tweets whose text contains any keyword, case-insensitively."""
    folded = [k.casefold() for k in keywords]
    return [t for t in tweets if any(k in t.text.casefold() for k in folded)]


# -- query_cpu --------------------------------------------------------------

_GOAL = re.compile("g[oa]+l", re.IGNORECASE)
_WINDOW = 300.0  # WINDOW 5 minutes


def cpu_reference(tweets) -> dict:
    """Expected output of the three ``query_cpu`` statements."""
    projected = [
        t for t in tweets if len(t.text) > 10 and t.user.followers >= 10
    ]
    regex = [
        t for t in tweets if _GOAL.search(t.text) and t.user.lang == "en"
    ]
    groups: dict[tuple[float, str], list[int]] = {}
    for t in tweets:
        if len(t.text) > 10:
            start = math.floor(t.created_at / _WINDOW) * _WINDOW
            groups.setdefault((start, t.user.lang), []).append(
                t.user.followers
            )
    return {
        "project_udf": {
            "rows": len(projected),
            "t": Counter(t.text.lower() for t in projected),
            "n_sum": sum(len(t.text) for t in projected),
            "h": Counter(
                dt.datetime.fromtimestamp(t.created_at, tz=dt.timezone.utc).hour
                for t in projected
            ),
        },
        "regex": {
            "rows": len(regex),
            "text": Counter(t.text for t in regex),
            "screen_name": Counter(t.user.screen_name for t in regex),
        },
        "grouped_avg": {
            key: (sum(values) / len(values), len(values))
            for key, values in groups.items()
        },
    }


def check_project_udf(rows, expected) -> list[str]:
    misses = []
    if len(rows) != expected["rows"]:
        misses.append(f"project_udf: {len(rows)} rows, want {expected['rows']}")
    if Counter(r["t"] for r in rows) != expected["t"]:
        misses.append("project_udf: lower(text) multiset differs")
    if sum(r["n"] for r in rows) != expected["n_sum"]:
        misses.append("project_udf: sum(length(text)) differs")
    if Counter(r["h"] for r in rows) != expected["h"]:
        misses.append("project_udf: hour(created_at) histogram differs")
    return misses


def check_regex(rows, expected) -> list[str]:
    misses = []
    if len(rows) != expected["rows"]:
        misses.append(f"regex: {len(rows)} rows, want {expected['rows']}")
    if Counter(r["text"] for r in rows) != expected["text"]:
        misses.append("regex: text multiset differs")
    if Counter(r["screen_name"] for r in rows) != expected["screen_name"]:
        misses.append("regex: screen_name multiset differs")
    return misses


def check_grouped_avg(rows, expected) -> list[str]:
    misses = []
    got = {(r["window_start"], r["lang"]): (r["f"], r["n"]) for r in rows}
    if len(got) != len(rows):
        misses.append("grouped_avg: duplicate (window, lang) rows")
    if got.keys() != expected.keys():
        misses.append(
            f"grouped_avg: {len(got)} groups, want {len(expected)}"
        )
    for key in got.keys() & expected.keys():
        avg, count = got[key]
        want_avg, want_count = expected[key]
        if count != want_count or not math.isclose(
            avg, want_avg, rel_tol=1e-9
        ):
            misses.append(f"grouped_avg: group {key} = {got[key]}, "
                          f"want {expected[key]}")
            break
    return misses


# -- query_services ---------------------------------------------------------


def check_service_query(
    name, keyword_count, rows, stats, connections, aggregate
) -> list[str]:
    """The API filter must hand the engine exactly the keyword matches.

    The UDF values come from the program's own services, so the reference
    pins what plain Python can: how many tweets the filter delivered, how
    many the engine scanned, and (without GROUP BY) how many rows came out.
    """
    misses = []
    delivered = sum(c.stats.delivered for c in connections)
    matched = sum(c.stats.matched for c in connections)
    if delivered != keyword_count or matched != keyword_count:
        misses.append(f"{name}: API matched {matched} / delivered "
                      f"{delivered}, want {keyword_count}")
    if stats.rows_scanned != keyword_count:
        misses.append(f"{name}: engine scanned {stats.rows_scanned}, "
                      f"want {keyword_count}")
    if not aggregate and len(rows) != keyword_count:
        misses.append(f"{name}: {len(rows)} rows, want {keyword_count}")
    if aggregate and not 0 < len(rows) <= keyword_count:
        misses.append(f"{name}: {len(rows)} groups from "
                      f"{keyword_count} tweets")
    return misses


# -- dashboards ---------------------------------------------------------------


def overlaps(peak, event) -> bool:
    """A detected peak's window intersects a ground-truth event's."""
    return peak.start <= event.end and event.start <= peak.end


def covered_events(peaks, truth_events) -> int:
    return sum(
        1 for event in truth_events
        if any(overlaps(peak, event) for peak in peaks)
    )


def check_dashboard(name, tracked, keyword_count, truth_events) -> list[str]:
    misses = []
    total = tracked.timeline.total
    if total != keyword_count or len(tracked.log) != keyword_count:
        misses.append(f"{name}: timeline {total} / log {len(tracked.log)}, "
                      f"want {keyword_count}")
    covered = covered_events(tracked.peaks, truth_events)
    if covered != len(truth_events):
        misses.append(f"{name}: peaks cover {covered} of "
                      f"{len(truth_events)} ground-truth events")
    return misses


# -- archive_backfill -------------------------------------------------------


def event_fingerprint(tracked) -> tuple:
    """What two runs of one event must agree on: log, timeline, peaks."""
    return (
        [t.tweet_id for t in tracked.log.scan()],
        tracked.timeline.bins(),
        [(p.label, p.start, p.end, p.apex_count, p.terms)
         for p in tracked.peaks],
    )


def check_archive(stored_rows, delivered, writer, thread_alive) -> list[str]:
    misses = []
    if stored_rows != delivered:
        misses.append(f"store holds {stored_rows} rows, "
                      f"{delivered} delivered")
    if writer.dropped:
        misses.append(f"storage writer dropped {writer.dropped}")
    if thread_alive:
        misses.append("storage writer thread still alive after close()")
    return misses
