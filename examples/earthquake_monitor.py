"""Earthquake timeline: localized spikes, maps, and confidence windowing.

Run:  python examples/earthquake_monitor.py

One of the demo's three canned scenarios (§4): a day of earthquakes. Shows
TwitInfo detecting each quake as a peak labeled with the place and
magnitude, the map clustering around epicenters, and — the §2 "Uneven
Aggregate Groups" mechanism — confidence-triggered regional sentiment that
emits dense regions quickly and ages out sparse ones.
"""

from repro import TweeQL
from repro.clock import format_timestamp
from repro.geo.bbox import BoundingBox
from repro.twitinfo import TwitInfoApp
from repro.twitter.users import UserPopulation
from repro.twitter.workloads import earthquake_scenario


def main() -> None:
    population = UserPopulation(size=3000, seed=23)
    scenario = earthquake_scenario(seed=23, population=population)

    # --- TwitInfo event tracking -------------------------------------------------
    session = TweeQL.for_scenarios(scenario)
    app = TwitInfoApp(session)
    event = app.track(
        "Earthquake timeline",
        scenario.keywords,
        start=scenario.start,
        end=scenario.end,
        bin_seconds=300.0,  # coarser bins for a day-long event
    )
    print(app.dashboard(event).render_text())

    print("\nGround truth vs detected peaks:")
    for quake in scenario.truth.events:
        nearest = min(
            event.peaks, key=lambda p: abs(p.apex_time - quake.time),
            default=None,
        )
        if nearest is None:
            print(f"  MISSED  {quake.name}")
            continue
        gap_min = abs(nearest.apex_time - quake.time) / 60
        print(
            f"  {quake.name:<38} → peak {nearest.label} "
            f"({gap_min:.0f} min off, terms: {', '.join(nearest.terms)})"
        )

    # Map clusters near the strongest epicenter.
    strongest = max(scenario.truth.events, key=lambda e: e.info["magnitude"])
    city = population.gazetteer.lookup(strongest.info["place"])
    box = BoundingBox.around(city.lat, city.lon, radius_km=400, name=city.name)
    nearby = app.dashboard(event).markers
    in_box = [m for m in nearby if box.contains(m.lat, m.lon)]
    print(
        f"\nMap: {len(in_box)} of {len(nearby)} geotagged tweets lie within "
        f"400 km of {city.name} (M{strongest.info['magnitude']:.1f})"
    )

    # --- Confidence-triggered regional sentiment (fresh session) -------------------
    session2 = TweeQL.for_scenarios(scenario)
    handle = session2.query(
        "SELECT AVG(sentiment(text)) AS mood, "
        "floor(latitude(loc) / 10) AS lat_band FROM twitter "
        "WHERE text contains 'earthquake' GROUP BY lat_band "
        "WINDOW CONFIDENCE 0.15 MAX 2 hours;"
    )
    print("\nConfidence-triggered regional sentiment (first 12 emissions):")
    for row in handle.fetch(12):
        band = row["lat_band"]
        label = f"{int(band) * 10:+d}°…" if band is not None else "(unknown)"
        print(
            f"  {format_timestamp(row['created_at'])}  band {label:<8} "
            f"mood {row['mood']:+.2f}  n={row['n']:<4} "
            f"ci=±{row['ci_halfwidth']}  [{row['emit_reason']}]"
        )
    handle.close()


if __name__ == "__main__":
    main()
