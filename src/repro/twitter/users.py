"""Synthetic user population.

The paper's "Uneven Aggregate Groups" discussion hinges on the real,
uneven global distribution of Twitter users ("Tokyo has many Twitter users,
but Cape Town has far fewer"). The population generator reproduces that
skew:

- home cities are sampled proportionally to population x 2011 Twitter
  adoption (from the gazetteer),
- per-user activity follows a bounded Zipf distribution (a few prolific
  accounts, a long tail),
- profile ``location`` strings are messy: canonical names, aliases, noisy
  decorations, or blank/whimsical strings that defeat geocoding — the
  failure mode the paper's geocoding UDF must tolerate,
- a minority of users are ``geo_enabled`` and attach exact (jittered)
  coordinates to tweets, feeding TwitInfo's map view.
"""

from __future__ import annotations

import random
from itertools import accumulate

from repro import rng as rng_mod
from repro.geo.gazetteer import City, Gazetteer, default_gazetteer
from repro.twitter.models import User

#: Whimsical profile locations that no geocoder can resolve.
_UNGEOCODABLE = (
    "somewhere over the rainbow", "earth", "the internet", "everywhere",
    "in my head", "wonderland", "the moon", "behind you", "", "", "",
)

#: Share of users whose tweets carry exact geotags (2011-era opt-in was low).
GEO_ENABLED_FRACTION = 0.18

#: Share of users with an unresolvable or empty profile location.
UNGEOCODABLE_FRACTION = 0.22


def _messy_location(rng: random.Random, city: City) -> str:
    """Render a city as a plausibly messy profile-location string."""
    style = rng.random()
    if style < 0.40:
        return city.name
    if style < 0.60 and city.aliases:
        return rng.choice(list(city.aliases))
    if style < 0.75:
        return f"{city.name}, {city.country}"
    if style < 0.85:
        return city.name.lower()
    if style < 0.95:
        return f"{city.name}!!"
    return f"living in {city.name}"


class UserPopulation:
    """A fixed population of synthetic Twitter accounts.

    Args:
        size: number of accounts.
        seed: RNG seed; the same seed reproduces the same population.
        gazetteer: city database for home sampling.
        activity_exponent: Zipf skew of per-user tweet rates.
    """

    def __init__(
        self,
        size: int = 5000,
        seed: int = rng_mod.DEFAULT_SEED,
        gazetteer: Gazetteer | None = None,
        activity_exponent: float = 1.1,
    ) -> None:
        if size <= 0:
            raise ValueError("population size must be positive")
        self._gazetteer = gazetteer or default_gazetteer()
        self._rng = rng_mod.derive(seed, "users")
        self._users: list[User] = []
        self._homes: list[City] = []

        cities = list(self._gazetteer.cities)
        city_cum = list(accumulate(self._gazetteer.twitter_weights()))
        # Zipf activity mass for ranks; shuffled assignment so user_id is
        # uncorrelated with activity.
        activity_mass = rng_mod.zipf_ranks(size, activity_exponent)
        self._rng.shuffle(activity_mass)
        self._activity = activity_mass
        # choices(weights=w) is choices(cum_weights=list(accumulate(w))):
        # one random() and the same bisect, so every draw is unchanged.
        self._activity_cum = list(accumulate(activity_mass))
        #: (lat, lon, radius) → (nearby users, their cumulative weights).
        self._near: dict[
            tuple[float, float, float], tuple[list[User], list[float]]
        ] = {}

        for user_id in range(1, size + 1):
            city = self._rng.choices(cities, cum_weights=city_cum, k=1)[0]
            self._homes.append(city)
            if self._rng.random() < UNGEOCODABLE_FRACTION:
                location = self._rng.choice(_UNGEOCODABLE)
            else:
                location = _messy_location(self._rng, city)
            followers = int(self._rng.paretovariate(1.2)) * 10
            self._users.append(
                User(
                    user_id=user_id,
                    screen_name=f"user{user_id}",
                    location=location,
                    home=city.coordinates,
                    geo_enabled=self._rng.random() < GEO_ENABLED_FRACTION,
                    followers=min(followers, 5_000_000),
                )
            )

    def __len__(self) -> int:
        return len(self._users)

    @property
    def users(self) -> list[User]:
        """All accounts (index = user_id - 1)."""
        return self._users

    @property
    def gazetteer(self) -> Gazetteer:
        """The gazetteer homes were sampled from."""
        return self._gazetteer

    def home_city(self, user: User) -> City:
        """Ground truth: the city a user was placed in."""
        return self._homes[user.user_id - 1]

    def sample_author(self, rng: random.Random) -> User:
        """Draw a tweet author according to the Zipf activity weights."""
        return rng.choices(self._users, cum_weights=self._activity_cum, k=1)[0]

    def sample_author_near(
        self, rng: random.Random, lat: float, lon: float, radius_deg: float
    ) -> User:
        """Draw an author whose home lies within ``radius_deg`` of a point.

        Used by localized scenarios (an earthquake is tweeted about by
        people who felt it). Falls back to the global draw when nobody
        lives close enough. The nearby users and their cumulative weights
        are computed once per point and radius.
        """
        key = (lat, lon, radius_deg)
        near = self._near.get(key)
        if near is None:
            nearby = [
                index
                for index, city in enumerate(self._homes)
                if abs(city.lat - lat) <= radius_deg
                and abs(city.lon - lon) <= radius_deg
            ]
            near = self._near[key] = (
                [self._users[i] for i in nearby],
                list(accumulate(self._activity[i] for i in nearby)),
            )
        users, cum_weights = near
        if not users:
            return self.sample_author(rng)
        return rng.choices(users, cum_weights=cum_weights, k=1)[0]

    def geotag_for(self, rng: random.Random, user: User) -> tuple[float, float] | None:
        """Exact coordinates for a tweet by ``user``, if geo-enabled.

        Jitters the home-city center by up to ~0.15 degrees, approximating
        movement within a metro area.
        """
        if not user.geo_enabled or user.home is None:
            return None
        lat, lon = user.home
        return (
            lat + rng.uniform(-0.15, 0.15),
            lon + rng.uniform(-0.15, 0.15),
        )
