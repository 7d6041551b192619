"""Tweet/user records and schema projection."""

from dataclasses import fields

from repro.twitter.models import (
    TWEET_COLUMNS,
    TWITTER_SCHEMA,
    Tweet,
    TweetEntities,
    User,
)


def make_tweet(text="hello world", geo=None, location="Boston"):
    user = User(user_id=1, screen_name="alice", location=location)
    return Tweet(tweet_id=10, created_at=1000.0, user=user, text=text, geo=geo)


def test_entities_extracted_automatically():
    tweet = make_tweet("GOAL #mcfc @ref http://bit.ly/xyz!")
    assert tweet.entities.hashtags == ("mcfc",)
    assert tweet.entities.mentions == ("ref",)
    assert tweet.entities.urls == ("http://bit.ly/xyz",)


def test_entities_url_trailing_punctuation_stripped():
    entities = TweetEntities.from_text("see http://t.co/abc, now")
    assert entities.urls == ("http://t.co/abc",)


def test_entities_multiple_hashtags_lowercased():
    entities = TweetEntities.from_text("#EPL and #MCFC")
    assert entities.hashtags == ("epl", "mcfc")


def test_contains_case_insensitive():
    tweet = make_tweet("Watching OBAMA speak")
    assert tweet.contains("obama")
    assert tweet.contains("Obama")
    assert not tweet.contains("soccer")


def test_matches_any_keyword():
    tweet = make_tweet("premierleague is on")
    assert tweet.matches_any_keyword(("soccer", "premierleague"))
    assert not tweet.matches_any_keyword(("obama",))


def test_to_row_covers_schema():
    tweet = make_tweet(geo=(40.0, -74.0))
    row = tweet.to_row()
    for column in TWITTER_SCHEMA:
        assert column in row
    assert row["geo_lat"] == 40.0
    assert row["location"] == (40.0, -74.0)
    assert row["__tweet__"] is tweet


def test_to_row_without_geotag():
    row = make_tweet().to_row()
    assert row["geo_lat"] is None
    assert row["location"] is None


def test_tweet_columns_read_what_to_row_writes(soccer, election_small):
    """The getter table a tweet-backed batch reads columns through gives
    ``to_row()``'s value for every column of every scenario tweet, and
    lists the columns in ``to_row()``'s key order."""
    for scenario in (soccer, election_small):
        for tweet in scenario.tweets:
            row = tweet.to_row()
            assert list(TWEET_COLUMNS) == list(row)
            for name, get in TWEET_COLUMNS.items():
                value = get(tweet)
                assert value == row[name] and type(value) is type(row[name])
    assert TWITTER_SCHEMA == tuple(TWEET_COLUMNS)[:-1]
    assert TWEET_COLUMNS["__tweet__"](tweet) is tweet


def test_location_property_is_profile_location():
    assert make_tweet(location="NYC").location == "NYC"


def test_tweet_carries_only_what_the_api_delivered():
    """Generator labels live on the scenario's truth table, not here."""
    assert [f.name for f in fields(Tweet)] == [
        "tweet_id", "created_at", "user", "text", "geo", "entities",
    ]
