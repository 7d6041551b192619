"""Vocabularies for tweet text synthesis.

Text generation needs to support everything downstream components consume:

- keyword filtering (``track`` terms must literally appear),
- sentiment classification (positive/negative phrasing plus emoticons, the
  distant-supervision signal the original TweeQL classifier trained on),
- peak labeling (event-specific tokens like a new score "3-0" or a scorer
  "tevez" must spike during the event, against a stable background),
- URL extraction (popular links during events),
- entity extraction (people/places/organizations for the OpenCalais-style
  UDF).

Everything here is data; the composition logic lives in
:mod:`repro.twitter.text`.
"""

from __future__ import annotations

POSITIVE_PHRASES: tuple[str, ...] = (
    "love it", "so good", "amazing", "brilliant", "fantastic", "awesome",
    "what a beauty", "incredible scenes", "best thing today", "so happy",
    "great stuff", "superb", "unreal", "perfect", "delighted", "buzzing",
    "this made my day", "can't stop smiling", "wonderful", "outstanding",
)

NEGATIVE_PHRASES: tuple[str, ...] = (
    "hate this", "so bad", "terrible", "awful", "dreadful", "a disgrace",
    "what a disaster", "gutted", "furious", "worst thing today", "so sad",
    "rubbish", "pathetic", "heartbroken", "disappointed", "sick of this",
    "this ruined my day", "can't believe how bad", "horrible", "shambles",
)

POSITIVE_EMOTICONS: tuple[str, ...] = (":)", ":-)", ":D", ";)", "=)", "<3")
NEGATIVE_EMOTICONS: tuple[str, ...] = (":(", ":-(", ":'(", "D:", "=(")

INTENSIFIERS: tuple[str, ...] = (
    "really", "so", "very", "absolutely", "totally", "completely", "just",
)

#: Filler words for background chatter (no sentiment, no topic signal).
CHATTER_SUBJECTS: tuple[str, ...] = (
    "coffee", "breakfast", "lunch", "dinner", "the weather", "traffic",
    "my commute", "homework", "the gym", "this song", "that movie",
    "the weekend", "work today", "my phone", "the new episode", "this book",
    "the bus", "the train", "my cat", "my dog", "the news", "a nap",
)

CHATTER_TEMPLATES: tuple[str, ...] = (
    "{subject} {verdict}",
    "{intens} need {subject} right now",
    "ok so {subject} {verdict}",
    "anyone else think {subject} {verdict}?",
    "{subject}... {verdict}",
    "can we talk about {subject}",
    "today: {subject}. that is all",
)

CHATTER_VERDICTS: tuple[str, ...] = (
    "is a thing", "happened again", "is happening", "never changes",
    "could be better", "is fine i guess", "took forever", "was interesting",
)

# --- Soccer scenario (the paper's Figure 1: Manchester City vs Liverpool) ---

SOCCER_KEYWORDS: tuple[str, ...] = (
    "soccer", "football", "premierleague", "manchester", "liverpool",
)

#: City players (Tevez scored in the paper's example timeline).
SOCCER_PLAYERS_HOME: tuple[str, ...] = (
    "tevez", "silva", "kompany", "hart", "barry", "yaya",
)
SOCCER_PLAYERS_AWAY: tuple[str, ...] = (
    "gerrard", "suarez", "carragher", "reina", "kuyt", "lucas",
)

SOCCER_GOAL_TEMPLATES: tuple[str, ...] = (
    "GOAL! {scorer} makes it {score} #{hashtag}",
    "{scorer} scores!!! {score} {team} {emotion}",
    "what a goal by {scorer}! {score} now #{hashtag}",
    "{score}! {scorer} with the finish {emotion}",
    "GOOOAL {scorer}!! {team} lead {score}",
    "{scorer} goal — {score}. {reaction} #{hashtag}",
    "unbelievable from {scorer}, {score} {emotion}",
)

SOCCER_PLAY_TEMPLATES: tuple[str, ...] = (
    "{player} with a great run down the wing #{hashtag}",
    "big save! {player} denied there",
    "yellow card for {player}, soft one",
    "{team} dominating possession right now",
    "corner to {team}, pressure building",
    "{player} just missed a sitter {emotion}",
    "end to end stuff in this {kw} match",
    "halftime thoughts: {team} look sharp #{hashtag}",
)

SOCCER_HASHTAGS: tuple[str, ...] = ("mcfc", "lfc", "epl", "premierleague")

# --- Baseball scenario (§3.3's Red Sox–Yankees example) ---

BASEBALL_KEYWORDS: tuple[str, ...] = (
    "baseball", "redsox", "yankees", "mlb",
)

BASEBALL_PLAYERS_YANKEES: tuple[str, ...] = (
    "jeter", "teixeira", "cano", "granderson", "sabathia",
)
BASEBALL_PLAYERS_REDSOX: tuple[str, ...] = (
    "pedroia", "ortiz", "youkilis", "ellsbury", "lester",
)

#: Every home-run template carries a tracked hashtag (so the ``track``
#: filter captures it) and a sentiment slot (so the crowd's mood reaches
#: the classifier) — fans hashtag and emote when a ball leaves the park.
BASEBALL_HOMERUN_TEMPLATES: tuple[str, ...] = (
    "HOME RUN {slugger}!! {team} lead {score} {emotion} #{hashtag}",
    "{slugger} goes deep! {score} now {emotion} #{hashtag}",
    "that ball is GONE. {slugger}, {score} {reaction} #{hashtag}",
    "{slugger} homers — {score}. {reaction} #{hashtag}",
    "grand slam vibes from {slugger}, {score} {emotion} #{hashtag}",
)

BASEBALL_PLAY_TEMPLATES: tuple[str, ...] = (
    "{player} strikes out the side #{hashtag}",
    "double play! {team} escape the inning",
    "{player} with a base hit, runners on",
    "pitching duel in this {kw} game so far",
    "{team} bullpen warming up #{hashtag}",
    "full count on {player}... {emotion}",
)

BASEBALL_HASHTAGS: tuple[str, ...] = ("redsox", "yankees", "mlb", "fenway")

# --- Earthquake scenario ---

EARTHQUAKE_KEYWORDS: tuple[str, ...] = ("earthquake", "quake", "tsunami")

EARTHQUAKE_TEMPLATES: tuple[str, ...] = (
    "just felt an earthquake in {place}!! {emotion}",
    "whoa big earthquake here in {place}",
    "magnitude {magnitude} quake hits {place} {url}",
    "earthquake near {place}, magnitude {magnitude} reported",
    "everything shook for like 30 seconds. earthquake in {place}?",
    "USGS: M{magnitude} earthquake {place} {url}",
    "praying for everyone in {place} after that quake {emotion}",
    "aftershock just now in {place}, stay safe everyone",
    "tsunami warning issued for {place} coast after the quake {url}",
    "power out in parts of {place} after the earthquake",
)

# --- News-month scenario ("a month in Barack Obama's life") ---

NEWS_KEYWORDS: tuple[str, ...] = ("obama",)

NEWS_STORY_TEMPLATES: tuple[str, ...] = (
    "obama {story_verb} {story_object} {url}",
    "president obama {story_verb} {story_object} today",
    "breaking: obama {story_verb} {story_object} {url}",
    "watching obama speak about {story_object} {emotion}",
    "obama's {story_object} speech {verdict} {emotion}",
    "my take on obama and {story_object}: {verdict}",
    "so obama {story_verb} {story_object}. thoughts?",
)

NEWS_STORIES: tuple[tuple[str, str], ...] = (
    # (verb, object) pairs — each scenario event picks one story.
    ("signs", "the healthcare bill"),
    ("announces", "the jobs plan"),
    ("addresses", "the budget deal"),
    ("visits", "the gulf coast"),
    ("meets", "congressional leaders"),
    ("nominates", "a supreme court justice"),
    ("unveils", "the energy policy"),
    ("defends", "the stimulus package"),
)

NEWS_VERDICTS: tuple[str, ...] = (
    "was strong", "fell flat", "surprised everyone", "changed nothing",
    "was long overdue", "missed the point", "hit the mark",
)

# --- Election-night scenario (high-stress: rising baseline + late climax) ---

ELECTION_KEYWORDS: tuple[str, ...] = ("election", "ballot", "precinct")

#: Fictional candidates — the scenario is about load shape, not politics.
ELECTION_STATES: tuple[str, ...] = (
    "ohio", "florida", "colorado", "virginia", "nevada", "iowa",
)

ELECTION_HASHTAGS: tuple[str, ...] = (
    "electionnight", "election2012", "ballotwatch",
)

ELECTION_CALL_TEMPLATES: tuple[str, ...] = (
    "BREAKING: networks call {state} for {winner} #{hashtag}",
    "{state} goes to {winner}! {reaction} #{hashtag}",
    "it's official, {winner} takes {state} {emotion} #{hashtag}",
    "{winner} wins {state} as the late ballot count lands {url}",
    "election desk: {state} called for {winner} {url}",
    "can't believe {state} went {winner} {emotion} #{hashtag}",
)

ELECTION_PROJECTION_TEMPLATES: tuple[str, ...] = (
    "PROJECTION: {winner} wins the election #{hashtag}",
    "{winner} WINS. election night is over {emotion} #{hashtag}",
    "networks project {winner} wins the election {url}",
    "four more years of {winner}... {reaction} #{hashtag}",
    "history made: {winner} projected winner of the election {url}",
)

ELECTION_CHATTER_TEMPLATES: tuple[str, ...] = (
    "election night! waiting on {state} returns #{hashtag}",
    "long lines at my precinct but my ballot is in {emotion}",
    "refreshing the {state} election map again {url}",
    "exit polls mean nothing, count the ballots #{hashtag}",
    "{state} too close to call, this election is wild",
    "glued to election coverage all night {emotion}",
)

# --- Breaking-news cascade scenario (amplifying retweet waves) ---

CASCADE_KEYWORDS: tuple[str, ...] = ("wildfire", "cedarridge", "evacuation")

CASCADE_HASHTAGS: tuple[str, ...] = ("cedarridge", "wildfire", "cawx")

CASCADE_UPDATE_TEMPLATES: tuple[str, ...] = (
    "BREAKING: {update} #{hashtag}",
    "update: {update} {url}",
    "{update} — live coverage {url}",
    "just in: {update} {emotion}",
    "{update}. stay safe out there {emotion}",
    "sharing for visibility: {update} #{hashtag} {url}",
)

CASCADE_AMBIENT_TEMPLATES: tuple[str, ...] = (
    "smoke on the horizon near cedar ridge #{hashtag}",
    "is that a wildfire out past cedar ridge? {emotion}",
    "air smells like smoke tonight, cedar ridge folks check in",
    "fire crews heading up the canyon road toward cedar ridge {url}",
    "wildfire season is no joke {emotion} #{hashtag}",
)

# --- Bot-flood scenario (coordinated spam swamping a product launch) ---

BOTFLOOD_KEYWORDS: tuple[str, ...] = ("solaris", "smartphone")

BOTFLOOD_HASHTAGS: tuple[str, ...] = ("solaris", "solarislaunch", "smartphone")

BOTFLOOD_LAUNCH_TEMPLATES: tuple[str, ...] = (
    "the solaris is real and it's gorgeous {emotion} #{hashtag}",
    "solaris launch keynote happening NOW {url}",
    "hands on with the new solaris smartphone — {reaction} #{hashtag}",
    "that solaris screen though {emotion}",
    "solaris preorders open friday {url} #{hashtag}",
    "keynote verdict: the solaris {reaction} #{hashtag}",
)

#: Deliberately near-duplicate: a tiny template pool, every text with a
#: link — the fingerprint of a 2011 giveaway-spam botnet.
BOTFLOOD_SPAM_TEMPLATES: tuple[str, ...] = (
    "WIN a FREE solaris!! follow + RT to enter {url} #{hashtag}",
    "FREE solaris smartphone giveaway!! click here {url} #{hashtag}",
    "i just won a solaris from this site {url} RT to get yours",
    "GIVEAWAY: 100 solaris smartphones up for grabs, enter now {url} #{hashtag}",
)

#: Pool of shortened URLs circulating during events (2011-era shorteners).
URL_POOL: tuple[str, ...] = tuple(
    f"http://bit.ly/{code}"
    for code in (
        "a1b2c3", "xYz123", "news42", "qkR7fw", "goal99", "m8GqLp",
        "usgs01", "bbcWrl", "cnnBrk", "nytArt", "grdLiv", "esPn11",
    )
) + tuple(
    f"http://t.co/{code}"
    for code in ("Ab3dE", "fG7hI", "jK1mN", "pQ9rS", "tU5vW", "xY2zA")
)

#: Entity gazetteer for the simulated OpenCalais service.
KNOWN_PEOPLE: tuple[str, ...] = (
    "obama", "tevez", "silva", "kompany", "hart", "barry", "yaya",
    "gerrard", "suarez", "carragher", "reina", "kuyt", "lucas",
)
KNOWN_ORGANIZATIONS: tuple[str, ...] = (
    "usgs", "congress", "bbc", "cnn", "manchester city", "liverpool fc",
    "supreme court",
)
