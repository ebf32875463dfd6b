"""Named population mixes.

``CODEEN_WEEK`` is the calibrated census behind Table 1 (weights are
session-share percentages, chosen so the *measured* detector outputs
land near the paper's, but every number is produced by running the real
pipeline).

The derivation from Table 1's targets:

* mouse movement 22.3%      -> ~23.6% JS-enabled human browsers (a
  fraction never move the mouse within an observed session);
* executed JavaScript 27.1% -> the JS humans plus ~4.6% headless-engine
  bots (of which 0.7% forge their UA header -> "browser type mismatch");
* downloaded CSS 28.9%      -> everyone above plus ~1.0% JS-disabled
  humans and ~0.6% off-line browsers (the bound-gap population);
* hidden links 1.0%         -> blind crawlers;
* the remaining ~70% are HTML-only robots (crawlers, harvesters,
  referrer spammers, click fraud, vulnerability scanners, zombies).
"""

from __future__ import annotations

from repro.agents.base import Agent
from repro.agents.behavior import (
    BehaviorProfile,
    JS_DISABLED_BROWSER,
    PASSIVE_READER,
    STANDARD_BROWSER,
)
from repro.agents.browser import BrowserAgent, BrowserConfig
from repro.agents.population import AgentSpec, PopulationMix
from repro.agents.robots import (
    BlindFetcherBot,
    ClickFraudBot,
    CrawlerBot,
    DdosZombie,
    EmailHarvesterBot,
    EngineBot,
    HotlinkLeechBot,
    OfflineBrowserBot,
    ReferrerSpammerBot,
    VulnScannerBot,
)
from repro.http.useragent import known_browser_agents, known_robot_agents
from repro.util.rng import RngStream

_BROWSER_UAS = tuple(ua.string for ua in known_browser_agents())
_ROBOT_UAS = tuple(ua.string for ua in known_robot_agents())
_OFFLINE_UAS = ("WebZIP/6.0", "Wget/1.10.2")


def _draw_mouse_profile(rng: RngStream) -> BehaviorProfile:
    """Per-user mouse activity: most users move immediately, a middle
    group sometimes, and a small passive-reader tail (Figure 2's tail)."""
    roll = rng.random()
    if roll < 0.84:
        return BehaviorProfile(mouse_move_probability=0.95)
    if roll < 0.94:
        return BehaviorProfile(mouse_move_probability=0.55)
    return PASSIVE_READER


def _human_factory(profile_name: str):
    """Factory for human browsers; the profile is drawn per agent so the
    mouse-activity distribution has the heavy tail Figure 2 shows."""

    def build(
        client_ip: str, user_agent: str, rng: RngStream, entry_url: str
    ) -> Agent:
        if profile_name == "js":
            profile = _draw_mouse_profile(rng)
        else:
            profile = JS_DISABLED_BROWSER
        return BrowserAgent(
            client_ip, user_agent, rng, entry_url, profile=profile
        )

    return build


def _bot_factory(cls, **kwargs):
    def build(
        client_ip: str, user_agent: str, rng: RngStream, entry_url: str
    ) -> Agent:
        return cls(client_ip, user_agent, rng, entry_url, **kwargs)

    return build


def _engine_factory(forge_header: bool):
    def build(
        client_ip: str, user_agent: str, rng: RngStream, entry_url: str
    ) -> Agent:
        return EngineBot(
            client_ip, user_agent, rng, entry_url, forge_header=forge_header
        )

    return build


CODEEN_WEEK = PopulationMix(
    "codeen_week",
    [
        AgentSpec("human_js", 23.6, _human_factory("js"), _BROWSER_UAS),
        AgentSpec("human_nojs", 1.0, _human_factory("nojs"), _BROWSER_UAS),
        AgentSpec(
            "offline_browser", 0.6,
            _bot_factory(OfflineBrowserBot), _OFFLINE_UAS,
        ),
        AgentSpec(
            "engine_bot", 3.9, _engine_factory(forge_header=False),
            _BROWSER_UAS,
        ),
        AgentSpec(
            "engine_bot_forged", 0.7, _engine_factory(forge_header=True),
            _BROWSER_UAS,
        ),
        AgentSpec(
            "crawler_hidden", 1.0,
            _bot_factory(CrawlerBot, polite=False, follow_hidden=True),
            _ROBOT_UAS,
        ),
        AgentSpec(
            "crawler", 19.0, _bot_factory(CrawlerBot), _ROBOT_UAS
        ),
        AgentSpec(
            "email_harvester", 12.0,
            _bot_factory(EmailHarvesterBot), _ROBOT_UAS,
        ),
        AgentSpec(
            "referrer_spammer", 18.5,
            _bot_factory(ReferrerSpammerBot), _BROWSER_UAS,
        ),
        AgentSpec(
            "click_fraud", 10.0, _bot_factory(ClickFraudBot), _BROWSER_UAS
        ),
        AgentSpec(
            "vuln_scanner", 6.0, _bot_factory(VulnScannerBot), _BROWSER_UAS
        ),
        AgentSpec(
            "ddos_zombie", 3.3,
            _bot_factory(DdosZombie, max_requests=120), _BROWSER_UAS,
        ),
    ],
)

# A fast mix for smoke tests: one of each interesting behaviour.
SMOKE = PopulationMix(
    "smoke",
    [
        AgentSpec("human_js", 4.0, _human_factory("js"), _BROWSER_UAS),
        AgentSpec("human_nojs", 1.0, _human_factory("nojs"), _BROWSER_UAS),
        AgentSpec("crawler", 2.0, _bot_factory(CrawlerBot), _ROBOT_UAS),
        AgentSpec(
            "crawler_hidden", 1.0,
            _bot_factory(CrawlerBot, polite=False, follow_hidden=True),
            _ROBOT_UAS,
        ),
        AgentSpec(
            "engine_bot", 1.0, _engine_factory(forge_header=True),
            _BROWSER_UAS,
        ),
        AgentSpec(
            "blind_fetcher", 1.0, _bot_factory(BlindFetcherBot), _BROWSER_UAS
        ),
        AgentSpec(
            "referrer_spammer", 2.0,
            _bot_factory(ReferrerSpammerBot), _BROWSER_UAS,
        ),
    ],
)

# The §4.2 study population: CAPTCHA-labelled humans vs the robot soup,
# at the paper's ~26/74 class balance.  Human sessions are longer here
# (the study needs up to 160 requests per session).
_LONG_BROWSE = BrowserConfig(
    min_pages=4,
    max_pages=18,
    warmup_probability=0.7,
    warmup_max=14,
    long_warmup_probability=0.12,
)


def _long_human_factory():
    def build(
        client_ip: str, user_agent: str, rng: RngStream, entry_url: str
    ) -> Agent:
        return BrowserAgent(
            client_ip, user_agent, rng, entry_url,
            profile=_draw_mouse_profile(rng), config=_LONG_BROWSE,
        )

    return build


ML_STUDY = PopulationMix(
    "ml_study",
    [
        AgentSpec("human_js", 24.4, _long_human_factory(), _BROWSER_UAS),
        AgentSpec("human_nojs", 1.3, _human_factory("nojs"), _BROWSER_UAS),
        AgentSpec(
            "crawler", 11.0,
            _bot_factory(CrawlerBot, max_requests=180), _ROBOT_UAS,
        ),
        AgentSpec(
            "image_crawler", 7.0,
            _bot_factory(CrawlerBot, max_requests=180, fetch_images=True),
            _ROBOT_UAS,
        ),
        AgentSpec(
            "hotlink_leech", 6.0,
            _bot_factory(HotlinkLeechBot, max_requests=120), _BROWSER_UAS,
        ),
        AgentSpec(
            "email_harvester", 10.0,
            _bot_factory(EmailHarvesterBot, max_requests=180), _ROBOT_UAS,
        ),
        AgentSpec(
            "referrer_spammer", 16.0,
            _bot_factory(ReferrerSpammerBot, max_requests=180), _BROWSER_UAS,
        ),
        AgentSpec(
            "click_fraud", 9.0,
            _bot_factory(ClickFraudBot, max_requests=180), _BROWSER_UAS,
        ),
        AgentSpec(
            "vuln_scanner", 6.0,
            _bot_factory(VulnScannerBot, max_requests=180), _BROWSER_UAS,
        ),
        AgentSpec(
            "offline_browser", 3.0,
            _bot_factory(OfflineBrowserBot, max_requests=200), _OFFLINE_UAS,
        ),
        AgentSpec(
            "engine_bot", 5.0, _engine_factory(forge_header=False),
            _BROWSER_UAS,
        ),
        AgentSpec(
            "ddos_zombie", 3.3,
            _bot_factory(DdosZombie, max_requests=200), _BROWSER_UAS,
        ),
    ],
)

_MIXES = {
    mix.name: mix for mix in (CODEEN_WEEK, SMOKE, ML_STUDY)
}


def mix_by_name(name: str) -> PopulationMix:
    """Look up a named mix."""
    try:
        return _MIXES[name]
    except KeyError:
        raise KeyError(
            f"unknown mix {name!r}; available: {sorted(_MIXES)}"
        ) from None
