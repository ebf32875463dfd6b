"""The robot bestiary: the abuse catalogue of §1 plus §4.1 adversaries.

* :class:`CrawlerBot` — link-graph spider (optionally robots.txt-polite,
  optionally blind to link visibility, which is what trips hidden traps);
* :class:`EmailHarvesterBot` — HTML-only page scraper hunting addresses;
* :class:`ReferrerSpammerBot` — forged-Referer trackback inflation;
* :class:`ClickFraudBot` — automated ad click-through generation;
* :class:`VulnScannerBot` — probes exploit paths, piles up 404s;
* :class:`DdosZombie` — floods one URL from a compromised host;
* :class:`OfflineBrowserBot` — downloads *everything* for later display
  (the CSS-fetching robot that makes S_H an upper bound);
* :class:`EngineBot` / :class:`BlindFetcherBot` / :class:`MouseForgerBot`
  — the §4.1 counter-measure ladder: run a real engine without a human,
  scrape-and-fetch beacon URLs (caught with probability m/(m+1)), and
  forge mouse events (defeats the scheme, motivating trusted input paths);
  :class:`HandlerGrepBot` reads the real handler's name and evades too;
  :class:`UaEchoBot` reads the UA probe and lands in S_JS without JS.
"""

from repro.agents.robots.click_fraud import ClickFraudBot
from repro.agents.robots.crawler import CrawlerBot
from repro.agents.robots.ddos import DdosZombie
from repro.agents.robots.email_harvester import EmailHarvesterBot
from repro.agents.robots.hotlink_leech import HotlinkLeechBot
from repro.agents.robots.offline_browser import OfflineBrowserBot
from repro.agents.robots.referrer_spammer import ReferrerSpammerBot
from repro.agents.robots.smart_bot import BlindFetcherBot, EngineBot, HandlerGrepBot, MouseForgerBot
from repro.agents.robots.smart_bot import UaEchoBot
from repro.agents.robots.vuln_scanner import VulnScannerBot

__all__ = [
    "BlindFetcherBot",
    "ClickFraudBot",
    "CrawlerBot",
    "DdosZombie",
    "EmailHarvesterBot",
    "EngineBot",
    "HandlerGrepBot",
    "HotlinkLeechBot",
    "MouseForgerBot",
    "OfflineBrowserBot",
    "ReferrerSpammerBot",
    "UaEchoBot",
    "VulnScannerBot",
]
