#!/usr/bin/env python
"""The §4.1 arms race: increasingly clever bots vs the detectors.

Runs the counter-measure ladder one rung at a time and shows which
mechanism catches (or fails to catch) each adversary:

1. a naive crawler            — no probes fetched, set algebra: robot;
2. a hidden-link follower     — walks into the trap, definitive robot;
3. a blind URL fetcher        — hits a decoy key w.p. m/(m+1), blocked;
4. a headless browser engine  — S_JS without S_MM, robot by set algebra;
5. a forged-UA engine         — the JS echo contradicts the header;
6. a mouse forger             — synthesises the event: evades (the
   paper's argument for trusted input hardware).

Run:  python examples/adversarial_arms_race.py
"""

from __future__ import annotations

from repro.agents.robots import (
    BlindFetcherBot,
    CrawlerBot,
    EngineBot,
    MouseForgerBot,
)
from repro.proxy.node import ProxyNode
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.util.rng import RngStream
from repro.workload.session_run import SessionRunner

BROWSER_UA = "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)"

LADDER = [
    ("naive crawler", lambda ip, rng, entry: CrawlerBot(
        ip, "SimpleSpider/0.1 (bot)", rng, entry, polite=False,
        max_requests=40,
    )),
    ("hidden-link follower", lambda ip, rng, entry: CrawlerBot(
        ip, "GreedySpider/0.2 (bot)", rng, entry, polite=False,
        follow_hidden=True, max_requests=60,
    )),
    ("blind URL fetcher", lambda ip, rng, entry: BlindFetcherBot(
        ip, BROWSER_UA, rng, entry, fetch_per_page=2, max_pages=5,
    )),
    ("headless engine", lambda ip, rng, entry: EngineBot(
        ip, BROWSER_UA, rng, entry, forge_header=False,
    )),
    ("forged-UA engine", lambda ip, rng, entry: EngineBot(
        ip, "Opera/8.51 (Windows NT 5.1; U; en)", rng, entry,
        forge_header=True,
    )),
    ("mouse forger", lambda ip, rng, entry: MouseForgerBot(
        ip, BROWSER_UA, rng, entry,
    )),
]


def main() -> None:
    rng = RngStream(2006, "arms-race")
    website = SiteGenerator(SiteConfig(n_pages=24)).generate(rng.split("site"))
    node = ProxyNode(
        node_id="battleground",
        origins={website.host: OriginServer(website)},
        rng=rng.split("node"),
    )
    entry = f"http://{website.host}{website.home_path}"
    runner = SessionRunner(node.handle)

    print(f"{'adversary':>22} | {'verdict':>7} | caught by")
    print("-" * 70)
    for index, (name, build) in enumerate(LADDER):
        ip = f"10.66.0.{index + 1}"
        agent = build(ip, rng.split(f"adv-{index}"), entry)
        runner.run(agent, start_time=index * 10_000.0)
        state = node.detection.tracker.get(ip, agent.user_agent)
        verdict = state.final_verdict()
        evaded = verdict.label.value == "human"
        marker = "  <-- EVADED" if evaded else ""
        print(f"{name:>22} | {verdict.label.value:>7} | "
              f"{verdict.reason}{marker}")

    print("-" * 70)
    print("the mouse forger wins: §4.1 proposes trusted input hardware\n"
          "(e.g. TPM-attested events) as the counter-counter-measure.")


if __name__ == "__main__":
    main()
