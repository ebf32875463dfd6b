#!/usr/bin/env python
"""Quickstart: instrument a page, watch two clients, classify them.

Builds a one-node deployment, sends a human browser and a crawler
through it, and prints the evidence each one left behind plus the
verdicts — the paper's §2 mechanisms in ~60 lines of driving code.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.agents.behavior import BehaviorProfile
from repro.agents.browser import BrowserAgent, BrowserConfig
from repro.agents.robots import CrawlerBot
from repro.proxy.node import ProxyNode
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.util.rng import RngStream
from repro.workload.session_run import SessionRunner


def describe(state) -> str:
    flags = [
        ("downloaded beacon CSS", state.in_css_set),
        ("executed JavaScript", state.in_js_set),
        ("keyed mouse event", state.in_mouse_set),
        ("followed hidden link", state.followed_hidden_link),
        ("UA mismatch", state.ua_mismatched),
        (f"wrong-key fetches: {state.wrong_key_fetches}",
         state.wrong_key_fetches > 0),
    ]
    present = [name for name, on in flags if on]
    return ", ".join(present) if present else "(no evidence)"


def main() -> None:
    rng = RngStream(7, "quickstart")

    # 1. A synthetic origin site and a single instrumenting proxy node.
    website = SiteGenerator(SiteConfig(n_pages=20)).generate(rng.split("site"))
    node = ProxyNode(
        node_id="demo",
        origins={website.host: OriginServer(website)},
        rng=rng.split("node"),
    )
    entry = f"http://{website.host}{website.home_path}"
    runner = SessionRunner(node.handle)

    # 2. A human behind IE6, moving the mouse while reading.
    human = BrowserAgent(
        client_ip="10.0.0.1",
        user_agent="Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)",
        rng=rng.split("human"),
        entry_url=entry,
        profile=BehaviorProfile(mouse_move_probability=0.95),
        config=BrowserConfig(min_pages=4, max_pages=6),
    )
    human_record = runner.run(human, start_time=0.0)

    # 3. A crawler that blindly follows every link, hidden ones included.
    crawler = CrawlerBot(
        client_ip="10.0.0.2",
        user_agent="Googlebot/2.1 (+http://www.google.com/bot.html)",
        rng=rng.split("crawler"),
        entry_url=entry,
        polite=False,
        follow_hidden=True,
        max_requests=60,
    )
    crawler_record = runner.run(crawler, start_time=0.0)

    # 4. Ask the detector what it concluded.
    for record in (human_record, crawler_record):
        state = node.detection.tracker.get(record.client_ip, record.user_agent)
        verdict = state.final_verdict()
        print(f"{record.agent_kind:>8} @{record.client_ip}: "
              f"{record.requests} requests")
        print(f"          evidence: {describe(state)}")
        print(f"          verdict:  {verdict}")
        print()

    stats = node.stats
    print(f"node served {stats.requests} requests, instrumented "
          f"{stats.pages_instrumented} pages, answered "
          f"{stats.beacon_requests} probe fetches locally "
          f"({stats.beacon_bandwidth_fraction:.2%} of bytes)")


if __name__ == "__main__":
    main()
