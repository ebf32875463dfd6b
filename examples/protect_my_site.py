#!/usr/bin/env python
"""Operational demo: watch the policy engine block an abusive flood.

A DDoS zombie and a vulnerability scanner hit a protected node alongside
a legitimate human. The robot policy (§3.2: CGI/GET rates, 4xx counts)
blocks the abusers mid-session while the human sails through; the event
log shows the decision trail.

Run:  python examples/protect_my_site.py
"""

from __future__ import annotations

from repro.agents.behavior import BehaviorProfile
from repro.agents.browser import BrowserAgent, BrowserConfig
from repro.agents.robots import DdosZombie, VulnScannerBot
from repro.detection.policy import PolicyConfig
from repro.detection.service import DetectionService
from repro.instrument.keys import InstrumentationRegistry
from repro.proxy.node import ProxyNode
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.util.rng import RngStream
from repro.workload.session_run import SessionRunner

BROWSER_UA = "Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.1) " \
    "Gecko/20060111 Firefox/1.5.0.1"


def main() -> None:
    rng = RngStream(99, "protect")
    website = SiteGenerator(SiteConfig(n_pages=16)).generate(rng.split("site"))

    # Aggressive §3.2 thresholds for the demo.
    detection = DetectionService(
        InstrumentationRegistry(),
        policy_config=PolicyConfig(
            get_rate_limit=60.0, cgi_rate_limit=6.0, error_4xx_limit=8
        ),
    )
    detection.keep_event_log = True  # a short run: print its events below
    node = ProxyNode(
        node_id="guard",
        origins={website.host: OriginServer(website)},
        rng=rng.split("node"),
        detection=detection,
    )
    entry = f"http://{website.host}{website.home_path}"
    runner = SessionRunner(node.handle)

    population = [
        ("human", BrowserAgent(
            "10.7.0.1", BROWSER_UA, rng.split("human"), entry,
            profile=BehaviorProfile(mouse_move_probability=0.9),
            config=BrowserConfig(min_pages=5, max_pages=7),
        )),
        ("zombie", DdosZombie(
            "10.7.0.2", BROWSER_UA, rng.split("zombie"), entry,
            max_requests=150,
        )),
        ("scanner", VulnScannerBot(
            "10.7.0.3", BROWSER_UA, rng.split("scan"), entry,
            max_requests=60,
        )),
    ]

    for name, agent in population:
        record = runner.run(agent, start_time=0.0)
        state = node.detection.tracker.get(agent.client_ip, agent.user_agent)
        verdict = node.detection.classifier.classify_final(state)
        blocked = node.detection.policy.is_blocked(state.session_id)
        print(f"{name:>8} @{agent.client_ip}: {record.requests} requests, "
              f"verdict={verdict.label.value}, "
              f"{'BLOCKED' if blocked else 'not blocked'}")

    print(f"\nnode refused {node.stats.policy_blocked} requests in total")
    print(f"blocked sessions: {node.detection.policy.blocked_sessions}")

    print("\nrobot-evidence events (first 10):")
    interesting = [
        e for e in node.detection.event_log
        if e.kind.is_robot_evidence or e.kind.value == "session_started"
    ]
    for event in interesting[:10]:
        print(f"  {event}")


if __name__ == "__main__":
    main()
