"""Behavioural tests for the robot bestiary, through the real pipeline."""

from __future__ import annotations

import pytest

from repro.agents.robots import (
    BlindFetcherBot,
    ClickFraudBot,
    CrawlerBot,
    DdosZombie,
    EmailHarvesterBot,
    EngineBot,
    HandlerGrepBot,
    HotlinkLeechBot,
    MouseForgerBot,
    OfflineBrowserBot,
    ReferrerSpammerBot,
    UaEchoBot,
    VulnScannerBot,
)
from repro.detection.session import MIN_REQUESTS, DetectionLatency
from repro.http.content import ContentKind
from repro.detection.verdict import Label
from repro.http.headers import Headers
from repro.http.message import Method, Request
from repro.http.uri import Url
from repro.instrument.keys import BeaconKind
from repro.proxy.node import ProxyNode
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.util.rng import RngStream
from repro.workload.session_run import SessionRunner

ROBOT_UA = "Googlebot/2.1 (+http://www.google.com/bot.html)"
BROWSER_UA = "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)"


def _run(make_node, entry_url, bot_cls, ua=ROBOT_UA, seed=3, **kwargs):
    node = make_node()
    agent = bot_cls(
        client_ip="10.6.0.1",
        user_agent=ua,
        rng=RngStream(seed, "bot"),
        entry_url=entry_url,
        **kwargs,
    )
    record = SessionRunner(node.handle).run(agent)
    state = node.detection.tracker.get(agent.client_ip, agent.user_agent)
    return record, state, node


def _final_label(state):
    return state.final_verdict().label


class TestCrawler:
    def test_html_only_no_probes(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, CrawlerBot, max_requests=40
        )
        assert record.requests > 10
        assert not state.in_css_set
        assert not state.in_js_set
        assert not state.in_mouse_set
        assert _final_label(state) is Label.ROBOT

    def test_polite_crawler_respects_robots_txt(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, CrawlerBot, max_requests=60, polite=True
        )
        assert state.cgi_requests == 0  # /cgi-bin/ disallowed

    def test_hidden_follower_trips_trap(self, make_node, entry_url):
        _, state, node = _run(
            make_node, entry_url, CrawlerBot,
            max_requests=120, polite=False, follow_hidden=True,
        )
        assert state.followed_hidden_link
        verdict = state.final_verdict()
        assert verdict.label is Label.ROBOT
        assert verdict.definitive

    def test_visible_only_crawler_avoids_trap(self, make_node, entry_url):
        _, state, _ = _run(
            make_node, entry_url, CrawlerBot,
            max_requests=120, follow_hidden=False,
        )
        assert not state.followed_hidden_link

    def test_image_crawler_fetches_images_not_css(self, make_node, entry_url):
        record, state, _ = _run(
            make_node, entry_url, CrawlerBot,
            max_requests=80, fetch_images=True,
        )
        assert not state.in_css_set


class TestEmailHarvester:
    def test_profile(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, EmailHarvesterBot, max_requests=40
        )
        assert not state.in_css_set
        assert _final_label(state) is Label.ROBOT


class TestReferrerSpammer:
    def test_forged_referrers(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, ReferrerSpammerBot,
            ua=BROWSER_UA, max_requests=30,
        )
        assert _final_label(state) is Label.ROBOT
        assert record.requests >= 20


class TestClickFraud:
    def test_hits_cgi(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, ClickFraudBot,
            ua=BROWSER_UA, max_requests=50, seed=5,
        )
        assert state.cgi_requests > 0
        assert _final_label(state) is Label.ROBOT


class TestVulnScanner:
    def test_piles_up_404s(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, VulnScannerBot,
            ua=BROWSER_UA, max_requests=40,
        )
        assert state.status_4xx > 10
        assert _final_label(state) is Label.ROBOT

    def test_uses_head_requests(self, make_node, entry_url):
        _, state, _ = _run(
            make_node, entry_url, VulnScannerBot,
            ua=BROWSER_UA, max_requests=60, head_fraction=0.5,
        )
        assert state.head_requests > 0

    def test_gets_blocked_by_policy(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, VulnScannerBot,
            ua=BROWSER_UA, max_requests=80,
        )
        assert node.stats.policy_blocked > 0


class TestDdosZombie:
    def test_flood_blocked(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, DdosZombie,
            ua=BROWSER_UA, max_requests=150,
        )
        assert node.stats.policy_blocked > 0
        assert _final_label(state) is Label.ROBOT


class TestOfflineBrowser:
    def test_fetches_css_without_js(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, OfflineBrowserBot,
            ua="WebZIP/6.0", max_requests=80,
        )
        assert state.in_css_set
        assert not state.in_js_set
        # This is the acknowledged false positive of the set algebra:
        assert state.is_human_by_set_algebra
        assert state.true_label == ""  # ground truth set by engine, not here


class TestEngineBot:
    def test_js_without_mouse_is_robot(self, make_node, entry_url):
        _, state, node = _run(
            make_node, entry_url, EngineBot, ua=BROWSER_UA, seed=8
        )
        assert state.in_css_set
        assert state.in_js_set
        assert not state.in_mouse_set
        assert _final_label(state) is Label.ROBOT

    def test_forged_header_mismatch(self, make_node, entry_url):
        _, state, node = _run(
            make_node, entry_url, EngineBot,
            ua="Wget/1.10.2", forge_header=True, seed=8,
        )
        assert state.ua_mismatched
        verdict = state.final_verdict()
        assert verdict.definitive

    def test_honest_engine_no_mismatch(self, make_node, entry_url):
        _, state, _ = _run(
            make_node, entry_url, EngineBot, ua=BROWSER_UA, forge_header=False
        )
        assert not state.ua_mismatched


class TestBlindFetcher:
    def test_eventually_caught_by_decoys(self, make_node, entry_url):
        caught = 0
        runs = 12
        for seed in range(runs):
            _, state, node = _run(
                make_node, entry_url, BlindFetcherBot,
                ua=BROWSER_UA, seed=seed, fetch_per_page=1, max_pages=4,
            )
            if state.wrong_key_fetches > 0:
                caught += 1
        # With m=4 decoys each blind pick is wrong w.p. 4/5; over several
        # pages per run, near-certain catch.  Allow generous slack.
        assert caught >= runs * 0.6

    def test_wrong_key_is_definitive_robot(self, make_node, entry_url):
        for seed in range(10):
            _, state, node = _run(
                make_node, entry_url, BlindFetcherBot,
                ua=BROWSER_UA, seed=seed, fetch_per_page=2,
            )
            if state.wrong_key_fetches:
                verdict = state.final_verdict()
                assert verdict.label is Label.ROBOT
                assert verdict.definitive
                return
        pytest.fail("no blind fetch hit a decoy in 10 seeded runs")


class TestMouseForger:
    def test_defeats_detection(self, make_node, entry_url):
        """§4.1: a bot that synthesises mouse events wins (for now)."""
        _, state, node = _run(
            make_node, entry_url, MouseForgerBot, ua=BROWSER_UA, seed=4
        )
        assert state.in_mouse_set
        assert _final_label(state) is Label.HUMAN  # evaded!


class TestHandlerGrep:
    """A client with no JavaScript engine that reads the handler's name.

    Committed outcome: *evades — a bug in the design*.  The page names its
    real handler in clear and the decoy functions differ only in not being
    named, so the m/(m+1) guarantee does not hold against a regex: the
    bot fetches the real key and is called human, while it is in neither
    S_JS nor S_CSS.  Detection latency: the keyed image is request 5 on
    every site (the home page, the page's two site scripts, the beacon
    script, the image), and the verdict is HUMAN from there on.
    """

    SEEDS = range(10)
    MOUSE_AT = 5

    @staticmethod
    def _run_on_site(seed: int):
        site = SiteGenerator(SiteConfig(n_pages=40)).generate(
            RngStream(seed, "grep-site")
        )
        node = ProxyNode(
            "node-grep", {site.host: OriginServer(site)}, RngStream(seed, "node")
        )
        bot = HandlerGrepBot(
            "10.6.0.1", "Wget/1.10.2", RngStream(seed, "bot"),
            f"http://{site.host}{site.home_path}",
        )
        record = SessionRunner(node.handle).run(bot)
        return record, node.detection.tracker.get(bot.client_ip, bot.user_agent)

    def test_evades_on_every_site(self):
        latencies = []
        for seed in self.SEEDS:
            record, state = self._run_on_site(seed)
            verdict = state.final_verdict()
            assert verdict.label is Label.HUMAN, seed
            assert verdict.reason == "correctly keyed mouse event"
            assert state.in_mouse_set
            assert not state.in_js_set and not state.in_css_set
            assert state.wrong_key_fetches == 0
            assert record.requests > self.MOUSE_AT
            latency = DetectionLatency.from_state(state)
            assert latency.css_at is None
            assert latency.mouse_at == verdict.at_request
            latencies.append(latency.mouse_at)
        assert latencies == [self.MOUSE_AT] * len(self.SEEDS)


class TestUaEcho:
    """A client with no JavaScript engine that reads the UA probe.

    Committed outcome: *lands in S_JS − S_MM*.  The echo URL is the probe's
    prefix plus the client's own User-Agent, which a regex reads off the
    inline script, so the fetch puts the client in S_JS at no cost; it
    echoes the header it sends, so there is no UA mismatch either.  With no
    CSS fetch and no mouse event it is outside S_H, and its final verdict
    is ROBOT.  Detection latency: the echo is request 2 on every site (the
    home page, then the probe); a HUMAN verdict would be "evades — bug".
    """

    SEEDS = range(10)
    ECHO_AT = 2

    @staticmethod
    def _run_on_site(seed: int):
        site = SiteGenerator(SiteConfig(n_pages=40)).generate(
            RngStream(seed, "echo-site")
        )
        node = ProxyNode(
            "node-echo", {site.host: OriginServer(site)}, RngStream(seed, "node")
        )
        bot = UaEchoBot(
            "10.6.0.2", "Wget/1.10.2", RngStream(seed, "bot"),
            f"http://{site.host}{site.home_path}",
        )
        sent = []

        def handle(request):
            sent.append(request)
            return node.handle(request)

        record = SessionRunner(handle).run(bot)
        state = node.detection.tracker.get(bot.client_ip, bot.user_agent)
        return record, state, sent

    def test_lands_in_js_minus_mm_on_every_site(self):
        for seed in self.SEEDS:
            record, state, sent = self._run_on_site(seed)
            echo = sent.pop(self.ECHO_AT - 1)
            assert echo.url.path.startswith("/ua_")
            assert echo.url.path.endswith("/wget_1.10.2.css")
            # The home page and 12 plain pages: no stylesheet, image or script.
            assert len(sent) == 13
            assert {r.path_kind for r in sent} <= {ContentKind.HTML, ContentKind.CGI}
            verdict = state.final_verdict()
            assert verdict.label is Label.ROBOT, seed
            assert verdict.reason == "outside S_H"
            assert state.in_js_set
            assert not state.in_mouse_set and not state.in_css_set
            assert not state.ua_mismatched
            assert state.wrong_key_fetches == 0
            assert state.js_executed_at == self.ECHO_AT
            assert record.requests > self.ECHO_AT
            assert not state.is_human_by_set_algebra


class TestHarvestedKey:
    """A keyed mouse URL harvested at IP A, replayed from IP B, and
    replayed by A itself.

    Committed outcomes.  §2.1 keys the probe table by client IP, so the
    harvested key is nothing at B: B's fetch is no probe hit, the origin
    answers it 404, and B — no CSS, no script, no mouse event — is
    *detected at request 10* (no browser-like evidence), final verdict
    ROBOT outside S_H.  A key is not single-use: A's second fetch of its
    own key is served again, byte for byte, and counted as a beacon
    request, but evidence records first fetches only, so A's session is
    unchanged (HUMAN, mouse event at request 2).  B ending HUMAN would
    be "evades — bug" (ROADMAP item 16).
    """

    SEEDS = range(10)
    A, B = "10.7.0.1", "10.7.0.2"
    UA = BROWSER_UA

    def _run_on_site(self, seed: int):
        site = SiteGenerator(SiteConfig(n_pages=40)).generate(
            RngStream(seed, "key-site")
        )
        node = ProxyNode(
            "node-key", {site.host: OriginServer(site)}, RngStream(seed, "node")
        )

        def get(ip, url, t):
            return node.handle_traced(
                Request(Method.GET, url, ip, Headers([("User-Agent", self.UA)]), t)
            )

        get(self.A, Url.parse(f"http://{site.host}{site.home_path}"), 0.0)
        real = next(
            p for p in node.shard_for(self.A).detection.registry.outstanding(self.A)
            if p.kind is BeaconKind.MOUSE_IMAGE and p.is_real_key
        )
        key = Url.parse(f"http://{real.host}{real.path}")
        first, _ = get(self.A, key, 1.0)
        replayed = [get(self.B, key, 2.0)]
        plain = [p for p in site.page_paths if p != site.home_path][:12]
        replayed += [
            get(self.B, Url.parse(f"http://{site.host}{path}"), 3.0 + i)
            for i, path in enumerate(plain)
        ]
        beacons = node.stats.beacon_requests
        again, _ = get(self.A, key, 20.0)
        return node, first, again, beacons, replayed

    def test_a_key_is_worth_nothing_at_another_ip(self):
        for seed in self.SEEDS:
            node, _, _, _, replayed = self._run_on_site(seed)
            (response, outcome), *_ = replayed
            assert outcome.hit is None and response.status == 404, seed
            state = node.detection.tracker.get(self.B, self.UA)
            labels = [outcome.verdict.label for _, outcome in replayed]
            assert labels.index(Label.ROBOT) + 1 == MIN_REQUESTS == 10
            final = state.final_verdict()
            assert (final.label, final.reason) == (Label.ROBOT, "outside S_H")
            assert not (state.in_mouse_set or state.in_css_set or state.in_js_set)
            assert state.wrong_key_fetches == 0 and state.status_4xx == 1

    def test_a_key_replayed_by_its_own_ip_changes_nothing(self):
        for seed in self.SEEDS:
            node, first, again, beacons, _ = self._run_on_site(seed)
            assert first.status == again.status == 200
            assert bytes(again.body) == bytes(first.body)
            assert node.stats.beacon_requests == beacons + 1, seed
            state = node.detection.tracker.get(self.A, self.UA)
            assert (state.mouse_event_at, state.request_count) == (2, 3)
            verdict = state.verdict()
            assert verdict.label is Label.HUMAN and verdict.definitive
            assert verdict.at_request == 2


class TestHotlinkLeech:
    def test_images_with_unseen_referrers(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, HotlinkLeechBot,
            ua=BROWSER_UA, max_requests=30,
        )
        assert not state.in_css_set
        assert _final_label(state) is Label.ROBOT
