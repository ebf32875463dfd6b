"""The §4.1 counter-measure ladder: bots that fight the detectors.

* :class:`EngineBot` — drives a real browser engine headlessly: fetches
  CSS/images/scripts and executes JavaScript (so it appears in S_JS and
  S_CSS) but no human ever moves a mouse.  The set algebra catches it:
  S_JS − S_MM ⇒ robot.  With ``forge_header=True`` the HTTP User-Agent
  header disagrees with what the engine's ``navigator.userAgent`` echoes —
  Table 1's "browser type mismatch".
* :class:`BlindFetcherBot` — cannot run JavaScript but scrapes served
  scripts for URLs and fetches them hoping to look browser-like.  Against
  ``m`` decoys it picks a wrong key with probability ``m/(m+1)`` per
  fetch, the paper's §2.1 guarantee.
* :class:`HandlerGrepBot` — no JavaScript either, but reads the real
  handler's name off the page and greps the script for its ``.src``: the
  decoys do not hold against a reader, so it is called human (a hole in
  the design, pinned by its test; in no mix).
* :class:`UaEchoBot` — reads the UA probe instead of running it and lands
  in S_JS (pinned by its test; in no mix).
* :class:`MouseForgerBot` — the hypothetical "serious hacker" of §4.1 who
  "could implement a bot that could generate mouse or keystroke events":
  it resolves the real handler like a browser and fires it, defeating
  human-activity detection (which is why the paper points at trusted
  hardware input paths as future work).
"""

from __future__ import annotations

from repro.agents.base import BrowseGenerator, FetchAction
from repro.agents.behavior import BehaviorProfile, HEADLESS_ENGINE
from repro.agents.browser import BrowserAgent, BrowserConfig
from repro.http.content import ContentKind
from repro.http.uri import Url, resolve_url
from repro.html.links import extract_references
from repro.instrument.js_beacon import extract_all_script_urls, find_handler_fetch_url
from repro.instrument.ua_probe import interpret_ua_probe
from repro.util.rng import RngStream

_ENGINE_UA = (
    "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1; embedded)"
)


class EngineBot(BrowserAgent):
    """A headless real-browser engine under robot control."""

    kind = "engine_bot"
    true_label = "robot"

    def __init__(
        self,
        client_ip: str,
        user_agent: str,
        rng: RngStream,
        entry_url: str,
        forge_header: bool = False,
        config: BrowserConfig | None = None,
    ) -> None:
        engine_ua = _ENGINE_UA
        header_ua = user_agent if forge_header else engine_ua
        profile = BehaviorProfile(
            js_enabled=True,
            fetches_stylesheets=True,
            fetches_images=True,
            fetches_scripts=True,
            favicon_probability=HEADLESS_ENGINE.favicon_probability,
            mouse_user=False,
            engine_user_agent=engine_ua,
        )
        super().__init__(
            client_ip, header_ua, rng, entry_url,
            profile=profile, config=config,
        )
        self.forge_header = forge_header
        if forge_header:
            self.kind = "engine_bot_forged"


class BlindFetcherBot(BrowserAgent):
    """Scrapes script sources for URLs and fetches them blindly."""

    kind = "blind_fetcher"
    true_label = "robot"

    def __init__(
        self,
        client_ip: str,
        user_agent: str,
        rng: RngStream,
        entry_url: str,
        fetch_per_page: int = 1,
        max_pages: int = 6,
        config: BrowserConfig | None = None,
    ) -> None:
        profile = BehaviorProfile(
            js_enabled=False,
            fetches_stylesheets=True,
            fetches_images=True,
            fetches_scripts=True,
            favicon_probability=0.0,
            mouse_user=False,
        )
        # js_enabled=False keeps BrowserAgent from executing inline
        # scripts; fetches_scripts=True still downloads .js files, which
        # is all this bot needs to scrape them.
        super().__init__(
            client_ip, user_agent, rng, entry_url,
            profile=profile, config=config,
        )
        if fetch_per_page < 1:
            raise ValueError("fetch_per_page must be >= 1")
        self.fetch_per_page = fetch_per_page
        self.max_pages = max_pages

    def browse(self) -> BrowseGenerator:
        rng = self.rng
        entry = Url.parse(self.entry_url)
        current = self.entry_url
        for _ in range(self.max_pages):
            result = yield FetchAction(
                current, think_time=self._jitter(0.2, 1.5)
            )
            if (
                result.response.status != 200
                or result.response.content_kind is not ContentKind.HTML
            ):
                return
            base = Url.parse(result.final_url)
            refs = extract_references(result.response.text)

            # Look like a browser: grab stylesheets and scripts.
            script_sources: list[str] = []
            for reference in [*refs.stylesheets, *refs.scripts]:
                target = str(resolve_url(base, reference))
                obj = yield FetchAction(
                    target, referer=current, think_time=self._jitter(0.05, 0.3)
                )
                if obj.response.content_kind is ContentKind.JAVASCRIPT:
                    script_sources.append(obj.response.text)

            # The "smart" move: fetch URLs scraped out of the scripts —
            # which is exactly what the decoy keys punish.
            scraped: list[str] = []
            for source in script_sources:
                scraped.extend(extract_all_script_urls(source))
            if scraped:
                picks = rng.sample(
                    scraped, min(self.fetch_per_page, len(scraped))
                )
                for url in picks:
                    yield FetchAction(
                        url, referer=current, think_time=self._jitter(0.05, 0.4)
                    )

            links = [
                str(resolve_url(base, ref))
                for ref in refs.visible_links
            ]
            links = [u for u in links if Url.parse(u).host == entry.host]
            if not links:
                return
            current = rng.choice(links)


class HandlerGrepBot(BlindFetcherBot):
    """Resolves the page's mouse handler by reading, not by running it.

    Fetches the entry page and no stylesheet or image, reads the handler
    expression off its body tag, fetches the page's scripts until one
    defines ``function NAME()`` — found with the same textual resolver
    the simulated browsers use — fetches the URL that function assigns
    to an image's ``.src``, which is the real key, and then up to
    ``max_pages`` plain pages along visible links.
    """

    kind = "handler_grep"

    def __init__(self, *args, max_pages: int = 12, **kwargs) -> None:
        super().__init__(*args, max_pages=max_pages, **kwargs)

    def browse(self) -> BrowseGenerator:
        entry = Url.parse(self.entry_url)
        current, referer = self.entry_url, None
        for page in range(self.max_pages + 1):
            result = yield FetchAction(
                current, referer=referer, think_time=self._jitter(0.2, 1.5)
            )
            if (
                result.response.status != 200
                or result.response.content_kind is not ContentKind.HTML
            ):
                return
            base = Url.parse(result.final_url)
            refs = extract_references(result.response.text)
            if page == 0:
                yield from self._read_probe(base, refs, current)
            links = [str(resolve_url(base, ref)) for ref in refs.visible_links]
            links = [u for u in links if Url.parse(u).host == entry.host]
            if not links:
                return
            referer, current = current, self.rng.choice(links)

    def _read_probe(self, base: Url, refs, page_url: str) -> BrowseGenerator:
        handler = refs.body_event_handlers.get("onmousemove")
        if handler is None:
            return
        for reference in refs.scripts:
            script = yield FetchAction(
                str(resolve_url(base, reference)), referer=page_url,
                think_time=self._jitter(0.05, 0.3),
            )
            target = find_handler_fetch_url(script.response.text, handler)
            if target is not None:
                yield FetchAction(target, referer=page_url, think_time=0.1)
                return


class UaEchoBot(HandlerGrepBot):
    """Walks like :class:`HandlerGrepBot`, but reads the entry page's UA
    probe with the browsers' :func:`interpret_ua_probe` and fetches the echo
    URL for its own User-Agent header (no stylesheet, image or script)."""

    kind = "ua_echo"

    def _read_probe(self, base: Url, refs, page_url: str) -> BrowseGenerator:
        for source in refs.inline_scripts:
            template = interpret_ua_probe(source)
            if template is not None:
                yield FetchAction(
                    template.fetch_url(self.user_agent), referer=page_url, think_time=0.1
                )
                return


class MouseForgerBot(EngineBot):
    """Synthesises mouse events: the adversary that wins (§4.1)."""

    kind = "mouse_forger"
    true_label = "robot"

    def __init__(
        self,
        client_ip: str,
        user_agent: str,
        rng: RngStream,
        entry_url: str,
        config: BrowserConfig | None = None,
    ) -> None:
        super().__init__(
            client_ip, user_agent, rng, entry_url,
            forge_header=False, config=config,
        )
        # Re-enable the mouse path: the bot calls the handler itself.
        self.profile = BehaviorProfile(
            js_enabled=True,
            fetches_stylesheets=True,
            fetches_images=True,
            fetches_scripts=True,
            favicon_probability=self.profile.favicon_probability,
            mouse_user=True,
            mouse_move_probability=1.0,
            engine_user_agent=self.profile.engine_user_agent,
        )
        self.kind = "mouse_forger"
