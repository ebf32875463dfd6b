"""Random web-site generation.

Builds a :class:`Website`: a connected page graph with shared and per-page
embedded objects, CGI endpoints, a favicon and robots.txt.  The shape
roughly follows mid-2000s sites: a home page with high out-degree, section
pages, shared site-wide CSS/JS plus per-page images; CGI search endpoints
that answer with redirects or result pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.site.page import PageSpec
from repro.site.resources import Resource, ResourceKind
from repro.util.rng import RngStream


@dataclass(frozen=True)
class SiteConfig:
    """Knobs for site generation.

    Defaults produce a ~60-page site whose per-page object counts match
    the burst sizes the Figure 2 calibration assumes (a page load causes
    roughly 6–14 object fetches).
    """

    host: str = "www.example.com"
    n_pages: int = 60
    min_links: int = 3
    max_links: int = 8
    shared_stylesheets: int = 2
    shared_scripts: int = 2
    min_images: int = 3
    max_images: int = 14
    n_cgi_endpoints: int = 4
    cgi_link_probability: float = 0.35
    image_bytes: int = 26000
    stylesheet_bytes: int = 6000
    script_bytes: int = 4200
    page_paragraphs: int = 8

    def __post_init__(self) -> None:
        if self.n_pages < 1:
            raise ValueError("a site needs at least one page")
        if self.min_links > self.max_links:
            raise ValueError("min_links must be <= max_links")
        if self.min_images > self.max_images:
            raise ValueError("min_images must be <= max_images")


@dataclass
class Website:
    """A generated site: pages, static resources and metadata."""

    host: str
    pages: dict[str, PageSpec]
    resources: dict[str, Resource]
    cgi_paths: list[str]
    home_path: str = "/index.html"

    @property
    def page_paths(self) -> list[str]:
        """All page paths in insertion (generation) order."""
        return list(self.pages.keys())

    def page(self, path: str) -> PageSpec | None:
        """Look up a page by path."""
        return self.pages.get(path)

    def resource(self, path: str) -> Resource | None:
        """Look up a static resource by path."""
        return self.resources.get(path)


class SiteGenerator:
    """Generates deterministic random :class:`Website` instances."""

    def __init__(self, config: SiteConfig | None = None) -> None:
        self._config = config or SiteConfig()

    @property
    def config(self) -> SiteConfig:
        """The generation configuration."""
        return self._config

    def generate(self, rng: RngStream) -> Website:
        """Generate a site using randomness from ``rng`` only."""
        cfg = self._config
        paths = ["/index.html"] + [
            f"/section{i // 10}/page{i:03d}.html" for i in range(1, cfg.n_pages)
        ]

        shared_css = [f"/static/site{i}.css" for i in range(cfg.shared_stylesheets)]
        shared_js = [f"/static/site{i}.js" for i in range(cfg.shared_scripts)]
        cgi_paths = [f"/cgi-bin/search{i}.cgi" for i in range(cfg.n_cgi_endpoints)]

        resources: dict[str, Resource] = {}
        for path in shared_css:
            resources[path] = Resource(
                path, ResourceKind.STYLESHEET, filler=cfg.stylesheet_bytes
            )
        for path in shared_js:
            resources[path] = Resource(
                path, ResourceKind.SCRIPT, filler=cfg.script_bytes
            )
        resources["/favicon.ico"] = Resource(
            "/favicon.ico", ResourceKind.FAVICON, filler=1150
        )
        robots_body = (
            "User-agent: *\n"
            "Disallow: /cgi-bin/\n"
            "Disallow: /private/\n"
        ).encode("ascii")
        resources["/robots.txt"] = Resource(
            "/robots.txt", ResourceKind.ROBOTS_TXT, robots_body
        )

        pages: dict[str, PageSpec] = {}
        for index, path in enumerate(paths):
            pages[path] = self._generate_page(
                rng.split(f"page-{index}"), path, index, paths, shared_css,
                shared_js, cgi_paths, resources,
            )

        self._connect_components(pages, paths)
        return Website(
            host=cfg.host,
            pages=pages,
            resources=resources,
            cgi_paths=cgi_paths,
        )

    def _generate_page(
        self,
        rng: RngStream,
        path: str,
        index: int,
        paths: list[str],
        shared_css: list[str],
        shared_js: list[str],
        cgi_paths: list[str],
        resources: dict[str, Resource],
    ) -> PageSpec:
        cfg = self._config
        # The home page fans out more than interior pages.
        max_links = cfg.max_links * 2 if index == 0 else cfg.max_links
        n_links = rng.randint(cfg.min_links, max_links)
        # Every page but this one, drawn by position: a sample depends
        # only on how many there are to draw from, so no per-page copy
        # of the site's paths is needed to draw the same links.
        others = len(paths) - 1
        links = [
            paths[i + (i >= index)]
            for i in rng.sample(range(others), min(n_links, others))
        ]

        n_images = rng.randint(cfg.min_images, cfg.max_images)
        images = []
        for img_index in range(n_images):
            img_path = f"/img/p{index:03d}_{img_index}.jpg"
            images.append(img_path)
            if img_path not in resources:
                size = int(cfg.image_bytes * rng.uniform(0.4, 1.8))
                resources[img_path] = Resource(
                    img_path, ResourceKind.IMAGE, filler=size
                )

        cgi_links: list[str] = []
        if cgi_paths and rng.bernoulli(cfg.cgi_link_probability):
            endpoint = rng.choice(cgi_paths)
            cgi_links.append(f"{endpoint}?q=term{rng.randint(1, 999)}")

        title = "Home" if index == 0 else f"Page {index:03d}"
        return PageSpec(
            path=path,
            title=title,
            links=links,
            stylesheets=list(shared_css),
            scripts=list(shared_js),
            images=images,
            cgi_links=cgi_links,
            paragraphs=cfg.page_paragraphs,
        )

    @staticmethod
    def _connect_components(pages: dict[str, PageSpec], paths: list[str]) -> None:
        """Guarantee every page is reachable from the home page.

        Human sessions walk the link graph from the home page; unreachable
        islands would silently shrink the browsable site.  A single pass
        adds one link from the reachable region to each unreached page.
        """
        home = paths[0]
        reachable = {home}
        frontier = [home]
        while frontier:
            current = frontier.pop()
            for target in pages[current].links:
                if target in pages and target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        for path in paths:
            if path not in reachable:
                pages[home].links.append(path)
                reachable.add(path)
                # Newly linked pages may open up their own subtrees.
                frontier = [path]
                while frontier:
                    current = frontier.pop()
                    for target in pages[current].links:
                        if target in pages and target not in reachable:
                            reachable.add(target)
                            frontier.append(target)
