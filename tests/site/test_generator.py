"""Tests for repro.site.generator."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.site.generator import SiteConfig, SiteGenerator
from repro.util.rng import RngStream


def _generate(seed: int = 5, **overrides):
    config = SiteConfig(
        n_pages=overrides.pop("n_pages", 14),
        min_images=overrides.pop("min_images", 2),
        max_images=overrides.pop("max_images", 5),
        image_bytes=2000,
        page_paragraphs=1,
        **overrides,
    )
    return SiteGenerator(config).generate(RngStream(seed, "site"))


class TestGeneration:
    def test_page_count(self):
        site = _generate()
        assert len(site.pages) == 14

    def test_home_page_exists(self):
        site = _generate()
        assert site.home_path in site.pages

    def test_deterministic(self):
        a = _generate(seed=9)
        b = _generate(seed=9)
        assert a.page_paths == b.page_paths
        assert sorted(a.resources) == sorted(b.resources)
        assert a.pages[a.home_path].links == b.pages[b.home_path].links

    def test_different_seeds_differ(self):
        a = _generate(seed=1)
        b = _generate(seed=2)
        assert (
            a.pages[a.home_path].links != b.pages[b.home_path].links
            or sorted(a.resources) != sorted(b.resources)
        )

    def test_shared_resources_exist(self):
        site = _generate()
        assert site.resource("/favicon.ico") is not None
        assert site.resource("/robots.txt") is not None
        stylesheets = [p for p in site.resources if p.endswith(".css")]
        assert stylesheets

    def test_page_images_registered(self):
        site = _generate()
        for page in site.pages.values():
            for image in page.images:
                assert site.resource(image) is not None

    def test_all_links_point_to_pages(self):
        site = _generate()
        for page in site.pages.values():
            for link in page.links:
                assert link in site.pages

    def test_every_page_reachable_from_home(self):
        site = _generate()
        reachable = {site.home_path}
        frontier = [site.home_path]
        while frontier:
            current = frontier.pop()
            for target in site.pages[current].links:
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        assert reachable == set(site.pages)

    def test_cgi_endpoints(self):
        site = _generate()
        assert len(site.cgi_paths) == SiteConfig().n_cgi_endpoints

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SiteConfig(n_pages=0)
        with pytest.raises(ValueError):
            SiteConfig(min_links=9, max_links=3)
        with pytest.raises(ValueError):
            SiteConfig(min_images=9, max_images=3)


class TestRenderedPages:
    def test_render_contains_structure(self):
        site = _generate()
        html = site.pages[site.home_path].render()
        assert "<html>" in html and "</html>" in html
        assert "</head>" in html and "</body>" in html

    def test_render_includes_objects(self):
        site = _generate()
        page = site.pages[site.home_path]
        html = page.render()
        for stylesheet in page.stylesheets:
            assert stylesheet in html
        for image in page.images:
            assert image in html


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_pages=st.integers(min_value=1, max_value=30),
)
def test_property_reachability(seed, n_pages):
    site = _generate(seed=seed, n_pages=n_pages)
    reachable = {site.home_path}
    frontier = [site.home_path]
    while frontier:
        current = frontier.pop()
        for target in site.pages[current].links:
            if target in site.pages and target not in reachable:
                reachable.add(target)
                frontier.append(target)
    assert reachable == set(site.pages)


def test_a_benchmark_sized_site_is_held_in_four_mib():
    """The footprint gate: 400 pages and ~3,400 images cost their page
    specs and sizes, not their bytes.  When every image was its own
    copy of the filler pattern this peak was 94.8 MiB — two thirds of
    the live benchmark's ``peak_rss_mib``."""
    generator = SiteGenerator(SiteConfig(n_pages=400))
    tracemalloc.start()
    try:
        site = generator.generate(RngStream(7, "e2e-site"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(site.resources) > 3000
    assert peak <= 4 * 1024 * 1024
