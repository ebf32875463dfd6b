"""Tests for repro.site.origin."""

from __future__ import annotations

import hashlib
import pickle

from repro.http.content import ContentKind
from repro.http.headers import Headers
from repro.http.message import Method, Request
from repro.http.uri import Url
from repro.serve.http11 import render_response
from repro.site.generator import SiteConfig, SiteGenerator, Website
from repro.site.origin import OriginServer
from repro.site.resources import Resource, ResourceKind
from repro.util.rng import RngStream


def _request(site, path_and_query, method=Method.GET):
    return Request(
        method=method,
        url=Url.parse(f"http://{site.host}{path_and_query}"),
        client_ip="10.0.0.9",
        headers=Headers([("User-Agent", "t")]),
        timestamp=0.0,
    )


class TestPages:
    def test_page_served(self, small_origin, small_site):
        resp = small_origin.handle(_request(small_site, small_site.home_path))
        assert resp.status == 200
        assert resp.content_kind is ContentKind.HTML
        assert b"</html>" in resp.body

    def test_static_resource_served(self, small_origin, small_site):
        path = next(p for p in small_site.resources if p.endswith(".css"))
        resp = small_origin.handle(_request(small_site, path))
        assert resp.status == 200
        assert resp.content_type == "text/css"

    def test_favicon(self, small_origin, small_site):
        resp = small_origin.handle(_request(small_site, "/favicon.ico"))
        assert resp.status == 200
        assert resp.content_type == "image/x-icon"

    def test_robots_txt(self, small_origin, small_site):
        resp = small_origin.handle(_request(small_site, "/robots.txt"))
        assert resp.status == 200
        assert b"Disallow" in resp.body

    def test_unknown_path_404(self, small_origin, small_site):
        resp = small_origin.handle(_request(small_site, "/no/such/page.html"))
        assert resp.status == 404

    def test_vuln_probe_404(self, small_origin, small_site):
        resp = small_origin.handle(_request(small_site, "/phpmyadmin/index.php"))
        assert resp.status == 404

    def test_wrong_host_502(self, small_origin, small_site):
        req = Request(
            method=Method.GET,
            url=Url.parse("http://other.host/x"),
            client_ip="10.0.0.9",
        )
        assert small_origin.handle(req).status == 502


class TestStaticBodies:
    def test_served_length_is_the_resources_size(
        self, small_origin, small_site
    ):
        for resource in small_site.resources.values():
            resp = small_origin.handle(_request(small_site, resource.path))
            assert len(resp.body) == resp.size == resource.size > 0
            assert resp.body == resource.body

    def test_zero_size_resource_is_served_empty(self):
        # It used to go out as 256 bytes of filler while ``size`` said 0.
        site = Website(
            host="h.test",
            pages={},
            resources={"/e.css": Resource("/e.css", ResourceKind.STYLESHEET)},
            cgi_paths=[],
        )
        resp = OriginServer(site).handle(_request(site, "/e.css"))
        assert resp.status == 200
        assert resp.content_type == "text/css"
        assert resp.body == b"" and resp.size == 0
        assert b"\r\nContent-Length: 0\r\n" in render_response(resp)

    def test_site_round_trips_through_pickle(self, small_site):
        wire = pickle.dumps(small_site)
        # Sizes travel, not bodies.
        assert len(wire) < sum(r.size for r in small_site.resources.values()) / 10
        again = pickle.loads(wire)
        assert again == small_site
        origin, clone = OriginServer(small_site), OriginServer(again)
        for path in [*small_site.resources, small_site.home_path]:
            request = _request(small_site, path)
            assert clone.handle(request) == origin.handle(request)


class TestHead:
    def test_head_empty_body_same_status(self, small_origin, small_site):
        get = small_origin.handle(_request(small_site, small_site.home_path))
        head = small_origin.handle(
            _request(small_site, small_site.home_path, method=Method.HEAD)
        )
        assert head.status == get.status
        assert head.body == b""
        assert head.content_type == get.content_type

    def test_head_on_missing_is_404(self, small_origin, small_site):
        head = small_origin.handle(
            _request(small_site, "/missing.html", method=Method.HEAD)
        )
        assert head.status == 404


class TestCgi:
    def test_interactive_query_redirects_sometimes(
        self, small_origin, small_site
    ):
        endpoint = small_site.cgi_paths[0]
        statuses = {
            small_origin.handle(
                _request(small_site, f"{endpoint}?q=term{i}")
            ).status
            for i in range(40)
        }
        assert 302 in statuses
        assert 200 in statuses

    def test_redirect_has_location_and_follows(self, small_origin, small_site):
        endpoint = small_site.cgi_paths[0]
        for i in range(60):
            resp = small_origin.handle(
                _request(small_site, f"{endpoint}?q=term{i}")
            )
            if resp.status == 302:
                location = resp.headers.get("Location")
                assert location
                follow = small_origin.handle(
                    _request(small_site, Url.parse(location).path_and_query)
                )
                assert follow.status == 200
                assert follow.content_kind is ContentKind.HTML
                return
        raise AssertionError("no redirect seen in 60 interactive queries")

    def test_machine_query_never_redirects(self, small_origin, small_site):
        endpoint = small_site.cgi_paths[0]
        for i in range(40):
            resp = small_origin.handle(
                _request(small_site, f"{endpoint}?q=ad{i}")
            )
            assert resp.status == 200

    def test_cgi_deterministic(self, small_origin, small_site):
        endpoint = small_site.cgi_paths[0]
        a = small_origin.handle(_request(small_site, f"{endpoint}?q=term7"))
        b = small_origin.handle(_request(small_site, f"{endpoint}?q=term7"))
        assert a.status == b.status

    def test_results_pages_link_into_site(self, small_origin, small_site):
        resp = small_origin.handle(
            _request(small_site, "/cgi-bin/results/r00042.html")
        )
        assert resp.status == 200
        body = resp.text
        assert any(path in body for path in small_site.page_paths)

    def test_results_page_bytes_unchanged(self, small_origin, small_site):
        """The page links the site's first stylesheet and nothing else;
        the digest was taken before the scan for it stopped at the first
        match (commit 7ea6c80)."""
        resp = small_origin.handle(
            _request(small_site, "/cgi-bin/results/r04242.html")
        )
        assert b'href="/static/site0.css"' in resp.body
        assert b"site1.css" not in resp.body
        assert hashlib.sha256(resp.body).hexdigest() == (
            "a1e43a5324a51adb99bc18ce3f4ee57123d5d9a55d8ecf7a2935d906211f8141"
        )

    def test_results_page_of_a_site_without_stylesheets(self):
        site = SiteGenerator(
            SiteConfig(n_pages=14, shared_stylesheets=0, max_images=6)
        ).generate(RngStream(5, "site"))
        resp = OriginServer(site).handle(
            _request(site, "/cgi-bin/results/r04242.html")
        )
        assert resp.status == 200
        assert b"stylesheet" not in resp.body

    def test_post_is_cgi(self, small_origin, small_site):
        endpoint = small_site.cgi_paths[0]
        resp = small_origin.handle(
            _request(small_site, endpoint, method=Method.POST)
        )
        assert resp.status == 200
