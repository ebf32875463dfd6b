"""Shared fixtures.

Heavy artifacts (a generated site, a medium CoDeeN-week run, an ML
dataset) are session-scoped so the whole suite pays for them once.
Tests must treat them as read-only.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.detection.service import DetectionService
from repro.instrument.keys import InstrumentationRegistry
from repro.instrument.rewriter import InstrumentConfig, PageInstrumenter
from repro.proxy.network import ProxyNetwork
from repro.proxy.node import ProxyNode
from repro.site.generator import SiteConfig, SiteGenerator, Website
from repro.site.origin import OriginServer
from repro.util.rng import RngStream
from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment

#: The detector's stateful spec test (``tests/detection/test_detector_spec.py``)
#: takes its example count from the active profile: 100 by default, this
#: many under ``--hypothesis-profile=detector-deep`` (one CI leg runs it).
settings.register_profile("detector-deep", max_examples=600)

SMALL_SITE_CONFIG = SiteConfig(
    n_pages=14,
    min_images=3,
    max_images=6,
    image_bytes=4000,
    page_paragraphs=2,
)


@pytest.fixture(scope="session")
def small_site() -> Website:
    """A small deterministic site shared across tests (read-only)."""
    return SiteGenerator(SMALL_SITE_CONFIG).generate(RngStream(5, "site"))


@pytest.fixture(scope="session")
def small_origin(small_site: Website) -> OriginServer:
    """Origin server for the small site (stateless)."""
    return OriginServer(small_site)


@pytest.fixture()
def rng() -> RngStream:
    """A fresh deterministic stream per test."""
    return RngStream(1234, "test")


@pytest.fixture()
def registry() -> InstrumentationRegistry:
    """A fresh probe registry per test."""
    return InstrumentationRegistry()


@pytest.fixture()
def instrumenter(registry: InstrumentationRegistry, rng: RngStream) -> PageInstrumenter:
    """A fresh instrumenter per test."""
    return PageInstrumenter(registry, rng.split("instr"), InstrumentConfig())


@pytest.fixture()
def make_node(small_origin: OriginServer, small_site: Website):
    """Factory building fresh single proxy nodes against the small site."""

    def build(**kwargs) -> ProxyNode:
        return ProxyNode(
            node_id="node-test",
            origins={small_site.host: small_origin},
            rng=RngStream(kwargs.pop("seed", 77), "node"),
            **kwargs,
        )

    return build


@pytest.fixture()
def make_network(small_origin: OriginServer, small_site: Website):
    """Factory building fresh proxy networks against the small site."""

    def build(n_nodes: int = 2, seed: int = 88, **kwargs) -> ProxyNetwork:
        return ProxyNetwork(
            origins={small_site.host: small_origin},
            rng=RngStream(seed, "net"),
            n_nodes=n_nodes,
            **kwargs,
        )

    return build


@pytest.fixture()
def entry_url(small_site: Website) -> str:
    """The small site's home URL."""
    return f"http://{small_site.host}{small_site.home_path}"


@pytest.fixture(scope="session")
def codeen_result():
    """A medium CoDeeN-week run shared by the integration tests."""
    experiment = CodeenWeekExperiment(
        CodeenWeekConfig(n_sessions=400, seed=2006)
    )
    return experiment.run()


@pytest.fixture(scope="session")
def ml_dataset():
    """A small ML dataset shared by the §4.2 tests."""
    from repro.experiments.figure4 import build_ml_dataset

    return build_ml_dataset(n_sessions=260, seed=99)
