"""The generated site, byte for byte.

The benchmark's recorded scripts, every probe key and the golden replay
digest hang off ``SiteGenerator`` producing the same site from the same
seed: the same paths in the same order, the same link graph, the same
bytes in every body.  The constants below were derived at the parent of
the PR that made static bodies views of one per-kind filler buffer
(commit ``ef57971``, where every body was its own ``bytes``), with this
file unchanged, and must not move: a change to how a site is *stored*
is not a change to what it *is*.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.site.generator import SiteConfig, SiteGenerator
from repro.util.rng import RngStream

#: ``benchmarks/e2e/workloads.py`` builds its site from seed 7 under
#: this label; the second seed guards against a constant that only
#: holds for one draw.
DIGESTS = {
    7: "aaeac25dd995ffc2fe9ab6882b4cee821a1f0a034eaaf80eff2d057adf99d48b",
    11: "515a2987de922d7d3b925c5c6839f5addbff6d3c6ad7212c1ee423438f1a6cb7",
}


def site_digest(seed: int) -> str:
    site = SiteGenerator(SiteConfig(n_pages=400)).generate(
        RngStream(seed, "e2e-site")
    )
    digest = hashlib.sha256()
    for resource in site.resources.values():
        line = (
            f"{resource.path} {resource.kind.value} {resource.size} "
            f"{hashlib.sha256(resource.body).hexdigest()}\n"
        )
        digest.update(line.encode("utf-8"))
    for path, page in site.pages.items():
        digest.update(f"{path} {len(page.links)}\n".encode("utf-8"))
        digest.update(page.render().encode("utf-8"))
    digest.update(" ".join(site.cgi_paths).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_site_is_byte_identical(seed):
    assert site_digest(seed) == DIGESTS[seed]
