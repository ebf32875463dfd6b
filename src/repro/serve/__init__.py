"""Live socket front door: the detection pipeline behind real HTTP.

The paper's detector sat inline on real CoDeeN proxies; this package
puts the repo's pipeline in the same position.  :mod:`repro.serve.http11`
frames raw bytes into the existing :class:`~repro.http.message.Request`
and :class:`~repro.http.message.Response` models,
:mod:`repro.serve.server` mounts a :class:`~repro.proxy.network.ProxyNetwork`
behind an ``asyncio.Protocol`` per connection, handling each request
inline on the event loop with live CLF logging, and
:mod:`repro.serve.swarm` drives the existing agent classes over real
sockets so a live run can be load-tested and replayed.
"""

from repro.serve.http11 import (
    Http11Limits,
    HttpParseError,
    ParsedRequest,
    parse_request,
    read_request,
    read_response,
    render_response,
)
from repro.serve.server import DetectorServer, ServeConfig
from repro.serve.swarm import SwarmConfig, SwarmResult, drive_swarm, run_swarm

__all__ = [
    "DetectorServer",
    "Http11Limits",
    "HttpParseError",
    "ParsedRequest",
    "ServeConfig",
    "SwarmConfig",
    "SwarmResult",
    "drive_swarm",
    "parse_request",
    "read_request",
    "read_response",
    "render_response",
    "run_swarm",
]
