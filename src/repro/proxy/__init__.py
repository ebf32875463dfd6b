"""A CoDeeN-like open-proxy content distribution substrate.

The paper's techniques were deployed on CoDeeN, a network of 400+ proxy
nodes.  :class:`~repro.proxy.node.ProxyNode` reproduces the relevant node
behaviour: forward requests to origins, cache static objects, instrument
every served HTML page, answer probe fetches locally, feed the detection
pipeline, and enforce the robot policy.
:class:`~repro.proxy.network.ProxyNetwork` assembles many nodes with
sticky client-to-node assignment and aggregates their statistics.
"""

from repro.proxy.cache import CacheStats, ProxyCache
from repro.proxy.network import ProxyNetwork
from repro.proxy.node import NodeStats, ProxyNode
from repro.proxy.ratelimit import RateLimitConfig, TokenBucket, TokenBucketLimiter

__all__ = [
    "CacheStats",
    "NodeStats",
    "ProxyCache",
    "ProxyNetwork",
    "ProxyNode",
    "RateLimitConfig",
    "TokenBucket",
    "TokenBucketLimiter",
]
