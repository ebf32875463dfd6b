"""Population mixes: weighted agent factories.

A :class:`PopulationMix` is the calibrated census of who visits the proxy
network (the calibration is in :mod:`repro.workload.mixes`).  Each draw
samples an agent family by weight and instantiates it with a fresh IP,
User-Agent and RNG stream, so a workload is fully described by (mix,
size, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.agents.base import Agent
from repro.util.rng import RngStream


class AgentFactory(Protocol):
    """Builds an agent given identity, randomness and entry point."""

    def __call__(
        self, client_ip: str, user_agent: str, rng: RngStream, entry_url: str
    ) -> Agent: ...


@dataclass(frozen=True)
class AgentSpec:
    """One population component."""

    name: str
    weight: float
    factory: AgentFactory
    user_agent_pool: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"weight must be non-negative: {self.name}")
        if not self.user_agent_pool:
            raise ValueError(f"user_agent_pool must be non-empty: {self.name}")


class IpAllocator:
    """Hands out unique, deterministic client IPs."""

    def __init__(self, rng: RngStream) -> None:
        self._rng = rng
        self._counter = 0

    def next(self) -> str:
        """A fresh IP; uniqueness guarantees one session per agent."""
        self._counter += 1
        n = self._counter
        return (
            f"{10 + (n >> 24) % 200}.{(n >> 16) & 0xFF}."
            f"{(n >> 8) & 0xFF}.{n & 0xFF}"
        )


class PopulationMix:
    """A weighted collection of agent specs."""

    def __init__(self, name: str, specs: list[AgentSpec]) -> None:
        if not specs:
            raise ValueError("a mix needs at least one spec")
        total = sum(spec.weight for spec in specs)
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        self.name = name
        self.specs = specs
        self._total_weight = total

    def fraction(self, spec_name: str) -> float:
        """Design fraction of one component."""
        for spec in self.specs:
            if spec.name == spec_name:
                return spec.weight / self._total_weight
        raise KeyError(spec_name)

    def sample(
        self,
        rng: RngStream,
        ips: IpAllocator,
        entry_url: str,
        index: int,
    ) -> Agent:
        """Draw one agent from the mix."""
        spec = rng.weighted_choice(
            self.specs, [s.weight for s in self.specs]
        )
        agent_rng = rng.split(f"agent-{index}-{spec.name}")
        user_agent = agent_rng.choice(spec.user_agent_pool)
        agent = spec.factory(
            client_ip=ips.next(),
            user_agent=user_agent,
            rng=agent_rng,
            entry_url=entry_url,
        )
        # Census and ground-truth labels use the mix component name, which
        # is more specific than the class-level kind (e.g. distinguishes
        # human_js from human_nojs, both BrowserAgent).
        agent.kind = spec.name
        return agent

    def sample_many(
        self, rng: RngStream, entry_url: str, count: int
    ) -> list[Agent]:
        """Draw ``count`` agents with unique IPs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        ips = IpAllocator(rng.split("ips"))
        return [
            self.sample(rng, ips, entry_url, index) for index in range(count)
        ]
