"""Classification verdicts."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Label(Enum):
    """Session classification outcomes."""

    HUMAN = "human"
    ROBOT = "robot"
    UNDECIDED = "undecided"


@dataclass(frozen=True, init=False)
class Verdict:
    """A classification with its justification.

    ``definitive`` marks verdicts backed by hard evidence (a correctly
    keyed mouse event, a wrong-key fetch, a hidden-link fetch) as opposed
    to behavioural inference (CSS-but-no-JS looks like a browser).  The
    constructor adopts its field dict whole (one is built per request).
    """

    label: Label
    reason: str
    definitive: bool = False
    at_request: int = 0

    def __init__(self, label: Label, reason: str, definitive: bool = False,
                 at_request: int = 0) -> None:
        object.__setattr__(self, "__dict__", {
            "label": label, "reason": reason,
            "definitive": definitive, "at_request": at_request})

    def __str__(self) -> str:
        kind = "definitive" if self.definitive else "tentative"
        return f"{self.label.value} ({kind}: {self.reason})"
