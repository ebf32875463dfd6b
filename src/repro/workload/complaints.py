"""The abuse-complaint timeline (Figure 3).

Figure 3 plots monthly complaints against CoDeeN through 2005: rising as
the deployment grew (Feb: 100 -> 300+ nodes), peaking in July (referrer
spam and click fraud), collapsing after the late-August deployment of the
browser test + aggressive rate limiting, with the mouse-movement scheme
following in January 2006 ("we have not received any complaints related
to robots as of April 17th").

We cannot replay the 2005 inbox, so the timeline is generated by a
complaint *process* whose inputs are (a) the deployment timeline from the
paper and (b) a **measured** robot-suppression effectiveness — the
fraction of abusive robot traffic the reproduction's own detector+policy
stack actually blocks, obtained by running a calibration workload.
Complaint counts are Poisson draws around "unblocked abuse volume ×
complaints per unit abuse".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection.verdict import Label
from repro.util.rng import RngStream

MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec", "Jan'06",
)

#: Relative deployment traffic per month: 100 US nodes in January, global
#: expansion to 300+ in February, adoption ramping through the summer.
_TRAFFIC_INDEX = (
    1.0, 1.7, 2.2, 2.6, 3.0, 3.4, 3.8, 3.8, 3.7, 3.7, 3.6, 3.6, 3.6,
)

_BROWSER_TEST_DEPLOY = 8  # index of September: late-August deployment
_MOUSE_DEPLOY = 12        # index of January 2006


@dataclass(frozen=True)
class ComplaintConfig:
    """Process parameters."""

    complaints_per_abuse_unit: float = 2.3
    human_complaint_rate: float = 0.7
    seed: int = 2005
    robot_suppression: float = 0.97
    mouse_extra_suppression: float = 0.6

    def __post_init__(self) -> None:
        if self.complaints_per_abuse_unit < 0:
            raise ValueError("complaints_per_abuse_unit must be >= 0")
        if not 0.0 <= self.robot_suppression <= 1.0:
            raise ValueError("robot_suppression must be in [0, 1]")
        if not 0.0 <= self.mouse_extra_suppression <= 1.0:
            raise ValueError("mouse_extra_suppression must be in [0, 1]")


@dataclass(frozen=True)
class MonthlyComplaints:
    """One bar of Figure 3."""

    month: str
    robot: int
    human: int

    @property
    def total(self) -> int:
        """All complaints this month."""
        return self.robot + self.human


@dataclass
class ComplaintTimeline:
    """The full Figure 3 series."""

    points: list[MonthlyComplaints] = field(default_factory=list)

    @property
    def robot_series(self) -> list[int]:
        """Robot-related complaints per month."""
        return [p.robot for p in self.points]

    @property
    def human_series(self) -> list[int]:
        """Human-related complaints per month."""
        return [p.human for p in self.points]

    def peak_month(self) -> MonthlyComplaints:
        """The month with the most robot complaints."""
        return max(self.points, key=lambda p: p.robot)

    def robot_complaints_after(self, month_index: int) -> int:
        """Total robot complaints from ``month_index`` onward."""
        return sum(p.robot for p in self.points[month_index:])


def measure_robot_suppression(sessions) -> float:
    """Measured effectiveness: robot sessions correctly flagged.

    Given finished sessions with ground truth labels, returns the recall
    of the set-algebra classifier on robots — the fraction of abusive
    sessions the deployment can rate-limit/block once classified.
    """
    robots = [s for s in sessions if s.true_label == "robot"]
    if not robots:
        return 0.0
    caught = sum(
        1
        for s in robots
        if s.final_verdict().label is Label.ROBOT
    )
    return caught / len(robots)


def generate_timeline(
    config: ComplaintConfig | None = None,
    measured_suppression: float | None = None,
) -> ComplaintTimeline:
    """Generate the Figure 3 series.

    ``measured_suppression`` (from :func:`measure_robot_suppression`)
    overrides the configured default so the figure reflects this
    codebase's actual detector, not an assumed constant.
    """
    cfg = config or ComplaintConfig()
    suppression = (
        cfg.robot_suppression
        if measured_suppression is None
        else measured_suppression
    )
    rng = RngStream(cfg.seed, "complaints")
    timeline = ComplaintTimeline()

    for index, month in enumerate(MONTHS):
        abuse = _TRAFFIC_INDEX[index]
        if index >= _MOUSE_DEPLOY:
            unblocked = abuse * (1.0 - suppression) * (
                1.0 - cfg.mouse_extra_suppression
            )
        elif index >= _BROWSER_TEST_DEPLOY:
            unblocked = abuse * (1.0 - suppression)
        else:
            unblocked = abuse
        robot = rng.split(f"robot-{index}").poisson(
            unblocked * cfg.complaints_per_abuse_unit
        )
        human = rng.split(f"human-{index}").poisson(cfg.human_complaint_rate)
        timeline.points.append(
            MonthlyComplaints(month=month, robot=robot, human=human)
        )
    return timeline
