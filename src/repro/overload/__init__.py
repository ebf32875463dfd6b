"""Adaptive overload control: delay-budget admission and the
graduated ``throttle -> CAPTCHA -> block`` response ladder.

Two controllers live here, one per clock domain:

* :class:`~repro.overload.admission.Admission` runs at both front doors
  (the live server and the ingress pipeline) in *wall* time.  Under
  ``ShedPolicy.ADAPTIVE`` its
  :class:`~repro.overload.admission.DelayBudgetController` sheds work
  when a lane's predicted queue delay exceeds a latency budget,
  weighting the drops by each client IP's recent admitted share so a
  flash crowd of distinct users degrades gracefully while a flooding IP
  absorbs them.
* :class:`~repro.overload.ladder.ResponseLadder` runs inside the lane
  in *event* time.  Micro-batch checkpoint verdicts escalate a per-IP
  state machine through throttle, CAPTCHA, and block rungs; decay and
  solved challenges walk it back down.  Its state is a pure function
  of each IP's own request stream, so it is byte-identical across
  executors and shard counts.
"""

from repro.overload.admission import (
    AdaptiveConfig,
    Admission,
    DelayBudgetController,
    FairnessTracker,
    OverloadReport,
    ShedPolicy,
)
from repro.overload.ladder import (
    LadderConfig,
    LadderStage,
    ResponseLadder,
    merge_ladder_states,
)

__all__ = [
    "AdaptiveConfig",
    "Admission",
    "DelayBudgetController",
    "FairnessTracker",
    "LadderConfig",
    "LadderStage",
    "OverloadReport",
    "ResponseLadder",
    "ShedPolicy",
    "merge_ladder_states",
]
