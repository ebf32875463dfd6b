"""Executor parity: serial and process deliver identically.

Each lane's events must arrive at its worker in admission order under
every executor — that ordering is the foundation the ingress determinism
guarantees stand on — and worker failures must surface at close, never
vanish.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.ingress.executors import (
    EXECUTOR_KINDS,
    ProcessLaneExecutor,
    SerialLaneExecutor,
    ShedPolicy,
    build_executor,
)


class RecordingWorker:
    """Collects its lane's events (picklable for the process executor)."""

    def __init__(self, lane: int) -> None:
        self.lane = lane
        self.events: list = []

    def process(self, event) -> None:
        self.events.append(event)

    def finish(self):
        return (self.lane, self.events)


class FailingWorker:
    """Raises on a marked event (picklable)."""

    def process(self, event) -> None:
        if event == "boom":
            raise RuntimeError("worker exploded")

    def finish(self):
        return "done"


class DyingWorker:
    """Kills its own process outright (picklable; process lanes only)."""

    def process(self, event) -> None:
        import os

        os._exit(3)

    def finish(self):  # pragma: no cover - never reached
        return "unreachable"


class GatedWorker:
    """Blocks in process() until the parent releases it.

    The events are ``multiprocessing`` ones, so the parent can see the
    lane's child take its first chunk and hold it there.
    """

    def __init__(self) -> None:
        self.started = multiprocessing.Event()
        self.gate = multiprocessing.Event()
        self.events: list = []

    def process(self, event) -> None:
        self.started.set()
        self.gate.wait(timeout=10.0)
        self.events.append(event)

    def finish(self):
        return self.events


def _drive(executor_kind: str, n_lanes: int = 3, n_events: int = 200, **kwargs):
    workers = [RecordingWorker(lane) for lane in range(n_lanes)]
    executor = build_executor(executor_kind, workers, **kwargs)
    for event in range(n_events):
        executor.submit(event % n_lanes, ("ev", event))
    results, telemetry = executor.close()
    return results, telemetry


class TestExecutorParity:
    @pytest.mark.parametrize("kind", ["serial", "process"])
    @pytest.mark.parametrize("depth", [1, 7, None])
    def test_per_lane_admission_order(self, kind, depth):
        results, telemetry = _drive(kind, depth=depth)
        baseline, _ = _drive("serial")
        assert results == baseline
        assert sum(t.enqueued for t in telemetry) == 200
        assert sum(t.shed for t in telemetry) == 0

    def test_results_ordered_by_lane(self):
        results, _ = _drive("process", n_lanes=4, n_events=40)
        assert [lane for lane, _events in results] == [0, 1, 2, 3]

    def test_process_chunking_invisible(self):
        small, _ = _drive("process", chunk_size=1)
        large, _ = _drive("process", chunk_size=1024)
        assert small == large

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_executor("fiber", [RecordingWorker(0)])

    def test_a_lane_runs_inline_or_in_its_own_process(self):
        assert EXECUTOR_KINDS == ("serial", "process")
        with pytest.raises(ValueError, match=r"serial.*process"):
            build_executor("thread", [RecordingWorker(0)])

    def test_no_workers_rejected(self):
        with pytest.raises(ValueError):
            SerialLaneExecutor([])


class TestShedPolicy:
    def test_process_shed_is_counted_and_bounded(self):
        worker = GatedWorker()
        executor = ProcessLaneExecutor(
            [worker], depth=2, policy=ShedPolicy.SHED, chunk_size=1
        )
        # First event is pulled by the child, which then blocks on the
        # gate — from here on the pipe alone absorbs admissions.
        assert executor.submit(0, "e0")
        assert worker.started.wait(timeout=5.0)
        assert executor.submit(0, "e1")
        assert executor.submit(0, "e2")
        assert not executor.submit(0, "e3")  # pipe full: shed
        assert not executor.submit(0, "e4")
        assert executor.lane_depths() == [2]
        worker.gate.set()
        results, telemetry = executor.close()
        assert results == [["e0", "e1", "e2"]]
        assert telemetry[0].enqueued == 3
        assert telemetry[0].shed == 2
        assert telemetry[0].high_watermark == 2

    def test_forced_events_bypass_shedding(self):
        worker = GatedWorker()
        worker.gate.set()  # never actually blocks
        executor = ProcessLaneExecutor(
            [worker], depth=1, policy=ShedPolicy.SHED
        )
        for index in range(20):
            assert executor.submit(0, index, force=True)
        results, telemetry = executor.close()
        assert results == [list(range(20))]
        assert telemetry[0].shed == 0


class TestLaneDepth:
    def test_depth_counts_events_whatever_the_chunking(self):
        # Regression: depth was ``qsize() * chunk_size``, but a forced
        # event rides a one-event chunk — with the default chunk_size 20
        # of them in the pipe read as 5,120 queued with 21 ever
        # enqueued, which pinned the delay predictor's drain rate at 0.
        worker = GatedWorker()
        executor = ProcessLaneExecutor([worker], chunk_size=4)
        executor.submit(0, "head", force=True)
        assert worker.started.wait(timeout=5.0)  # child holds "head"
        for index in range(8):  # two full chunks
            executor.submit(0, index)
        for index in range(20):  # twenty chunks of one
            executor.submit(0, index, force=True)
        executor.submit(0, "tail")  # buffered, not yet in the pipe
        try:
            counters = executor.telemetry_now()[0]
            assert counters.enqueued == 29
            assert counters.high_watermark == 28
            assert executor.lane_depths() == [29]
        finally:
            worker.gate.set()
            executor.close()
        assert executor.lane_depths() == [0]


class TestFailurePropagation:
    @pytest.mark.parametrize("kind", ["process"])
    def test_worker_error_raises_at_close(self, kind):
        executor = build_executor(kind, [FailingWorker()])
        executor.submit(0, "ok")
        executor.submit(0, "boom")
        executor.submit(0, "after")  # producer never deadlocks
        with pytest.raises(RuntimeError, match="lane 0"):
            executor.close()

    @pytest.mark.parametrize("kind", ["process"])
    def test_failed_lane_keeps_draining_bounded_queue(self, kind):
        """A dead consumer on a bounded pipe must not wedge admission."""
        executor = build_executor(kind, [FailingWorker()], depth=4,
                                  chunk_size=2)
        executor.submit(0, "boom")
        for index in range(200):  # far beyond the queue bound
            executor.submit(0, index)
        with pytest.raises(RuntimeError, match="lane 0"):
            executor.close()

    def test_killed_child_process_raises_instead_of_hanging(self):
        """A lane child that dies outright (OOM, segfault) must surface
        as an error from admission or close — never an eternal block on
        the full event pipe."""
        executor = build_executor(
            "process", [DyingWorker()], depth=2, chunk_size=1
        )
        with pytest.raises(RuntimeError, match="lane 0"):
            # Child exits on the first chunk; the bounded pipe fills,
            # then the liveness-checking put raises.  If the child
            # lingers long enough to drain some puts, close() catches
            # the missing result instead.
            for index in range(50):
                executor.submit(0, index)
            executor.close()
