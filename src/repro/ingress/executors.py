"""Lane executors: a lane runs inline, or in its own process.

A *lane* is one fully self-contained partition of ingress state (in this
codebase: one proxy node, which owns its detection shards, cache,
limiter, probe registry and counters).  A *lane worker* is any object
with

* ``process(event)`` — consume one admitted event, mutating only lane
  state, and
* ``finish()`` — flush, finalize and return a picklable result.

Executors own the delivery discipline, never the semantics: both
deliver each lane's events in admission order to exactly one consumer,
so the two executors (and any queue depth) are observationally identical
whenever nothing is shed — the property the determinism suite pins
down.

* :class:`SerialLaneExecutor` processes events inline in the admission
  loop.  Zero overhead; nothing queues, so nothing can be shed.
* :class:`ProcessLaneExecutor` runs one worker *process* per lane,
  shipping events in pickled chunks over a bounded ``multiprocessing``
  queue and collecting each lane's finished result at close.  Lane
  state lives in the child, so per-event work runs genuinely in
  parallel, and the bounded pipe is the only backlog there is — what
  :class:`ShedPolicy` acts on.  Events and lane results must be
  picklable; lane workers are shipped to the child at start (fork makes
  that free, spawn pickles them once).
"""

from __future__ import annotations

import multiprocessing
import queue as stdlib_queue
import time
import traceback
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, Sequence

EXECUTOR_KINDS = ("serial", "process")


class ShedPolicy(Enum):
    """What admission does when a lane's pipe is full (or predicted slow).

    * ``BLOCK`` — wait for space.  Backpressure propagates to the
      admission loop, every admitted event is eventually processed, and
      results are bit-identical at any depth (depth only changes how far
      the producer can run ahead).
    * ``SHED`` — refuse the event and count it.  Latency stays bounded
      under overload at the price of dropped work; the shed count is
      surfaced in the node/network statistics so a Table-1-style report
      can never silently lose traffic.  How *many* events shed depends
      on consumer speed, so a shedding run trades the determinism
      guarantee for bounded queueing delay — exactly the trade a live
      deployment makes.
    * ``ADAPTIVE`` — decided *before* the pipe: the ingress pipeline's
      :class:`~repro.overload.admission.DelayBudgetController` sheds at
      the front door when the lane's predicted queue delay exceeds a
      latency budget (with per-IP fairness), and the pipe itself blocks
      as the backstop.
    """

    BLOCK = "block"
    SHED = "shed"
    ADAPTIVE = "adaptive"


class LaneWorker(Protocol):
    """What an executor drives: per-lane event consumption + finish."""

    def process(self, event) -> None: ...

    def finish(self): ...


@dataclass
class LaneTelemetry:
    """Per-lane delivery counters an executor reports at close."""

    lane: int
    enqueued: int = 0
    shed: int = 0
    high_watermark: int = 0


class LaneExecutorBase:
    """Shared surface: submit events to lanes, close to collect results."""

    def __init__(self, workers: Sequence[LaneWorker]) -> None:
        if not workers:
            raise ValueError("need at least one lane worker")
        self._workers = list(workers)
        self._telemetry = [LaneTelemetry(lane) for lane in range(len(workers))]

    @property
    def n_lanes(self) -> int:
        """How many independent lanes this executor drives."""
        return len(self._workers)

    def submit(self, lane: int, event, force: bool = False) -> bool:
        """Deliver one event to a lane; False when it was shed.

        ``force`` bypasses the shed policy (always backpressure) — used
        for events that must never be dropped, like probe-journal key
        material.
        """
        raise NotImplementedError

    def close(self) -> tuple[list, list[LaneTelemetry]]:
        """Finish every lane; returns (lane results, delivery telemetry).

        Results are ordered by lane index.  Any exception raised inside
        a lane worker is re-raised here, lowest lane first.
        """
        raise NotImplementedError

    def telemetry_now(self) -> list[LaneTelemetry]:
        """A live view of per-lane delivery counters (flight sampling)."""
        return self._telemetry

    def lane_depths(self) -> list[int]:
        """Current backlog per lane, in events (0 where unobservable)."""
        return [0] * self.n_lanes

    def flush_pending(self) -> None:
        """Push any transport-buffered events toward the lanes.

        Chunking is a transport optimization and must stay invisible in
        measurements: the flight recorder flushes before sampling so
        admission telemetry reflects every submitted event, whatever
        the executor batches internally.
        """


class SerialLaneExecutor(LaneExecutorBase):
    """Process events inline: the admission loop is the only consumer."""

    def submit(self, lane: int, event, force: bool = False) -> bool:
        self._workers[lane].process(event)
        self._telemetry[lane].enqueued += 1
        return True

    def close(self) -> tuple[list, list[LaneTelemetry]]:
        return [worker.finish() for worker in self._workers], self._telemetry


def _lane_child_main(lane, worker, inbox, outbox) -> None:
    """Child-process loop: drain event chunks, then ship the result.

    On a worker error the child keeps draining (and discarding) chunks
    until the close sentinel — a stopped consumer on a bounded pipe
    would deadlock the admission loop — and reports the first failure
    at close.
    """
    error: str | None = None
    note_wait = getattr(worker, "note_queue_wait", None)
    while True:
        item = inbox.get()
        if item is None:
            break
        if error is not None:
            continue
        stamped_at, chunk = item
        if note_wait is not None:
            # One wait sample per chunk: the pipe transports chunks, so
            # that is the granularity at which waiting is observable.
            note_wait(time.monotonic() - stamped_at)
        try:
            for event in chunk:
                worker.process(event)
        except BaseException as exc:
            error = f"{exc!r}\n{traceback.format_exc()}"
    if error is None:
        try:
            outbox.put((lane, "ok", worker.finish()))
            return
        except BaseException as exc:
            error = f"{exc!r}\n{traceback.format_exc()}"
    outbox.put((lane, "error", error))


class ProcessLaneExecutor(LaneExecutorBase):
    """One worker process per lane — true parallel lane execution.

    Events are shipped in chunks of ``chunk_size`` to amortise pickling
    and queue wake-ups; chunk boundaries are invisible to results
    because each lane still consumes its events strictly in admission
    order.  ``depth`` (in events) maps onto the bounded inter-process
    queue in chunk units, so backpressure still reaches the admission
    loop.  Under the SHED policy a full pipe sheds the whole pending
    chunk — shedding granularity is the price of amortised IPC, and
    every shed event is still counted.
    """

    def __init__(
        self,
        workers: Sequence[LaneWorker],
        depth: int | None = None,
        policy: ShedPolicy = ShedPolicy.BLOCK,
        chunk_size: int = 256,
    ) -> None:
        super().__init__(workers)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self._policy = policy
        self._chunk_size = chunk_size
        if depth is not None:
            self._chunk_size = min(self._chunk_size, depth)
        depth_chunks = (
            0 if depth is None else max(1, depth // self._chunk_size)
        )
        context = multiprocessing.get_context()
        self._outbox = context.Queue()
        self._inboxes = [
            context.Queue(maxsize=depth_chunks) for _ in workers
        ]
        self._buffers: list[list] = [[] for _ in workers]
        #: Per lane, the ``enqueued`` count at which each chunk still in
        #: the pipe began (oldest first).
        self._chunk_starts: list[deque[int]] = [deque() for _ in workers]
        self._processes = [
            context.Process(
                target=_lane_child_main,
                args=(lane, worker, self._inboxes[lane], self._outbox),
                name=f"ingress-lane-{lane}",
                daemon=True,
            )
            for lane, worker in enumerate(self._workers)
        ]
        for process in self._processes:
            process.start()

    def submit(self, lane: int, event, force: bool = False) -> bool:
        buffer = self._buffers[lane]
        if force:
            # Never-shed events flush the pending chunk under the normal
            # policy, then ride their own always-blocking chunk.
            self._flush(lane)
            self._send(lane, [event], block=True)
            return True
        buffer.append(event)
        if len(buffer) >= self._chunk_size:
            return self._flush(lane)
        return True

    def close(self) -> tuple[list, list[LaneTelemetry]]:
        for lane in range(self.n_lanes):
            self._flush(lane)
            self._put_alive(lane, None)
        collected = self._collect_results()
        for process in self._processes:
            process.join()
        failures = [
            (lane, payload)
            for lane, (status, payload) in sorted(collected.items())
            if status != "ok"
        ]
        if failures:
            lane, payload = failures[0]
            raise RuntimeError(
                f"ingress lane {lane} worker failed:\n{payload}"
            )
        results = [collected[lane][1] for lane in range(self.n_lanes)]
        return results, self._telemetry

    def flush_pending(self) -> None:
        for lane in range(self.n_lanes):
            self._flush(lane)

    def lane_depths(self) -> list[int]:
        return [
            self._pipe_events(lane) + len(buffer)
            for lane, buffer in enumerate(self._buffers)
        ]

    def _pipe_events(self, lane: int) -> int:
        """Events sent down a lane's pipe that its child has not taken.

        The pipe counts chunks, and a chunk holds anything from one
        event (a forced one rides alone) to ``chunk_size``, so the
        backlog is counted from where the oldest chunk still in the
        pipe started.
        """
        starts = self._chunk_starts[lane]
        try:
            chunks = self._inboxes[lane].qsize()
        except NotImplementedError:  # macOS: sem_getvalue unsupported
            chunks = 0
        while len(starts) > chunks:
            starts.popleft()
        return self._telemetry[lane].enqueued - starts[0] if starts else 0

    def _put_alive(self, lane: int, obj) -> None:
        """Blocking put that never waits on a corpse.

        A child killed mid-run (OOM, segfault) stops consuming; with a
        bounded pipe the admission thread would block in ``put()``
        forever, ahead of any dead-child detection at close.  Poll the
        pipe with a timeout and check liveness between attempts.
        """
        inbox = self._inboxes[lane]
        process = self._processes[lane]
        while True:
            try:
                inbox.put(obj, timeout=0.5)
                return
            except stdlib_queue.Full:
                if not process.is_alive():
                    raise RuntimeError(
                        f"ingress lane {lane} worker process died "
                        f"(exitcode {process.exitcode}) with its event "
                        "pipe full; admission aborted"
                    ) from None

    def _collect_results(self) -> dict[int, tuple[str, object]]:
        """One (status, payload) per lane — never hang on a dead child.

        A child killed mid-run (OOM, segfault, external kill) can never
        deliver its result tuple; a blocking ``get()`` would wedge the
        whole close.  Poll instead, and when an unreported lane's
        process is gone, allow one grace read (results flush through
        the pipe as the child exits) before giving up loudly.
        """
        collected: dict[int, tuple[str, object]] = {}
        pending = set(range(self.n_lanes))

        def take(timeout: float) -> bool:
            try:
                lane, status, payload = self._outbox.get(timeout=timeout)
            except stdlib_queue.Empty:
                return False
            collected[lane] = (status, payload)
            pending.discard(lane)
            return True

        while pending:
            if take(0.5):
                continue
            dead = sorted(
                lane
                for lane in pending
                if not self._processes[lane].is_alive()
            )
            if dead and not take(5.0):
                lane = dead[0]
                raise RuntimeError(
                    f"ingress lane {lane} worker process died without "
                    f"reporting a result (exitcode "
                    f"{self._processes[lane].exitcode}); its events are "
                    "lost — results from other lanes were discarded to "
                    "avoid returning a partial merge"
                )
        return collected

    def _flush(self, lane: int) -> bool:
        buffer = self._buffers[lane]
        if not buffer:
            return True
        chunk = buffer[:]
        buffer.clear()
        return self._send(lane, chunk, block=self._policy is ShedPolicy.BLOCK)

    def _send(self, lane: int, chunk: list, block: bool) -> bool:
        telemetry = self._telemetry[lane]
        inbox = self._inboxes[lane]
        item = (time.monotonic(), chunk)
        if block:
            self._put_alive(lane, item)
        else:
            try:
                inbox.put_nowait(item)
            except stdlib_queue.Full:
                telemetry.shed += len(chunk)
                return False
        self._chunk_starts[lane].append(telemetry.enqueued)
        telemetry.enqueued += len(chunk)
        size = self._pipe_events(lane)
        if size > telemetry.high_watermark:
            telemetry.high_watermark = size
        return True


def build_executor(
    kind: str,
    workers: Sequence[LaneWorker],
    depth: int | None = None,
    policy: ShedPolicy = ShedPolicy.BLOCK,
    chunk_size: int = 256,
) -> LaneExecutorBase:
    """Instantiate an executor by name (``serial`` or ``process``)."""
    if policy is ShedPolicy.ADAPTIVE:
        # Adaptive shedding is decided at the front door (the pipeline's
        # DelayBudgetController); what survives admission must not be
        # dropped again, so the lane queues run as a blocking backstop.
        policy = ShedPolicy.BLOCK
    if kind == "serial":
        return SerialLaneExecutor(workers)
    if kind == "process":
        return ProcessLaneExecutor(
            workers, depth=depth, policy=policy, chunk_size=chunk_size
        )
    raise ValueError(
        f"unknown executor {kind!r}; available: {EXECUTOR_KINDS}"
    )
