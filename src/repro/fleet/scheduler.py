"""Fleet scheduling: admission control, bounded queues, batching.

The scheduler turns a request stream into one executable *plan* per
board, in a single deterministic pass over the requests in arrival
order.  It is the fleet's load balancer, and like a real one it acts on
what a front end can know at arrival time — queue depths and service
*estimates* — never on measured service times (those only exist after
the boards simulate).  That split is what keeps the plan a pure function
of the workload and lets board execution fan out over worker processes
byte-identically.

Per request:

1. **Coalescing** (``batching=True``) — if the request's bitstream is
   already queued (not yet started) on its affinity board, the request
   joins that pending job: one fabric load serves every member, the
   queue does not grow.  This exploits the shared build cache — the
   bitstream is built once per key per process — and is the fleet-level
   analogue of the PR controller's batch path.
2. **Placement** — otherwise route to the key's affinity board (cache
   locality) when its queue has room, else the least-loaded board
   (fewest outstanding jobs, then earliest estimated drain, then lowest
   index — a total order, so placement is deterministic).
3. **Admission** — if the chosen board's queue already holds
   ``queue_depth`` outstanding jobs, the request is rejected outright.
   Open-loop traffic keeps arriving regardless; bounding the queue is
   what converts overload into a *rejected-request rate* instead of
   unbounded latency.

A second pass forms **dispatch groups**: consecutive queued jobs for
distinct regions that are all waiting when the board frees up dispatch
as one scatter-gather batch through
:meth:`~repro.core.PdrSystem.reconfigure_batch`, paying the driver
setup and clock lock once per group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .workload import FleetRequest

__all__ = [
    "BoardPlan",
    "EST_FIXED_US",
    "EST_THROUGHPUT_MB_S",
    "FleetPlan",
    "PlannedJob",
    "estimate_service_us",
    "least_loaded_board",
    "plan_fleet",
]

#: Planner's service-time model: transfer at the robust 200 MHz
#: operating point's throughput (Table I) plus the fixed per-load
#: overhead (clock lock + driver setup + post-transfer scrub).  An
#: *estimate* — board placement uses it, SLO accounting never does.
EST_THROUGHPUT_MB_S = 780.0
EST_FIXED_US = 850.0
#: Estimated content-sized bitstream (1304 frames × 101 words + headers).
_CONTENT_BYTES_EST = 527_000


def estimate_service_us(pad_to: int) -> float:
    """Estimated µs one fabric load of a ``pad_to``-byte stream takes."""
    size_bytes = pad_to or _CONTENT_BYTES_EST
    return size_bytes / EST_THROUGHPUT_MB_S + EST_FIXED_US


@dataclass
class PlannedJob:
    """One fabric load on one board, serving one or more requests."""

    key: Tuple[str, str, int, int]
    #: Request indices served by this load (first member created it).
    members: List[int] = field(default_factory=list)
    #: Latest member arrival (µs) — the load cannot start before it.
    arrival_us: float = 0.0
    #: Planner-estimated start/end (µs); used only for queue-depth and
    #: grouping decisions, never for reported SLOs.
    est_start_us: float = 0.0
    est_end_us: float = 0.0

    @property
    def region(self) -> str:
        return self.key[0]

    def as_executable(self) -> List:
        """The plain-data shape a board point executes: region, ASP
        kind, ASP param, pad bytes (0 = content-sized)."""
        return [self.key[0], self.key[1], self.key[2], self.key[3]]


@dataclass
class BoardPlan:
    """Everything one board will execute, in dispatch order."""

    board: int
    #: Dispatch groups: each inner list is one scatter-gather batch
    #: (single-job groups dispatch as one plain reconfiguration).
    groups: List[List[PlannedJob]] = field(default_factory=list)

    @property
    def jobs(self) -> List[PlannedJob]:
        return [job for group in self.groups for job in group]


@dataclass
class FleetPlan:
    """The scheduler's full output for one campaign."""

    boards: List[BoardPlan]
    #: Indices of requests refused at admission.
    rejected: Tuple[int, ...] = ()
    #: Requests admitted (coalesced members count once each).
    admitted: int = 0
    #: Fabric loads planned (== admitted when nothing coalesced).
    loads: int = 0

    @property
    def coalesced(self) -> int:
        """Requests that piggybacked on an already-queued load."""
        return self.admitted - self.loads


class _BoardState:
    """Mutable per-board planning state (single pass, arrival order)."""

    def __init__(self, board: int):
        self.board = board
        self.jobs: List[PlannedJob] = []
        #: First job whose estimated completion is still in the future.
        self._head = 0

    def depth(self, now_us: float) -> int:
        while (
            self._head < len(self.jobs)
            and self.jobs[self._head].est_end_us <= now_us
        ):
            self._head += 1
        return len(self.jobs) - self._head

    def ready_us(self, now_us: float) -> float:
        if not self.jobs:
            return now_us
        return max(now_us, self.jobs[-1].est_end_us)

    def append(self, job: PlannedJob, now_us: float) -> None:
        job.est_start_us = max(self.ready_us(now_us), job.arrival_us)
        job.est_end_us = job.est_start_us + estimate_service_us(job.key[3])
        self.jobs.append(job)


def _form_groups(
    jobs: List[PlannedJob], batch_limit: int
) -> List[List[PlannedJob]]:
    """Greedy dispatch grouping over one board's job sequence.

    A group extends while the next job targets a region not already in
    the group, had already arrived when the group would start, and the
    group is under ``batch_limit`` — i.e. exactly the jobs a board
    picking up work from its queue could chain into one SG walk.
    """
    groups: List[List[PlannedJob]] = []
    end_est = 0.0
    index = 0
    while index < len(jobs):
        group = [jobs[index]]
        start_est = max(end_est, jobs[index].arrival_us)
        regions = {jobs[index].region}
        index += 1
        while (
            index < len(jobs)
            and len(group) < batch_limit
            and jobs[index].region not in regions
            and jobs[index].arrival_us <= start_est
        ):
            group.append(jobs[index])
            regions.add(jobs[index].region)
            index += 1
        end_est = start_est + sum(
            estimate_service_us(job.key[3]) for job in group
        )
        groups.append(group)
    return groups


def least_loaded_board(
    free_us: Dict[int, float], arrival_us: float, candidates
) -> Optional[int]:
    """Least-loaded placement over an explicit candidate set.

    The failover loop's version of the planner's placement rule:
    ``free_us`` maps board → time the board next comes free (measured,
    not estimated — failover runs *after* the replay, where measured
    times exist), and the winner is the candidate that could start the
    retry earliest, ties broken by lowest index so placement stays a
    total order.  Returns ``None`` when no candidate remains.
    """
    candidates = list(candidates)
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda board: (max(free_us.get(board, 0.0), arrival_us), board),
    )


def plan_fleet(
    requests: Tuple[FleetRequest, ...],
    boards: int,
    queue_depth: int = 6,
    batching: bool = True,
    batch_limit: int = 4,
) -> FleetPlan:
    """Schedule ``requests`` over ``boards`` boards (pure, deterministic)."""
    if boards < 1:
        raise ValueError("a fleet needs at least one board")
    if queue_depth < 1:
        raise ValueError("queue depth must be at least 1")
    states = [_BoardState(board) for board in range(boards)]
    #: bitstream key -> board that most recently queued it (affinity).
    affinity: Dict[Tuple[str, str, int, int], int] = {}
    #: bitstream key -> its open (possibly coalescable) job + board.
    open_jobs: Dict[Tuple[str, str, int, int], Tuple[int, PlannedJob]] = {}
    rejected: List[int] = []
    admitted = 0

    for request in requests:
        now_us = request.arrival_us
        key = request.bitstream_key

        if batching:
            open_entry = open_jobs.get(key)
            if open_entry is not None:
                board, job = open_entry
                if job.est_start_us > now_us:
                    # The load has not started: this request rides along.
                    job.members.append(request.index)
                    job.arrival_us = max(job.arrival_us, now_us)
                    admitted += 1
                    continue
                del open_jobs[key]

        home = affinity.get(key)
        if home is not None and states[home].depth(now_us) < queue_depth:
            choice = states[home]
        else:
            choice = min(
                states,
                key=lambda s: (s.depth(now_us), s.ready_us(now_us), s.board),
            )
        if choice.depth(now_us) >= queue_depth:
            rejected.append(request.index)
            continue

        job = PlannedJob(key=key, members=[request.index], arrival_us=now_us)
        choice.append(job, now_us)
        affinity[key] = choice.board
        if batching:
            open_jobs[key] = (choice.board, job)
        admitted += 1

    plans = []
    loads = 0
    for state in states:
        limit = batch_limit if batching else 1
        plans.append(
            BoardPlan(board=state.board, groups=_form_groups(state.jobs, limit))
        )
        loads += len(state.jobs)
    return FleetPlan(
        boards=plans,
        rejected=tuple(rejected),
        admitted=admitted,
        loads=loads,
    )
