"""The fleet planner: admission, queues, coalescing, dispatch groups."""

import pytest

from repro.fleet.scheduler import estimate_service_us, plan_fleet
from repro.fleet.workload import FleetRequest, build_workload


def _request(index, arrival_us, region="RP1", kind="crc32", param=0, pad=600_000):
    return FleetRequest(
        index=index,
        arrival_us=arrival_us,
        region=region,
        asp_kind=kind,
        asp_param=param,
        pad_to=pad,
    )


def test_plan_is_deterministic():
    requests = build_workload(5, 20.0)
    first = plan_fleet(requests, boards=3)
    second = plan_fleet(requests, boards=3)
    assert first.rejected == second.rejected
    assert [b.groups for b in first.boards] == [b.groups for b in second.boards]


def test_every_admitted_request_is_planned_exactly_once():
    requests = build_workload(9, 25.0)
    plan = plan_fleet(requests, boards=2, queue_depth=3)
    members = [
        member
        for board in plan.boards
        for job in board.jobs
        for member in job.members
    ]
    assert sorted(members + list(plan.rejected)) == list(range(len(requests)))
    assert len(members) == plan.admitted


def test_same_bitstream_requests_coalesce_onto_one_load():
    # Three identical requests land while the first is still queued
    # behind nothing — est start is at arrival, so the 2nd and 3rd
    # arrive after it began: queue a burst behind an earlier blocker.
    blocker = _request(0, 0.0, region="RP2", kind="fir")
    burst = [_request(i, 10.0 * i, region="RP1") for i in range(1, 4)]
    plan = plan_fleet((blocker, *burst), boards=1)
    assert plan.admitted == 4
    assert plan.loads == 2  # blocker + one coalesced RP1 load
    assert plan.coalesced == 2
    rp1_jobs = [job for job in plan.boards[0].jobs if job.region == "RP1"]
    assert len(rp1_jobs) == 1 and rp1_jobs[0].members == [1, 2, 3]


def test_batching_off_never_coalesces_and_never_groups():
    requests = build_workload(5, 20.0)
    plan = plan_fleet(requests, boards=2, batching=False)
    assert plan.coalesced == 0
    for board in plan.boards:
        assert all(len(group) == 1 for group in board.groups)


def test_bounded_queue_rejects_overload():
    # 12 distinct back-to-back requests, one board, queue depth 2:
    # service takes ~1.6 ms each, so arrivals 10 us apart overflow.
    requests = tuple(
        _request(i, 10.0 * i, region=f"RP{1 + i % 4}", param=i, pad=600_000)
        for i in range(12)
    )
    plan = plan_fleet(requests, boards=1, queue_depth=2, batching=False)
    assert plan.rejected  # overload must reject, not queue unboundedly
    assert plan.admitted + len(plan.rejected) == 12
    assert plan.admitted == 2


def test_dispatch_groups_hold_distinct_regions_within_limit():
    requests = build_workload(13, 30.0)
    plan = plan_fleet(requests, boards=2, batch_limit=3)
    for board in plan.boards:
        for group in board.groups:
            regions = [job.region for job in group]
            assert len(regions) == len(set(regions))
            assert 1 <= len(group) <= 3


def test_grouped_jobs_had_arrived_by_group_start():
    """A batch may only chain jobs that were queued when it dispatched."""
    requests = build_workload(13, 30.0)
    plan = plan_fleet(requests, boards=2)
    for board in plan.boards:
        end_est = 0.0
        for group in board.groups:
            start_est = max(end_est, group[0].arrival_us)
            for job in group:
                assert job.arrival_us <= start_est
            end_est = start_est + sum(
                estimate_service_us(job.key[3]) for job in group
            )


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        plan_fleet((), boards=0)
    with pytest.raises(ValueError):
        plan_fleet((), boards=1, queue_depth=0)
