"""Property-based tests for the bank-aware DRAM controller.

Hypothesis generates multi-master request streams and drives them
through a :class:`BankDramController` with an attached
:class:`InvariantMonitor`; the bank-machine protocol invariants
(ACTIVATE-before-CAS, single open row, closed-page precharge), the
refresh conservation laws, and the per-master ledger conservation must
hold for *every* stream, not just the hand-picked unit cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import BankDramController, BankTiming, DramDevice
from repro.sim import Simulator
from repro.verify import InvariantMonitor

DEVICE_BYTES = DramDevice().size_bytes

#: One request: (master index, address slot, size, is_write, gap_ns).
_REQUESTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=4095),
        st.sampled_from([64, 256, 1024]),
        st.booleans(),
        st.floats(min_value=0.0, max_value=5000.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)

_POLICY = st.sampled_from(["open", "closed"])
_MODE = st.sampled_from(["off", "lazy", "engine"])


def _run_stream(requests, page_policy, refresh_mode):
    """Drive the generated stream; return (controller, monitor, sim)."""
    sim = Simulator()
    controller = BankDramController(
        sim,
        DramDevice(),
        timing=BankTiming(trp_ns=50.0, trefi_ns=7800.0, trfc_ns=160.0),
        page_policy=page_policy,
        refresh_mode=refresh_mode,
    )
    monitor = InvariantMonitor()
    controller.monitor = monitor
    by_master = {}
    for master, slot, size, is_write, gap in requests:
        by_master.setdefault(f"m{master}", []).append((slot, size, is_write, gap))

    def drive(sim, name, work):
        for slot, size, is_write, gap in work:
            if gap > 0:
                yield sim.timeout(gap)
            addr = (slot * 4096) % (DEVICE_BYTES - size)
            if is_write:
                yield controller.write(addr, bytes(size), master=name)
            else:
                yield controller.read(addr, size, master=name)

    for name, work in sorted(by_master.items()):
        sim.process(drive(sim, name, work))
    sim.run()
    return controller, monitor, sim


@given(requests=_REQUESTS, page_policy=_POLICY, refresh_mode=_MODE)
@settings(max_examples=60, deadline=None)
def test_bank_protocol_invariants_hold_for_any_stream(
    requests, page_policy, refresh_mode
):
    controller, monitor, sim = _run_stream(requests, page_policy, refresh_mode)
    monitor.check_dram_quiescent(controller, sim.now)
    assert monitor.ok, monitor.violations
    assert monitor.counts.checks >= 4 * len(requests)


@given(requests=_REQUESTS, page_policy=_POLICY)
@settings(max_examples=40, deadline=None)
def test_every_access_is_classified_exactly_once(requests, page_policy):
    controller, monitor, _ = _run_stream(requests, page_policy, "off")
    counts = controller.counts
    classified = counts.row_hits + counts.row_misses + counts.row_conflicts
    assert classified == len(requests)
    assert counts.requests_served == len(requests)
    if page_policy == "closed":
        assert counts.row_hits == 0
        assert counts.row_conflicts == 0


@given(requests=_REQUESTS, refresh_mode=_MODE)
@settings(max_examples=40, deadline=None)
def test_master_ledger_conserves_bytes_and_waits(requests, refresh_mode):
    controller, _, _ = _run_stream(requests, "open", refresh_mode)
    ledgers = controller.masters
    assert set(ledgers) == {f"m{m}" for m, *_ in requests}
    moved = controller.counts.bytes_read + controller.counts.bytes_written
    assert sum(ledger.bytes for ledger in ledgers.values()) == moved
    assert moved == sum(size for _, _, size, _, _ in requests)
    wait = sum(ledger.wait_ns for ledger in ledgers.values())
    assert abs(wait - controller.counts.queue_wait_ns) < 1e-6
    assert sum(ledger.requests for ledger in ledgers.values()) == len(requests)


@given(requests=_REQUESTS)
@settings(max_examples=30, deadline=None)
def test_engine_refresh_covers_every_window(requests):
    controller, _, sim = _run_stream(requests, "open", "engine")
    controller.sync_refresh()
    assert controller.counts.refreshes_completed == int(
        sim.now // controller.timing.trefi_ns
    )
    assert controller.counts.refresh_stall_ns >= 0.0


@given(requests=_REQUESTS, page_policy=_POLICY)
@settings(max_examples=30, deadline=None)
def test_at_most_one_row_open_per_bank_at_quiescence(requests, page_policy):
    controller, _, _ = _run_stream(requests, page_policy, "off")
    device = controller.device
    for bank in range(device.timing.banks):
        row = device.open_row(bank)
        if page_policy == "closed":
            assert row is None
        else:
            assert row is None or isinstance(row, int)


@given(requests=_REQUESTS)
@settings(max_examples=20, deadline=None)
def test_monitor_flags_seeded_protocol_violation(requests):
    """Sanity: the monitor is not vacuous — force a second open row by
    mutating device state behind the controller's back and the
    single-open-row probe must fire on the next access."""
    sim = Simulator()
    controller = BankDramController(sim, DramDevice(), refresh_mode="off")
    monitor = InvariantMonitor(raise_on_violation=False)
    controller.monitor = monitor

    real_access = controller.device.bank_access

    def tampered(addr, size, policy):
        outcome, bank, row, open_before = real_access(addr, size, policy)
        controller.device._open_rows[bank] = row + 1  # corrupt post-state
        return outcome, bank, row, open_before

    controller.device.bank_access = tampered

    def driver(sim):
        yield controller.read(0, 64)

    sim.process(driver(sim))
    sim.run()
    assert not monitor.ok
    assert any("dram.single_open_row" in v for v in monitor.violations)
