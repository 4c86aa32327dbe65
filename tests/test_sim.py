"""Event-driven shaper simulator tests.

The heavy lifting is hand-computed event traces: transmission orders,
credit checkpoints, and exact end-to-end delays for small scenarios.
"""
import hashlib
import heapq
import json
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnwcd import cbs, cqf, sim
from tsnwcd.errors import CapacityError, HorizonError, ValidationError
from tsnwcd.minplus import frac
from tsnwcd.netmodel import (
    CBS,
    CQF,
    ES,
    SW,
    Flow,
    Link,
    NetworkConstants,
    Node,
    Route,
    TestCase,
    Topology,
    frame_bits,
    load_testcase,
)
from tsnwcd.testgen import RING, GenSpec, build_testcase


def star_tc(flow_specs, name="star", mechanism=CBS, hosts=None, **const_kw):
    """Hosts around one switch; flow_specs: (src, dst, period, payload)."""
    if hosts is None:
        hosts = sorted({s for s, *_ in flow_specs} | {d for _, d, *_ in flow_specs})
    nodes = [Node("s1", SW)] + [Node(h, ES) for h in hosts]
    links = [Link(h, "s1") for h in hosts]
    topo = Topology(nodes, links)
    flows = tuple(
        Flow(i, src, dst, frac(period), frac(50000), payload)
        for i, (src, dst, period, payload) in enumerate(flow_specs))
    routes = tuple(Route(f.id, (f.src, "s1", f.dst)) for f in flows)
    return TestCase(name, topo, flows, routes, mechanism,
                    NetworkConstants(**const_kw))


def chain_tc(n_switches, flow_specs, name="chain", mechanism=CQF, **const_kw):
    hops = ["es1"] + [f"s{i + 1}" for i in range(n_switches)] + ["es2"]
    nodes = [Node("es1", ES), Node("es2", ES)]
    nodes += [Node(h, SW) for h in hops[1:-1]]
    topo = Topology(nodes, [Link(a, b) for a, b in zip(hops, hops[1:])])
    flows = tuple(
        Flow(i, "es1", "es2", frac(period), frac(50000), payload)
        for i, (period, payload) in enumerate(flow_specs))
    routes = tuple(Route(f.id, tuple(hops)) for f in flows)
    return TestCase(name, topo, flows, routes, mechanism,
                    NetworkConstants(**const_kw))


def trace_value(trace, t):
    """Piecewise-linear read of a (t, credit) trace at time t."""
    t = frac(t)
    prev = (F(0), F(0))
    for pt, pc in trace:
        if pt > t:
            span = pt - prev[0]
            if span == 0:
                return pc
            return prev[1] + (pc - prev[1]) * (t - prev[0]) / span
        prev = (pt, pc)
    return prev[1]


def trace_slopes(trace):
    out = set()
    for (t1, c1), (t2, c2) in zip(trace, trace[1:]):
        if t2 > t1:
            out.add((c2 - c1) / (t2 - t1))
    return out


def physical_minimum(tc, fid):
    """Cut-through CBS serializes once, store-and-forward CQF once per
    link; every link adds propagation, every switch switching, and the
    sync error counts once."""
    c = tc.constants
    route = tc.route_for(fid)
    tx = frame_bits(tc.flow(fid), c) / c.link_rate
    sends = 1 if tc.mechanism == CBS else route.link_count
    return (sends * tx + c.propagation * route.link_count
            + c.switching * route.switch_count + c.sync_error)


# single-port harness: the two-AVB-queue priority scenario


def test_port_priority_replay_four_frames():
    # Frames 1 and 4 in the high queue, 2 in the low queue, 3 best effort,
    # all queued at t=0.  High transmits 1 and goes credit-negative, low
    # transmits 2, best effort transmits 3 while both credits are negative,
    # and 4 waits for the high credit to recover to zero.
    frames = [
        ("f1", 0, 1000, 0),
        ("f2", 1, 1000, 0),
        ("f3", None, 1000, 0),
        ("f4", 0, 1000, 0),
    ]
    tx, traces = sim.simulate_port(frames, 100, [(25, -75), (25, -75)])
    assert [label for label, *_ in tx] == ["f1", "f2", "f3", "f4"]
    assert [(s, e) for _, s, e in tx] == [
        (F(0), F(10)), (F(10), F(20)), (F(20), F(30)), (F(40), F(50))]
    high = traces[0]
    for t, want in [(0, 0), (10, -750), (20, -500), (30, -250), (40, 0)]:
        assert trace_value(high, t) == F(want)
    assert trace_slopes(high) <= {F(25), F(-75)}
    low = traces[1]
    assert trace_value(low, 10) == F(250)
    assert trace_value(low, 20) == F(-500)
    assert trace_value(low, 40) == F(0)


def test_port_empty_run_has_no_activity():
    tx, traces = sim.simulate_port([], 100, [(75, -25)])
    assert tx == []
    assert traces == {0: []}


def test_port_back_to_back_recovery_gaps():
    # Three frames queued together; each transmission ends at credit -250,
    # which takes 10/3 us to recover at slope 75.
    frames = [(lbl, 0, 1000, 0) for lbl in "abc"]
    tx, _ = sim.simulate_port(frames, 100, [(75, -25)])
    starts = [s for _, s, e in tx]
    assert starts == [F(0), F(40, 3), F(80, 3)]


def test_port_recovery_off_the_transmission_grid():
    # Slopes (70, -30): each 10us transmission ends at credit -300, which
    # takes 30/7 us to recover, so the starts fall on sevenths of a us.
    frames = [(lbl, 0, 1000, 0) for lbl in "abc"]
    tx, traces = sim.simulate_port(frames, 100, [(70, -30)])
    assert [s for _, s, _ in tx] == [F(0), F(100, 7), F(200, 7)]
    assert trace_value(traces[0], F(100, 7)) == 0
    assert trace_slopes(traces[0]) <= {F(70), F(-30), F(0)}


def test_port_single_dip_and_recovery_trace():
    tx, traces = sim.simulate_port([("a", 0, 1000, 0)], 100, [(75, -25)])
    trace = traces[0]
    assert trace_value(trace, 10) == F(-250)
    assert trace_value(trace, 10 + F(10, 3)) == F(0)
    assert trace_value(trace, 20) == F(0)
    assert trace_slopes(trace) <= {F(75), F(-25)}


# network CBS simulation


def test_cbs_single_frame_unloaded_delay():
    tc = star_tc([("h1", "h2", 2500, 965)])
    cfg = sim.SimConfig(horizon=F(25000))
    report = sim.simulate_cbs(tc, cfg)
    # serialization + 2 propagation + 1 switching + 1 sync margin
    assert report.per_flow_max_delay[0] == frac("84.56")
    assert report.per_flow_frame_count[0] == 9


def test_cbs_two_talker_fifo_blocking_hand_trace():
    # Both frames reach the switch port at t=2; the second waits out the
    # first transmission plus the credit recovery from -2014 at slope 75.
    tc = star_tc([("h1", "h3", 2500, 965), ("h2", "h3", 2500, 965)])
    cfg = sim.SimConfig(horizon=F(25000))
    report = sim.simulate_cbs(tc, cfg)
    assert report.per_flow_max_delay[0] == frac("84.56")
    assert report.per_flow_max_delay[1] == F(14398, 75)


def test_cbs_dominated_by_tfa_bound():
    tc = star_tc([("h1", "h3", 2500, 965), ("h2", "h3", 2500, 965),
                  ("h1", "h2", 1000, 400)])
    bound = cbs.tfa_solve(tc)
    for seed in (1, 2, 3):
        cfg = sim.SimConfig(horizon=F(50000), seed=seed,
                            release_policy=sim.RELEASE_JITTERED)
        report = sim.simulate_cbs(tc, cfg)
        for fid, delay in report.per_flow_max_delay.items():
            assert delay <= bound.e2e_wcd[fid]


def test_cbs_credit_trace_bounds_and_reset():
    # A saturating best-effort source blocks the talker port for a full
    # MTU frame; releasing the class frame right as the blocker starts
    # drives the credit to exactly idleSlope * blocking time = 9252.
    tc = star_tc([("h1", "h2", 2500, 965)])
    # back-to-back 12336-bit blockers start at 0, so releasing just after
    # the second one begins (123.36us grid) maximizes the wait
    cfg = sim.SimConfig(horizon=F(25000), be_saturate=True,
                        phases={0: frac("123.4")},
                        trace_ports=(("h1", "s1"),))
    trace = sim.credit_trace(tc, cfg, ("h1", "s1"))
    assert trace, "expected credit activity on the talker port"
    credits = [c for _, c in trace]
    assert max(credits) <= F(9252)          # idleSlope * blocker tx time
    assert max(credits) >= F(9249)          # approached to within the offset
    assert min(credits) >= F(-2014)
    # positive leftover credit with an empty queue resets discontinuously
    times = [t for t, _ in trace]
    jump_at = [t1 for (t1, c1), (t2, c2) in zip(trace, trace[1:])
               if t2 == t1 and c1 > 0 and c2 == 0]
    assert jump_at, "expected a reset-to-zero discontinuity"
    assert trace_slopes(trace) <= {F(75), F(-25), F(0)}
    assert times == sorted(times)


def test_cbs_recoveries_land_on_zero_with_seventh_slopes():
    # idleSlope 70, sendSlope -30: a recovery lasts 3/7 of the transmission
    # before it.  One class and no best effort, so a rising credit stops
    # only where it reaches exactly zero.
    tc = star_tc([("h1", "h3", 2500, 965), ("h2", "h3", 1000, 300),
                  ("h4", "h3", 5000, 64)], idle_slope_fraction=F(7, 10))
    bound = cbs.tfa_solve(tc)
    recoveries = 0
    for seed in (1, 2, 3):
        cfg = sim.SimConfig(horizon=F(50000), seed=seed,
                            release_policy=sim.RELEASE_JITTERED)
        trace = sim.credit_trace(tc, cfg, ("s1", "h3"))
        for (t1, c1), (t2, c2) in zip(trace, trace[1:]):
            if c1 < 0 and c2 > c1:
                recoveries += 1
                assert c2 == 0
                assert (c2 - c1) / (t2 - t1) == 70
        report = sim.simulate_cbs(tc, cfg)
        for fid, delay in report.per_flow_max_delay.items():
            assert physical_minimum(tc, fid) <= delay <= bound.e2e_wcd[fid]
    assert recoveries > 10


def test_cbs_be_saturation_still_dominated():
    tc = star_tc([("h1", "h3", 2500, 965), ("h2", "h3", 5000, 700)])
    bound = cbs.tfa_solve(tc)
    cfg = sim.SimConfig(horizon=F(50000), be_saturate=True)
    report = sim.simulate_cbs(tc, cfg)
    for fid, delay in report.per_flow_max_delay.items():
        assert delay <= bound.e2e_wcd[fid]


def test_cbs_unstable_port_overruns_horizon():
    # Ten 8056-bit frames per 1000us ask for 80.56 bits/us of a 75 bits/us
    # class allocation; the backlog outgrows the drain margin.
    specs = [(f"h{i}", "sink", 1000, 965) for i in range(1, 11)]
    tc = star_tc(specs)
    with pytest.raises(HorizonError):
        sim.simulate_cbs(tc, sim.SimConfig(horizon=F(100000)))


def test_cbs_empty_testcase():
    tc = star_tc([("h1", "h2", 2500, 965)])
    tc = TestCase(tc.name, tc.topology, (), (), CBS, tc.constants)
    report = sim.simulate_cbs(tc, sim.SimConfig(horizon=F(1000)))
    assert report.per_flow_max_delay == {}
    assert report.per_flow_frame_count == {}


def test_cbs_deterministic_for_fixed_seed():
    tc = star_tc([("h1", "h3", 2500, 965), ("h2", "h3", 1000, 300)])
    cfg = sim.SimConfig(horizon=F(30000), seed=42,
                        release_policy=sim.RELEASE_JITTERED)
    a = sim.report_to_json(sim.simulate_cbs(tc, cfg))
    b = sim.report_to_json(sim.simulate_cbs(tc, cfg))
    assert a == b


def test_cbs_rejects_wrong_mechanism():
    tc = chain_tc(1, [(1000, 100)], mechanism=CQF, cycle_T=F(50))
    with pytest.raises(ValidationError):
        sim.simulate_cbs(tc, sim.SimConfig(horizon=F(10000)))


def test_config_validation():
    with pytest.raises(ValidationError):
        sim.SimConfig(horizon=F(0))
    with pytest.raises(ValidationError):
        sim.SimConfig(horizon=F(100), release_policy="burst")
    with pytest.raises(ValidationError):
        sim.SimConfig(horizon=F(100), seed="abc")
    tc = star_tc([("h1", "h2", 2500, 965)])
    with pytest.raises(ValidationError):
        sim.simulate_cbs(tc, sim.SimConfig(horizon=F(24999)))


def test_phases_must_name_a_flow_and_lie_within_its_period():
    tc = star_tc([("h1", "h2", 2500, 965)])
    for phases in ({0: 2500}, {0: 10 ** 6}, {0: -1}, {999: 3}):
        with pytest.raises(ValidationError):
            sim.simulate_cbs(tc, sim.SimConfig(horizon=F(25000),
                                               phases=phases))
    report = sim.simulate_cbs(tc, sim.SimConfig(horizon=F(25000),
                                                phases={0: 2499}))
    assert report.per_flow_frame_count[0] == 8
    cqf_tc = chain_tc(1, [(1000, 100)], cycle_T=F(50))
    with pytest.raises(ValidationError):
        sim.simulate_cqf(cqf_tc, sim.SimConfig(horizon=F(10000),
                                               phases={0: 1000}))


def test_trace_port_must_carry_a_route():
    tc = star_tc([("h1", "h2", 2500, 965)])
    cfg = sim.SimConfig(horizon=F(25000), trace_ports=(("h2", "s1"),))
    with pytest.raises(ValidationError, match="h2->s1"):
        sim.simulate_cbs(tc, cfg)
    with pytest.raises(ValidationError):
        sim.credit_trace(tc, sim.SimConfig(horizon=F(25000)), ("s1", "h1"))


# event counts: a stand-in for the simulator's heapq records every push


class CountingHeap:
    def __init__(self):
        self.pushed = []

    def heappush(self, heap, item):
        self.pushed.append(item)
        heapq.heappush(heap, item)

    def __getattr__(self, name):
        return getattr(heapq, name)


@pytest.mark.parametrize("horizon", [25000, 250000])
def test_saturated_run_pushes_scale_with_frames_not_blockers(
        monkeypatch, horizon):
    # At 123.36us per MTU blocker the longer horizon holds about 4000
    # blockers across the two ports; none of them is an event of its own.
    tc = star_tc([("h1", "h2", 2500, 965)])
    heap = CountingHeap()
    monkeypatch.setattr(sim, "heapq", heap)
    report = sim.simulate_cbs(tc, sim.SimConfig(horizon=F(horizon),
                                                be_saturate=True))
    frames, hops, ports = report.per_flow_frame_count[0], 2, 2
    assert frames == horizon // 2500 - 1
    assert len(heap.pushed) <= 4 * (frames * hops + ports)


def test_unblocked_recovery_pushes_no_wakeup(monkeypatch):
    # One flow, one frame per period: every credit dip recovers long before
    # the next frame, so no frame waits on negative credit.
    tc = star_tc([("h1", "h2", 2500, 965)])
    heap = CountingHeap()
    monkeypatch.setattr(sim, "heapq", heap)
    trace = sim.credit_trace(tc, sim.SimConfig(horizon=F(25000)),
                             ("h1", "s1"))
    assert heap.pushed
    assert not [e for e in heap.pushed if e[1] == sim._RANK_WAKE]
    # the last frame leaves at 20000us; its -2014 bit dip still ends in the
    # peg at zero, at the exact tick the credit gets there at slope 75
    end = frac("20080.56")
    assert trace[-2:] == [(end, F(-2014)), (end + F(2014, 75), F(0))]


def test_saturating_run_ends_for_the_earliest_eligible_queue():
    # Two credit queues (idle 1, send -3 units per tick) behind a saturating
    # source of 10-tick frames.  A leaves queue 0 at credit -12, so B waits
    # for tick 16; C reaches queue 1 at 7, eligible at once.  The blocker
    # running at 7 ends at 14, so C goes then, ahead of B.
    port = sim._CbsPort(0, ("p", "q"), [(1, -3), (1, -3)], 10, True)
    starts = []

    def on_start(p, t, cls, item):
        starts.append((item[0], t))
        return 4

    eng = sim._CbsEngine([port], on_start, horizon=1000)
    for label, cls, t in (("A", 0, 0), ("B", 0, 5), ("C", 1, 7)):
        eng.push((t, sim._RANK_ARRIVE, 0, cls, label, 0, 0))
    eng.run()
    assert starts == [("A", 0), ("C", 14), ("B", 18)]


# network CQF simulation


def test_cqf_single_flow_hand_trace():
    tc = chain_tc(3, [(1000, 100)], cycle_T=F(50))
    report = sim.simulate_cqf(tc, sim.SimConfig(horizon=F(10000)))
    # 3 full cycles of waiting, one 11.36us transmission, final propagation,
    # sync margin
    assert report.per_flow_max_delay[0] == frac("163.36")
    assert report.per_flow_frame_count[0] == 9
    wcd = cqf.solve(tc).per_flow[0]["wcd_us"]
    assert report.per_flow_max_delay[0] <= wcd == F(205)


def test_cqf_two_flows_serialize_within_cycle():
    tc = chain_tc(1, [(1000, 100), (1000, 100)], cycle_T=F(50))
    report = sim.simulate_cqf(tc, sim.SimConfig(horizon=F(10000)))
    assert report.per_flow_max_delay[0] == frac("63.36")
    assert report.per_flow_max_delay[1] == frac("74.72")


def test_cqf_boundary_straddle_costs_one_cycle():
    tc = chain_tc(1, [(1000, 100)], cycle_T=F(50))
    before = sim.simulate_cqf(
        tc, sim.SimConfig(horizon=F(10000), phases={0: frac("49.9")}))
    after = sim.simulate_cqf(
        tc, sim.SimConfig(horizon=F(10000), phases={0: frac("50.1")}))
    d1 = before.per_flow_max_delay[0]
    d2 = after.per_flow_max_delay[0]
    assert d2 - d1 == F(50) - frac("0.2")


def test_cqf_overfull_cycle_raises():
    tc = chain_tc(1, [(1000, 965)], cycle_T=F(50))
    with pytest.raises(CapacityError):
        sim.simulate_cqf(tc, sim.SimConfig(horizon=F(10000)))


def test_cqf_frame_arriving_after_its_cycle_opened_raises():
    # 15us propagation + 1us switching after an 8.48us transmission: the
    # frame reaches s1 at 24.48us, after cycle 1 (which must forward it)
    # opened at 20us.  Forwarding it anyway reported 64.48us, below the
    # 73.44us that three transmissions and three links take.
    tc = chain_tc(2, [(1000, 64)], cycle_T=F(20), propagation=F(15))
    with pytest.raises(CapacityError, match="s1->s2 cycle 1"):
        sim.simulate_cqf(tc, sim.SimConfig(horizon=F(10000)))


def test_cqf_second_frame_arriving_late_raises():
    # The second of two back-to-back 8.48us frames reaches s1 at 20.96us,
    # inside cycle 1, which must already forward it.
    tc = chain_tc(1, [(1000, 64), (1000, 64)], cycle_T=F(20),
                  propagation=F(3))
    with pytest.raises(CapacityError, match="arrives at 20.96us"):
        sim.simulate_cqf(tc, sim.SimConfig(horizon=F(10000)))


def test_cqf_zero_flows_empty_report():
    tc = chain_tc(1, [(1000, 100)], cycle_T=F(50))
    tc = TestCase(tc.name, tc.topology, (), (), CQF, tc.constants)
    report = sim.simulate_cqf(tc, sim.SimConfig(horizon=F(1000)))
    assert report.per_flow_max_delay == {}


def test_cqf_jittered_needs_dividing_period():
    tc = chain_tc(1, [(1030, 100)], cycle_T=F(50))
    with pytest.raises(ValidationError):
        sim.simulate_cqf(tc, sim.SimConfig(
            horizon=F(103000), release_policy=sim.RELEASE_JITTERED))


def test_cqf_jittered_dominated_by_bound():
    tc = chain_tc(2, [(1000, 100), (500, 64), (1000, 150)], cycle_T=F(50))
    wcd = {fid: row["wcd_us"] for fid, row in cqf.solve(tc).per_flow.items()}
    for seed in (5, 6, 7):
        report = sim.simulate_cqf(tc, sim.SimConfig(
            horizon=F(10000), seed=seed,
            release_policy=sim.RELEASE_JITTERED))
        for fid, delay in report.per_flow_max_delay.items():
            assert delay <= wcd[fid]


@pytest.mark.parametrize("option,match", [
    ({"be_saturate": True}, "saturation"),
    ({"trace_ports": (("s1", "s2"),)}, "credit trace"),
])
def test_cqf_rejects_cbs_only_options(option, match):
    tc = chain_tc(2, [(1000, 100)], cycle_T=F(50))
    with pytest.raises(ValidationError, match=match):
        sim.simulate_cqf(tc, sim.SimConfig(horizon=F(10000), **option))


def test_cqf_deterministic_for_fixed_seed():
    tc = chain_tc(2, [(1000, 100), (500, 64)], cycle_T=F(50))
    cfg = sim.SimConfig(horizon=F(10000), seed=9,
                        release_policy=sim.RELEASE_JITTERED)
    assert (sim.report_to_json(sim.simulate_cqf(tc, cfg))
            == sim.report_to_json(sim.simulate_cqf(tc, cfg)))


# randomized dominance spot checks (the corpus-wide run lives in the
# acceptance suite)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32), payload=st.integers(64, 965),
       period=st.sampled_from([1000, 2500, 5000]))
def test_cbs_dominance_random(seed, payload, period):
    tc = star_tc([("h1", "h3", period, payload),
                  ("h2", "h3", 2500, 965)])
    bound = cbs.tfa_solve(tc)
    report = sim.simulate_cbs(tc, sim.SimConfig(
        horizon=F(20 * 5000), seed=seed,
        release_policy=sim.RELEASE_JITTERED))
    for fid, delay in report.per_flow_max_delay.items():
        assert physical_minimum(tc, fid) <= delay <= bound.e2e_wcd[fid]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32), payload=st.integers(64, 300))
def test_cqf_dominance_random(seed, payload):
    tc = chain_tc(2, [(1000, payload), (1000, 100)], cycle_T=F(100))
    wcd = {fid: row["wcd_us"] for fid, row in cqf.solve(tc).per_flow.items()}
    report = sim.simulate_cqf(tc, sim.SimConfig(
        horizon=F(10000), seed=seed, release_policy=sim.RELEASE_JITTERED))
    for fid, delay in report.per_flow_max_delay.items():
        assert physical_minimum(tc, fid) <= delay <= wcd[fid]


# report serialization


def test_sim_report_json_layout():
    tc = star_tc([("h1", "h2", 2500, 965)], name="solo")
    report = sim.simulate_cbs(tc, sim.SimConfig(horizon=F(25000)))
    doc = json.loads(sim.report_to_json(report))
    assert doc == {
        "testcase": "solo",
        "mechanism": "CBS",
        "seed": 0,
        "horizon_us": 25000,
        "release_policy": "synchronized",
        "flows": [{"id": 0, "frames": 9, "max_delay_us": 84.56}],
    }


def test_trace_csv_format():
    text = sim.trace_to_csv([(F(0), F(0)), (F(10), F(-250))])
    assert text == "t_us,credit_bits\n0.0,0.0\n10.0,-250.0\n"


# pinned bytes: the corpus reports, the saturated CBS corpus reports, three
# credit traces and two saturated rings traced on every port, recorded once
# and compared on every run; regenerate them only on purpose, with
# `PYTHONPATH=src python tests/test_sim.py`

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "sim_digests.json"
TRACE_CASES = (("TC1", False), ("TC11", True), ("TC21", False))
RING_SPECS = (GenSpec(RING, 6, 3, 40, payload_range=(64, 700), seed=1),
              GenSpec(RING, 5, 3, 30, payload_range=(64, 700), seed=3))


def _busiest_port(tc):
    use = Counter(p for r in tc.routes for p in r.ports)
    return min(use, key=lambda p: (-use[p], p))


def sim_digests():
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    out = {"reports": {}, "traces": {}}
    for i in range(1, 31):
        tc = load_testcase(CORPUS_DIR / f"TC{i}")
        run = sim.simulate_cbs if tc.mechanism == CBS else sim.simulate_cqf
        horizon = 20 * max(f.period for f in tc.flows)
        for policy in (sim.RELEASE_SYNCHRONIZED, sim.RELEASE_JITTERED):
            cfg = sim.SimConfig(horizon=horizon, seed=3,
                                release_policy=policy)
            out["reports"][f"{tc.name}/{policy}"] = sha(
                sim.report_to_json(run(tc, cfg)))
    for name, saturate in TRACE_CASES:
        tc = load_testcase(CORPUS_DIR / name)
        cfg = sim.SimConfig(horizon=20 * max(f.period for f in tc.flows),
                            seed=3, release_policy=sim.RELEASE_JITTERED,
                            be_saturate=saturate)
        trace = sim.credit_trace(tc, cfg, _busiest_port(tc))
        out["traces"][name] = sha(sim.trace_to_csv(trace))
    for i in range(1, 31):
        tc = load_testcase(CORPUS_DIR / f"TC{i}")
        if tc.mechanism == CBS:
            cfg = sim.SimConfig(horizon=20 * max(f.period for f in tc.flows),
                                seed=3, release_policy=sim.RELEASE_JITTERED,
                                be_saturate=True)
            out["reports"][f"{tc.name}/jittered/saturated"] = sha(
                sim.report_to_json(sim.simulate_cbs(tc, cfg)))
    for spec in RING_SPECS:
        tc = build_testcase(f"ring{spec.switch_count}x{spec.hosts_per_switch}"
                            f"s{spec.seed}", spec, CBS, NetworkConstants())
        ports = sorted({p for r in tc.routes for p in r.ports})
        cfg = sim.SimConfig(horizon=10 * max(f.period for f in tc.flows),
                            seed=3, release_policy=sim.RELEASE_JITTERED,
                            be_saturate=True, trace_ports=ports)
        report = sim.simulate_cbs(tc, cfg)
        out["reports"][f"{tc.name}/jittered/saturated"] = sha(
            sim.report_to_json(report))
        out["traces"][f"{tc.name}/all_ports"] = sha("".join(
            f"{t},{a},{b},{c}\n" for t, (a, b), c in report.credit_trace))
    return out


def test_simulator_bytes_match_pinned_digests():
    pinned = json.loads(DIGESTS_PATH.read_text())
    assert sim_digests() == pinned


if __name__ == "__main__":
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(sim_digests(), indent=2,
                                       sort_keys=True) + "\n")
