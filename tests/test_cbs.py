"""CBS analysis tests.

Credit-bound and curve-construction hand values, the token-bucket port
aggregate against the general min-plus oracle, the closed-form port delay
against the general horizontal deviation, a fully hand-computed
single-switch fixed point, every port's delay as the fixed point of its
rebuilt aggregate (the per-component passes evaluating each port once on
feed-forward cases, and reaching the least fixed point of the rounded map
on cyclic ones, under default and non-default constants and periods), the
port order's components, the passes' grid ticks against plain sweeps and
the end-to-end sums of the reported delays on generated one-way rings, the
exact evaluation counts, the evaluation cap, instability detection, report
serialization against the reference writer and pinned report bytes.
"""
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from tsnwcd import cbs, minplus, netmodel as nm, sim, testgen
from tsnwcd.errors import (
    ConvergenceError,
    InstabilityError,
    ValidationError,
)
from tsnwcd.minplus import (
    Curve,
    RateLatency,
    TokenBucket,
    frac,
    h_dev,
    shift_delay,
)

F = Fraction

C = F(100)          # bits/us
IDSL = F(75)
SDSL = F(-25)
AVB_FRAME = (965 + 42) * 8      # 8056 bits
BE_FRAME = (1500 + 42) * 8      # 12336 bits


def single_class_cfg(l_max_class=AVB_FRAME, l_max_lower=BE_FRAME):
    return cbs.CbsClassConfig(1, IDSL, SDSL, l_max_class, l_max_lower)


def star_tc(flows, routes, name="t", constants=nm.NetworkConstants()):
    nodes = [nm.Node("h1", "es"), nm.Node("h2", "es"), nm.Node("h3", "es"),
             nm.Node("sw1", "sw")]
    links = [nm.Link("h1", "sw1"), nm.Link("h2", "sw1"), nm.Link("h3", "sw1")]
    topo = nm.Topology(nodes, links)
    return nm.TestCase(name, topo, tuple(flows), tuple(routes), "CBS",
                       constants)


# constants and periods that the defaults never give: a link rate, idle
# slope and propagation with denominators, and periods that are not whole
ODD_CONSTANTS = nm.NetworkConstants(link_rate=F(1000, 3),
                                    idle_slope_fraction=F(7, 9),
                                    propagation=F(1, 3))
ODD_PERIODS = (F(1000, 7), F(2500, 7), F(5000, 3))


def odd_tc(case):
    """A star built by hand, an acyclic mesh or a cyclic ring, under
    ODD_CONSTANTS with ODD_PERIODS."""
    if case == "star_odd":
        flows = [nm.Flow(0, "h1", "h2", F(1000, 7), 5000, 300),
                 nm.Flow(1, "h3", "h2", F(2500, 7), 5000, 700),
                 nm.Flow(2, "h1", "h3", F(5000, 3), 5000, 64),
                 nm.Flow(3, "h2", "h1", F(1000, 7), 5000, 500)]
        routes = [nm.Route(0, ("h1", "sw1", "h2")),
                  nm.Route(1, ("h3", "sw1", "h2")),
                  nm.Route(2, ("h1", "sw1", "h3")),
                  nm.Route(3, ("h2", "sw1", "h1"))]
        return star_tc(flows, routes, case, ODD_CONSTANTS)
    kind, switches, hosts, flows, seed = {
        "mesh_odd": ("medium_mesh", 6, 3, 40, 1),
        "ring_odd": ("ring", 5, 2, 16, 16)}[case]
    spec = testgen.GenSpec(kind, switches, hosts, flows,
                           period_choices=ODD_PERIODS,
                           payload_range=(64, 700), seed=seed)
    return testgen.build_testcase(case, spec, nm.CBS, ODD_CONSTANTS)


# ======================================================================
# credit bounds and curves

def test_credit_bounds_hand_values():
    c_min, c_max = cbs.credit_bounds(single_class_cfg(), C)
    assert c_min == -2014
    assert c_max == 9252


def test_credit_min_scales_with_class_frame():
    for l in (F(1), F(100), F(8056)):
        c_min, _ = cbs.credit_bounds(single_class_cfg(l_max_class=l), C)
        assert c_min == SDSL * l / C


def test_credit_bounds_rejects_inconsistent_slopes():
    cfg = cbs.CbsClassConfig(1, IDSL, F(-30), AVB_FRAME, BE_FRAME)
    with pytest.raises(ValidationError):
        cbs.credit_bounds(cfg, C)
    with pytest.raises(ValidationError):
        cbs.credit_bounds(cbs.CbsClassConfig(1, 100, -1, 10, 10), F(99))


def test_service_curve_hand_value():
    got = cbs.cbs_service_curve(single_class_cfg(), C)
    assert got == RateLatency(IDSL, F(9252, 75))
    assert got.latency == frac(123.36)


def test_service_curve_zero_latency_without_lower_traffic():
    cfg = single_class_cfg(l_max_lower=F(0))
    assert cbs.cbs_service_curve(cfg, C) == RateLatency(IDSL, 0)


def test_source_arrival_hand_value():
    f = nm.Flow(0, "a", "b", 2500, 709, 965)
    tb = cbs.source_arrival(f, nm.NetworkConstants())
    assert tb == TokenBucket(8056, F(8056, 2500))
    assert tb.rate == frac(3.2224)


def test_source_arrival_linearity():
    consts = nm.NetworkConstants(frame_overhead=0)
    one = cbs.source_arrival(nm.Flow(0, "a", "b", 1000, 1, 100), consts)
    two = cbs.source_arrival(nm.Flow(1, "a", "b", 1000, 1, 200), consts)
    assert two.burst == 2 * one.burst
    assert two.rate == 2 * one.rate


def test_link_shaping_form():
    got = cbs.link_shaping(C, AVB_FRAME)
    assert got == TokenBucket(8056, 100)
    assert got.burst == AVB_FRAME
    assert got.rate == C


def test_cbs_shaping_hand_value():
    got = cbs.cbs_shaping(single_class_cfg(), C, AVB_FRAME)
    assert got == TokenBucket(19322, IDSL)


def test_cbs_shaping_without_credit_range():
    cfg = cbs.CbsClassConfig(1, IDSL, SDSL, F(1, 10**9), F(0))
    got = cbs.cbs_shaping(cfg, C, 500)
    # c_max = 0 and c_min almost 0: burst is essentially the link frame
    assert got.rate == IDSL
    assert 500 < got.burst < F(501)


def test_aggregate_arrival_empty_and_single_flow():
    assert oracles.aggregate_arrival([]) == Curve.zero()
    tb = TokenBucket(8056, F(8056, 2500)).curve()
    group = oracles.SourceGroup((tb,), cbs.link_shaping(C, AVB_FRAME))
    assert oracles.aggregate_arrival([group]) == tb


def test_aggregate_arrival_two_predecessors_sum():
    tb1 = TokenBucket(1000, 1).curve()
    tb2 = TokenBucket(2000, 2).curve()
    cap = cbs.link_shaping(C, 500).curve()
    got = oracles.aggregate_arrival(
        [oracles.SourceGroup((tb1,), cap), oracles.SourceGroup((tb2,), cap)])
    for t in (F(0), F(1, 2), F(3), F(50)):
        want = (min(tb1.value(t), cap.value(t))
                + min(tb2.value(t), cap.value(t)))
        assert got.value(t) == want


# ======================================================================
# closed-form port delay

amounts = st.fractions(min_value=0, max_value=20000, max_denominator=8)
pos_amounts = st.fractions(min_value=1, max_value=20000, max_denominator=8)
rates = st.fractions(min_value=0, max_value=50, max_denominator=8)
pos_rates = st.fractions(min_value=F(1, 8), max_value=150, max_denominator=8)


@st.composite
def cbs_aggregates(draw):
    """Class aggregates as tfa_solve builds them: per predecessor, shifted
    token buckets capped by a link and maybe a CBS shaping curve."""
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        arrivals = tuple(
            shift_delay(TokenBucket(draw(pos_amounts), draw(rates)),
                        draw(st.fractions(0, 500, max_denominator=8)))
            for _ in range(draw(st.integers(1, 4))))
        link_rate = draw(pos_rates) + 1
        link_cap = cbs_cap = None
        if draw(st.booleans()):
            link_cap = cbs.link_shaping(link_rate, draw(pos_amounts))
        if draw(st.booleans()):
            idsl = link_rate * draw(st.fractions(F(1, 10), F(9, 10),
                                                 max_denominator=10))
            cfg = cbs.CbsClassConfig(1, idsl, idsl - link_rate,
                                     draw(pos_amounts), draw(amounts))
            cbs_cap = cbs.cbs_shaping(cfg, link_rate, draw(pos_amounts))
        groups.append(oracles.SourceGroup(arrivals, link_cap, cbs_cap))
    return oracles.aggregate_arrival(groups)


@given(cbs_aggregates(), pos_rates,
       st.fractions(min_value=0, max_value=300, max_denominator=8))
@settings(deadline=None)
def test_rate_latency_delay_equals_h_dev(alpha, extra_rate, latency):
    service = RateLatency(alpha.final_slope + extra_rate, latency)
    assert (oracles.rate_latency_delay(alpha.segments, service)
            == h_dev(alpha, service.curve()))


def test_rate_latency_delay_edge_cases():
    service = RateLatency(2, 5)
    # nothing ever arrives: no delay, although the latency is positive
    assert oracles.rate_latency_delay(Curve.zero().segments, service) == 0
    # traffic that starts late and slowly never waits for the latency
    late = Curve([(0, 0, 0), (10, 0, 1)])
    assert oracles.rate_latency_delay(late.segments, service) == 0
    assert h_dev(late, service.curve()) == 0
    with pytest.raises(InstabilityError):
        oracles.rate_latency_delay(TokenBucket(1, 3).curve().segments, service)


# ======================================================================
# token-bucket port aggregate against the general min-plus oracle

def check_against_oracle(members_per_group, caps_per_group, extra_rate,
                         latency):
    """members: (bucket, upstream delay) pairs; caps: TokenBuckets.  On the
    integer path tfa_solve takes on a feed-forward graph, every rate an int
    over the rates' lcm denominator and every burst one over the port's
    burst denominators, the aggregate must equal the oracle's curve
    exactly, and its delay at a server extra_rate above the aggregate rate
    the oracle's horizontal deviation."""
    oracle_groups, line_groups = [], []
    for members, caps in zip(members_per_group, caps_per_group):
        oracle_groups.append(oracles.SourceGroup(
            tuple(shift_delay(tb, d) for tb, d in members), *caps))
        bucket = (sum(tb.burst + tb.rate * d for tb, d in members),
                  sum(tb.rate for tb, _ in members))
        line_groups.append([bucket] + [(c.burst, c.rate) for c in caps])
    oracle = oracles.aggregate_arrival(oracle_groups)
    service = RateLatency(oracle.final_slope + extra_rate, latency)
    delay = h_dev(oracle, service.curve())
    lines = [line for group in line_groups for line in group]
    scale = math.lcm(*(F(b).denominator for b, _ in lines))
    rate_den = math.lcm(service.rate.denominator,
                        *(F(r).denominator for _, r in lines))
    scaled = [oracles.group_envelope([(int(b * scale), int(r * rate_den))
                                  for b, r in group])
              for group in line_groups]
    segments = cbs.aggregate_segments(scaled, F(1, scale), F(1, rate_den))
    assert tuple(segments) == oracle.segments
    assert Curve(segments) == oracle
    assert Curve.from_canonical(segments) == Curve(segments)
    assert oracles.rate_latency_delay(segments, service) == delay
    backlog = F(*cbs._peak_excess(scaled, int(service.rate * rate_den)))
    assert service.latency + backlog / (scale * service.rate) == delay
    # the peak backlog in Fractions is the same, in bits
    envelopes = [oracles.group_envelope(lines) for lines in line_groups]
    assert F(*cbs._peak_excess(envelopes, service.rate)) * scale == backlog


def test_max_backlog_hand_values():
    # bucket 10 + t under a cap 4 + 2t: the aggregate bends at t = 6, 16
    envelope = oracles.group_envelope([(10, 1), (4, 2)])
    assert envelope[1:] == (2, [(6, 1, 1)])

    def backlog(rate):
        return F(*cbs._peak_excess([envelope], rate))

    assert backlog(3) == 4          # peak at 0+
    assert backlog(F(3, 2)) == 16 - 9
    assert backlog(1) == 16 - 6
    with pytest.raises(InstabilityError):
        backlog(F(1, 2))


CAP_KINDS = ("free", "equal_rate", "never_crosses", "coincides")


@st.composite
def port_groups(draw):
    """Per group: shifted member buckets and up to two caps, each cap free
    or tied to the group's summed bucket (same rate, above it everywhere,
    or the very same line)."""
    members_per_group, caps_per_group = [], []
    for _ in range(draw(st.integers(1, 3))):
        # upstream delays as exact as a feed-forward pass leaves them
        members = [(TokenBucket(draw(pos_amounts), draw(rates)),
                    draw(st.fractions(0, 500, max_denominator=10**9)))
                   for _ in range(draw(st.integers(1, 4)))]
        burst = sum(tb.burst + tb.rate * d for tb, d in members)
        rate = sum(tb.rate for tb, _ in members)
        caps = []
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(CAP_KINDS))
            if kind == "free":
                caps.append(TokenBucket(draw(pos_amounts), draw(pos_rates)))
            elif kind == "equal_rate":
                caps.append(TokenBucket(draw(pos_amounts), rate))
            elif kind == "never_crosses":
                caps.append(TokenBucket(burst + draw(amounts),
                                        rate + draw(rates)))
            else:
                caps.append(TokenBucket(burst, rate))
        members_per_group.append(members)
        caps_per_group.append(caps)
    return members_per_group, caps_per_group


@given(port_groups(), pos_rates,
       st.fractions(min_value=0, max_value=300, max_denominator=8))
@settings(deadline=None)
def test_aggregate_segments_equal_oracle(groups, extra_rate, latency):
    check_against_oracle(*groups, extra_rate, latency)


@pytest.mark.parametrize("members, caps", [
    # local-only port: two sourced flows, no caps
    ([[(TokenBucket(800, 2), 0), (TokenBucket(400, 1), 0)]], [[]]),
    # cap with the bucket's rate, below it: the cap is the whole group
    ([[(TokenBucket(800, 2), 10)]], [[TokenBucket(500, 2)]]),
    # cap with the bucket's rate, above it: the bucket is the whole group
    ([[(TokenBucket(800, 2), 10)]], [[TokenBucket(900, 2)]]),
    # cap above the bucket and steeper: it never crosses
    ([[(TokenBucket(800, 2), 0)]], [[TokenBucket(800, 3)]]),
    # cap coinciding with the shifted bucket
    ([[(TokenBucket(800, 2), 10)]], [[TokenBucket(820, 2)]]),
    # link and CBS caps meeting the bucket at one point
    ([[(TokenBucket(100, 1), 0)]], [[TokenBucket(0, 11), TokenBucket(50, 6)]]),
    # two groups breaking at the same time, and a local group
    ([[(TokenBucket(100, 1), 0)], [(TokenBucket(100, 1), 0)],
      [(TokenBucket(7, F(1, 3)), 0)]],
     [[TokenBucket(10, 10)], [TokenBucket(10, 10)], []]),
])
def test_aggregate_segments_ties(members, caps):
    check_against_oracle(members, caps, F(1, 2), F(9252, 75))


def test_tfa_uses_no_general_curve_algebra(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("general curve algebra called")

    for name in ("sum_of", "min_of", "shift_delay", "_envelope"):
        monkeypatch.setattr(minplus, name, forbidden)
    # one feed-forward pass on the mesh, cyclic sweeps on the ring
    for kind, seed in (("medium_mesh", 1), ("ring", 2)):
        spec = testgen.GenSpec(kind, 6, 3, 40, payload_range=(64, 700),
                               seed=seed)
        tc = testgen.build_testcase(kind, spec, nm.CBS, nm.NetworkConstants())
        report = cbs.tfa_solve(tc)
        assert report.converged
        assert (report.iterations > 1) == (kind == "ring")


# ======================================================================
# fixed point on a single switch, fully hand-checked

def test_tfa_single_flow_hand_computed():
    flow = nm.Flow(0, "h1", "h2", 1000, 5000, 100)
    tc = star_tc([flow], [nm.Route(0, ("h1", "sw1", "h2"))])
    report = cbs.tfa_solve(tc)
    assert report.converged
    assert report.iterations == 1

    l_f = F((100 + 42) * 8)          # 1136 bits
    rho = l_f / 1000
    latency = F(9252, 75)
    d0 = latency + l_f / IDSL        # talker port: plain T + b/R
    # switch port: arrival is min(shifted bucket, link shaping); the
    # horizontal deviation peaks where the link line meets the bucket line
    b_shifted = l_f + rho * d0
    t_cross = (b_shifted - l_f) / (C - rho)
    candidates = [
        latency + l_f / IDSL,
        latency + (l_f + C * t_cross) / IDSL - t_cross,
    ]
    d1 = max(candidates)

    hops = report.per_flow_hops[0]
    assert hops == [(("h1", "sw1"), d0), (("sw1", "h2"), d1)]
    want_e2e = d0 + d1 + 2 * 1 + 1 * 1 + 1
    assert report.e2e_wcd[0] == want_e2e
    # delay bounds are recomputable from the stored curves
    service = oracles.tfa_service(tc.constants)
    for pa in report.per_port.values():
        assert h_dev(pa.arrival, service) == pa.delay_bound


def test_tfa_zero_flows():
    tc = star_tc([], [])
    report = cbs.tfa_solve(tc)
    assert report.converged
    assert report.iterations == 1
    assert report.e2e_wcd == {}
    assert report.per_port == {}


def test_tfa_ten_flow_chain_converges_fast():
    flows, routes = [], []
    for i in range(10):
        src, dst = ("h1", "h2") if i % 2 == 0 else ("h2", "h3")
        flows.append(nm.Flow(i, src, dst, 5000, 5000, 64 + 10 * i))
        routes.append(nm.Route(i, (src, "sw1", dst)))
    report = cbs.tfa_solve(star_tc(flows, routes))
    assert report.converged
    assert report.iterations == 1    # feed-forward: one topological pass
    assert all(d > 0 for d in report.e2e_wcd.values())


def test_tfa_adding_a_flow_never_reduces_bounds():
    base_flows = [nm.Flow(0, "h1", "h2", 2000, 5000, 200),
                  nm.Flow(1, "h3", "h2", 2500, 5000, 300)]
    base_routes = [nm.Route(0, ("h1", "sw1", "h2")),
                   nm.Route(1, ("h3", "sw1", "h2"))]
    extra = nm.Flow(2, "h1", "h2", 1000, 5000, 500)
    base = cbs.tfa_solve(star_tc(base_flows, base_routes))
    grown = cbs.tfa_solve(star_tc(
        base_flows + [extra], base_routes + [nm.Route(2, ("h1", "sw1", "h2"))]))
    for port, pa in base.per_port.items():
        assert grown.per_port[port].delay_bound >= pa.delay_bound
    for fid in (0, 1):
        assert grown.e2e_wcd[fid] >= base.e2e_wcd[fid]


def test_tfa_instability_reports_port():
    # one MTU frame every 100us is 123.36 bits/us, beyond the 75 idle slope
    flow = nm.Flow(0, "h1", "h2", 100, 5000, 1500)
    tc = star_tc([flow], [nm.Route(0, ("h1", "sw1", "h2"))])
    with pytest.raises(InstabilityError, match="h1->sw1"):
        cbs.tfa_solve(tc)
    # a second overloaded talker on the same acyclic star: every port at or
    # above the idle slope is named, the lightly loaded ones are not
    flows = [flow, nm.Flow(1, "h3", "h1", 100, 5000, 1500),
             nm.Flow(2, "h2", "h3", 5000, 5000, 100)]
    routes = [nm.Route(0, ("h1", "sw1", "h2")),
              nm.Route(1, ("h3", "sw1", "h1")),
              nm.Route(2, ("h2", "sw1", "h3"))]
    with pytest.raises(InstabilityError) as err:
        cbs.tfa_solve(star_tc(flows, routes))
    assert str(err.value).endswith(
        "port(s) h1->sw1, h3->sw1, sw1->h1, sw1->h2")


def test_tfa_instability_at_exact_idle_slope():
    l = F((1500 + 42) * 8)
    flow = nm.Flow(0, "h1", "h2", l / IDSL, 5000, 1500)
    tc = star_tc([flow], [nm.Route(0, ("h1", "sw1", "h2"))])
    with pytest.raises(InstabilityError):
        cbs.tfa_solve(tc)
    # under ODD_CONSTANTS, idleSlope 7000/27 bits/us: a frame of 1136 bits
    # every 1136 / idleSlope us, on every port of its route
    idsl = ODD_CONSTANTS.idle_slope_fraction * ODD_CONSTANTS.link_rate
    flow = nm.Flow(0, "h1", "h2", (100 + 42) * 8 / idsl, 5000, 100)
    assert flow.period.denominator != 1
    tc = star_tc([flow], [nm.Route(0, ("h1", "sw1", "h2"))],
                 constants=ODD_CONSTANTS)
    with pytest.raises(InstabilityError) as err:
        cbs.tfa_solve(tc)
    assert str(err.value) == (
        "t: aggregate rate reaches the idle slope at port(s) h1->sw1, "
        "sw1->h2")


def test_tfa_rejects_cqf_testcase():
    flow = nm.Flow(0, "h1", "h2", 1000, 5000, 100)
    topo = star_tc([flow], [nm.Route(0, ("h1", "sw1", "h2"))]).topology
    tc = nm.TestCase("x", topo, (flow,), (nm.Route(0, ("h1", "sw1", "h2")),),
                     "CQF", nm.NetworkConstants(cycle_T=50))
    with pytest.raises(ValidationError, match="CBS"):
        cbs.tfa_solve(tc)


@pytest.mark.parametrize("case", [
    # a mesh on which sweeps stopped by a tolerance ended below the fixed
    # point, and cyclic rings on which they did too
    "mesh_12x4_80_s1432080079", "ring", "ring_6x3_60_s2",
    "ring_6x4_65_s1473067262", "ring_8x3_65_s58824847",
    # every integer scale under non-default constants and periods
    "star_odd", "mesh_odd", "ring_odd",
])
def test_tfa_delays_are_the_fixed_point(case):
    # every port's aggregate, rebuilt from the reported delays, is the one
    # reported, and its delay bound is that aggregate's, rounded up to the
    # grid only on a cyclic port graph
    if case.endswith("_odd"):
        tc = odd_tc(case)
    elif case == "ring":
        tc = ring_tc()
    elif case.startswith("ring"):
        tc = pinned_tc(case)
    else:
        spec = testgen.GenSpec("medium_mesh", 12, 4, 80,
                               payload_range=(64, 700), seed=1432080079)
        tc = testgen.build_testcase(case, spec, nm.CBS, nm.NetworkConstants())
    cyclic = port_order(tc)[1]
    assert cyclic == case.startswith("ring")
    report = cbs.tfa_solve(tc)
    assert report.converged
    assert (report.iterations == 1) != cyclic
    if case.startswith("ring_") and not case.endswith("_odd"):
        # per-component passes: each ring port is evaluated about twice
        # (test_tfa_evaluation_counts pins the exact counts)
        assert report.iterations == 2
    delay = {p: pa.delay_bound for p, pa in report.per_port.items()}
    service = oracles.tfa_service(tc.constants)
    for port, pa in report.per_port.items():
        alpha = oracles.rebuilt_aggregate(tc, delay, port)
        assert alpha == pa.arrival
        want = h_dev(alpha, service)
        if cyclic:
            want = math.ceil(want / cbs.CYCLIC_GRID) * cbs.CYCLIC_GRID
        assert pa.delay_bound == want


# ======================================================================
# cyclic port dependencies (ring routing)

def ring_tc():
    nodes = [nm.Node(f"r{i}", "sw") for i in (1, 2, 3)]
    nodes += [nm.Node(f"a{i}", "es") for i in (1, 2, 3)]
    nodes += [nm.Node(f"b{i}", "es") for i in (1, 2, 3)]
    links = [nm.Link("r1", "r2"), nm.Link("r2", "r3"), nm.Link("r3", "r1")]
    links += [nm.Link(f"a{i}", f"r{i}") for i in (1, 2, 3)]
    links += [nm.Link(f"b{i}", f"r{i}") for i in (1, 2, 3)]
    topo = nm.Topology(nodes, links)
    flows = tuple(nm.Flow(i, f"a{i + 1}", f"b{(i + 2) % 3 + 1}", 1000, 5000, 100)
                  for i in range(3))
    routes = (
        nm.Route(0, ("a1", "r1", "r2", "r3", "b3")),
        nm.Route(1, ("a2", "r2", "r3", "r1", "b1")),
        nm.Route(2, ("a3", "r3", "r1", "r2", "b2")),
    )
    return nm.TestCase("ring", topo, flows, routes, "CBS",
                       nm.NetworkConstants())


def flat_order(path, n):
    """cbs._port_order's components, one after the other, and whether some
    component holds more than one port."""
    components = cbs._port_order(path, n)
    return [p for c in components for p in c], len(components) < n


def port_order(tc):
    """flat_order on tc's port table, with (node, next) ports."""
    ports, path, _, _ = nm.port_table(tc)
    order, cyclic = flat_order(path, len(ports))
    return [ports[p] for p in order], cyclic


def test_dependency_cycle_detection():
    order, cyclic = port_order(ring_tc())
    assert cyclic
    # the three ring ports are one component, after the three talkers
    assert order[3:6] == [("r1", "r2"), ("r2", "r3"), ("r3", "r1")]
    # two talkers into one switch port
    order, cyclic = flat_order({0: (0, 2), 1: (1, 2)}, 3)
    assert not cyclic
    assert sorted(order) == [0, 1, 2] and order[-1] == 2
    # a two-port cycle {1, 3} fed from 4 and 5 and feeding 0; port 2 apart
    order, cyclic = flat_order(
        {0: (4, 5, 3, 1, 0), 1: (1, 3), 2: (2,)}, 6)
    assert cyclic
    assert sorted(order) == list(range(6))
    at = {p: i for i, p in enumerate(order)}
    assert at[4] < at[5] < at[1] < at[0]
    # one component, in the order the search reached it: 1, then 3
    assert at[3] == at[1] + 1


def test_tfa_ring_converges_on_rounding_grid():
    tc = ring_tc()
    report = cbs.tfa_solve(tc)
    assert report.converged
    assert report.iterations < cbs.MAX_ITERATIONS
    service = oracles.tfa_service(tc.constants)
    for pa in report.per_port.values():
        assert pa.delay_bound > 0
        # rounding grid keeps denominators bounded on the cyclic path
        assert F(10) ** 12 % pa.delay_bound.denominator == 0
        # rounded-up delays stay sound against the stored curves
        assert pa.delay_bound >= h_dev(pa.arrival, service)


@pytest.mark.parametrize("case", ["ring", "ring_5x2_16_s16"])
def test_tfa_ring_delays_are_the_least_fixed_point(case):
    # the per-component passes end where plain Jacobi sweeps from zero
    # end, whatever order they evaluate the ports in
    if case == "ring":
        tc = ring_tc()
    else:
        spec = testgen.GenSpec("ring", 5, 2, 16, payload_range=(64, 700),
                               seed=16)
        tc = testgen.build_testcase(case, spec, nm.CBS,
                                    nm.NetworkConstants())
    report = cbs.tfa_solve(tc)
    assert report.iterations > 1         # cyclic: ports evaluated again
    assert ({p: pa.delay_bound for p, pa in report.per_port.items()}
            == oracles.reference_tfa(tc, cbs.CYCLIC_GRID))


@st.composite
def one_way_rings(draw):
    """Generated rings of 3-6 switches and 8-24 flows, under the default
    constants or under ODD_CONSTANTS with ODD_PERIODS, with every flow
    routed one way round the ring: on rings this small shortest routes
    seldom make the port graph cyclic, and one-way routes mostly do."""
    switches = draw(st.integers(3, 6))
    odd = draw(st.booleans())
    spec = testgen.GenSpec(
        "ring", switches, 3, draw(st.integers(8, 24)),
        payload_range=(64, 700), seed=draw(st.integers(0, 2**31 - 1)),
        **({"period_choices": ODD_PERIODS} if odd else {}))
    consts = ODD_CONSTANTS if odd else nm.NetworkConstants()
    tc = testgen.build_testcase("one_way", spec, nm.CBS, consts)
    routes = []
    for f in tc.flows:
        # the ring switches sw1..swK, each end station on exactly one
        a, b = (int(tc.topology.neighbors(h)[0][2:]) for h in (f.src, f.dst))
        ring = [a]
        while ring[-1] != b:
            ring.append(ring[-1] % switches + 1)
        routes.append(
            nm.Route(f.id, (f.src, *(f"sw{j}" for j in ring), f.dst)))
    return nm.TestCase(tc.name, tc.topology, tc.flows, tuple(routes), nm.CBS,
                       consts)


@settings(max_examples=25, deadline=None)
@given(one_way_rings())
def test_tfa_ring_ticks_are_the_sweeps_and_sum_to_e2e(tc):
    # the cyclic evaluator's rounded-up ticks are the plain Jacobi sweeps'
    # delays, and each flow's bound is its constant term plus the exact sum
    # of its route's reported delays
    assume(port_order(tc)[1])
    try:
        report = cbs.tfa_solve(tc)
    except InstabilityError:
        assume(False)      # an overloaded draw has no bound to compare
    delay = {p: pa.delay_bound for p, pa in report.per_port.items()}
    assert delay == oracles.reference_tfa(tc, cbs.CYCLIC_GRID)
    consts = tc.constants
    for fid, hops in report.per_flow_hops.items():
        assert all(d == delay[p] for p, d in hops)
        k = len(hops)
        fixed = (consts.propagation * k + consts.switching * (k - 1)
                 + consts.sync_error)
        assert report.e2e_wcd[fid] == fixed + sum(d for _, d in hops)


@st.composite
def meshes(draw, odd=None):
    """Generated medium meshes of 4-8 switches x 3 hosts and 8-40 flows,
    under the default constants or under ODD_CONSTANTS with ODD_PERIODS
    (odd None: either)."""
    if odd is None:
        odd = draw(st.booleans())
    spec = testgen.GenSpec(
        "medium_mesh", draw(st.integers(4, 8)), 3, draw(st.integers(8, 40)),
        payload_range=(64, 700), seed=draw(st.integers(0, 2**31 - 1)),
        **({"period_choices": ODD_PERIODS} if odd else {}))
    consts = ODD_CONSTANTS if odd else nm.NetworkConstants()
    return testgen.build_testcase("mesh", spec, nm.CBS, consts)


@settings(max_examples=40, deadline=None)
@given(st.one_of(one_way_rings(), meshes()))
def test_port_order_is_topological_over_components(tc):
    # every port comes after each port upstream of it outside its own
    # component, a component's ports are adjacent (in search order, so
    # compared as a set), and the order reports a cycle exactly when some
    # port precedes itself along the routes
    ports = sorted({p for r in tc.routes for p in r.ports})
    later = {p: set() for p in ports}      # ports after p on some route
    for r in tc.routes:
        for i, p in enumerate(r.ports):
            later[p].update(r.ports[i + 1:])
    reach = {}
    for p in ports:
        seen, todo = set(), [p]
        while todo:
            for q in later[todo.pop()] - seen:
                seen.add(q)
                todo.append(q)
        reach[p] = seen
    order, cyclic = port_order(tc)
    assert sorted(order) == ports
    assert cyclic == any(p in reach[p] for p in ports)
    at = {p: i for i, p in enumerate(order)}
    for p in ports:
        for q in reach[p]:
            if p not in reach[q]:
                assert at[p] < at[q]
    for p in ports:
        component = {p} | {q for q in reach[p] if p in reach[q]}
        first = min(at[q] for q in component)
        assert set(order[first:first + len(component)]) == component


@settings(max_examples=20, deadline=None)
@given(meshes(odd=True))
def test_feed_forward_pairs_add_no_rounding(tc):
    # on a feed-forward graph every delay is the exact horizontal deviation
    # of the port's aggregate from its service, and every end-to-end bound
    # the constant term plus the exact sum of the route's delays
    assume(not port_order(tc)[1])
    try:
        report = cbs.tfa_solve(tc)
    except InstabilityError:
        assume(False)      # an overloaded draw has no bound to compare
    assert report.iterations == 1
    service = oracles.tfa_service(tc.constants)
    for pa in report.per_port.values():
        assert pa.delay_bound == h_dev(pa.arrival, service)
    consts = tc.constants
    for fid, hops in report.per_flow_hops.items():
        assert all(d == report.per_port[p].delay_bound for p, d in hops)
        k = len(hops)
        fixed = (consts.propagation * k + consts.switching * (k - 1)
                 + consts.sync_error)
        assert report.e2e_wcd[fid] == fixed + sum(d for _, d in hops)



# ======================================================================
# per-port two-sided oracle: each frame's residence at a port, from the
# tick it is enqueued there to the end of its transmission there, is at
# least its transmission time and at most the port's delay bound

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
POLICIES = (sim.RELEASE_SYNCHRONIZED, sim.RELEASE_JITTERED)


def check_residence_within_port_bounds(tc, report, policy, saturate):
    cfg = sim.SimConfig(horizon=20 * max(f.period for f in tc.flows),
                        seed=3, release_policy=policy, be_saturate=saturate)
    _, residence = oracles.reference_run(tc, cfg)
    assert set(residence) == {(port, fid)
                              for port, pa in report.per_port.items()
                              for fid in pa.contributing_flows}
    consts = tc.constants
    tx = {f.id: nm.frame_bits(f, consts) / consts.link_rate
          for f in tc.flows}
    for (port, fid), (lo, hi) in residence.items():
        label = f"{tc.name}/{policy}/saturate={saturate} {port} flow {fid}"
        assert tx[fid] <= lo, label
        assert hi <= report.per_port[port].delay_bound, label


def test_corpus_residence_within_port_bounds():
    checked = 0
    for i in range(1, 31):
        tc = nm.load_testcase(CORPUS_DIR / f"TC{i}")
        if tc.mechanism != nm.CBS:
            continue
        report = cbs.tfa_solve(tc)
        for policy in POLICIES:
            for saturate in (False, True):
                check_residence_within_port_bounds(tc, report, policy,
                                                   saturate)
                checked += 1
    assert checked == 15 * 4


@settings(max_examples=8, deadline=None)
@given(st.one_of(one_way_rings(), meshes()), st.sampled_from(POLICIES),
       st.booleans())
def test_generated_residence_within_port_bounds(tc, policy, saturate):
    try:
        report = cbs.tfa_solve(tc)
    except InstabilityError:
        assume(False)      # an overloaded draw has no bound to compare
    check_residence_within_port_bounds(tc, report, policy, saturate)

@pytest.mark.parametrize("case, evaluations", [
    ("ring", 17), ("ring_6x3_60_s2", 70), ("ring_6x4_65_s1473067262", 84),
    ("ring_8x3_65_s58824847", 100),
    # feed-forward: each port once
    ("mesh_8x4_80_s1", 84), ("mesh_8x4_80_s2", 89),
    ("mesh_10x4_100_s1", 120), ("mesh_10x4_100_s3", 126),
])
def test_tfa_evaluation_counts(monkeypatch, case, evaluations):
    # the exact evaluations a solve makes, each one _peak_excess call: the
    # passes over each component in search order; sweeping components in
    # ascending port order took 81, 94 and 122 on the pinned rings
    tc = ring_tc() if case == "ring" else pinned_tc(case)
    calls = []
    peak_excess = cbs._peak_excess

    def counting(*args):
        calls.append(None)
        return peak_excess(*args)

    monkeypatch.setattr(cbs, "_peak_excess", counting)
    cbs.tfa_solve(tc)
    assert len(calls) == evaluations
    if case.startswith("mesh"):
        assert evaluations == len(nm.port_table(tc)[0])


def test_tfa_evaluation_cap_names_case_and_port(monkeypatch):
    monkeypatch.setattr(cbs, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError,
                       match=r"^ring: port \w+->\w+ still moving after 2 "):
        cbs.tfa_solve(ring_tc())


# ======================================================================
# report serialization

def test_report_json_layout():
    flow = nm.Flow(0, "h1", "h2", 1000, 5000, 100)
    tc = star_tc([flow], [nm.Route(0, ("h1", "sw1", "h2"))], name="star9")
    text = cbs.report_to_json(cbs.tfa_solve(tc))
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["testcase"] == "star9"
    assert payload["mechanism"] == "CBS"
    assert payload["converged"] is True
    assert "iterations" not in payload    # solver metadata stays out
    assert [f["id"] for f in payload["flows"]] == [0]
    entry = payload["flows"][0]
    assert [h["port"] for h in entry["per_hop"]] == ["h1->sw1", "sw1->h2"]
    total = sum(h["d_us"] for h in entry["per_hop"])
    assert entry["wcd_us"] == pytest.approx(total + 4.0)


report_names = st.text(max_size=12)
report_numbers = st.one_of(
    st.integers(0, 10**40),
    st.builds(F, st.integers(0, 10**300), st.integers(1, 10**300)),
    st.builds(F, st.integers(0, 10**6), st.integers(1, 10**6)))


@st.composite
def cbs_reports(draw):
    """Reports of the shape the writer takes: names with any character,
    int and Fraction delays, flows crossing one or more shared ports, and
    no flows at all."""
    nodes = draw(st.lists(report_names, min_size=2, max_size=4))
    ports = [(a, b) for a in nodes for b in nodes]
    port_delay = {p: draw(report_numbers) for p in ports}
    fids = draw(st.lists(st.integers(0, 10**6), max_size=5, unique=True))
    per_flow_hops = {
        fid: [(p, port_delay[p]) for p in draw(
            st.lists(st.sampled_from(ports), min_size=1, max_size=4))]
        for fid in fids}
    e2e = {fid: draw(report_numbers) for fid in fids}
    return cbs.CbsReport(draw(report_names), {}, per_flow_hops, e2e, 1,
                         draw(st.booleans()))


# quotes, a backslash, control and non-ASCII characters
ODD_NAME = ('q"uote back\\slash tab\tnew\nline\x00 '
            '\u00e9t\u00e9 \u2192 \U0001f600')


@settings(deadline=None)
@given(cbs_reports())
@example(cbs.CbsReport("", {}, {}, {}, 1, True))
@example(cbs.CbsReport(ODD_NAME, {}, {0: [((ODD_NAME, "b"), F(1, 3))]},
                       {0: F(10**300 + 1, 10**299)}, 1, False))
def test_report_json_equals_the_reference_writer(report):
    assert cbs.report_to_json(report) == oracles.report_json_reference(report)


# ======================================================================
# pinned bytes: TFA reports on generated meshes and cyclic rings, recorded
# once and compared on every run; regenerate them only on purpose, with
# `PYTHONPATH=src python tests/test_cbs.py`

TFA_DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "tfa_digests.json"
# (name, kind, switches, hosts per switch, flows, GenSpec seed); every draw
# is stable, the meshes have acyclic port graphs and the rings cyclic ones
TFA_DIGEST_CASES = (
    ("mesh_8x4_80_s1", "medium_mesh", 8, 4, 80, 1),
    ("mesh_8x4_80_s2", "medium_mesh", 8, 4, 80, 2),
    ("mesh_10x4_100_s1", "medium_mesh", 10, 4, 100, 1),
    ("mesh_10x4_100_s3", "medium_mesh", 10, 4, 100, 3),
    ("ring_6x3_60_s2", "ring", 6, 3, 60, 2),
    ("ring_6x4_65_s1473067262", "ring", 6, 4, 65, 1473067262),
    ("ring_8x3_65_s58824847", "ring", 8, 3, 65, 58824847),
)


def pinned_tc(name):
    for case, kind, switches, hosts, flows, seed in TFA_DIGEST_CASES:
        if case == name:
            spec = testgen.GenSpec(kind, switches, hosts, flows,
                                   payload_range=(64, 700), seed=seed)
            return testgen.build_testcase(name, spec, nm.CBS,
                                          nm.NetworkConstants())
    raise KeyError(name)


def tfa_digests():
    out = {}
    for name, *_ in TFA_DIGEST_CASES:
        tc = pinned_tc(name)
        report = cbs.tfa_solve(tc)
        out[name] = {
            "report_sha256": hashlib.sha256(
                cbs.report_to_json(report).encode()).hexdigest(),
            "arrival_segments": sum(
                len(pa.arrival.segments) for pa in report.per_port.values()),
            "exact_sha256": exact_sha256(report, tc.constants),
        }
    return out


def exact_sha256(report, constants):
    """sha256 over the exact Fractions of a report: report bytes round
    every delay to a float, which can hide a slip in a delay whose
    denominator runs to hundreds of bits.  Each port's entry holds the
    service TFA gives every port, so the digest pins that too."""
    service = oracles.tfa_service(constants).curve().segments
    ports = [(p, pa.delay_bound, pa.arrival.segments, service,
              pa.contributing_flows)
             for p, pa in sorted(report.per_port.items())]
    text = repr((ports, sorted(report.e2e_wcd.items()),
                 sorted(report.per_flow_hops.items())))
    return hashlib.sha256(text.encode()).hexdigest()


def test_tfa_bytes_match_pinned_digests():
    pinned = json.loads(TFA_DIGESTS_PATH.read_text())
    assert tfa_digests() == pinned


if __name__ == "__main__":
    TFA_DIGESTS_PATH.parent.mkdir(exist_ok=True)
    TFA_DIGESTS_PATH.write_text(json.dumps(tfa_digests(), indent=2,
                                           sort_keys=True) + "\n")
