"""CBS analysis tests.

Credit-bound and curve-construction hand values, the token-bucket port
aggregate against the general min-plus oracle, the closed-form port delay
against the general horizontal deviation, a fully hand-computed
single-switch fixed point, the one-pass solution of feed-forward cases, the
cyclic-route path, instability detection, report serialization and pinned
report bytes.
"""
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tsnwcd import cbs, minplus, netmodel as nm, testgen
from tsnwcd.errors import InstabilityError, ValidationError
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


def star_tc(flows, routes, name="t"):
    nodes = [nm.Node("h1", "es"), nm.Node("h2", "es"), nm.Node("h3", "es"),
             nm.Node("sw1", "sw")]
    links = [nm.Link("h1", "sw1"), nm.Link("h2", "sw1"), nm.Link("h3", "sw1")]
    topo = nm.Topology(nodes, links)
    return nm.TestCase(name, topo, tuple(flows), tuple(routes), "CBS",
                       nm.NetworkConstants())


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
    assert (cbs.rate_latency_delay(alpha.segments, service)
            == h_dev(alpha, service.curve()))


def test_rate_latency_delay_edge_cases():
    service = RateLatency(2, 5)
    # nothing ever arrives: no delay, although the latency is positive
    assert cbs.rate_latency_delay(Curve.zero().segments, service) == 0
    # traffic that starts late and slowly never waits for the latency
    late = Curve([(0, 0, 0), (10, 0, 1)])
    assert cbs.rate_latency_delay(late.segments, service) == 0
    assert h_dev(late, service.curve()) == 0
    with pytest.raises(InstabilityError):
        cbs.rate_latency_delay(TokenBucket(1, 3).curve().segments, service)


# ======================================================================
# token-bucket port aggregate against the general min-plus oracle

def check_against_oracle(members_per_group, caps_per_group, extra_rate,
                         latency):
    """members: (bucket, upstream delay) pairs; caps: TokenBuckets.  The
    breakpoint-list aggregate must equal the oracle's curve exactly, and
    its delay at a server extra_rate above the aggregate rate the oracle's
    horizontal deviation."""
    oracle_groups, line_groups = [], []
    for members, caps in zip(members_per_group, caps_per_group):
        oracle_groups.append(oracles.SourceGroup(
            tuple(shift_delay(tb, d) for tb, d in members), *caps))
        bucket = (sum(tb.burst + tb.rate * d for tb, d in members),
                  sum(tb.rate for tb, _ in members))
        line_groups.append([bucket] + [(c.burst, c.rate) for c in caps])
    oracle = oracles.aggregate_arrival(oracle_groups)
    segments = cbs.aggregate_segments(
        [cbs.group_envelope(lines) for lines in line_groups])
    assert Curve(segments) == oracle
    assert tuple(segments) == oracle.segments
    service = RateLatency(oracle.final_slope + extra_rate, latency)
    delay = h_dev(oracle, service.curve())
    assert cbs.rate_latency_delay(segments, service) == delay
    # the peak backlog alone gives the same delay, in Fractions and with
    # every burst and rate an int on a common scale
    envelopes = [cbs.group_envelope(lines) for lines in line_groups]
    backlog = cbs.max_backlog(envelopes, service.rate)
    assert service.latency + backlog / service.rate == delay
    lines = [line for group in line_groups for line in group]
    scale = math.lcm(*(F(b).denominator for b, _ in lines))
    rate_den = math.lcm(service.rate.denominator,
                        *(F(r).denominator for _, r in lines))
    scaled = [cbs.group_envelope([(int(b * scale), int(r * rate_den))
                                  for b, r in group])
              for group in line_groups]
    assert (cbs.max_backlog(scaled, int(service.rate * rate_den))
            == backlog * scale)


def test_max_backlog_hand_values():
    # bucket 10 + t under a cap 4 + 2t: the aggregate bends at t = 6, 16
    envelope = cbs.group_envelope([(10, 1), (4, 2)])
    assert envelope[1:] == (2, [(6, 1, 1)])
    assert cbs.max_backlog([envelope], 3) == 4          # peak at 0+
    assert cbs.max_backlog([envelope], F(3, 2)) == 16 - 9
    assert cbs.max_backlog([envelope], 1) == 16 - 6
    with pytest.raises(InstabilityError):
        cbs.max_backlog([envelope], F(1, 2))


CAP_KINDS = ("free", "equal_rate", "never_crosses", "coincides")


@st.composite
def port_groups(draw):
    """Per group: shifted member buckets and up to two caps, each cap free
    or tied to the group's summed bucket (same rate, above it everywhere,
    or the very same line)."""
    members_per_group, caps_per_group = [], []
    for _ in range(draw(st.integers(1, 3))):
        members = [(TokenBucket(draw(pos_amounts), draw(rates)),
                    draw(st.fractions(0, 500, max_denominator=8)))
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
    for pa in report.per_port.values():
        assert h_dev(pa.arrival, pa.service) == pa.delay_bound


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


def test_tfa_rejects_cqf_testcase():
    flow = nm.Flow(0, "h1", "h2", 1000, 5000, 100)
    topo = star_tc([flow], [nm.Route(0, ("h1", "sw1", "h2"))]).topology
    tc = nm.TestCase("x", topo, (flow,), (nm.Route(0, ("h1", "sw1", "h2")),),
                     "CQF", nm.NetworkConstants(cycle_T=50))
    with pytest.raises(ValidationError, match="CBS"):
        cbs.tfa_solve(tc)


def rebuilt_aggregate(tc, report, port):
    """The aggregate at port rebuilt from the reported final delays of the
    ports upstream of it, independently of the solver's own bookkeeping."""
    consts = tc.constants
    C = consts.link_rate
    idsl = consts.idle_slope_fraction * C
    delay = {p: pa.delay_bound for p, pa in report.per_port.items()}
    bits = {f.id: nm.frame_bits(f, consts) for f in tc.flows}
    local, by_pred = [], {}
    for fid in report.per_port[port].contributing_flows:
        ports = tc.route_for(fid).ports
        k = ports.index(port)
        env = shift_delay(cbs.source_arrival(tc.flow(fid), consts),
                          sum(delay[q] for q in ports[:k]))
        if k == 0:
            local.append(env)
        else:
            by_pred.setdefault(ports[k - 1][0], []).append((fid, env))
    groups = [oracles.SourceGroup(tuple(local))] if local else []
    for pred, members in by_pred.items():
        l_link = max(bits[fid] for fid, _ in members)
        cbs_cap = None
        if tc.topology.is_switch(pred):
            prev = report.per_port[(pred, port[0])]
            cfg = cbs.CbsClassConfig(
                1, idsl, idsl - C,
                max(bits[fid] for fid in prev.contributing_flows),
                cbs.default_lower_frame_bits(consts))
            cbs_cap = cbs.cbs_shaping(cfg, C, l_link)
        groups.append(oracles.SourceGroup(tuple(env for _, env in members),
                                          cbs.link_shaping(C, l_link),
                                          cbs_cap))
    return oracles.aggregate_arrival(groups)


def test_tfa_feed_forward_delays_are_the_exact_fixed_point():
    # a mesh on which sweeps stopped by a tolerance end below the fixed point
    spec = testgen.GenSpec("medium_mesh", 12, 4, 80, payload_range=(64, 700),
                           seed=1432080079)
    tc = testgen.build_testcase("fixpoint", spec, nm.CBS,
                                nm.NetworkConstants())
    report = cbs.tfa_solve(tc)
    assert report.converged
    assert report.iterations == 1
    for port, pa in report.per_port.items():
        alpha = rebuilt_aggregate(tc, report, port)
        assert alpha == pa.arrival
        assert h_dev(alpha, pa.service) == pa.delay_bound


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


def test_dependency_cycle_detection():
    tc = ring_tc()
    ports = {f.id: tc.route_for(f.id).ports for f in tc.flows}
    assert cbs._topological_order(ports) is None
    chain = {0: (("a", "s"), ("s", "b")), 1: (("c", "s"), ("s", "b"))}
    order = cbs._topological_order(chain)
    assert sorted(order) == [("a", "s"), ("c", "s"), ("s", "b")]
    assert order[-1] == ("s", "b")


def test_tfa_ring_converges_on_rounding_grid():
    report = cbs.tfa_solve(ring_tc())
    assert report.converged
    assert report.iterations < cbs.MAX_ITERATIONS
    for pa in report.per_port.values():
        assert pa.delay_bound > 0
        # rounding grid keeps denominators bounded on the cyclic path
        assert F(10) ** 12 % pa.delay_bound.denominator == 0
        # rounded-up delays stay sound against the stored curves
        assert pa.delay_bound >= h_dev(pa.arrival, pa.service)


@pytest.mark.parametrize("kind,seed", [("medium_mesh", 1), ("ring", 2)])
def test_tfa_service_is_the_per_port_cbs_service(kind, seed):
    # every port's service is the one its own class config gives; none of
    # its terms depends on the port
    spec = testgen.GenSpec(kind, 6, 3, 60, payload_range=(64, 700),
                           seed=seed)
    tc = testgen.build_testcase("svc", spec, nm.CBS, nm.NetworkConstants())
    consts = tc.constants
    C = consts.link_rate
    idsl = consts.idle_slope_fraction * C
    report = cbs.tfa_solve(tc)
    assert report.per_port
    for pa in report.per_port.values():
        l_max_class = max(nm.frame_bits(tc.flow(fid), consts)
                          for fid in pa.contributing_flows)
        cfg = cbs.CbsClassConfig(1, idsl, idsl - C, l_max_class,
                                 cbs.default_lower_frame_bits(consts))
        assert pa.service == cbs.cbs_service_curve(cfg, C).curve()


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


def tfa_digests():
    out = {}
    for name, kind, switches, hosts, flows, seed in TFA_DIGEST_CASES:
        spec = testgen.GenSpec(kind, switches, hosts, flows,
                               payload_range=(64, 700), seed=seed)
        tc = testgen.build_testcase(name, spec, nm.CBS, nm.NetworkConstants())
        report = cbs.tfa_solve(tc)
        out[name] = {
            "report_sha256": hashlib.sha256(
                cbs.report_to_json(report).encode()).hexdigest(),
            "arrival_segments": sum(
                len(pa.arrival.segments) for pa in report.per_port.values()),
            "exact_sha256": exact_sha256(report),
        }
    return out


def exact_sha256(report):
    """sha256 over the exact Fractions of a report: report bytes round
    every delay to a float, which can hide a slip in a delay whose
    denominator runs to hundreds of bits."""
    ports = [(p, pa.delay_bound, pa.arrival.segments, pa.service.segments,
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
