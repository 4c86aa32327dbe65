"""CBS analysis tests.

Credit-bound and curve-construction hand values, the closed-form port delay
against the general horizontal deviation, a fully hand-computed single-switch
fixed point, the one-pass solution of feed-forward cases, the cyclic-route
path, instability detection, and report serialization.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tsnwcd import cbs, netmodel as nm, testgen
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
    assert got == TokenBucket(8056, 100).curve()
    assert got.value_right(0) == AVB_FRAME
    assert got.final_slope == C


def test_cbs_shaping_hand_value():
    got = cbs.cbs_shaping(single_class_cfg(), C, AVB_FRAME)
    assert got == TokenBucket(19322, IDSL).curve()


def test_cbs_shaping_without_credit_range():
    cfg = cbs.CbsClassConfig(1, IDSL, SDSL, F(1, 10**9), F(0))
    got = cbs.cbs_shaping(cfg, C, 500)
    # c_max = 0 and c_min almost 0: burst is essentially the link frame
    assert got.final_slope == IDSL
    assert 500 < got.value_right(0) < F(501)


def test_aggregate_arrival_empty_and_single_flow():
    assert cbs.aggregate_arrival([]) == Curve.zero()
    tb = TokenBucket(8056, F(8056, 2500)).curve()
    group = cbs.SourceGroup((tb,), cbs.link_shaping(C, AVB_FRAME))
    assert cbs.aggregate_arrival([group]) == tb


def test_aggregate_arrival_two_predecessors_sum():
    tb1 = TokenBucket(1000, 1).curve()
    tb2 = TokenBucket(2000, 2).curve()
    cap = cbs.link_shaping(C, 500)
    got = cbs.aggregate_arrival(
        [cbs.SourceGroup((tb1,), cap), cbs.SourceGroup((tb2,), cap)])
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
        groups.append(cbs.SourceGroup(arrivals, link_cap, cbs_cap))
    return cbs.aggregate_arrival(groups)


@given(cbs_aggregates(), pos_rates,
       st.fractions(min_value=0, max_value=300, max_denominator=8))
@settings(deadline=None)
def test_rate_latency_delay_equals_h_dev(alpha, extra_rate, latency):
    service = RateLatency(alpha.final_slope + extra_rate, latency)
    assert (cbs.rate_latency_delay(alpha, service)
            == h_dev(alpha, service.curve()))


def test_rate_latency_delay_edge_cases():
    service = RateLatency(2, 5)
    # nothing ever arrives: no delay, although the latency is positive
    assert cbs.rate_latency_delay(Curve.zero(), service) == 0
    # traffic that starts late and slowly never waits for the latency
    late = Curve([(0, 0, 0), (10, 0, 1)])
    assert cbs.rate_latency_delay(late, service) == 0
    assert h_dev(late, service.curve()) == 0
    with pytest.raises(InstabilityError):
        cbs.rate_latency_delay(TokenBucket(1, 3).curve(), service)


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
    groups = [cbs.SourceGroup(tuple(local))] if local else []
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
        groups.append(cbs.SourceGroup(tuple(env for _, env in members),
                                      cbs.link_shaping(C, l_link), cbs_cap))
    return cbs.aggregate_arrival(groups)


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
