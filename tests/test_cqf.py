"""Cyclic Queuing and Forwarding closed-form bound tests."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsnwcd import cqf
from tsnwcd.errors import CapacityError, ValidationError
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
)


def chain_tc(n_switches, flow_specs, name="tc", mechanism=CQF, **const_kw):
    """Line topology es1 - s1 - ... - sN - es2, all flows end to end."""
    hops = ["es1"] + [f"s{i + 1}" for i in range(n_switches)] + ["es2"]
    nodes = [Node("es1", ES), Node("es2", ES)]
    nodes += [Node(h, SW) for h in hops[1:-1]]
    links = [Link(a, b) for a, b in zip(hops, hops[1:])]
    topo = Topology(nodes, links)
    flows = tuple(
        Flow(i, "es1", "es2", frac(period), frac(5000), payload)
        for i, (period, payload) in enumerate(flow_specs))
    routes = tuple(Route(f.id, tuple(hops)) for f in flows)
    return TestCase(name, topo, flows, routes, mechanism,
                    NetworkConstants(**const_kw))


# wcd closed form


def test_wcd_three_switch_chain_hand_value():
    tc = chain_tc(3, [(2500, 100)], cycle_T=F(50))
    report = cqf.solve(tc)
    # 4 cycles of 50us, plus 4 propagation delays and one sync error
    assert report.per_flow[0]["wcd_us"] == F(205)
    assert report.per_flow[0]["xi_us"] == F(5)
    assert report.per_flow[0]["sw_num"] == 3


def test_wcd_zero_switch_direct_link():
    tc = chain_tc(0, [(400, 100)], cycle_T=F(50))
    report = cqf.solve(tc)
    assert report.per_flow[0]["wcd_us"] == F(52)
    assert report.per_flow[0]["sw_num"] == 0


def test_wcd_identity_holds_in_report():
    tc = chain_tc(2, [(1000, 100), (500, 64)], cycle_T=F(25))
    report = cqf.solve(tc)
    assert report.T == tc.constants.cycle_T
    for fid, row in report.per_flow.items():
        assert row["wcd_us"] == (row["sw_num"] + 1) * report.T + row["xi_us"]


# xi policies


def test_xi_default_counts_links_and_one_sync():
    consts = NetworkConstants()
    long = Route(0, ("es1", "s1", "s2", "s3", "es2"))
    short = Route(0, ("es1", "s1", "es2"))
    assert cqf.xi(long, consts) == F(5)
    assert cqf.xi(short, consts) == F(3)
    assert cqf.xi(Route(0, ("es1", "es2")), consts) == F(2)


def test_xi_scales_with_constants():
    consts = NetworkConstants(propagation=F(2), sync_error=F(1, 2))
    route = Route(0, ("es1", "s1", "s2", "s3", "es2"))
    assert cqf.xi(route, consts) == F(17, 2)


# hypercycle


def flows_with_periods(periods):
    return [Flow(i, "a", "b", frac(p), frac(10000), 64)
            for i, p in enumerate(periods)]


def test_hypercycle_lcm_of_periods():
    assert cqf.hypercycle(flows_with_periods([1000, 2500, 5000])) == F(5000)
    assert cqf.hypercycle(flows_with_periods([1000, 1000])) == F(1000)
    assert cqf.hypercycle(flows_with_periods([400]), T=F(50)) == F(400)


def test_hypercycle_fractional_periods():
    h = cqf.hypercycle(flows_with_periods([F(3, 2), F(5, 2)]))
    assert h == F(15, 2)
    assert (h / F(3, 2)).denominator == 1
    assert (h / F(5, 2)).denominator == 1


def test_hypercycle_slot_count():
    h = cqf.hypercycle(flows_with_periods([400]), T=F(50))
    assert int(h / F(50)) == 8


def test_hypercycle_rejects_nondividing_T():
    with pytest.raises(ValidationError):
        cqf.hypercycle(flows_with_periods([400]), T=F(30))


def test_hypercycle_requires_flows():
    with pytest.raises(ValidationError):
        cqf.hypercycle([])


# cycle duration validation


def test_config_rejects_nonpositive_T():
    # cqf.solve reads T from constants.cycle_T, which must be > 0
    with pytest.raises(ValidationError):
        NetworkConstants(cycle_T=F(0))
    with pytest.raises(ValidationError):
        NetworkConstants(cycle_T=F(-5))


# structural properties of the bound


@given(sw=st.integers(0, 6), t1=st.integers(1, 500), t2=st.integers(1, 500),
       cycles=st.integers(1, 4))
def test_wcd_affine_in_cycle_duration(sw, t1, t2, cycles):
    period = math.lcm(t1, t2) * cycles      # both cycle durations divide it

    def wcd(T):
        tc = chain_tc(sw, [(period, 100)], cycle_T=F(T))
        return cqf.cqf_wcd(tc.routes[0], tc.constants.cycle_T, tc.constants)
    assert wcd(t2) - wcd(t1) == (sw + 1) * (F(t2) - F(t1))


def test_wcd_depends_on_route_only_through_counts():
    nodes = [Node("es1", ES), Node("es2", ES),
             Node("a1", SW), Node("a2", SW), Node("b1", SW), Node("b2", SW)]
    links = [Link("es1", "a1"), Link("a1", "a2"), Link("a2", "es2"),
             Link("es1", "b1"), Link("b1", "b2"), Link("b2", "es2")]
    topo = Topology(nodes, links)
    flows = (Flow(0, "es1", "es2", F(400), F(5000), 100),
             Flow(1, "es1", "es2", F(400), F(5000), 100))
    routes = (Route(0, ("es1", "a1", "a2", "es2")),
              Route(1, ("es1", "b1", "b2", "es2")))
    tc = TestCase("twin", topo, flows, routes, CQF,
                  NetworkConstants(cycle_T=F(50)))
    report = cqf.solve(tc)
    assert report.per_flow[0]["wcd_us"] == report.per_flow[1]["wcd_us"]


# solve entry point


def test_solve_rejects_cbs_testcase():
    tc = chain_tc(1, [(2500, 965)], mechanism=CBS)
    with pytest.raises(ValidationError):
        cqf.solve(tc)


def test_cqf_rejects_cycle_that_does_not_divide_a_period():
    # T = 60 divides neither 100 nor 75: a release at 100us would wait 20us
    # for the cycle that opens at 120us, which the closed form omits.  The
    # one diagnostic names both flows; flow 2's 120us is a multiple of 60.
    with pytest.raises(ValidationError) as exc:
        chain_tc(2, [(100, 300), (75, 64), (120, 64)], cycle_T=F(60))
    assert str(exc.value) == (
        "tc: invalid test case: CQF cycle_T 60.0us does not divide the "
        "period of flow 0 (100.0us), flow 1 (75.0us)")


def test_cqf_accepts_fractional_period_multiple_of_cycle():
    tc = chain_tc(1, [(F(75, 2), 64)], cycle_T=F(25, 2))
    assert cqf.solve(tc).hypercycle == F(75, 2)


def test_solve_requires_cycle_T_in_constants():
    # a CQF case without a cycle duration cannot even be built
    with pytest.raises(ValidationError,
                       match="tc: invalid test case: CQF test case needs "
                             "constants.cycle_T"):
        chain_tc(1, [(400, 100)])


def test_report_json_layout():
    tc = chain_tc(3, [(2500, 100)], name="chain3", cycle_T=F(50))
    import json
    doc = json.loads(cqf.report_to_json(cqf.solve(tc)))
    assert doc == {
        "testcase": "chain3",
        "mechanism": "CQF",
        "T_us": 50,
        "hypercycle_us": 2500,
        "flows": [{"id": 0, "sw_num": 3, "xi_us": 5, "wcd_us": 205}],
    }


# cycle capacity accounting


def test_capacity_flags_frame_longer_than_cycle():
    # 965 byte payload plus 42 bytes overhead is 8056 bits: 80.56us at
    # 100 bits/us, which cannot fit a 50us cycle on any port it crosses.
    # A port into a switch must also leave propagation + switching (2us).
    tc = chain_tc(1, [(400, 965)], cycle_T=F(50))
    diags = cqf.cycle_capacity_check(tc)
    assert [d.port for d in diags] == [("es1", "s1"), ("s1", "es2")]
    assert all(d.load_us == frac("80.56") for d in diags)
    assert [d.limit_us for d in diags] == [F(48), F(50)]
    assert "es1->s1" in str(diags[0])


def test_capacity_respects_frame_overhead_constant():
    tc = chain_tc(1, [(400, 965)], cycle_T=F(50), frame_overhead=38)
    diags = cqf.cycle_capacity_check(tc)
    assert diags and all(d.load_us == frac("80.24") for d in diags)


def test_capacity_clean_when_load_fits():
    tc = chain_tc(1, [(400, 64), (400, 64)], cycle_T=F(50))
    assert cqf.cycle_capacity_check(tc) == []


def test_capacity_sums_colliding_flows():
    # Two 80.56us frames injected into the same cycle of the same port.
    tc = chain_tc(1, [(400, 965), (400, 965)], cycle_T=F(50))
    diags = cqf.cycle_capacity_check(tc)
    first = [d for d in diags if d.port == ("es1", "s1")]
    assert len(first) == 1
    assert first[0].load_us == 2 * frac("80.56")


def test_capacity_flags_every_port_of_the_route():
    # One 80.56us frame overfills a 50us cycle of each of the three ports
    # it crosses, whichever cycle its phase puts it in.
    tc = chain_tc(2, [(100, 965)], cycle_T=F(50))
    diags = cqf.cycle_capacity_check(tc)
    assert [d.port for d in diags] == [
        ("es1", "s1"), ("s1", "s2"), ("s2", "es2")]


def fork_parts():
    """Topology, flows, routes and constants of es1>s1>es2 and
    es3>s0>s1>es2, both with period 200 and 742-byte frames, T = 100."""
    nodes = [Node(n, ES) for n in ("es1", "es2", "es3")]
    nodes += [Node("s0", SW), Node("s1", SW)]
    links = [Link("es1", "s1"), Link("es3", "s0"), Link("s0", "s1"),
             Link("s1", "es2")]
    flows = (Flow(0, "es1", "es2", F(200), F(5000), 700),
             Flow(1, "es3", "es2", F(200), F(5000), 700))
    routes = (Route(0, ("es1", "s1", "es2")),
              Route(1, ("es3", "s0", "s1", "es2")))
    return (Topology(nodes, links), flows, routes,
            NetworkConstants(cycle_T=F(100)))


def test_capacity_sums_flows_whatever_their_phase():
    # Released together, the two 59.36us frames reach s1->es2 in different
    # cycles; released one cycle apart, they share one.  The port carries
    # both.
    topo, flows, routes, constants = fork_parts()
    tc = TestCase("fork", topo, flows, routes, CQF, constants)
    assert [(d.port, d.load_us, d.limit_us)
            for d in cqf.cycle_capacity_check(tc)] == [
        (("s1", "es2"), frac("118.72"), F(100))]
    with pytest.raises(CapacityError, match="^fork: port s1->es2: 118.72us"):
        cqf.solve(tc)


def test_capacity_empty_testcase():
    tc = chain_tc(1, [], cycle_T=F(50))
    assert cqf.cycle_capacity_check(tc) == []


# cycle margin: a frame must reach the next switch before the cycle that
# forwards it opens


def test_capacity_margin_counts_propagation_and_switching():
    # One 8.48us frame fits a 20us cycle, but with 15us propagation and 1us
    # switching it reaches s1 after the next cycle has opened.
    tc = chain_tc(2, [(1000, 64)], cycle_T=F(20), propagation=F(15))
    diags = cqf.cycle_capacity_check(tc)
    assert [(d.port, d.limit_us) for d in diags] == [
        (("es1", "s1"), F(4)), (("s1", "s2"), F(4))]
    with pytest.raises(CapacityError, match="port es1->s1: "):
        cqf.solve(tc)


def test_capacity_margin_second_frame_in_cycle():
    # Two 8.48us frames go out back to back in cycle 0; with 3us
    # propagation the second reaches s1 at 20.96us, inside cycle 1, which
    # must already forward it.
    tc = chain_tc(1, [(1000, 64), (1000, 64)], cycle_T=F(20),
                  propagation=F(3))
    diags = cqf.cycle_capacity_check(tc)
    assert [(d.port, d.load_us, d.limit_us)
            for d in diags] == [(("es1", "s1"), frac("16.96"), F(16))]
    with pytest.raises(CapacityError):
        cqf.solve(tc)
