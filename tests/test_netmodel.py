"""Network model tests: type invariants, parser error reporting, serializer
round-trips, test-case validation diagnostics, and bundle IO."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tsnwcd.errors import ParseError, ValidationError
from tsnwcd import netmodel as nm, testgen

F = Fraction

STAR_TOPO = """\
# two hosts behind one switch
node,h1,es
node,h2,es
node,sw1,sw

link,h1,sw1
link,h2,sw1
"""

FLOW_LINE = "0,node2_1,node5_2,2500,709,965"


def star_testcase(mechanism="CBS", cycle_T=None, **const_kw):
    topo = nm.parse_topology(STAR_TOPO)
    flows = (nm.Flow(0, "h1", "h2", 1000, 500, 100),)
    routes = (nm.Route(0, ("h1", "sw1", "h2")),)
    consts = nm.NetworkConstants(cycle_T=cycle_T, **const_kw)
    return nm.TestCase("star", topo, flows, routes, mechanism, consts)


# ======================================================================
# parsing

def test_parse_flow_line_fields():
    flows = nm.parse_flows(FLOW_LINE + "\n")
    assert len(flows) == 1
    f = flows[0]
    assert f.id == 0
    assert f.src == "node2_1"
    assert f.dst == "node5_2"
    assert f.period == 2500
    assert f.deadline == 709
    assert f.payload_bytes == 965


def test_parse_flows_empty_text():
    assert nm.parse_flows("") == []
    assert nm.parse_flows("# only a comment\n\n") == []


def test_parse_flows_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        nm.parse_flows("0,a,b,10,10,5\n# fine\n1,a,b,10,10\n")


def test_parse_flows_rejects_duplicate_id():
    with pytest.raises(ParseError, match="duplicate flow id 0"):
        nm.parse_flows("0,a,b,10,10,5\n0,c,d,10,10,5\n")


def test_parse_flows_rejects_oversized_payload():
    with pytest.raises(ParseError, match="payload"):
        nm.parse_flows("0,a,b,10,10,1501\n")


def test_parse_topology_star():
    topo = nm.parse_topology(STAR_TOPO)
    assert topo.end_stations() == ["h1", "h2"]
    assert topo.switches() == ["sw1"]
    assert topo.has_link("h1", "sw1")
    assert not topo.has_link("h1", "h2")
    assert topo.neighbors("sw1") == ("h1", "h2")


def test_parse_topology_unknown_link_node():
    with pytest.raises(ParseError, match="nodeX"):
        nm.parse_topology("node,a,es\nlink,a,nodeX\n")


def test_parse_topology_duplicate_node():
    with pytest.raises(ParseError, match="duplicate node a"):
        nm.parse_topology("node,a,es\nnode,a,sw\n")



@pytest.mark.parametrize("line,message", [
    ("node,,es", "node id must be non-empty"),
    ("link,sw1,sw1", "link sw1-sw1: self-loop"),
    ("link,sw1,h2", "duplicate link sw1-h2"),
])
def test_parse_topology_rejected_line_names_its_number(line, message):
    # STAR_TOPO ends on its seventh line
    with pytest.raises(ParseError, match=f"^line 8: {message}$"):
        nm.parse_topology(STAR_TOPO + line + "\n")

def test_parse_topology_disconnected():
    text = "node,a,es\nnode,b,es\nnode,s1,sw\nnode,s2,sw\nlink,a,s1\nlink,b,s2\n"
    with pytest.raises(ParseError, match="not connected"):
        nm.parse_topology(text)


def test_parse_routes_line():
    routes = nm.parse_routes("0:node2_1>sw1>node5_2\n")
    assert routes == [nm.Route(0, ("node2_1", "sw1", "node5_2"))]


def test_parse_routes_rejects_repeats():
    with pytest.raises(ParseError, match="repeats"):
        nm.parse_routes("0:a>b>a\n")


def test_parse_routes_checks_adjacency_with_topology():
    topo = nm.parse_topology(STAR_TOPO)
    with pytest.raises(ParseError, match="no link between h1 and h2"):
        nm.parse_routes("0:h1>h2\n", topology=topo)


def test_parse_routes_checks_flow_ids():
    flows = nm.parse_flows("0,a,b,10,10,5\n")
    with pytest.raises(ParseError, match="unknown flow id 7"):
        nm.parse_routes("7:a>b\n", flows=flows)


# ======================================================================
# type invariants

def test_route_ports_and_counts():
    r = nm.Route(5, ("a", "s1", "s2", "b"))
    assert r.ports == (("a", "s1"), ("s1", "s2"), ("s2", "b"))
    assert r.link_count == 3
    assert r.switch_count == 2


def test_flow_rejects_bad_fields():
    with pytest.raises(ValidationError):
        nm.Flow(0, "a", "a", 10, 10, 5)
    with pytest.raises(ValidationError):
        nm.Flow(0, "a", "b", 0, 10, 5)
    with pytest.raises(ValidationError):
        nm.Flow(-1, "a", "b", 10, 10, 5)
    for deadline in (-5, 0):
        with pytest.raises(ValidationError, match="deadline"):
            nm.Flow(0, "a", "b", 100, deadline, 100)


def test_constants_validation():
    with pytest.raises(ValidationError):
        nm.NetworkConstants(idle_slope_fraction=1)
    with pytest.raises(ValidationError):
        nm.NetworkConstants(link_rate=0)
    with pytest.raises(ValidationError):
        nm.NetworkConstants(cycle_T=0)
    defaults = nm.NetworkConstants()
    assert defaults.link_rate == 100
    assert defaults.idle_slope_fraction == F(3, 4)
    assert defaults.frame_overhead == 42
    assert defaults.cut_through


def test_frame_bits_hand_value():
    f = nm.Flow(0, "a", "b", 2500, 709, 965)
    assert nm.frame_bits(f, nm.NetworkConstants()) == (965 + 42) * 8
    assert nm.frame_bits(f, nm.NetworkConstants(frame_overhead=38)) == 1003 * 8


# ======================================================================
# validation diagnostics

def test_validate_clean_testcase():
    assert nm.validate_testcase(star_testcase()) == []


def test_validate_flow_without_route():
    tc = star_testcase()
    with pytest.raises(ValidationError) as err:
        nm.TestCase(tc.name, tc.topology,
                    tc.flows + (nm.Flow(1, "h2", "h1", 1000, 500, 100),),
                    tc.routes, tc.mechanism, tc.constants)
    assert str(err.value) == (
        "star: invalid test case: flows without a route: [1]")


def test_validate_route_with_missing_link():
    topo = nm.parse_topology(STAR_TOPO + "node,h3,es\nlink,h3,sw1\n")
    with pytest.raises(ValidationError) as err:
        nm.TestCase(
            "bad", topo,
            (nm.Flow(0, "h1", "h3", 1000, 500, 100),),
            (nm.Route(0, ("h1", "h2", "h3")),),
            "CBS", nm.NetworkConstants())
    assert "no link between h1 and h2" in str(err.value)
    assert "end-station h2 used as interior hop" in str(err.value)


def test_validate_cqf_needs_cycle():
    with pytest.raises(ValidationError) as err:
        star_testcase(mechanism="CQF")
    assert str(err.value) == (
        "star: invalid test case: CQF test case needs constants.cycle_T")
    assert nm.validate_testcase(star_testcase("CQF", cycle_T=50)) == []


def test_validate_cbs_needs_cut_through():
    # the CBS analysis and simulator model cut-through forwarding only
    with pytest.raises(ValidationError, match="cut_through = true"):
        star_testcase(cut_through=False)
    cqf = star_testcase("CQF", cycle_T=50, cut_through=False)
    assert nm.validate_testcase(cqf) == []


def test_validate_route_endpoint_mismatch():
    tc = star_testcase()
    with pytest.raises(ValidationError) as err:
        nm.TestCase(tc.name, tc.topology, tc.flows,
                    (nm.Route(0, ("h2", "sw1", "h1")),),
                    tc.mechanism, tc.constants)
    assert "starts at h2" in str(err.value)
    assert "ends at h1" in str(err.value)


# ======================================================================
# port table

@st.composite
def generated_testcases(draw):
    kind = draw(st.sampled_from(testgen.TOPOLOGY_KINDS))
    switches = 1 if kind == testgen.ONE_SWITCH else draw(st.integers(3, 6))
    hosts = draw(st.integers(1, 3)) if switches > 1 else draw(st.integers(2, 4))
    n_hosts = switches * hosts
    spec = testgen.GenSpec(
        kind, switches, hosts,
        draw(st.integers(1, min(20, n_hosts * (n_hosts - 1) // 2))),
        seed=draw(st.integers(0, 10**6)))
    consts = nm.NetworkConstants(frame_overhead=draw(st.integers(0, 60)))
    return testgen.build_testcase(kind, spec, nm.CBS, consts)


@given(generated_testcases())
def test_port_table_is_the_routes_port_view(tc):
    ports, path, members, bits = nm.port_table(tc)
    assert ports == sorted(set(ports))
    for r in tc.routes:
        assert [ports[i] for i in path[r.flow_id]] == list(r.ports)
        # hop k has a next port exactly when the node it reaches is a
        # switch; otherwise that node is the listener
        for k in range(r.link_count):
            assert (k + 1 < len(path[r.flow_id])) == \
                tc.topology.is_switch(r.hops[k + 1])
    for i in range(len(ports)):
        assert members[i] == [(fid, k) for fid in sorted(path)
                              for k, j in enumerate(path[fid]) if j == i]
    assert bits == {f.id: nm.frame_bits(f, tc.constants) for f in tc.flows}
    assert all(type(b) is int for b in bits.values())


# ======================================================================
# round-trips and bundle IO

names = st.text(alphabet="abcdefgh123_", min_size=1, max_size=6)


@given(st.lists(
    st.tuples(names, names, st.integers(1, 10**6), st.integers(1, 10**6),
              st.integers(1, 1500)),
    max_size=8))
def test_flow_roundtrip(specs):
    flows = []
    for i, (src, dst, period, deadline, payload) in enumerate(specs):
        if src == dst:
            dst = src + "x"
        flows.append(nm.Flow(i, src, dst, period, deadline, payload))
    text = nm.serialize_flows(flows)
    assert nm.parse_flows(text) == flows
    assert nm.serialize_flows(nm.parse_flows(text)) == text


def test_topology_roundtrip():
    topo = nm.parse_topology(STAR_TOPO)
    text = nm.serialize_topology(topo)
    again = nm.parse_topology(text)
    assert nm.serialize_topology(again) == text
    assert set(again.nodes) == set(topo.nodes)


def test_route_roundtrip():
    routes = [nm.Route(1, ("b", "s", "a")), nm.Route(0, ("a", "s", "b"))]
    text = nm.serialize_routes(routes)
    assert text.splitlines()[0].startswith("0:")
    assert nm.parse_routes(text) == sorted(routes, key=lambda r: r.flow_id)


def test_constants_json_roundtrip():
    consts = nm.NetworkConstants(frame_overhead=38, cycle_T=F(50))
    text = nm.constants_to_json("CQF", consts)
    mech, back = nm.constants_from_json(text)
    assert mech == "CQF"
    assert back == consts


def test_constants_json_rejects_unknown_keys():
    with pytest.raises(ParseError, match="unknown constants"):
        nm.constants_from_json('{"mechanism": "CBS", "constants": {"x": 1}}')


@pytest.mark.parametrize("key, raw, message", [
    ("link_rate", '"abc"', "link_rate: not a rational quantity: 'abc'"),
    ("link_rate", "1e999", "link_rate: not a rational quantity: inf"),
    ("link_rate", '"1/0"', "link_rate: not a rational quantity: '1/0'"),
    ("frame_overhead", '"x"', "frame_overhead must be an integer"),
    ("cut_through", '"no"', "cut_through must be true or false"),
], ids=["rate_text", "rate_inf", "rate_zero_denominator", "overhead_text",
        "cut_through_text"])
def test_constants_json_bad_value_is_parse_error(key, raw, message):
    text = '{"mechanism": "CBS", "constants": {"%s": %s}}' % (key, raw)
    with pytest.raises(ParseError) as err:
        nm.constants_from_json(text)
    assert str(err.value).startswith(message)


def test_bundle_save_load_identity(tmp_path):
    tc = star_testcase("CQF", cycle_T=100)
    paths = nm.save_testcase(tc, tmp_path)
    assert sorted(p.name for p in paths.values()) == [
        "star_config.json", "star_flows.txt", "star_route.txt", "star_topo.txt"]
    back = nm.load_testcase(tmp_path)
    assert back.name == "star"
    assert back.flows == tc.flows
    assert back.routes == tc.routes
    assert back.mechanism == "CQF"
    assert back.constants == tc.constants
    # byte stability: saving the loaded case reproduces identical files
    other = tmp_path / "again"
    nm.save_testcase(back, other)
    for key, path in nm.bundle_paths(other, "star").items():
        assert path.read_bytes() == paths[key].read_bytes()


def test_load_rejects_invalid_strict(tmp_path):
    tc = star_testcase()
    nm.save_testcase(tc, tmp_path)
    flows_file = tmp_path / "star_flows.txt"
    flows_file.write_text("0,h1,h2,1000,500,100\n1,h1,h2,1000,500,64\n",
                          encoding="utf-8")
    with pytest.raises(ValidationError,
                       match="star: invalid test case: flows without a route"):
        nm.load_testcase(tmp_path)


def test_load_missing_file(tmp_path):
    tc = star_testcase()
    nm.save_testcase(tc, tmp_path)
    (tmp_path / "star_route.txt").unlink()
    with pytest.raises(ParseError, match="star_route.txt"):
        nm.load_testcase(tmp_path)
