"""Generator tests: topology families, flow draws, shortest routes against
the best-first path enumerator in oracles (itself checked against a
brute-force path search), and manifest-driven regeneration."""
import functools
import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tsnwcd import testgen
from tsnwcd.errors import ValidationError
from tsnwcd.netmodel import (
    ES,
    SW,
    Flow,
    Link,
    Node,
    Topology,
    frame_bits,
    load_testcase,
    serialize_routes,
    serialize_topology,
    validate_testcase,
)


def spec(kind="one_switch", switches=1, hosts=5, flows=1, **kw):
    return testgen.GenSpec(topology_kind=kind, switch_count=switches,
                           hosts_per_switch=hosts, flow_count=flows, **kw)


def all_simple_paths(topo, src, dst):
    """Exhaustive loop-free enumeration, switches-only interior."""
    found = []

    def dfs(path):
        last = path[-1]
        if last == dst:
            found.append(tuple(path))
            return
        for nb in topo.neighbors(last):
            if nb in path:
                continue
            if nb != dst and not topo.is_switch(nb):
                continue
            dfs(path + [nb])

    dfs([src])
    return sorted(found, key=lambda p: (len(p), p))


@functools.cache
def corpus_testcases():
    return tuple(testgen.testcase_from_entry(e)
                 for e in testgen.default_manifest())


# topologies


def test_one_switch_star_counts():
    topo = testgen.gen_topology(spec(hosts=5))
    assert len(topo.nodes) == 6
    assert len(topo.links) == 5
    assert topo.switches() == ["sw1"]
    assert topo.end_stations() == [f"node1_{h}" for h in range(1, 6)]


def test_ring_counts_and_closure():
    topo = testgen.gen_topology(spec(kind="ring", switches=6, hosts=2))
    assert len(topo.nodes) == 18
    assert len(topo.links) == 18
    assert topo.has_link("sw6", "sw1")
    for j in range(1, 6):
        assert topo.has_link(f"sw{j}", f"sw{j + 1}")
    assert topo.has_link("node3_2", "sw3")


def test_mesh_counts_and_tree():
    s = spec(kind="medium_mesh", switches=5, hosts=2, seed=3)
    topo = testgen.gen_topology(s)
    assert len(topo.nodes) == 15
    switch_links = [l for l in topo.links
                    if topo.is_switch(l.a) and topo.is_switch(l.b)]
    assert len(switch_links) >= 4           # spanning tree at minimum
    assert len(topo.links) == 10 + len(switch_links)


def test_topology_determinism_and_seed_sensitivity():
    s = spec(kind="medium_mesh", switches=6, hosts=1, seed=11)
    a = serialize_topology(testgen.gen_topology(s))
    b = serialize_topology(testgen.gen_topology(s))
    assert a == b
    variants = {
        serialize_topology(testgen.gen_topology(
            spec(kind="medium_mesh", switches=6, hosts=1, seed=n)))
        for n in range(6)}
    assert len(variants) > 1


def test_spec_validation():
    with pytest.raises(ValidationError):
        spec(kind="torus")
    with pytest.raises(ValidationError):
        spec(kind="ring", switches=2)
    with pytest.raises(ValidationError):
        spec(kind="one_switch", switches=3)
    with pytest.raises(ValidationError):
        spec(flows=0)
    with pytest.raises(ValidationError):
        spec(payload_range=(0, 100))
    with pytest.raises(ValidationError):
        spec(payload_range=(64, 2000))


# flows


def test_flows_ranges_and_distinct_pairs():
    s = spec(hosts=8, flows=10, payload_range=(64, 700), seed=5)
    topo = testgen.gen_topology(s)
    flows = testgen.gen_flows(s, topo)
    assert [f.id for f in flows] == list(range(10))
    pairs = {frozenset((f.src, f.dst)) for f in flows}
    assert len(pairs) == 10
    for f in flows:
        assert 64 <= f.payload_bytes <= 700
        assert f.period in (F(1000), F(2500), F(5000))
        assert F(500) <= f.deadline <= F(5000)


def test_flows_two_host_star_forced_pair():
    s = spec(hosts=2, flows=1)
    topo = testgen.gen_topology(s)
    f, = testgen.gen_flows(s, topo)
    assert {f.src, f.dst} == {"node1_1", "node1_2"}


def test_flows_too_many_pairs():
    s = spec(hosts=3, flows=4)   # C(3,2) = 3 < 4
    topo = testgen.gen_topology(s)
    with pytest.raises(ValidationError):
        testgen.gen_flows(s, topo)


def test_flows_deterministic():
    s = spec(hosts=6, flows=5, seed=21)
    topo = testgen.gen_topology(s)
    assert testgen.gen_flows(s, topo) == testgen.gen_flows(s, topo)


# routing


def test_k_shortest_star_unique_path():
    s = spec(hosts=3)
    topo = testgen.gen_topology(s)
    f = Flow(0, "node1_1", "node1_3", F(1000), F(5000), 100)
    routes = oracles.k_shortest_routes(topo, f, 3)
    assert len(routes) == 1
    assert routes[0].hops == ("node1_1", "sw1", "node1_3")
    assert testgen.shortest_routes(topo, [f]) == (routes[0],)


def test_k_shortest_ring_lexicographic_direction():
    s = spec(kind="ring", switches=6, hosts=1)
    topo = testgen.gen_topology(s)
    f = Flow(0, "node1_1", "node4_1", F(1000), F(5000), 100)
    routes = oracles.k_shortest_routes(topo, f, 2)
    oracle = all_simple_paths(topo, "node1_1", "node4_1")
    assert routes[0].hops == oracle[0]
    assert routes[0].hops == ("node1_1", "sw1", "sw2", "sw3", "sw4", "node4_1")
    assert routes[1].hops == oracle[1] == (
        "node1_1", "sw1", "sw6", "sw5", "sw4", "node4_1")
    assert testgen.shortest_routes(topo, [f]) == (routes[0],)


def test_k_shortest_matches_bruteforce_on_meshes():
    for seed in (1, 2, 3):
        s = spec(kind="medium_mesh", switches=4, hosts=1, seed=seed)
        topo = testgen.gen_topology(s)
        hosts = topo.end_stations()
        f = Flow(0, hosts[0], hosts[-1], F(1000), F(5000), 100)
        oracle = all_simple_paths(topo, f.src, f.dst)
        k = min(3, len(oracle))
        got = oracles.k_shortest_routes(topo, f, 3)
        assert [r.hops for r in got[:k]] == oracle[:k]
        assert testgen.shortest_routes(topo, [f])[0].hops == oracle[0]


def test_k_shortest_unreachable_through_es():
    # b is only reachable through end-station c, which cannot forward
    topo = Topology(
        [Node("a", ES), Node("b", ES), Node("c", ES),
         Node("s1", SW), Node("s2", SW)],
        [Link("a", "s1"), Link("s1", "c"), Link("c", "s2"), Link("s2", "b")])
    f = Flow(0, "a", "b", F(1000), F(5000), 100)
    with pytest.raises(ValidationError):
        oracles.k_shortest_routes(topo, f)
    with pytest.raises(ValidationError, match="no route from a to b"):
        testgen.shortest_routes(topo, [f])


def test_shortest_route_sorts_names_as_strings():
    # both ways round are two switch hops; "sw10" < "sw2" as a str
    topo = Topology(
        [Node("a", ES), Node("b", ES), Node("sw2", SW), Node("sw10", SW)],
        [Link("a", "sw2"), Link("a", "sw10"),
         Link("sw2", "b"), Link("sw10", "b")])
    f = Flow(0, "a", "b", F(1000), F(5000), 100)
    assert testgen.shortest_routes(topo, [f])[0].hops == ("a", "sw10", "b")


def flows_between_all(topo):
    hosts = topo.end_stations()
    return [Flow(i, a, b, F(1000), F(5000), 100) for i, (a, b) in enumerate(
        (a, b) for a in hosts for b in hosts if a != b)]


@st.composite
def hand_built_topologies(draw):
    """A connected topology over names n0..n<N-1>, so "n10" sorts before
    "n2": at least two end stations and at most six switches, a random
    spanning tree plus random extra links (end stations may link to each
    other and to several switches), and a flow for every ordered pair of
    end stations."""
    kinds = draw(st.lists(st.sampled_from((ES, SW)), min_size=3, max_size=12)
                 .filter(lambda ks: ks.count(ES) >= 2 and ks.count(SW) <= 6))
    names = [f"n{i}" for i in range(len(kinds))]
    order = draw(st.permutations(names))
    pairs = {frozenset((node, order[draw(st.integers(0, i - 1))]))
             for i, node in enumerate(order) if i}
    every = [frozenset((a, b)) for i, a in enumerate(names)
             for b in names[i + 1:]]
    pairs |= set(draw(st.lists(st.sampled_from(every), max_size=12)))
    topo = Topology([Node(n, k) for n, k in zip(names, kinds)],
                    [Link(*sorted(p)) for p in sorted(pairs, key=sorted)])
    return topo, flows_between_all(topo)


@st.composite
def generated_topologies(draw):
    """A generated topology of any family, one host per switch (two to
    four on a star), and a flow for every ordered pair of hosts.  Even
    rings tie at the far side, where the two branches of a search from
    the destination meet out of name order."""
    kind = draw(st.sampled_from(testgen.TOPOLOGY_KINDS))
    if kind == testgen.ONE_SWITCH:
        shape = dict(switches=1, hosts=draw(st.integers(2, 4)))
    else:
        shape = dict(switches=draw(st.integers(3, 10)), hosts=1)
    topo = testgen.gen_topology(spec(kind, seed=draw(st.integers(0, 2 ** 31)),
                                     **shape))
    return topo, flows_between_all(topo)


@settings(deadline=None, max_examples=150)
@given(st.one_of(hand_built_topologies(), generated_topologies()))
def test_shortest_routes_match_first_enumerated_route(case):
    topo, flows = case
    expected = []
    for f in flows:
        try:
            best = oracles.k_shortest_routes(topo, f, 1)[0]
        except ValidationError:
            with pytest.raises(ValidationError,
                               match=f"no route from {f.src} to {f.dst}"):
                testgen.shortest_routes(topo, [f])
            continue
        assert testgen.shortest_routes(topo, [f]) == (best,)
        expected.append(best)
    reachable = [f for f in flows if any(r.flow_id == f.id for r in expected)]
    assert testgen.shortest_routes(topo, reachable) == tuple(expected)


# bundles and manifests


def test_build_and_emit_roundtrip(tmp_path):
    s = spec(kind="ring", switches=4, hosts=2, flows=5, seed=9,
             payload_range=(64, 700))
    tc = testgen.build_testcase("rt", s, "CBS", testgen.NetworkConstants())
    assert validate_testcase(tc) == []
    out = testgen.emit_testcase(tc, tmp_path)
    again = load_testcase(out)
    assert serialize_topology(again.topology) == serialize_topology(tc.topology)
    assert again.flows == tc.flows
    assert again.routes == tc.routes
    assert again.constants == tc.constants
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    testgen.emit_testcase(tc, tmp_path)
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert first == second


def test_manifest_regeneration_identical_trees(tmp_path):
    manifest = testgen.manifest_to_json(testgen.default_manifest()[:6])
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out_dir in (a_dir, b_dir):
        for entry in testgen.parse_manifest(manifest):
            testgen.emit_testcase(testgen.testcase_from_entry(entry), out_dir)
    a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
    assert a_files == b_files and a_files
    for rel in a_files:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()


def test_default_manifest_shape():
    entries = testgen.default_manifest()
    assert len(entries) == 30
    names = [e["name"] for e in entries]
    assert names == [f"TC{i}" for i in range(1, 31)]
    kinds = [e["spec"]["topology_kind"] for e in entries]
    assert kinds.count("one_switch") == 10
    assert kinds.count("ring") == 10
    assert kinds.count("medium_mesh") == 10
    for kind in testgen.TOPOLOGY_KINDS:
        mechs = [e["mechanism"] for e in entries
                 if e["spec"]["topology_kind"] == kind]
        assert mechs.count("CBS") == 5 and mechs.count("CQF") == 5


def test_corpus_testcases_validate():
    for tc in corpus_testcases():
        assert validate_testcase(tc) == []
        assert len(tc.flows) >= 4


def test_corpus_cbs_statically_stable():
    # worst-case per-port demand stays below the 75 bits/us allocation
    for tc in corpus_testcases():
        if tc.mechanism != "CBS":
            continue
        idle = tc.constants.idle_slope_fraction * tc.constants.link_rate
        port_demand = {}
        for f in tc.flows:
            rho = frame_bits(f, tc.constants) / f.period
            for p in tc.route_for(f.id).ports:
                port_demand[p] = port_demand.get(p, F(0)) + rho
        assert all(d < idle for d in port_demand.values())


def test_corpus_cqf_cycle_margin():
    # every port fits all its flows' frames plus propagation and switching
    # into one cycle regardless of release alignment
    for tc in corpus_testcases():
        if tc.mechanism != "CQF":
            continue
        T = tc.constants.cycle_T
        margin = tc.constants.propagation + tc.constants.switching
        port_tx = {}
        for f in tc.flows:
            tx = frame_bits(f, tc.constants) / tc.constants.link_rate
            for p in tc.route_for(f.id).ports:
                port_tx[p] = port_tx.get(p, F(0)) + tx
        assert all(total + margin <= T for total in port_tx.values())


def test_corpus_routes_are_first_shortest():
    for tc in corpus_testcases():
        for f in tc.flows:
            best = oracles.k_shortest_routes(tc.topology, f, 1)[0]
            assert tc.route_for(f.id).hops == best.hops


# ======================================================================
# pinned bytes: the serialized routes of large generated cases, where
# shortest-path ties are common, recorded once and compared on every run;
# regenerate them only on purpose, with
# `PYTHONPATH=src python tests/test_testgen.py`

ROUTE_DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "route_digests.json"
# (kind, switches, hosts per switch, flows) x GenSpec seeds
ROUTE_DIGEST_SHAPES = (("medium_mesh", 12, 4, 160), ("ring", 10, 4, 80))
ROUTE_DIGEST_SEEDS = (1, 2, 3)


def route_digests():
    out = {}
    for kind, switches, hosts, flows in ROUTE_DIGEST_SHAPES:
        for seed in ROUTE_DIGEST_SEEDS:
            name = f"{kind}_{switches}x{hosts}_{flows}_s{seed}"
            tc = testgen.build_testcase(
                name, spec(kind, switches, hosts, flows, seed=seed), "CBS",
                testgen.NetworkConstants())
            out[name] = hashlib.sha256(
                serialize_routes(tc.routes).encode()).hexdigest()
    return out


def test_route_bytes_match_pinned_digests():
    pinned = json.loads(ROUTE_DIGESTS_PATH.read_text())
    assert route_digests() == pinned


if __name__ == "__main__":
    ROUTE_DIGESTS_PATH.parent.mkdir(exist_ok=True)
    ROUTE_DIGESTS_PATH.write_text(json.dumps(route_digests(), indent=2,
                                             sort_keys=True) + "\n")
