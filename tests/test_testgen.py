"""Generator tests: topology families, flow draws, k-shortest routing
against a brute-force path oracle, and manifest-driven regeneration."""
import functools
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

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
    routes = testgen.k_shortest_routes(topo, f, 3)
    assert len(routes) == 1
    assert routes[0].hops == ("node1_1", "sw1", "node1_3")


def test_k_shortest_ring_lexicographic_direction():
    s = spec(kind="ring", switches=6, hosts=1)
    topo = testgen.gen_topology(s)
    f = Flow(0, "node1_1", "node4_1", F(1000), F(5000), 100)
    routes = testgen.k_shortest_routes(topo, f, 2)
    oracle = all_simple_paths(topo, "node1_1", "node4_1")
    assert routes[0].hops == oracle[0]
    assert routes[0].hops == ("node1_1", "sw1", "sw2", "sw3", "sw4", "node4_1")
    assert routes[1].hops == oracle[1] == (
        "node1_1", "sw1", "sw6", "sw5", "sw4", "node4_1")


def test_k_shortest_matches_bruteforce_on_meshes():
    for seed in (1, 2, 3):
        s = spec(kind="medium_mesh", switches=4, hosts=1, seed=seed)
        topo = testgen.gen_topology(s)
        hosts = topo.end_stations()
        f = Flow(0, hosts[0], hosts[-1], F(1000), F(5000), 100)
        oracle = all_simple_paths(topo, f.src, f.dst)
        k = min(3, len(oracle))
        got = testgen.k_shortest_routes(topo, f, 3)
        assert [r.hops for r in got[:k]] == oracle[:k]


def test_k_shortest_unreachable_through_es():
    # b is only reachable through end-station c, which cannot forward
    topo = Topology(
        [Node("a", ES), Node("b", ES), Node("c", ES),
         Node("s1", SW), Node("s2", SW)],
        [Link("a", "s1"), Link("s1", "c"), Link("c", "s2"), Link("s2", "b")])
    f = Flow(0, "a", "b", F(1000), F(5000), 100)
    with pytest.raises(ValidationError):
        testgen.k_shortest_routes(topo, f)


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
    for tc in corpus_testcases()[:4]:
        for f in tc.flows:
            best = testgen.k_shortest_routes(tc.topology, f, 1)[0]
            assert tc.route_for(f.id).hops == best.hops
