"""Deterministic test-case generation.

Three topology families: a star of hosts on one switch, a ring of switches
with hosts attached, and a seeded random mesh (spanning tree plus extra
edges).  Flows draw distinct host pairs, periods, payloads, and deadlines
from a seeded RNG; each route is the flow's shortest path through switches,
ties going to the least node sequence.  Everything regenerates
bit-identically from (spec, seed), so a corpus is fully described by its
manifest.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import ParseError, ToolkitError, ValidationError
from .netmodel import (
    ES,
    MTU_BYTES,
    SW,
    Flow,
    Link,
    NetworkConstants,
    Node,
    Route,
    TestCase,
    Topology,
    constants_from_json,
    constants_to_json,
    is_int,
    json_text,
    save_testcase,
)

ONE_SWITCH = "one_switch"
RING = "ring"
MEDIUM_MESH = "medium_mesh"
TOPOLOGY_KINDS = (ONE_SWITCH, RING, MEDIUM_MESH)

_MESH_EDGE_PROBABILITY = 0.5


@dataclass(frozen=True)
class GenSpec:
    topology_kind: str
    switch_count: int
    hosts_per_switch: int
    flow_count: int
    period_choices: tuple = (1000, 2500, 5000)
    payload_range: tuple = (64, 1500)
    deadline_range: tuple = (500, 5000)
    seed: int = 0

    def __post_init__(self):
        for key in ("switch_count", "hosts_per_switch", "flow_count",
                    "seed"):
            if not is_int(getattr(self, key)):
                raise ValidationError(
                    f"{key} must be an integer, got {getattr(self, key)!r}")
        for key in ("payload_range", "deadline_range"):
            pair = getattr(self, key)
            if len(pair) != 2 or not all(map(is_int, pair)):
                raise ValidationError(
                    f"{key} must hold two integers, got {pair!r}")
        # checked, not converted, so the manifest keeps each period as given
        if not all(map(_positive_rational, self.period_choices)):
            raise ValidationError(f"period_choices must be positive "
                                  f"rationals, got {self.period_choices!r}")
        if self.topology_kind not in TOPOLOGY_KINDS:
            raise ValidationError(f"unknown topology kind {self.topology_kind!r}")
        if self.topology_kind == ONE_SWITCH and self.switch_count != 1:
            raise ValidationError("one_switch topology needs switch_count = 1")
        if self.topology_kind == RING and self.switch_count < 3:
            raise ValidationError("ring topology needs at least 3 switches")
        if self.switch_count < 1 or self.hosts_per_switch < 1:
            raise ValidationError("switch and host counts must be >= 1")
        if self.flow_count < 1:
            raise ValidationError("flow_count must be >= 1")
        object.__setattr__(self, "period_choices",
                           tuple(sorted(self.period_choices)))
        if not self.period_choices:
            raise ValidationError("period_choices must not be empty")
        lo, hi = self.payload_range
        if not (0 < lo <= hi <= MTU_BYTES):
            raise ValidationError(
                f"payload_range must lie within (0, {MTU_BYTES}]")
        dlo, dhi = self.deadline_range
        if not (0 < dlo <= dhi):
            raise ValidationError("deadline_range must be positive")


def _positive_rational(x) -> bool:
    """x is positive as gen_flows reads it, through Fraction; a bool, which
    Fraction takes as 0 or 1, is not a period."""
    if isinstance(x, bool):
        return False
    try:
        return Fraction(x) > 0
    except (ValueError, TypeError, ArithmeticError):
        return False


def _host(switch_index: int, host_index: int) -> str:
    return f"node{switch_index}_{host_index}"


def gen_topology(spec: GenSpec) -> Topology:
    """Deterministic topology for the spec's family and seed."""
    rng = random.Random(f"{spec.seed}:topology")
    K, H = spec.switch_count, spec.hosts_per_switch
    nodes = [Node(f"sw{j}", SW) for j in range(1, K + 1)]
    links = []
    for j in range(1, K + 1):
        for h in range(1, H + 1):
            nodes.append(Node(_host(j, h), ES))
            links.append(Link(_host(j, h), f"sw{j}"))
    if spec.topology_kind == RING:
        for j in range(1, K):
            links.append(Link(f"sw{j}", f"sw{j + 1}"))
        links.append(Link(f"sw{K}", "sw1"))
    elif spec.topology_kind == MEDIUM_MESH:
        # random spanning tree, then extra edges with fixed probability
        for j in range(2, K + 1):
            links.append(Link(f"sw{j}", f"sw{rng.randrange(1, j)}"))
        tree = {frozenset((l.a, l.b)) for l in links}
        for i in range(1, K + 1):
            for j in range(i + 1, K + 1):
                pair = frozenset((f"sw{i}", f"sw{j}"))
                if pair not in tree and rng.random() < _MESH_EDGE_PROBABILITY:
                    links.append(Link(f"sw{i}", f"sw{j}"))
    return Topology(nodes, links)


def gen_flows(spec: GenSpec, topo: Topology) -> tuple[Flow, ...]:
    """flow_count flows over distinct end-station pairs."""
    hosts = topo.end_stations()
    if len(hosts) < 2:
        raise ValidationError("need at least 2 end stations for flows")
    pairs = [(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1:]]
    if spec.flow_count > len(pairs):
        raise ValidationError(
            f"cannot draw {spec.flow_count} distinct pairs from "
            f"{len(hosts)} end stations")
    rng = random.Random(f"{spec.seed}:flows")
    chosen = rng.sample(pairs, spec.flow_count)
    flows = []
    for i, (a, b) in enumerate(chosen):
        src, dst = (a, b) if rng.random() < 0.5 else (b, a)
        period = Fraction(rng.choice(spec.period_choices))
        payload = rng.randint(*spec.payload_range)
        deadline = Fraction(rng.randint(*spec.deadline_range))
        flows.append(Flow(i, src, dst, period, deadline, payload))
    return tuple(flows)


def shortest_routes(topo: Topology, flows: Sequence[Flow]) -> tuple[Route, ...]:
    """Each flow's shortest route, least in lexicographic node order.

    Interior hops are switches only.  One breadth-first search per distinct
    destination gives every node that can reach it its next hop; the walk
    from the source follows those hops.
    """
    next_hop_by_dst: dict[str, dict[str, str]] = {}
    routes = []
    for f in flows:
        next_hop = next_hop_by_dst.get(f.dst)
        if next_hop is None:
            next_hop = next_hop_by_dst[f.dst] = _next_hops(topo, f.dst)
        if f.src not in next_hop:
            raise ValidationError(f"no route from {f.src} to {f.dst}")
        hops = [f.src]
        while hops[-1] != f.dst:
            hops.append(next_hop[hops[-1]])
        routes.append(Route(f.id, tuple(hops)))
    return tuple(routes)


def _next_hops(topo: Topology, dst: str) -> dict[str, str]:
    """Breadth-first search from dst in which only dst and switches are
    expanded, so an end station is reached but forwards nothing.  Each
    level is expanded in name order, so the node that first reaches a
    neighbour is the least-named switch or dst one hop closer: the step a
    lexicographically least shortest path takes from that neighbour.  dst
    maps to itself."""
    next_hop = {dst: dst}
    frontier = [dst]
    while frontier:
        reached = []
        for node in sorted(frontier):
            for nb in topo.neighbors(node):
                if nb not in next_hop:
                    next_hop[nb] = node
                    if topo.is_switch(nb):
                        reached.append(nb)
        frontier = reached
    return next_hop


def build_testcase(name: str, spec: GenSpec, mechanism: str,
                   constants: NetworkConstants) -> TestCase:
    """Topology, flows, and shortest routes assembled and validated."""
    topo = gen_topology(spec)
    flows = gen_flows(spec, topo)
    return TestCase(name, topo, flows, shortest_routes(topo, flows),
                    mechanism, constants)


def emit_testcase(tc: TestCase, out_dir) -> Path:
    """Write the four-file bundle under out_dir/<name>/."""
    target = Path(out_dir) / tc.name
    save_testcase(tc, target)
    return target


# manifests

def manifest_entry(name: str, spec: GenSpec, mechanism: str,
                   constants: NetworkConstants) -> dict:
    config = json.loads(constants_to_json(mechanism, constants))
    return {
        "name": name,
        "mechanism": config["mechanism"],
        "constants": config["constants"],
        "spec": {
            "topology_kind": spec.topology_kind,
            "switch_count": spec.switch_count,
            "hosts_per_switch": spec.hosts_per_switch,
            "flow_count": spec.flow_count,
            "period_choices": list(spec.period_choices),
            "payload_range": list(spec.payload_range),
            "deadline_range": list(spec.deadline_range),
            "seed": spec.seed,
        },
    }


def manifest_to_json(entries: Sequence[dict]) -> str:
    return json_text({"testcases": list(entries)})


def parse_manifest(text: str) -> list[dict]:
    """The manifest's entries.  A name must be one plain path component
    and may appear once, since each entry writes the bundle and truth file
    its name picks."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "testcases" not in doc:
        raise ParseError("manifest needs a testcases list")
    entries = doc["testcases"]
    if not isinstance(entries, list):
        raise ParseError(
            f"testcases must be a list, got {type(entries).__name__}")
    names = set()
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if isinstance(name, str):
            if name in ("", ".", "..") or "/" in name or "\\" in name:
                raise ParseError(f"manifest entry {name!r}: name must be "
                                 "one plain path component")
            if name in names:
                raise ParseError(f"test case name {name!r} appears twice")
            names.add(name)
    return entries


def testcase_from_entry(entry: dict) -> TestCase:
    """Build one manifest entry; a malformed entry raises ParseError naming
    the entry and the key, and one that cannot be built a ParseError naming
    the entry."""
    if not isinstance(entry, dict):
        raise ParseError(f"manifest entry must be an object, got {entry!r}")
    where = f"manifest entry {entry.get('name', '?')!r}"
    for key in ("name", "mechanism", "constants", "spec"):
        if key not in entry:
            raise ParseError(f"{where}: missing key {key!r}")
    if not isinstance(entry["name"], str):
        raise ParseError(f"{where}: name must be a string")
    try:
        spec_fields = dict(entry["spec"])
        for key in ("period_choices", "payload_range", "deadline_range"):
            spec_fields[key] = tuple(spec_fields[key])
        spec = GenSpec(**spec_fields)
        mech, constants = constants_from_json(json.dumps(
            {"mechanism": entry["mechanism"],
             "constants": entry["constants"]}))
    except KeyError as exc:
        raise ParseError(f"{where}: spec is missing key {exc}") from exc
    except (TypeError, ValueError, ToolkitError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    try:
        return build_testcase(entry["name"], spec, mech, constants)
    except ToolkitError as exc:
        raise ParseError(f"{where}: {exc}") from exc


# the shipped corpus

def default_manifest() -> list[dict]:
    """30 test cases: per topology family, 5 CBS and 5 CQF.

    Parameter windows keep every case analyzable without a search: CBS port
    demand stays under the 75 bits/us class allocation even if every flow
    shared one port, and CQF per-cycle load plus propagation and switching
    fits a 100 us cycle under any release alignment.
    """
    cbs_consts = NetworkConstants()
    cqf_consts = NetworkConstants(cycle_T=Fraction(100))
    families = [
        (ONE_SWITCH, dict(switch_count=1, hosts_per_switch=8)),
        (RING, dict(switch_count=5, hosts_per_switch=2)),
        (MEDIUM_MESH, dict(switch_count=5, hosts_per_switch=2)),
    ]
    entries = []
    idx = 0
    for kind, shape in families:
        for mechanism in ("CBS", "CQF"):
            for j in range(5):
                idx += 1
                seed = 7000 + 100 * idx + j
                if mechanism == "CBS":
                    spec = GenSpec(
                        topology_kind=kind, flow_count=6 + j % 4,
                        payload_range=(64, 700),
                        deadline_range=(500, 5000), seed=seed, **shape)
                    consts = cbs_consts
                else:
                    spec = GenSpec(
                        topology_kind=kind, flow_count=4 + j % 3,
                        payload_range=(64, 120),
                        deadline_range=(500, 5000), seed=seed, **shape)
                    consts = cqf_consts
                entries.append(manifest_entry(f"TC{idx}", spec, mechanism, consts))
    return entries
