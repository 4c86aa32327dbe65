"""Domain types and file formats for TSN test cases.

A test case is a bundle directory with four files:

    <name>_topo.txt    node,<id>,<kind> and link,<a>,<b> lines (kind: es|sw)
    <name>_flows.txt   id,src,dst,period,deadline,payload lines
    <name>_route.txt   flowId:node1>node2>...>nodeK lines
    <name>_config.json mechanism plus network constants

All files are UTF-8 with LF endings; '#'-prefixed lines and blank lines are
ignored on parse.  Times are microseconds, rates bits per microsecond;
payloads stay in bytes as parsed and are converted to wire bits exactly once
in frame_bits().
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Union

from .errors import ParseError, ValidationError
from .minplus import frac

MTU_BYTES = 1500

ES = "es"
SW = "sw"

CBS = "CBS"
CQF = "CQF"
MECHANISMS = (CBS, CQF)


def _fmt_num(x: Fraction) -> str:
    """Lossless text form: plain integer when possible, n/d otherwise."""
    x = frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def json_num(x: Fraction) -> Union[int, float]:
    x = frac(x)
    if x.denominator == 1:
        return x.numerator
    return float(x)


def content_lines(text: str):
    """(line_number, stripped_line) pairs with comments and blanks dropped."""
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield i, stripped


# ======================================================================
# types

@dataclass(frozen=True)
class Node:
    id: str
    kind: str

    def __post_init__(self):
        if not self.id:
            raise ValidationError("node id must be non-empty")
        if self.kind not in (ES, SW):
            raise ValidationError(f"node {self.id}: kind must be es or sw")


@dataclass(frozen=True)
class Link:
    """Undirected full-duplex link; rate and propagation delay come from the
    test case's NetworkConstants."""
    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise ValidationError(f"link {self.a}-{self.b}: self-loop")

    @property
    def pair(self) -> frozenset:
        return frozenset((self.a, self.b))


class Topology:
    """Nodes plus undirected links; validates existence, uniqueness and
    connectivity on construction."""

    def __init__(self, nodes: Iterable[Node], links: Iterable[Link]):
        self.nodes: dict[str, Node] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValidationError(f"duplicate node {n.id}")
            self.nodes[n.id] = n
        self.links: list[Link] = []
        seen: set[frozenset] = set()
        adj: dict[str, set[str]] = {nid: set() for nid in self.nodes}
        for l in links:
            for end in (l.a, l.b):
                if end not in self.nodes:
                    raise ValidationError(f"link references unknown node {end}")
            if l.pair in seen:
                raise ValidationError(f"duplicate link {l.a}-{l.b}")
            seen.add(l.pair)
            self.links.append(l)
            adj[l.a].add(l.b)
            adj[l.b].add(l.a)
        self._adj = {nid: tuple(sorted(peers)) for nid, peers in adj.items()}
        if self.nodes and not self._connected():
            raise ValidationError("topology is not connected")

    def _connected(self) -> bool:
        start = next(iter(self.nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for nid in frontier:
                for peer in self._adj[nid]:
                    if peer not in seen:
                        seen.add(peer)
                        nxt.append(peer)
            frontier = nxt
        return len(seen) == len(self.nodes)

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        return self._adj[node_id]

    def has_link(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def kind(self, node_id: str) -> str:
        return self.nodes[node_id].kind

    def is_switch(self, node_id: str) -> bool:
        return self.nodes[node_id].kind == SW

    def end_stations(self) -> list[str]:
        return sorted(n.id for n in self.nodes.values() if n.kind == ES)

    def switches(self) -> list[str]:
        return sorted(n.id for n in self.nodes.values() if n.kind == SW)


@dataclass(frozen=True)
class Flow:
    id: int
    src: str
    dst: str
    period: Fraction
    deadline: Fraction
    payload_bytes: int

    def __post_init__(self):
        object.__setattr__(self, "period", frac(self.period))
        object.__setattr__(self, "deadline", frac(self.deadline))
        if self.id < 0:
            raise ValidationError(f"flow id must be >= 0, got {self.id}")
        if self.src == self.dst:
            raise ValidationError(f"flow {self.id}: src equals dst")
        if self.period <= 0:
            raise ValidationError(f"flow {self.id}: period must be > 0")
        if self.deadline <= 0:
            raise ValidationError(f"flow {self.id}: deadline must be > 0")
        if not 0 < self.payload_bytes <= MTU_BYTES:
            raise ValidationError(
                f"flow {self.id}: payload must be in 1..{MTU_BYTES} bytes")

    @property
    def label(self) -> str:
        return f"F{self.id}"


@dataclass(frozen=True)
class Route:
    flow_id: int
    hops: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        if len(self.hops) < 2:
            raise ValidationError(f"route {self.flow_id}: needs at least 2 hops")
        if len(set(self.hops)) != len(self.hops):
            raise ValidationError(f"route {self.flow_id}: repeats a node")

    @property
    def ports(self) -> tuple[tuple[str, str], ...]:
        """Directed egress ports (node, next_node) the flow transmits on."""
        return tuple(zip(self.hops, self.hops[1:]))

    @property
    def link_count(self) -> int:
        return len(self.hops) - 1

    @property
    def switch_count(self) -> int:
        return len(self.hops) - 2


@dataclass(frozen=True)
class NetworkConstants:
    link_rate: Fraction = Fraction(100)        # bits/us (100 Mbps)
    propagation: Fraction = Fraction(1)        # us per link
    switching: Fraction = Fraction(1)          # us per switch
    sync_error: Fraction = Fraction(1)         # us, counted once end to end
    idle_slope_fraction: Fraction = Fraction(3, 4)
    frame_overhead: int = 42                   # bytes on the wire beyond payload
    cut_through: bool = True
    cycle_T: Optional[Fraction] = None         # us, CQF only

    def __post_init__(self):
        for name in ("link_rate", "propagation", "switching", "sync_error",
                     "idle_slope_fraction"):
            object.__setattr__(self, name, frac(getattr(self, name)))
        if self.cycle_T is not None:
            object.__setattr__(self, "cycle_T", frac(self.cycle_T))
            if self.cycle_T <= 0:
                raise ValidationError("cycle_T must be > 0")
        if self.link_rate <= 0:
            raise ValidationError("link_rate must be > 0")
        if self.propagation < 0 or self.switching < 0 or self.sync_error < 0:
            raise ValidationError("per-hop delays must be >= 0")
        if not 0 < self.idle_slope_fraction < 1:
            raise ValidationError("idle_slope_fraction must be in (0, 1)")
        if self.frame_overhead < 0:
            raise ValidationError("frame_overhead must be >= 0")


@dataclass(frozen=True)
class TestCase:
    """A complete, validated analysis input.  Construction runs
    validate_testcase and raises ValidationError listing every diagnostic,
    so every TestCase in hand is fit for analysis."""
    name: str
    topology: Topology
    flows: tuple[Flow, ...]
    routes: tuple[Route, ...]
    mechanism: str
    constants: NetworkConstants

    def __post_init__(self):
        object.__setattr__(self, "flows", tuple(self.flows))
        object.__setattr__(self, "routes", tuple(self.routes))
        if self.mechanism not in MECHANISMS:
            raise ValidationError(f"mechanism must be one of {MECHANISMS}")
        problems = validate_testcase(self)
        if problems:
            raise ValidationError(
                f"{self.name}: invalid test case: " + "; ".join(problems))
        object.__setattr__(self, "_flow_by_id", {f.id: f for f in self.flows})
        object.__setattr__(self, "_route_by_id",
                           {r.flow_id: r for r in self.routes})

    def flow(self, flow_id: int) -> Flow:
        try:
            return self._flow_by_id[flow_id]
        except KeyError:
            raise ValidationError(f"no flow {flow_id} in {self.name}") from None

    def route_for(self, flow_id: int) -> Route:
        try:
            return self._route_by_id[flow_id]
        except KeyError:
            raise ValidationError(
                f"no route for flow {flow_id} in {self.name}") from None

    def require(self, mechanism: str) -> None:
        """Raise ValidationError unless this is a test case for mechanism."""
        if self.mechanism != mechanism:
            raise ValidationError(
                f"{self.name} is a {self.mechanism} test case, not {mechanism}")


def frame_bits(flow: Flow, constants: NetworkConstants) -> Fraction:
    """Wire size of one frame in bits; the single bytes-to-bits conversion."""
    return Fraction((flow.payload_bytes + constants.frame_overhead) * 8)


# ======================================================================
# parsers

def parse_topology(text: str) -> Topology:
    nodes: list[Node] = []
    links: list[Link] = []
    declared: set[str] = set()
    for line_no, line in content_lines(text):
        fields = [f.strip() for f in line.split(",")]
        if fields[0] == "node":
            if len(fields) != 3:
                raise ParseError("node line needs node,<id>,<kind>", line_no)
            nid, kind = fields[1], fields[2]
            if kind not in (ES, SW):
                raise ParseError(f"unknown node kind {kind!r}", line_no)
            if nid in declared:
                raise ParseError(f"duplicate node {nid}", line_no)
            declared.add(nid)
            nodes.append(Node(nid, kind))
        elif fields[0] == "link":
            if len(fields) != 3:
                raise ParseError("link line needs link,<a>,<b>", line_no)
            a, b = fields[1], fields[2]
            for end in (a, b):
                if end not in declared:
                    raise ParseError(f"link references unknown node {end}", line_no)
            links.append(Link(a, b))
        else:
            raise ParseError(f"unknown record type {fields[0]!r}", line_no)
    try:
        return Topology(nodes, links)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def serialize_topology(topo: Topology) -> str:
    lines = [f"node,{n.id},{n.kind}" for n in
             sorted(topo.nodes.values(), key=lambda n: (n.kind, n.id))]
    lines += sorted(f"link,{l.a},{l.b}" for l in topo.links)
    return "\n".join(lines) + "\n"


def parse_flows(text: str) -> list[Flow]:
    flows: list[Flow] = []
    seen: set[int] = set()
    for line_no, line in content_lines(text):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 6:
            raise ParseError(
                "flow line needs id,src,dst,period,deadline,payload", line_no)
        try:
            fid = int(fields[0])
            flow = Flow(fid, fields[1], fields[2],
                        frac(fields[3]), frac(fields[4]), int(fields[5]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad numeric field: {exc}", line_no) from exc
        except ValidationError as exc:
            raise ParseError(str(exc), line_no) from exc
        if fid in seen:
            raise ParseError(f"duplicate flow id {fid}", line_no)
        seen.add(fid)
        flows.append(flow)
    return flows


def serialize_flows(flows: Iterable[Flow]) -> str:
    lines = [
        f"{f.id},{f.src},{f.dst},{_fmt_num(f.period)},"
        f"{_fmt_num(f.deadline)},{f.payload_bytes}"
        for f in sorted(flows, key=lambda f: f.id)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_routes(text: str,
                 flows: Optional[Iterable[Flow]] = None,
                 topology: Optional[Topology] = None) -> list[Route]:
    """Parse route lines; with flows/topology given, also reject unknown flow
    ids and non-adjacent consecutive hops."""
    known = {f.id for f in flows} if flows is not None else None
    routes: list[Route] = []
    seen: set[int] = set()
    for line_no, line in content_lines(text):
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError("route line needs flowId:node1>node2>...", line_no)
        try:
            fid = int(head.strip())
        except ValueError as exc:
            raise ParseError(f"bad flow id {head.strip()!r}", line_no) from exc
        hops = tuple(h.strip() for h in tail.split(">"))
        if any(not h for h in hops):
            raise ParseError("empty hop name", line_no)
        if fid in seen:
            raise ParseError(f"duplicate route for flow {fid}", line_no)
        seen.add(fid)
        if known is not None and fid not in known:
            raise ParseError(f"route for unknown flow id {fid}", line_no)
        try:
            route = Route(fid, hops)
        except ValidationError as exc:
            raise ParseError(str(exc), line_no) from exc
        if topology is not None:
            for a, b in route.ports:
                if a not in topology.nodes or b not in topology.nodes:
                    raise ParseError(f"route hop {a}>{b} names unknown node", line_no)
                if not topology.has_link(a, b):
                    raise ParseError(f"no link between {a} and {b}", line_no)
        routes.append(route)
    return routes


def serialize_routes(routes: Iterable[Route]) -> str:
    lines = [f"{r.flow_id}:{'>'.join(r.hops)}"
             for r in sorted(routes, key=lambda r: r.flow_id)]
    return "\n".join(lines) + ("\n" if lines else "")


def constants_to_json(mechanism: str, constants: NetworkConstants) -> str:
    payload: dict = {"mechanism": mechanism, "constants": {
        "link_rate": json_num(constants.link_rate),
        "propagation": json_num(constants.propagation),
        "switching": json_num(constants.switching),
        "sync_error": json_num(constants.sync_error),
        "idle_slope_fraction": json_num(constants.idle_slope_fraction),
        "frame_overhead": constants.frame_overhead,
        "cut_through": constants.cut_through,
    }}
    if constants.cycle_T is not None:
        payload["constants"]["cycle_T"] = json_num(constants.cycle_T)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def constants_from_json(text: str) -> tuple[str, NetworkConstants]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad config JSON: {exc}") from exc
    if not isinstance(payload, dict) or "mechanism" not in payload:
        raise ParseError("config JSON needs a mechanism field")
    mech = payload["mechanism"]
    if mech not in MECHANISMS:
        raise ParseError(f"mechanism must be one of {MECHANISMS}, got {mech!r}")
    raw = payload.get("constants", {})
    if not isinstance(raw, dict):
        raise ParseError("constants must be an object")
    unknown = set(raw) - {f.name for f in fields(NetworkConstants)}
    if unknown:
        raise ParseError(f"unknown constants: {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in raw.items():
        if key == "cut_through":
            if not isinstance(value, bool):
                raise ParseError(
                    f"cut_through must be true or false, got {value!r}")
        elif key == "frame_overhead":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(
                    f"frame_overhead must be an integer, got {value!r}")
        else:
            try:
                value = frac(value)
            except ValidationError as exc:
                raise ParseError(f"{key}: {exc}") from exc
        kwargs[key] = value
    try:
        return mech, NetworkConstants(**kwargs)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


# ======================================================================
# validation

def validate_testcase(tc: TestCase) -> list[str]:
    """All invariant violations as human-readable diagnostics; empty means
    the test case is fit for analysis."""
    out: list[str] = []
    topo = tc.topology
    flow_ids = [f.id for f in tc.flows]
    if len(set(flow_ids)) != len(flow_ids):
        out.append("duplicate flow ids")
    route_ids = [r.flow_id for r in tc.routes]
    if len(set(route_ids)) != len(route_ids):
        out.append("duplicate route flow ids")
    if set(flow_ids) != set(route_ids):
        missing = set(flow_ids) - set(route_ids)
        extra = set(route_ids) - set(flow_ids)
        if missing:
            out.append(f"flows without a route: {sorted(missing)}")
        if extra:
            out.append(f"routes without a flow: {sorted(extra)}")

    for f in tc.flows:
        for end, which in ((f.src, "src"), (f.dst, "dst")):
            if end not in topo.nodes:
                out.append(f"flow {f.id}: {which} {end} not in topology")
            elif topo.kind(end) != ES:
                out.append(f"flow {f.id}: {which} {end} is not an end-station")

    routes_by_id = {r.flow_id: r for r in tc.routes}
    for f in tc.flows:
        r = routes_by_id.get(f.id)
        if r is None:
            continue
        if r.hops[0] != f.src:
            out.append(f"route {f.id}: starts at {r.hops[0]}, flow src is {f.src}")
        if r.hops[-1] != f.dst:
            out.append(f"route {f.id}: ends at {r.hops[-1]}, flow dst is {f.dst}")
    for r in tc.routes:
        for hop in r.hops:
            if hop not in topo.nodes:
                out.append(f"route {r.flow_id}: unknown node {hop}")
        for a, b in r.ports:
            if a in topo.nodes and b in topo.nodes and not topo.has_link(a, b):
                out.append(f"route {r.flow_id}: no link between {a} and {b}")
        for hop in r.hops[1:-1]:
            if hop in topo.nodes and topo.kind(hop) == ES:
                out.append(f"route {r.flow_id}: end-station {hop} used as interior hop")

    if tc.mechanism == CQF and tc.constants.cycle_T is None:
        out.append("CQF test case needs constants.cycle_T")
    if tc.mechanism == CBS and not tc.constants.cut_through:
        # the CBS analysis and simulator model cut-through forwarding only
        out.append("CBS test case needs constants.cut_through = true")
    return out


# ======================================================================
# bundle IO

BUNDLE_SUFFIXES = ("_topo.txt", "_flows.txt", "_route.txt", "_config.json")


def bundle_paths(directory: Union[str, Path], name: str) -> dict[str, Path]:
    d = Path(directory)
    return {
        "topo": d / f"{name}_topo.txt",
        "flows": d / f"{name}_flows.txt",
        "route": d / f"{name}_route.txt",
        "config": d / f"{name}_config.json",
    }


def infer_bundle_name(directory: Union[str, Path]) -> str:
    configs = sorted(Path(directory).glob("*_config.json"))
    if len(configs) != 1:
        raise ParseError(
            f"expected exactly one *_config.json in {directory}, "
            f"found {len(configs)}")
    return configs[0].name[:-len("_config.json")]


def load_testcase(directory: Union[str, Path],
                  name: Optional[str] = None) -> TestCase:
    """Read a bundle directory into a TestCase; raises ParseError on a
    malformed file and ValidationError on an invalid test case."""
    if name is None:
        name = infer_bundle_name(directory)
    paths = bundle_paths(directory, name)
    for p in paths.values():
        if not p.exists():
            raise ParseError(f"missing bundle file {p}")
    topo = parse_topology(paths["topo"].read_text(encoding="utf-8"))
    flows = parse_flows(paths["flows"].read_text(encoding="utf-8"))
    routes = parse_routes(paths["route"].read_text(encoding="utf-8"),
                          flows=flows, topology=topo)
    mech, constants = constants_from_json(
        paths["config"].read_text(encoding="utf-8"))
    return TestCase(name, topo, tuple(flows), tuple(routes), mech, constants)


def save_testcase(tc: TestCase, directory: Union[str, Path]) -> dict[str, Path]:
    """Write the four bundle files; byte-stable for equal inputs."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    paths = bundle_paths(d, tc.name)
    payloads = {
        "topo": serialize_topology(tc.topology),
        "flows": serialize_flows(tc.flows),
        "route": serialize_routes(tc.routes),
        "config": constants_to_json(tc.mechanism, tc.constants),
    }
    for key, path in paths.items():
        path.write_text(payloads[key], encoding="utf-8", newline="\n")
    return paths
