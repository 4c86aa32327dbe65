"""The three benchmark workloads: set-up, per-case body and checks.

Each workload has a ``setup(api, root, seed)`` that returns the case list
and a ``run(api, case, tally, workdir)`` that processes one case: it calls
the library through the module objects in ``api`` (so that traced runs see
wrapped functions), checks the outputs and records operations, failures,
report digests and deterministic counts in ``tally``.

An operation is one bundle round trip, one analysis, one simulation or one
check; an exception and a failed check both count as a failure.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

# bound on regenerations of one generated case whose offered load would
# make TFA unstable; reaching it is a benchmark error, not a result
MAX_REDRAWS = 100
CBS_PAYLOAD = (64, 700)
MAX_FAILURES_KEPT = 20          # failure messages kept for the metadata


@dataclass
class Case:
    name: str
    inputs: dict


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)      # report key -> sha256
    counts: dict = field(default_factory=dict)       # deterministic counts
    cases: dict = field(default_factory=dict)        # case name -> metadata

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(message)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.fail(message)

    def op(self, label, fn, *args, **kwargs):
        """Run one operation; an exception is recorded and yields None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:        # any exception is a failed operation
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def digest(self, key, text):
        self.digests[key] = hashlib.sha256(text.encode()).hexdigest()

    def record(self):
        """What must repeat exactly across passes and runs of one seed."""
        return self.digests, self.counts

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        room = MAX_FAILURES_KEPT - len(self.failures)
        self.failures.extend(other.failures[:max(room, 0)])


# helpers shared by the workloads

def derived_seed(seed, label):
    return random.Random(f"{seed}:{label}").randrange(2 ** 31)


def port_graph_cyclic(routes):
    """True if some egress port precedes itself along the flows' routes,
    i.e. the TFA dependency graph between ports has a cycle."""
    edges: dict = {}
    for r in routes:
        ports = list(zip(r.hops, r.hops[1:]))
        for i, p in enumerate(ports):
            edges.setdefault(p, set()).update(ports[i + 1:])
    state: dict = {}
    for start in edges:
        if start in state:
            continue
        state[start] = 1
        stack = [(start, iter(edges[start]))]
        while stack:
            node, it = stack[-1]
            peer = next(it, None)
            if peer is None:
                state[node] = 2
                stack.pop()
            elif state.get(peer) == 1:
                return True
            elif peer not in state:
                state[peer] = 1
                stack.append((peer, iter(edges.get(peer, ()))))
    return False


def describe(tc):
    ports = {p for r in tc.routes for p in zip(r.hops, r.hops[1:])}
    return {"mechanism": tc.mechanism, "flows": len(tc.flows),
            "ports": len(ports), "cyclic": port_graph_cyclic(tc.routes)}


def wire_tx(flow, constants):
    """Serialization time of one frame of the flow, in us."""
    bits = (flow.payload_bytes + constants.frame_overhead) * 8
    return Fraction(bits) / constants.link_rate


def physical_minimum(tc, flow, route):
    """Smallest delay physics allows: cut-through CBS sends one
    transmission, store-and-forward CQF one per hop; propagation per link,
    switching per switch and the sync error are added once each."""
    c = tc.constants
    transmissions = 1 if tc.mechanism == "CBS" else route.link_count
    return (transmissions * wire_tx(flow, c)
            + c.propagation * route.link_count
            + c.switching * route.switch_count
            + c.sync_error)


def load_ok(tc):
    """Every port's offered Class-A rate stays below the idle slope, the
    condition under which TFA has a finite bound."""
    c = tc.constants
    limit = c.idle_slope_fraction * c.link_rate
    load: dict = {}
    flows = {f.id: f for f in tc.flows}
    for r in tc.routes:
        f = flows[r.flow_id]
        rate = wire_tx(f, c) * c.link_rate / f.period
        for p in zip(r.hops, r.hops[1:]):
            load[p] = load.get(p, 0) + rate
    return all(v < limit for v in load.values())


def note_case(tally, tc):
    if tc.name not in tally.cases:
        tally.cases[tc.name] = describe(tc)


def analyze_cbs(api, tc, tally):
    """TFA plus its report; returns (report, text) or None on failure."""
    cbs = api["cbs"]

    def body():
        report = cbs.tfa_solve(tc)
        return report, cbs.report_to_json(report)

    out = tally.op(f"{tc.name}: analysis", body)
    if out is None:
        return None
    report, text = out
    tally.digest(f"{tc.name}/bound", text)
    sweeps = getattr(report, "iterations", 0)
    ports = len(report.per_port)
    tally.add("cbs.sweeps", sweeps)
    tally.add("cbs.ports", ports)
    tally.add("cbs.port_evals", sweeps * ports)
    tally.add("minplus.arrival_segments", sum(
        len(pa.arrival.segments) for pa in report.per_port.values()))
    if tally.cases[tc.name]["cyclic"]:
        tally.add("cbs.cyclic_cases", 1)
    tally.check(report.converged, f"{tc.name}: TFA did not converge")
    return out


def simulate(api, tc, cfg, tally, label):
    """One simulation plus its report; returns the report or None."""
    sim = api["sim"]
    run = sim.simulate_cbs if tc.mechanism == "CBS" else sim.simulate_cqf

    def body():
        report = run(tc, cfg)
        return report, sim.report_to_json(report)

    out = tally.op(f"{tc.name}: {label} simulation", body)
    if out is None:
        return None
    report, text = out
    tally.digest(f"{tc.name}/sim-{label}", text)
    routes = {r.flow_id: r for r in tc.routes}
    frames = sum(report.per_flow_frame_count.values())
    tally.add("sim.runs", 1)
    tally.add("sim.frames", frames)
    tally.add("sim.frame_hops", sum(
        n * routes[fid].link_count
        for fid, n in report.per_flow_frame_count.items()))
    return report


def check_order(tc, bounds, report, tally, label):
    """physical minimum <= simulated max delay <= bound, per flow."""
    routes = {r.flow_id: r for r in tc.routes}
    for f in tc.flows:
        observed = report.per_flow_max_delay.get(f.id, Fraction(0))
        tally.check(observed <= bounds[f.id],
                    f"{tc.name} flow {f.id} ({label}): simulated {observed} "
                    f"> bound {bounds[f.id]}")
        floor = physical_minimum(tc, f, routes[f.id])
        tally.check(observed >= floor,
                    f"{tc.name} flow {f.id} ({label}): simulated {observed} "
                    f"< physical minimum {floor}")


def check_bounds_above_floor(tc, bounds, tally):
    routes = {r.flow_id: r for r in tc.routes}
    for f in tc.flows:
        floor = physical_minimum(tc, f, routes[f.id])
        tally.check(bounds[f.id] >= floor,
                    f"{tc.name} flow {f.id}: bound {bounds[f.id]} "
                    f"< physical minimum {floor}")


# corpus: the shipped validation loop

BUNDLE_SUFFIXES = ("_topo.txt", "_flows.txt", "_route.txt", "_config.json")


def corpus_setup(api, root, seed):
    """Manifest entries plus the reference bytes the checks compare with."""
    corpus = root / "corpus"
    entries = api["testgen"].parse_manifest(
        (corpus / "manifest.json").read_text(encoding="utf-8"))
    cases = []
    for entry in entries:
        name = entry["name"]
        cases.append(Case(name, {
            "entry": entry,
            "truth": (corpus / "truth" / f"{name}_truth.json").read_bytes(),
            "bundle": {name + s: (corpus / name / (name + s)).read_bytes()
                       for s in BUNDLE_SUFFIXES},
            "sim_seed": derived_seed(seed, name),
        }))
    return cases


def corpus_run(api, case, tally, workdir):
    testgen, netmodel, cqf, sim = (api["testgen"], api["netmodel"],
                                   api["cqf"], api["sim"])
    inputs = case.inputs
    bundle_dir = workdir / case.name

    def round_trip():
        tc = testgen.testcase_from_entry(inputs["entry"])
        netmodel.save_testcase(tc, bundle_dir)
        return netmodel.load_testcase(bundle_dir)

    tc = tally.op(f"{case.name}: regenerate and reload", round_trip)
    if tc is None:
        return
    note_case(tally, tc)
    tally.check(all((bundle_dir / fname).read_bytes() == data
                    for fname, data in inputs["bundle"].items()),
                f"{case.name}: written bundle differs from corpus/{case.name}")

    if tc.mechanism == "CBS":
        out = analyze_cbs(api, tc, tally)
        if out is None:
            return
        report, text = out
        bounds = report.e2e_wcd
    else:
        def body():
            report = cqf.solve(tc)
            return report, cqf.report_to_json(report)

        out = tally.op(f"{case.name}: analysis", body)
        if out is None:
            return
        report, text = out
        tally.digest(f"{tc.name}/bound", text)
        bounds = {fid: row["wcd_us"] for fid, row in report.per_flow.items()}
    tally.check(text.encode() == inputs["truth"],
                f"{case.name}: report bytes differ from corpus/truth")

    horizon = 20 * max(f.period for f in tc.flows)
    for policy in (sim.RELEASE_SYNCHRONIZED, sim.RELEASE_JITTERED):
        cfg = sim.SimConfig(horizon=horizon, seed=inputs["sim_seed"],
                            release_policy=policy)
        report = simulate(api, tc, cfg, tally, policy)
        if report is not None:
            check_order(tc, bounds, report, tally, policy)


# generated CBS workloads

def _generate(api, seed, kind, shapes):
    """One CBS case per (switches, hosts per switch, flows) shape, with
    GenSpec seeds drawn from the workload seed.  A draw whose offered load
    would make TFA unstable is replaced by the next draw; cyclic port
    graphs are kept."""
    testgen, netmodel = api["testgen"], api["netmodel"]
    rng = random.Random(f"{seed}:{kind}")
    cases = []
    for i, (switches, hosts, flows) in enumerate(shapes):
        for redraws in range(MAX_REDRAWS):
            spec = testgen.GenSpec(kind, switches, hosts, flows,
                                   payload_range=CBS_PAYLOAD,
                                   seed=rng.randrange(2 ** 31))
            tc = testgen.build_testcase(f"{kind}{i}", spec, netmodel.CBS,
                                        netmodel.NetworkConstants())
            if load_ok(tc):
                break
        else:
            raise RuntimeError(f"{kind}{i}: no stable draw in {MAX_REDRAWS}")
        cases.append(Case(tc.name, {"tc": tc, "redraws": redraws,
                                    "sim_seed": rng.randrange(2 ** 31)}))
    return cases


# 25 medium_mesh shapes: 8-12 switches x 4 hosts, 80-160 flows.  Each run
# of five consecutive cases covers every switch count and every flow count,
# so a pass cut short by the clock still sees the whole size range.
MESH_SHAPES = tuple(
    (8 + i % 5, 4, 80 + 20 * ((i + i // 5) % 5)) for i in range(25))

# 20 ring shapes: 6-10 switches x 3-4 hosts, 60-80 flows; every
# (switches, hosts) pair twice, with different flow counts.
RING_SHAPES = tuple(
    (6 + i % 5, 3 + (i // 5) % 2, 60 + 5 * ((i + 2 * (i // 5)) % 5))
    for i in range(20))


def mesh_setup(api, root, seed):
    return _generate(api, seed, "medium_mesh", MESH_SHAPES)


def mesh_run(api, case, tally, workdir):
    tc = case.inputs["tc"]
    note_case(tally, tc)
    out = analyze_cbs(api, tc, tally)
    if out is not None:
        check_bounds_above_floor(tc, out[0].e2e_wcd, tally)


def ring_setup(api, root, seed):
    return _generate(api, seed, "ring", RING_SHAPES)


def ring_run(api, case, tally, workdir):
    sim = api["sim"]
    tc = case.inputs["tc"]
    note_case(tally, tc)
    out = analyze_cbs(api, tc, tally)
    if out is None:
        return
    bounds = out[0].e2e_wcd
    cfg = sim.SimConfig(horizon=10 * max(f.period for f in tc.flows),
                        seed=case.inputs["sim_seed"],
                        release_policy=sim.RELEASE_JITTERED, be_saturate=True)
    report = simulate(api, tc, cfg, tally, "saturated")
    if report is not None:
        check_order(tc, bounds, report, tally, "saturated")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Any
    run: Any


WORKLOADS = {w.name: w for w in (
    Workload("corpus", corpus_setup, corpus_run),
    Workload("mesh_analyze", mesh_setup, mesh_run),
    Workload("ring_saturated", ring_setup, ring_run),
)}


def redraws(cases):
    return sum(c.inputs.get("redraws", 0) for c in cases)


def combined_digest(digests):
    return hashlib.sha256(json.dumps(
        digests, sort_keys=True).encode()).hexdigest()
