"""Worst-case delay analysis for Credit-Based Shaper (IEEE 802.1Qav) flows.

Per egress port the Class-A aggregate arrival curve is bounded by summing,
over predecessor ports, the minimum of the propagated per-flow token buckets,
the physical link's serialization envelope, and (behind switch egresses) the
CBS shaping envelope.  The port offers a rate-latency service derived from
the credit bounds, so each port's delay bound has a closed form over the
aggregate's segment starts.  Every flow's envelope entering a port is shifted
by the delay bounds of the ports upstream of it on its path.  When no port's
delay feeds back into itself, one pass over the ports in topological order
gives the exact bounds; only cyclic port dependencies need fixed-point sweeps.
The end-to-end bound adds the constant propagation/switching/sync terms to
the per-port queueing bounds.

No time-triggered traffic exists in these test cases, so the TAS terms of
the underlying model are identically zero: the service latency reduces to
c_max / idleSlope and the shaping burst to (c_max - c_min) + max frame.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from typing import Optional, Sequence

from .errors import ConvergenceError, InstabilityError, ValidationError
from .minplus import (
    Curve,
    RateLatency,
    TokenBucket,
    as_curve,
    frac,
    min_of,
    shift_delay,
    sum_of,
)
from .netmodel import (
    CBS,
    MTU_BYTES,
    Flow,
    NetworkConstants,
    TestCase,
    frame_bits,
)
from .netmodel import json_num

Port = tuple[str, str]

TOLERANCE = Fraction(1, 10**9)   # us
MAX_ITERATIONS = 1000
# round-up grid applied only when port delays depend on each other
# cyclically, where exact rationals would otherwise grow without bound
CYCLIC_GRID = Fraction(1, 10**12)


@dataclass(frozen=True)
class CbsClassConfig:
    """Per-port parameters of one stream-reservation class."""
    class_index: int
    idle_slope: Fraction      # bits/us
    send_slope: Fraction      # bits/us, negative
    l_max_class: Fraction     # bits, largest frame of this class at the port
    l_max_lower: Fraction     # bits, largest strictly-lower-priority frame

    def __post_init__(self):
        for name in ("idle_slope", "send_slope", "l_max_class", "l_max_lower"):
            object.__setattr__(self, name, frac(getattr(self, name)))
        if self.idle_slope <= 0:
            raise ValidationError("idle_slope must be > 0")
        if self.send_slope >= 0:
            raise ValidationError("send_slope must be < 0")
        if self.l_max_class <= 0:
            raise ValidationError("l_max_class must be > 0")
        if self.l_max_lower < 0:
            raise ValidationError("l_max_lower must be >= 0")


def credit_bounds(cfg: CbsClassConfig, C: Fraction
                  ) -> tuple[Fraction, Fraction]:
    """(c_min, c_max) in bits for the class described by cfg, the only
    credit-shaped class at its port: c_min = sendSlope * l_max_class / C and
    c_max = idleSlope * l_max_lower / C.
    """
    C = frac(C)
    if cfg.idle_slope >= C:
        raise ValidationError("idle_slope must be below the link rate")
    if cfg.send_slope != cfg.idle_slope - C:
        raise ValidationError("send_slope must equal idle_slope - link rate")
    return (cfg.send_slope * cfg.l_max_class / C,
            cfg.idle_slope * cfg.l_max_lower / C)


def cbs_service_curve(cfg: CbsClassConfig, C: Fraction) -> RateLatency:
    """Service offered to the class at a CBS port: rate idleSlope, latency
    c_max / idleSlope."""
    _, c_max = credit_bounds(cfg, frac(C))
    return RateLatency(cfg.idle_slope, c_max / cfg.idle_slope)


def source_arrival(flow: Flow, constants: NetworkConstants) -> TokenBucket:
    """Periodic talker envelope: one wire-sized frame per period."""
    l_f = frame_bits(flow, constants)
    return TokenBucket(l_f, l_f / flow.period)


def link_shaping(C: Fraction, l_max_on_link: Fraction) -> Curve:
    """Serialization cap of the physical predecessor link: C*t + l_max."""
    l = frac(l_max_on_link)
    if l <= 0:
        raise ValidationError("l_max_on_link must be > 0")
    return TokenBucket(l, frac(C)).curve()


def cbs_shaping(cfg_prev_port: CbsClassConfig, C: Fraction,
                l_max_on_link: Fraction) -> Curve:
    """Cap on what a predecessor CBS port can have emitted:
    idleSlope*t + (c_max - c_min) + l_max."""
    c_min, c_max = credit_bounds(cfg_prev_port, frac(C))
    burst = (c_max - c_min) + frac(l_max_on_link)
    return TokenBucket(burst, cfg_prev_port.idle_slope).curve()


@dataclass(frozen=True)
class SourceGroup:
    """Traffic entering a port from one predecessor (or sourced locally when
    both shaping curves are None)."""
    arrivals: tuple
    link_shaping: Optional[Curve] = None
    cbs_shaping: Optional[Curve] = None


def aggregate_arrival(groups: Sequence[SourceGroup]) -> Curve:
    """Class aggregate at a port: sum over predecessors of the per-group
    minimum of summed flow envelopes and the applicable shaping caps."""
    total = Curve.zero()
    for g in groups:
        if not g.arrivals:
            continue
        acc = as_curve(g.arrivals[0])
        for arr in g.arrivals[1:]:
            acc = sum_of(acc, arr)
        if g.link_shaping is not None:
            acc = min_of(acc, g.link_shaping)
        if g.cbs_shaping is not None:
            acc = min_of(acc, g.cbs_shaping)
        total = sum_of(total, acc)
    return total


@dataclass
class PortAnalysis:
    port: Port
    arrival: Curve
    service: Curve
    delay_bound: Fraction
    contributing_flows: tuple[int, ...]


@dataclass
class CbsReport:
    testcase: str
    per_port: dict
    per_flow_hops: dict
    e2e_wcd: dict
    iterations: int
    converged: bool


def default_lower_frame_bits(constants: NetworkConstants) -> Fraction:
    """Blocking assumption: one MTU-sized best-effort frame."""
    return Fraction((MTU_BYTES + constants.frame_overhead) * 8)


def rate_latency_delay(alpha: Curve, service: RateLatency) -> Fraction:
    """Delay bound of arrival curve alpha at a rate-latency server (rate R,
    latency T), in closed form: T + max over alpha's segment starts s of
    (alpha(s+)/R - s), and never below 0.

    Between segment starts alpha(t)/R - t is linear and alpha jumps only
    upward, so the supremum over t sits at a segment start; a leading
    stretch where alpha is still 0 waits for nothing and is skipped.  The
    result equals minplus.h_dev(alpha, service.curve()).
    """
    R = service.rate
    if alpha.final_slope > R:
        raise InstabilityError(
            f"arrival rate {alpha.final_slope} exceeds service rate {R}")
    # max of alpha(s+) - R*s, divided by R once at the end
    best = max((seg.value - R * seg.start for seg in alpha.segments
                if seg.value or seg.slope), default=None)
    if best is None:
        return Fraction(0)
    return max(Fraction(0), service.latency + best / R)


def _topological_order(
        flow_ports: dict[int, tuple[Port, ...]]) -> Optional[list[Port]]:
    """Ports ordered so that each comes after every port upstream of it on
    some flow's path; None when some port's delay (transitively) feeds back
    into itself via the prefix-shift propagation."""
    upstream: dict[Port, set[Port]] = {}
    for ports in flow_ports.values():
        for i, p in enumerate(ports):
            upstream.setdefault(p, set())
            if i:
                upstream[p].add(ports[i - 1])
    try:
        return list(TopologicalSorter(upstream).static_order())
    except CycleError:
        return None


def tfa_solve(tc: TestCase) -> CbsReport:
    """Total flow analysis over all ports carrying CBS traffic.

    On a feed-forward port graph every port is evaluated once, in
    topological order, from the final delays of the ports upstream of it:
    that is the exact least fixed point, reported as one iteration.  With
    cyclic port dependencies the delays start at zero and are recomputed
    jointly each sweep from the previous sweep's values, rounded up to
    CYCLIC_GRID; they grow monotonically until no change reaches TOLERANCE.
    Raises InstabilityError naming every port whose aggregate rate reaches
    the idle slope, ConvergenceError when the sweep cap is hit.
    """
    tc.require(CBS)
    consts = tc.constants
    C = consts.link_rate
    idsl = consts.idle_slope_fraction * C
    sdsl = idsl - C
    l_lower = default_lower_frame_bits(consts)

    flow_ports: dict[int, tuple[Port, ...]] = {
        f.id: tc.route_for(f.id).ports for f in tc.flows}
    port_flows: dict[Port, list[int]] = {}
    for f in sorted(tc.flows, key=lambda f: f.id):
        for p in flow_ports[f.id]:
            port_flows.setdefault(p, []).append(f.id)
    ports = sorted(port_flows)

    if not ports:
        return CbsReport(tc.name, {}, {}, {}, 1, True)

    source_tb = {f.id: source_arrival(f, consts) for f in tc.flows}
    bits = {f.id: frame_bits(f, consts) for f in tc.flows}
    cfg = {
        p: CbsClassConfig(
            1, idsl, sdsl,
            l_max_class=max(bits[fid] for fid in port_flows[p]),
            l_max_lower=l_lower)
        for p in ports
    }
    service = {p: cbs_service_curve(cfg[p], C) for p in ports}
    delays: dict[Port, Fraction] = {p: Fraction(0) for p in ports}
    arrivals: dict[Port, Curve] = {}

    def port_delay(p: Port, delays: dict[Port, Fraction]
                   ) -> Optional[Fraction]:
        """Delay bound of p given the upstream delays; None when p is
        unstable."""
        groups = _port_groups(tc, p, port_flows[p], flow_ports, source_tb,
                              bits, cfg, delays, C)
        alpha = aggregate_arrival(groups)
        arrivals[p] = alpha
        if alpha.final_slope >= idsl:
            return None
        return rate_latency_delay(alpha, service[p])

    order = _topological_order(flow_ports)
    if order is not None:
        # an unstable port keeps delay 0, so the rest of the pass still runs
        # and every unstable port is named
        unstable = []
        for p in order:
            d = port_delay(p, delays)
            if d is None:
                unstable.append(p)
            else:
                delays[p] = d
        _raise_unstable(tc, sorted(unstable))
        iterations = 1
        converged = True
    else:
        iterations = 0
        converged = False
        while iterations < MAX_ITERATIONS:
            iterations += 1
            new_delays: dict[Port, Fraction] = {}
            unstable = []
            for p in ports:
                d = port_delay(p, delays)
                if d is None:
                    unstable.append(p)
                else:
                    new_delays[p] = math.ceil(d / CYCLIC_GRID) * CYCLIC_GRID
            _raise_unstable(tc, unstable)
            done = all(abs(new_delays[p] - delays[p]) < TOLERANCE
                       for p in ports)
            delays = new_delays
            if done:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"{tc.name}: no fixed point after {MAX_ITERATIONS} sweeps")

    per_port = {
        p: PortAnalysis(p, arrivals[p], service[p].curve(), delays[p],
                        tuple(port_flows[p]))
        for p in ports
    }
    per_flow_hops = {
        fid: [(p, delays[p]) for p in flow_ports[fid]]
        for fid in sorted(flow_ports)
    }
    e2e = {}
    for fid in sorted(flow_ports):
        route = tc.route_for(fid)
        queueing = sum((delays[p] for p in flow_ports[fid]), Fraction(0))
        e2e[fid] = (queueing
                    + consts.propagation * route.link_count
                    + consts.switching * route.switch_count
                    + consts.sync_error)
    return CbsReport(tc.name, per_port, per_flow_hops, e2e,
                     iterations, converged)


def _raise_unstable(tc: TestCase, unstable: Sequence[Port]) -> None:
    if unstable:
        names = ", ".join(f"{a}->{b}" for a, b in unstable)
        raise InstabilityError(
            f"{tc.name}: aggregate rate reaches the idle slope at "
            f"port(s) {names}")


def _port_groups(tc, port, fids, flow_ports, source_tb, bits, cfg, delays, C):
    """Build the per-predecessor source groups feeding one port, with each
    flow's envelope shifted by the sum of its upstream port delays."""
    local: list[Curve] = []
    by_pred: dict[str, list[int]] = {}
    shifted: dict[int, Curve] = {}
    for fid in fids:
        ports_f = flow_ports[fid]
        k = ports_f.index(port)
        upstream = sum((delays[q] for q in ports_f[:k]), Fraction(0))
        shifted[fid] = shift_delay(source_tb[fid], upstream)
        if k == 0:
            local.append(shifted[fid])
        else:
            by_pred.setdefault(ports_f[k - 1][0], []).append(fid)
    groups: list[SourceGroup] = []
    if local:
        groups.append(SourceGroup(tuple(local)))
    for pred in sorted(by_pred):
        members = by_pred[pred]
        l_link = max(bits[fid] for fid in members)
        link_cap = link_shaping(C, l_link)
        cbs_cap = None
        if tc.topology.is_switch(pred):
            prev_port = (pred, port[0])
            cbs_cap = cbs_shaping(cfg[prev_port], C, l_link)
        groups.append(SourceGroup(
            tuple(shifted[fid] for fid in members), link_cap, cbs_cap))
    return groups


def report_to_json(report: CbsReport) -> str:
    flows = []
    for fid in sorted(report.e2e_wcd):
        flows.append({
            "id": fid,
            "wcd_us": json_num(report.e2e_wcd[fid]),
            "per_hop": [
                {"port": f"{a}->{b}", "d_us": json_num(d)}
                for (a, b), d in report.per_flow_hops[fid]
            ],
        })
    payload = {
        "testcase": report.testcase,
        "mechanism": "CBS",
        "flows": flows,
        "converged": report.converged,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
