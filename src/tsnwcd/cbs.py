"""Worst-case delay analysis for Credit-Based Shaper (IEEE 802.1Qav) flows.

Per egress port the Class-A aggregate arrival curve is the sum, over
predecessor ports, of the minimum of the predecessor's flows' propagated
token buckets, the physical link's serialization line and (behind switch
egresses) the CBS shaping line, plus the buckets of the flows the port
sources itself.  A flow's bucket entering its k-th port is (b + r*D, r),
with D the sum of the delay bounds of the ports before it, so between
evaluations only the bursts move.  Each group is then the lower envelope of
at most three lines and the aggregate is concave, a sorted (start, value,
slope) breakpoint list built straight from (burst, rate) pairs, with no
general min-plus curve algebra; each port's reported Curve is built once,
from its last evaluation.  No credit term depends on a delay, and only c_min
on the port, through its largest class frame: a solve takes the credit
bounds once per frame size, and one rate-latency service serves every port,
so each port's delay bound has a closed form over the aggregate's segment
starts.  When no port's delay feeds back into itself, one pass over the
ports in topological order gives the exact bounds, read off each port's
breakpoint list.  Only cyclic port dependencies need fixed-point sweeps;
those evaluate every port many times and need only its delay, the
aggregate's peak backlog above the service rate, found at the first slope
change that brings the aggregate's slope down to that rate, with every
burst and rate an int on one common scale.  The end-to-end bound adds the
constant propagation/switching/sync terms to the per-port queueing bounds.

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
from typing import Iterable, Optional, Sequence, Union

from .errors import ConvergenceError, InstabilityError, ValidationError
from .minplus import Curve, RateLatency, Seg, TokenBucket, frac
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
Number = Union[int, Fraction]

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


def link_shaping(C: Fraction, l_max_on_link: Fraction) -> TokenBucket:
    """Serialization cap of the physical predecessor link: C*t + l_max."""
    l = frac(l_max_on_link)
    if l <= 0:
        raise ValidationError("l_max_on_link must be > 0")
    return TokenBucket(l, frac(C))


def cbs_shaping(cfg_prev_port: CbsClassConfig, C: Fraction,
                l_max_on_link: Fraction) -> TokenBucket:
    """Cap on what a predecessor CBS port can have emitted:
    idleSlope*t + (c_max - c_min) + l_max."""
    c_min, c_max = credit_bounds(cfg_prev_port, frac(C))
    burst = (c_max - c_min) + frac(l_max_on_link)
    return TokenBucket(burst, cfg_prev_port.idle_slope)


Line = tuple[Number, Number]     # (burst, rate): burst + rate*t for t > 0
# a concave curve on t > 0, the lower envelope of its lines: those lines,
# its first slope and its slope drops (num, den, drop) at the times
# num/den, in time order
Envelope = tuple[Sequence[Line], Number, list[tuple[Number, Number, Number]]]


def group_envelope(lines: Sequence[Line]) -> Envelope:
    """Lower envelope of lines on t > 0: one group's share of a port
    aggregate, i.e. a predecessor's summed flow bucket and its shaping
    caps, or the bucket of the flows the port sources itself.

    The envelope starts on the lowest line (the shallowest of equals) and
    moves, at each crossing, to the line that crosses first; only
    shallower lines can cross, so the slope strictly falls at each change.
    Where three lines meet, two changes may share one time;
    aggregate_segments merges them.  Crossing times stay quotients, so the
    lines may be given in Fractions or, on a common scale, in ints.
    """
    b, r = min(lines)
    slope = r
    drops: list[tuple[Number, Number, Number]] = []
    while True:
        nxt = None
        for bi, ri in lines:
            if ri < r:
                num, den = bi - b, r - ri
                if nxt is None or num * nxt[1] < nxt[0] * den:
                    nxt = (num, den, bi, ri)
        if nxt is None:
            return lines, slope, drops
        num, den, b, ri = nxt
        drops.append((num, den, r - ri))
        r = ri


def aggregate_segments(envelopes: Iterable[Envelope]) -> list[Seg]:
    """Class aggregate at a port, the sum of its groups' envelopes, as
    canonical (start, value, slope) pieces.

    Each envelope is concave with at most one slope change per line, so
    the sum is concave too: its value at 0+ and first slope are the groups'
    sums, and it changes slope exactly where some group does.  The pieces
    are those of Curve(...) of the same function, so building a Curve from
    them moves no segment.
    """
    value = slope = Fraction(0)
    changes: list[tuple[Fraction, Fraction]] = []
    for lines, r, drops in envelopes:
        value += min(lines)[0]
        slope += r
        changes += [(Fraction(num, den), -drop) for num, den, drop in drops]
    changes.sort()
    segments = [Seg(Fraction(0), value, slope)]
    for x, dr in changes:
        start, value, slope = segments[-1]
        if x == start:              # changes at one time merge
            segments[-1] = Seg(x, value, slope + dr)
        else:
            segments.append(Seg(x, value + slope * (x - start), slope + dr))
    return segments


def max_backlog(envelopes: Sequence[Envelope], rate: Number) -> Fraction:
    """max over t > 0 of alpha(t) - rate*t, alpha the sum of envelopes
    whose lines all have positive bursts; in their units.

    alpha is concave, so alpha(t) - rate*t rises until the first slope
    change after which alpha's slope is at most rate, and falls from there
    on: only the changes up to that point are visited, earliest first, and
    alpha is evaluated there alone.  rate_latency_delay of the aggregate's
    segments is latency + max_backlog / rate.  Raises InstabilityError
    when alpha's final slope exceeds rate.
    """
    slope = sum(r for _, r, _ in envelopes)
    pending = [drop for _, _, drops in envelopes for drop in drops]
    num, den = 0, 1
    while slope > rate:
        if not pending:
            raise InstabilityError(
                f"arrival rate {slope} exceeds service rate {rate}")
        first = 0
        for i, (n, d, _) in enumerate(pending):
            if n * pending[first][1] < pending[first][0] * d:
                first = i
        num, den, drop = pending.pop(first)
        slope -= drop
    # alpha(num/den) - rate*num/den, times den
    excess = sum(min(b * den + r * num for b, r in lines)
                 for lines, _, _ in envelopes) - rate * num
    return Fraction(excess, den)


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


def rate_latency_delay(segments: Sequence[Seg], service: RateLatency
                       ) -> Fraction:
    """Delay bound of an arrival curve, given as its canonical segments
    (Curve.segments or aggregate_segments), at a rate-latency server (rate
    R, latency T), in closed form: T + max over the segment starts s of
    (alpha(s+)/R - s), and never below 0.

    Between segment starts alpha(t)/R - t is linear and alpha jumps only
    upward, so the supremum over t sits at a segment start; a leading
    stretch where alpha is still 0 waits for nothing and is skipped.  The
    result equals minplus.h_dev(alpha, service.curve()).
    """
    R = service.rate
    if segments[-1].slope > R:
        raise InstabilityError(
            f"arrival rate {segments[-1].slope} exceeds service rate {R}")
    # max of alpha(s+) - R*s, divided by R once at the end
    best = max((seg.value - R * seg.start for seg in segments
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
    A sweep recomputes only the groups whose member bursts moved; the
    others keep their envelopes, which are then still exact.
    Raises InstabilityError naming every port whose aggregate rate reaches
    the idle slope, ConvergenceError when the sweep cap is hit.
    """
    tc.require(CBS)
    consts = tc.constants
    C = consts.link_rate
    idsl = consts.idle_slope_fraction * C
    l_lower = default_lower_frame_bits(consts)

    flow_ports: dict[int, tuple[Port, ...]] = {
        f.id: tc.route_for(f.id).ports for f in tc.flows}
    # (flow id, hop index) of every flow through each port, by flow id
    hops: dict[Port, list[tuple[int, int]]] = {}
    for f in sorted(tc.flows, key=lambda f: f.id):
        for k, p in enumerate(flow_ports[f.id]):
            hops.setdefault(p, []).append((f.id, k))
    ports = sorted(hops)

    if not ports:
        return CbsReport(tc.name, {}, {}, {}, 1, True)

    bucket = {f.id: source_arrival(f, consts) for f in tc.flows}
    # No credit term depends on a delay, and only c_min on the port, via its
    # largest class frame: bounds are taken once per frame size, and every
    # port shares one service, idleSlope after c_max / idleSlope.
    l_max = {p: max(bucket[fid].burst for fid, _ in hops[p]) for p in ports}
    range_of = {}
    for l_class in set(l_max.values()):
        cfg = CbsClassConfig(1, idsl, idsl - C, l_class, l_lower)
        c_min, c_max = credit_bounds(cfg, C)
        range_of[l_class] = c_max - c_min
    credit_range = {p: range_of[l_max[p]] for p in ports}
    service = cbs_service_curve(cfg, C)      # the same for any frame size
    service_curve = service.curve()
    layout, long_run = {}, {}
    for p in ports:
        layout[p], long_run[p] = _port_layout(
            tc, p, hops[p], flow_ports, bucket, credit_range, C, idsl)
    unstable = [p for p in ports if long_run[p] >= idsl]
    if unstable:
        names = ", ".join(f"{a}->{b}" for a, b in unstable)
        raise InstabilityError(
            f"{tc.name}: aggregate rate reaches the idle slope at "
            f"port(s) {names}")

    order = _topological_order(flow_ports)
    # A flow's burst entering its k-th port is b + r*D, D the summed delays
    # of the ports before it.  The feed-forward pass works in bits and us.
    # The cyclic sweeps, whose delays lie on CYCLIC_GRID, work on one
    # integer scale: bursts in units of 1/scale bits, rates in units of
    # 1/rate_den bits/us, delays in CYCLIC_GRID units, so every burst and
    # rate is an int and lines cross at quotients of ints.
    if order is not None:
        scale = 1
        lines_at = layout
    else:
        rate_den = math.lcm(idsl.denominator, C.denominator,
                            *(b.rate.denominator for b in bucket.values()))
        scale = CYCLIC_GRID.denominator * math.lcm(
            rate_den, *(b.burst.denominator for b in bucket.values()),
            *(cap_b.denominator for p in ports
              for _, _, caps in layout[p] for cap_b, _ in caps))
        lines_at = {
            p: [(members, _scaled(rate, rate_den),
                 tuple((_scaled(b, scale), _scaled(r, rate_den))
                       for b, r in caps))
                for members, rate, caps in layout[p]]
            for p in ports}
        idsl_scaled = _scaled(idsl, rate_den)
        backlog_den = scale * idsl       # scaled backlog -> delay in us
        # a burst moves by weight * (upstream delay / CYCLIC_GRID)
        weight = {fid: _scaled(b.rate, scale * CYCLIC_GRID)
                  for fid, b in bucket.items()}
    burst = {fid: [_scaled(bucket[fid].burst, scale)] * len(ports_f)
             for fid, ports_f in flow_ports.items()}
    # per port: each group's envelope, None until it is computed and again
    # once a member's burst moves
    envelopes = {p: [None] * len(layout[p]) for p in ports}

    def refresh(p: Port) -> bool:
        """Recompute the groups of p whose bursts moved since p was last
        evaluated; False when there were none."""
        envs = envelopes[p]
        stale = False
        for i, env in enumerate(envs):
            if env is None:
                members, rate, caps = lines_at[p][i]
                b = sum(burst[fid][k] for fid, k in members)
                envs[i] = group_envelope(((b, rate), *caps))
                stale = True
        return stale

    # each port's arrival curve in (start, value, slope) pieces, in bits
    # and us, from its last evaluation
    segments: dict[Port, list[Seg]] = {}
    if order is not None:
        # each port is evaluated once: its pieces are built anyway, and
        # the delay is read off them
        delays: dict[Port, Fraction] = {}
        for p in order:
            refresh(p)
            segments[p] = aggregate_segments(envelopes[p])
            delays[p] = d = rate_latency_delay(segments[p], service)
            # every port after p on a flow's path comes later in the order
            for fid, k in hops[p]:
                row = burst[fid]
                if k + 1 < len(row):
                    row[k + 1] = row[k] + bucket[fid].rate * d
        iterations = 1
        converged = True
    else:
        # the sweeps need only each port's delay, its latency plus the
        # peak backlog over the idle slope; every line has a positive
        # burst, so that is never below the latency
        last: dict[Port, Fraction] = {}

        def port_delay(p: Port) -> Fraction:
            if refresh(p):
                last[p] = (service.latency
                           + max_backlog(envelopes[p], idsl_scaled)
                           / backlog_den)
            return last[p]

        # group index of each (flow, hop) at its port, and the delays (in
        # CYCLIC_GRID units) the bursts were last moved to
        group_at = {fid: [0] * len(ports_f)
                    for fid, ports_f in flow_ports.items()}
        for p in ports:
            for i, (members, _, _) in enumerate(layout[p]):
                for fid, k in members:
                    group_at[fid][k] = i
        ticks = {p: 0 for p in ports}
        seen = dict(ticks)

        def advance(ticks: dict[Port, int]) -> None:
            """Move every burst to the given upstream delays; each group
            with a member whose burst moves goes stale."""
            moved = {q for q in ports if ticks[q] != seen[q]}
            for fid, ports_f in flow_ports.items():
                row, w = burst[fid], weight[fid]
                moving = False
                for k in range(1, len(row)):
                    moving = moving or ports_f[k - 1] in moved
                    if moving:
                        row[k] = row[k - 1] + w * ticks[ports_f[k - 1]]
                        envelopes[ports_f[k]][group_at[fid][k]] = None
            seen.update(ticks)

        tolerance = TOLERANCE / CYCLIC_GRID
        iterations = 0
        converged = False
        while iterations < MAX_ITERATIONS:
            iterations += 1
            advance(ticks)
            new_ticks = {p: math.ceil(port_delay(p) / CYCLIC_GRID)
                         for p in ports}
            done = all(abs(new_ticks[p] - ticks[p]) < tolerance
                       for p in ports)
            ticks = new_ticks
            if done:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"{tc.name}: no fixed point after {MAX_ITERATIONS} sweeps")
        delays = {p: ticks[p] * CYCLIC_GRID for p in ports}
        # the last sweep left every group fresh: back to bits and us
        for p in ports:
            segments[p] = aggregate_segments(
                group_envelope(((Fraction(lines[0][0], scale), rate), *caps))
                for (lines, _, _), (_, rate, caps)
                in zip(envelopes[p], layout[p]))

    per_port = {
        p: PortAnalysis(p, Curve(segments[p]), service_curve,
                        delays[p], tuple(fid for fid, _ in hops[p]))
        for p in ports
    }
    per_flow_hops = {
        fid: [(p, delays[p]) for p in flow_ports[fid]]
        for fid in sorted(flow_ports)
    }
    e2e = {}
    for fid in sorted(flow_ports):
        route = tc.route_for(fid)
        e2e[fid] = sum((delays[p] for p in flow_ports[fid]),
                       consts.propagation * route.link_count
                       + consts.switching * route.switch_count
                       + consts.sync_error)
    return CbsReport(tc.name, per_port, per_flow_hops, e2e,
                     iterations, converged)


def _scaled(x: Fraction, by: Number) -> Number:
    """x * by, as an int when that is whole."""
    x *= by
    return x.numerator if x.denominator == 1 else x


def _port_layout(tc, port, hops_p, flow_ports, bucket, credit_range, C,
                 idsl):
    """The groups feeding one port, fixed for a solve, as (members, summed
    rate, caps): members are (flow id, hop index) pairs and caps (burst,
    rate) lines.  The flows the port sources come uncapped; each
    predecessor's flows are capped by the link line and, behind a switch,
    by the CBS shaping line.  Also the port's long-run aggregate rate, the
    sum of each group's shallowest line, which no delay moves."""
    local = [(fid, k) for fid, k in hops_p if k == 0]
    by_pred: dict[str, list[tuple[int, int]]] = {}
    for fid, k in hops_p:
        if k:
            by_pred.setdefault(flow_ports[fid][k - 1][0], []).append((fid, k))
    groups = [(tuple(local), ())] if local else []
    for pred in sorted(by_pred):
        members = by_pred[pred]
        l_link = max(bucket[fid].burst for fid, _ in members)
        caps: tuple[Line, ...] = ((l_link, C),)     # link_shaping
        if tc.topology.is_switch(pred):             # cbs_shaping
            caps += ((credit_range[(pred, port[0])] + l_link, idsl),)
        groups.append((tuple(members), caps))
    layout = [(members, sum(bucket[fid].rate for fid, _ in members), caps)
              for members, caps in groups]
    return layout, sum(min([rate] + [r for _, r in caps])
                       for _, rate, caps in layout)


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
