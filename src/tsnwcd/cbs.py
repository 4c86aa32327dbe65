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
general min-plus curve algebra.  No credit term depends on a delay, and
only c_min on the port, through its largest class frame l: a solve takes
the credit bounds of one class config, and each port's credit range
c_max - c_min is the line c_max + l * (C - idleSlope) / C.  One rate-latency
service serves every port.

The port delays are the least fixed point of the port-delay map, the
cyclic TFA of Thomas, Le Boudec & Mifdaoui (RTSS 2019), which tfa_solve
finds one strongly connected component of the port graph at a time, in
topological order: it sweeps a component's stale ports in search order,
and marks stale the next port of each flow whose summed delay upstream
of it moved, until none is.  A solve lays every port's lines out once, as
ints, and one integer evaluator builds each group's envelope in closed
form, sums the envelopes into one breakpoint list and reads each delay
bound off it: the aggregate's peak backlog above the service rate sits at
the first breakpoint whose slope is at most that rate.  Every delay and
every flow's summed delay upstream of each hop is a reduced (num, den) int
pair.  On a feed-forward graph every component is one port, evaluated
once on its own scale, so every delay is exact.  With cyclic port
dependencies it evaluates a component's ports again until they settle;
one scale serves every port and each delay is a count of CYCLIC_GRID
ticks, rounded up in one integer ceiling division.  Each delay and each
end-to-end sum becomes a Fraction once, in the report.  Each port's
reported aggregate is the breakpoint list of its last evaluation, turned
into Fractions once, and the report's JSON text is written in one pass.
The end-to-end bound adds the constant propagation/switching/sync terms to
the per-port queueing bounds.

No time-triggered traffic exists in these test cases, so the TAS terms of
the underlying model are identically zero: the service latency reduces to
c_max / idleSlope and the shaping burst to (c_max - c_min) + max frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Union

from .errors import ConvergenceError, InstabilityError, ValidationError
from .minplus import Curve, RateLatency, Seg, TokenBucket, frac
from .netmodel import (
    CBS,
    MTU_BYTES,
    Flow,
    NetworkConstants,
    TestCase,
    frame_bits,
    json_num,
    port_table,
    wire_bits,
)

Number = Union[int, Fraction]

MAX_ITERATIONS = 1000     # evaluations of any one port
# round-up grid applied only when port delays depend on each other
# cyclically, where exact delays would only approach the fixed point, with
# ever larger denominators
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
    idleSlope*t + (c_max - c_min) + l_max.  The named model of the shaping
    line tfa_solve lays out inline; the test oracle builds its caps with
    it."""
    c_min, c_max = credit_bounds(cfg_prev_port, frac(C))
    burst = (c_max - c_min) + frac(l_max_on_link)
    return TokenBucket(burst, cfg_prev_port.idle_slope)


# a concave curve on t > 0, all ints on one scale: its value at 0+, its
# first slope and its slope drops (num, den, drop) at the times
# num/den >= 0, in time order (a drop at 0 takes effect at once)
Envelope = tuple[int, int, list[tuple[int, int, int]]]


def aggregate_breakpoints(envelopes: Iterable[Envelope]
                          ) -> tuple[int, list[tuple[int, int, int]]]:
    """Class aggregate at a port, the sum of its groups' envelopes, as
    (den, pieces): its canonical (time, value, slope) breakpoints, with
    times in 1/den of the envelopes' time unit and values times den.

    Each envelope is concave, so the sum is concave too: its value at 0+
    and first slope are the groups' sums, and it changes slope exactly
    where some group does.  den is the lcm of the changes' denominators,
    so every breakpoint is an int triple.  The pieces are those of
    Curve(...) of the same function, so their Fractions go to
    Curve.from_canonical as they are.  Both a port's delay bound and its
    reported aggregate are read off them: alpha(t) - rate*t rises until
    the first breakpoint whose slope is at most rate and falls from there
    on, so that breakpoint holds the peak backlog above a service rate.
    """
    value = slope = 0
    drops: list[tuple[int, int, int]] = []
    for v, r, envelope_drops in envelopes:
        value += v
        slope += r
        drops += envelope_drops
    den = math.lcm(*(d for _, d, _ in drops))
    # (time, value, slope): time in 1/den time units, value times den
    pieces = [(0, value * den, slope)]
    for t, drop in sorted((n * (den // d), drop) for n, d, drop in drops):
        start, value, slope = pieces[-1]
        if t == start:              # changes at one time merge
            pieces[-1] = (t, value, slope - drop)
        else:
            pieces.append((t, value + slope * (t - start), slope - drop))
    return den, pieces


@dataclass
class PortAnalysis:
    arrival: Curve
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
    return wire_bits(MTU_BYTES, constants)


def _port_order(path: dict[int, tuple[int, ...]], n: int
                ) -> list[list[int]]:
    """The strongly connected components of the n-port graph, in the
    order TFA settles them.

    The port graph has an edge from each port to the next on every flow's
    path.  Its components come in topological order, so that every port
    comes after each upstream port outside its own component, and each
    component's ports in the order the search first reached them, the
    search visiting ports and successors in ascending index.  No route
    repeats a node, so no port feeds itself: the graph has a cycle exactly
    when some component holds more than one port.
    """
    succ: list[set[int]] = [set() for _ in range(n)]
    for ports in path.values():
        for p, q in zip(ports, ports[1:]):
            succ[p].add(q)
    # Tarjan's algorithm, without recursion: a component closes only after
    # every component downstream of it, so the closing order reversed is
    # topological, and its stack holds its ports in the order reached
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    visited = 0

    def enter(v: int) -> tuple[int, Iterator[int]]:
        nonlocal visited
        index[v] = low[v] = visited
        visited += 1
        stack.append(v)
        on_stack[v] = True
        return v, iter(sorted(succ[v]))

    for root in range(n):
        if index[root] >= 0:
            continue
        work = [enter(root)]
        while work:
            v, edges = work[-1]
            w = next(edges, None)
            if w is None:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    i = stack.index(v)
                    for w in stack[i:]:
                        on_stack[w] = False
                    components.append(stack[i:])
                    del stack[i:]
            elif index[w] < 0:
                work.append(enter(w))
            elif on_stack[w]:
                low[v] = min(low[v], index[w])
    components.reverse()
    return components


def tfa_solve(tc: TestCase) -> CbsReport:
    """Total flow analysis over all ports carrying CBS traffic.

    The port delays are the least fixed point of the port-delay map: from
    zero delays, an evaluation sets a port's delay to the bound its
    aggregate gives for the current upstream delays, and the upstream
    delays of the flows it sends on move by that delay.  The map is
    monotone, so each evaluation stays at or below its least fixed point,
    and evaluating until no upstream delay moves ends there whatever the
    order (Cousot, 1977); the order sets only how many evaluations that
    takes.  Each strongly connected component of the port graph is settled
    before any port downstream of it is evaluated, in _port_order's order:
    every port starts stale, and the component is swept in its search
    order, each stale port's envelopes rebuilt from the upstream rows and
    the next port of each member flow whose upstream delay moved marked
    stale, until none of its ports is.  A row can move because a row
    upstream of it moved even when the port's delay did not.  On a
    feed-forward port graph every component is one port, so each port is
    evaluated once and its delay is exact.  On a cyclic one a component is
    swept again until it settles, and each delay is rounded up to
    CYCLIC_GRID: exact delays would only approach the fixed point, while
    the rounded map reaches its own in finitely many evaluations.  Each
    delay and each flow's delay upstream of each hop is a reduced (num,
    den) int pair, in CYCLIC_GRID ticks on a cyclic graph and in us on a
    feed-forward one, and each port's delay and each flow's end-to-end sum
    becomes a Fraction once, in the report.
    iterations is the number of evaluations per port, rounded up.  Every
    port is its index in netmodel.port_table's sorted ports; it turns back
    into a (node, next) pair only in the report and in error messages.
    Raises InstabilityError naming every port whose aggregate rate reaches
    the idle slope, ConvergenceError naming a port evaluated more than
    MAX_ITERATIONS times.
    """
    tc.require(CBS)
    consts = tc.constants
    C = consts.link_rate
    idsl = consts.idle_slope_fraction * C
    l_lower = default_lower_frame_bits(consts)

    ports, path, members, frame = port_table(tc)
    n = len(ports)
    if not n:
        return CbsReport(tc.name, {}, {}, {}, 1, True)

    # each flow's source bucket (source_arrival): its frame and its rate,
    # a reduced (num, den) pair
    rate = {f.id: _reduced(frame[f.id] * f.period.denominator,
                           f.period.numerator) for f in tc.flows}
    rate_den = math.lcm(idsl.denominator, C.denominator,
                        *(rd for _, rd in rate.values()))
    rate_at = {fid: rn * (rate_den // rd) for fid, (rn, rd) in rate.items()}
    # No credit term depends on a delay, and only c_min on the port, as
    # sendSlope * l / C with l its largest class frame: one config gives
    # c_max and the service every port shares, idleSlope after
    # c_max / idleSlope, and a port's credit range is c_max - c_min.
    l_max = [max(frame[fid] for fid, _ in hops) for hops in members]
    cfg = CbsClassConfig(1, idsl, idsl - C, max(l_max), l_lower)
    _, c_max = credit_bounds(cfg, C)
    service = cbs_service_curve(cfg, C)
    drain = (C - idsl) / C
    credit_range = {l: c_max + drain * l for l in set(l_max)}

    components = _port_order(path, n)
    cyclic = len(components) < n
    # Every evaluation works on ints: rates in units of 1/rate_den bits/us,
    # bursts in units of 1/(scale * m) bits, with scale making every frame
    # and credit range an int and m the port's own factor, and delays in
    # units of 1/unit us.  A flow's burst entering its k-th port is
    # b + r*D, D the summed delays of the ports before it.  On a
    # feed-forward graph unit is 1 and m the lcm of the denominators of the
    # port's burst moves r*D.  On a cyclic graph the delays are CYCLIC_GRID
    # ticks, which scale covers together with the rates, so every burst is
    # an int and m is 1.
    scale = math.lcm(*(r.denominator for r in credit_range.values()))
    unit = 1
    if cyclic:
        unit = CYCLIC_GRID.denominator
        scale = unit * math.lcm(rate_den, scale)
    # a burst moves by weight * D, for D in 1/unit us, weight a reduced
    # (num, den) pair: (int, 1) on a cyclic graph
    weight = {fid: _reduced(rn * scale, rd * unit)
              for fid, (rn, rd) in rate.items()}
    # a delay is latency + backlog / idleSlope: for a backlog of
    # excess / den units of 1/(scale * m) bits, over one denominator,
    # (lat_num * den * m + exc_num * excess) / (delay_den * den * m) units
    lat = service.latency * unit
    per_unit = Fraction(unit, scale) / idsl
    lat_num = lat.numerator * per_unit.denominator
    exc_num = per_unit.numerator * lat.denominator
    delay_den = lat.denominator * per_unit.denominator
    range_at = {l: _on_scale(r, scale) for l, r in credit_range.items()}
    C_at, idsl_at = _on_scale(C, rate_den), _on_scale(idsl, rate_den)

    # per flow, from its first hop on: the delay upstream of each hop and
    # past the last, a reduced (num, den) pair in 1/unit us
    upstream = {fid: [(0, 1)] * (len(path_f) + 1)
                for fid, path_f in path.items()}
    # The groups feeding each port, fixed for a solve.  The flows the port
    # sources come uncapped, and no delay moves their bursts: one line
    # (frames, rate), or None when it sources none.  Each predecessor's
    # flows come as (shares, frames, rate, link, shaping): a share
    # (wn, wd, row, k) per member, the member being its flow's hop k and
    # row that flow's upstream row, so that its burst moves by wn / wd
    # times the delay row[k]; the members' summed frame, their bursts
    # before any delay, and summed rate; and the bursts of the caps, the
    # link line (link_shaping) at rate C and, behind a switch, the CBS
    # shaping line (cbs_shaping) at idleSlope, else None.  No delay moves
    # the long-run rate, the sum of each group's shallowest line.
    layout, unstable = [], []
    for p, hops in enumerate(members):
        own_frames = own_rate = 0
        by_pred: dict[int, list] = {}   # predecessor port -> its group
        for fid, k in hops:
            if not k:
                own_frames += frame[fid]
                own_rate += rate_at[fid]
                continue
            q = path[fid][k - 1]
            group = by_pred.get(q)
            if group is None:
                group = by_pred[q] = [[], 0, 0, 0]
            wn, wd = weight[fid]
            group[0].append((wn, wd, upstream[fid], k))
            group[1] += frame[fid]
            group[2] += rate_at[fid]
            if frame[fid] > group[3]:
                group[3] = frame[fid]
        own = (own_frames * scale, own_rate) if own_frames else None
        groups, total = [], own_rate
        for q in sorted(by_pred):
            shares, frames, group_rate, l_link = by_pred[q]
            shaping = None
            if tc.topology.is_switch(ports[q][0]):
                shaping = range_at[l_max[q]] + l_link * scale
            groups.append((tuple(shares), frames * scale, group_rate,
                           l_link * scale, shaping))
            if shaping is not None and idsl_at < group_rate:
                total += idsl_at
            elif C_at < group_rate:
                total += C_at
            else:
                total += group_rate
        layout.append((own, groups))
        if total >= idsl_at:
            unstable.append(ports[p])
    if unstable:
        names = ", ".join(f"{a}->{b}" for a, b in unstable)
        raise InstabilityError(
            f"{tc.name}: aggregate rate reaches the idle slope at "
            f"port(s) {names}")

    # per port: the breakpoints of its last evaluation, as (den, pieces),
    # with times in rate_den / (scale * den) us, values in 1 / (scale * den)
    # bits and slopes in 1/rate_den bits/us
    aggregate: list = [None] * n
    to_shaping = C_at - idsl_at     # slope drop from link onto shaping line

    def evaluate(p: int) -> tuple[int, int]:
        """Delay bound of port p from the current upstream rows: the latency
        plus the peak backlog above the idle slope, over the idle slope, as
        a reduced (num, den) pair in 1/unit us, rounded up to whole
        CYCLIC_GRID ticks on a cyclic graph.  A member whose upstream delay
        is zero moves nothing.  Each predecessor group's envelope is built
        in closed form: the link line's burst is the lowest, as the bucket
        holds at least the group's largest frame and the shaping line adds
        a credit range to it, so the envelope starts on the link line, at
        rate C (with a change at time 0 when the bucket starts there too),
        moves on to the line crossing it first, and from there to the last
        line if that is shallower still.  The stability check has put the
        aggregate's final slope below the idle slope, so some breakpoint
        holds the peak, and every line's burst is positive, so the delay is
        never below the latency."""
        own, groups = layout[p]
        m = 1
        if not cyclic:
            for shares, _, _, _, _ in groups:
                for _, wd, row, k in shares:
                    un, ud = row[k]
                    if un and m % (wd * ud):
                        m = m // math.gcd(m, wd * ud) * wd * ud
        envs = []
        if own is not None:
            b, r = own
            envs.append((b * m, r, []))
        for shares, frames, r, link, shaping in groups:
            b = frames * m
            for wn, wd, row, k in shares:
                un, ud = row[k]
                if un:
                    b += wn * un * (m // (wd * ud))
            l = link * m
            if shaping is None:
                drops = [(b - l, C_at - r, C_at - r)] if r < C_at else []
            else:
                s = shaping * m
                if r < C_at and (b - l) * to_shaping < (s - l) * (C_at - r):
                    drops = [(b - l, C_at - r, C_at - r)]
                    if idsl_at < r:
                        drops.append((s - b, r - idsl_at, r - idsl_at))
                else:
                    drops = [(s - l, to_shaping, to_shaping)]
                    if r < idsl_at:
                        drops.append((b - s, idsl_at - r, idsl_at - r))
            envs.append((l, C_at, drops))
        den, pieces = aggregate_breakpoints(envs)
        den *= m
        aggregate[p] = den, pieces
        t, value, _ = next(x for x in pieces if x[2] <= idsl_at)
        num = lat_num * den + exc_num * (value - idsl_at * t)
        den *= delay_den
        if cyclic:
            return -(-num // den), 1
        g = math.gcd(num, den)
        return num // g, den // g

    # each component swept in its order until none of its ports is stale
    delays: list = [None] * n
    stale = [True] * n
    evaluations = [0] * n
    for component in components:
        while any(stale[p] for p in component):
            for p in component:
                if not stale[p]:
                    continue
                stale[p] = False
                evaluations[p] += 1
                if evaluations[p] > MAX_ITERATIONS:
                    raise ConvergenceError(
                        f"{tc.name}: port {'->'.join(ports[p])} still "
                        f"moving after {MAX_ITERATIONS} evaluations")
                dn, dd = delays[p] = evaluate(p)
                for fid, k in members[p]:
                    row = upstream[fid]
                    un, ud = row[k]
                    if cyclic:
                        u = (un + dn, 1)
                    else:
                        num, den = un * dd + dn * ud, ud * dd
                        g = math.gcd(num, den)
                        u = (num // g, den // g)
                    if u != row[k + 1]:
                        row[k + 1] = u
                        if k + 1 < len(path[fid]):
                            stale[path[fid][k + 1]] = True
    iterations = -(-sum(evaluations) // n)
    # the constant term once per route length: its links and switches
    fixed = {k: consts.propagation * k + consts.switching * (k - 1)
             + consts.sync_error for k in set(map(len, path.values()))}
    e2e = {}
    for fid in sorted(path):
        (un, ud), const = upstream[fid][-1], fixed[len(path[fid])]
        e2e[fid] = Fraction(const.numerator * ud * unit
                            + un * const.denominator,
                            const.denominator * ud * unit)
    delays = [Fraction(dn, dd * unit) for dn, dd in delays]

    # every port's last breakpoints are fresh once nothing is stale: its
    # aggregate, back in bits and us, comes from them
    per_port = {}
    for p, port in enumerate(ports):
        den, pieces = aggregate[p]
        den *= scale
        arrival = Curve.from_canonical([
            Seg(Fraction(t * rate_den, den), Fraction(value, den),
                Fraction(slope, rate_den)) for t, value, slope in pieces])
        per_port[port] = PortAnalysis(arrival, delays[p],
                                      tuple(fid for fid, _ in members[p]))
    per_flow_hops = {
        fid: [(ports[p], delays[p]) for p in path[fid]]
        for fid in sorted(path)
    }
    return CbsReport(tc.name, per_port, per_flow_hops, e2e, iterations, True)


def _on_scale(x: Number, scale: int) -> int:
    """x * scale, for x whose denominator divides scale."""
    return x.numerator * (scale // x.denominator)


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den as a (num, den) pair in lowest terms, den > 0 given."""
    g = math.gcd(num, den)
    return num // g, den // g


def report_to_json(report: CbsReport) -> str:
    """The json_text of the report's document, written in its fixed shape
    in one pass: every flow crosses a port, and each port's hop block, with
    its one delay, is written once, however many flows cross it."""
    hop_block, flows = {}, []
    for fid in sorted(report.e2e_wcd):
        for p, d in report.per_flow_hops[fid]:
            if p not in hop_block:
                port = encode_basestring_ascii(f"{p[0]}->{p[1]}")
                hop_block[p] = (f'        {{\n'
                                f'          "d_us": {json_num(d)!r},\n'
                                f'          "port": {port}\n'
                                f'        }}')
        per_hop = ",\n".join(
            hop_block[p] for p, _ in report.per_flow_hops[fid])
        flows.append(f'    {{\n'
                     f'      "id": {fid},\n'
                     f'      "per_hop": [\n{per_hop}\n      ],\n'
                     f'      "wcd_us": {json_num(report.e2e_wcd[fid])!r}\n'
                     f'    }}')
    flows_list = "[\n" + ",\n".join(flows) + "\n  ]" if flows else "[]"
    return (f'{{\n'
            f'  "converged": {"true" if report.converged else "false"},\n'
            f'  "flows": {flows_list},\n'
            f'  "mechanism": "CBS",\n'
            f'  "testcase": {encode_basestring_ascii(report.testcase)}\n'
            f'}}\n')
