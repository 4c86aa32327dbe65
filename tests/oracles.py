"""Reference implementations the tests compare the package against.

The curve-algebra oracles do not touch the package's envelope machinery:
curves are plain (start, value, slope) triples and every operation is a
pointwise candidate search straight from the defining inf/sup formula.  The
CBS aggregate oracle builds a port's arrival curve with the general min-plus
operations (themselves checked against the pointwise oracles), independently
of the breakpoint-list evaluator in cbs; rebuilt_aggregate does so for any
port from given upstream delays, and reference_tfa runs plain Jacobi sweeps
of it from zero to the least fixed point of the rounded TFA map.
rate_latency_delay reads a delay bound off an aggregate's segments in closed
form, the way feed-forward TFA did before it read the peak backlog on ints;
tfa_service is the one service TFA gives every port.  group_envelope is the
general lower envelope of a group's lines, where the TFA evaluator builds
its groups' envelopes in closed form.
report_json_reference writes a CBS report through a document and the JSON
encoder, the text cbs.report_to_json writes in one pass.
Exact Fractions throughout, so agreement checks against the implementation
can use ==.

The reference CBS network engine is the event loop simulate_cbs ran before
it fixed each frame's start at its arrival: arrivals, transmission ends,
credit wakeups, best-effort run ends and deliveries are all heap events.
reference_simulate_cbs must give the same report and credit-trace bytes.
reference_run also gives each flow's smallest and largest residence at each
port, which the per-port delay bounds of TFA must cover.

The routing oracle k_shortest_routes enumerates loop-free paths best-first,
so it can give the 2nd and 3rd routes too; its first is the one
testgen.shortest_routes must pick.
"""
import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from tsnwcd import cbs, sim
from tsnwcd.minplus import (
    Curve,
    CurveLike,
    RateLatency,
    Seg,
    as_curve,
    h_dev,
    min_of,
    shift_delay,
    sum_of,
)
from tsnwcd.errors import HorizonError, InstabilityError, ValidationError
from tsnwcd.netmodel import (
    CBS,
    MTU_BYTES,
    Route,
    frame_bits,
    json_num,
    json_text,
    port_table,
)


def pw_value(triples, t):
    """Evaluate a piecewise-linear spec at t, with value(0) = 0."""
    t = Fraction(t)
    if t == 0:
        return Fraction(0)
    seg = triples[0]
    for cand in triples[1:]:
        if cand[0] <= t:
            seg = cand
        else:
            break
    s, v, m = seg
    return v + m * (t - s)


def pw_value_right(triples, t):
    t = Fraction(t)
    if t > 0:
        return pw_value(triples, t)
    return triples[0][1]


def pw_slope_right(triples, t):
    t = Fraction(t)
    seg = triples[0]
    for cand in triples[1:]:
        if cand[0] <= t:
            seg = cand
        else:
            break
    return seg[2]


def starts(triples):
    return [s for s, _, _ in triples]


def conv_at(f, g, t):
    """(f (x) g)(t) by candidate search: the infimum over s in [0, t] of
    f(t-s) + g(s) sits at a kink of the s-parametrised function."""
    t = Fraction(t)
    cands = {Fraction(0), t}
    for s in starts(g):
        if 0 <= s <= t:
            cands.add(Fraction(s))
    for u in starts(f):
        if 0 <= t - u <= t:
            cands.add(t - Fraction(u))
    return min(pw_value(f, t - s) + pw_value(g, s) for s in cands)


def deconv_at(f, g, t):
    """(f (/) g)(t) by candidate search over s >= 0, right-limit flavoured
    so t = 0 picks up f's jump.  Assumes the long-term rate of f does not
    exceed that of g, so a probe beyond every kink covers the tail."""
    t = Fraction(t)
    probe = max(max(starts(f)), max(starts(g))) + t + 1
    cands = {Fraction(0), probe}
    for s in starts(g):
        if s >= 0:
            cands.add(Fraction(s))
    for u in starts(f):
        if u - t >= 0:
            cands.add(Fraction(u) - t)
    return max(pw_value_right(f, t + s) - pw_value(g, s) for s in cands)


def needed_delay_at(alpha, beta, t):
    """Smallest d >= 0 with beta(t + d) >= alpha(t+), by scanning beta's
    pieces from the left.  Returns None if beta never reaches the level."""
    t = Fraction(t)
    target = pw_value_right(alpha, t)
    if target <= 0:
        return Fraction(0)
    pieces = list(beta)
    for i, (s, v, m) in enumerate(pieces):
        nxt = pieces[i + 1][0] if i + 1 < len(pieces) else None
        if v >= target:
            u = Fraction(s)
            return max(Fraction(0), u - t)
        if m > 0:
            u = s + (target - v) / m
            if nxt is None or u < nxt:
                return max(Fraction(0), u - t)
    return None


@dataclass(frozen=True)
class SourceGroup:
    """Traffic entering a port from one predecessor (or sourced locally when
    both shaping curves are None)."""
    arrivals: tuple
    link_shaping: Optional[CurveLike] = None
    cbs_shaping: Optional[CurveLike] = None


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


def rate_latency_delay(segments: Sequence[Seg], service: RateLatency
                       ) -> Fraction:
    """Delay bound of an arrival curve, given as its canonical segments
    (Curve.segments), at a rate-latency server (rate R, latency T), in
    closed form: T + max over the segment starts s of (alpha(s+)/R - s),
    and never below 0.

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


def group_envelope(lines: Sequence[tuple[int, int]]) -> cbs.Envelope:
    """Lower envelope of (burst, rate) lines on t > 0, on one int scale:
    one group's share of a port aggregate, i.e. a predecessor's summed flow
    bucket and its shaping caps, or the bucket of the flows the port
    sources itself, as its value at 0+, first slope and slope drops.

    The envelope starts on the lowest line (the shallowest of equals) and
    moves, at each crossing, to the line that crosses first; only
    shallower lines can cross, so the slope strictly falls at each change.
    Where three lines meet, two changes may share one time;
    cbs.aggregate_breakpoints merges them.  cbs.tfa_solve's evaluator
    builds the envelopes of its groups, whose lines it knows in burst
    order, in closed form instead.
    """
    b, r = min(lines)
    value, slope = b, r
    drops = []
    while True:
        nxt = None
        for bi, ri in lines:
            if ri < r:
                num, den = bi - b, r - ri
                if nxt is None or num * nxt[1] < nxt[0] * den:
                    nxt = (num, den, bi, ri)
        if nxt is None:
            return value, slope, drops
        num, den, b, ri = nxt
        drops.append((num, den, r - ri))
        r = ri


def tfa_service(constants) -> RateLatency:
    """The service cbs.tfa_solve gives every CBS port: idleSlope after
    c_max / idleSlope, c_max from one MTU-sized best-effort frame; no term
    depends on the port."""
    C = constants.link_rate
    idsl = constants.idle_slope_fraction * C
    return cbs.cbs_service_curve(cbs.CbsClassConfig(
        1, idsl, idsl - C, 1, cbs.default_lower_frame_bits(constants)), C)


def rebuilt_aggregate(tc, delay, port) -> Curve:
    """The CBS aggregate at port when every port q upstream of it has delay
    bound delay[q]: each flow's source bucket shifted by the delays before
    port, summed per predecessor and capped by the link line and, behind a
    switch, by the predecessor's CBS shaping line."""
    consts = tc.constants
    C = consts.link_rate
    idsl = consts.idle_slope_fraction * C
    bits = {f.id: frame_bits(f, consts) for f in tc.flows}
    through = {}
    for r in tc.routes:
        for q in r.ports:
            through.setdefault(q, []).append(r.flow_id)
    local, by_pred = [], {}
    for fid in through[port]:
        ports = tc.route_for(fid).ports
        k = ports.index(port)
        env = shift_delay(cbs.source_arrival(tc.flow(fid), consts),
                          sum(delay[q] for q in ports[:k]))
        if k == 0:
            local.append(env)
        else:
            by_pred.setdefault(ports[k - 1][0], []).append((fid, env))
    groups = [SourceGroup(tuple(local))] if local else []
    for pred, members in by_pred.items():
        l_link = max(bits[fid] for fid, _ in members)
        cbs_cap = None
        if tc.topology.is_switch(pred):
            cfg = cbs.CbsClassConfig(
                1, idsl, idsl - C,
                max(bits[fid] for fid in through[(pred, port[0])]),
                cbs.default_lower_frame_bits(consts))
            cbs_cap = cbs.cbs_shaping(cfg, C, l_link)
        groups.append(SourceGroup(tuple(env for _, env in members),
                                  cbs.link_shaping(C, l_link), cbs_cap))
    return aggregate_arrival(groups)


def reference_tfa(tc, grid: Fraction) -> dict:
    """Port delays of CBS total flow analysis by plain Jacobi sweeps: all
    start at zero, and each sweep sets every port's delay to the horizontal
    deviation of its rebuilt aggregate from the service, rounded up to
    grid, all from the previous sweep's delays, until a sweep changes
    nothing.  The map is monotone, so that is its least fixed point."""
    service = tfa_service(tc.constants)
    delay = {p: Fraction(0) for r in tc.routes for p in r.ports}
    while True:
        swept = {p: math.ceil(h_dev(rebuilt_aggregate(tc, delay, p), service)
                              / grid) * grid
                 for p in delay}
        if swept == delay:
            return delay
        delay = swept


def report_json_reference(report) -> str:
    """A CBS report's JSON text, built as a document and written by
    json_text; cbs.report_to_json, which writes the fixed shape in one
    pass, must give the same text."""
    hop_json = {}
    for hops in report.per_flow_hops.values():
        for p, d in hops:
            if p not in hop_json:
                hop_json[p] = {"port": f"{p[0]}->{p[1]}", "d_us": json_num(d)}
    flows = []
    for fid in sorted(report.e2e_wcd):
        flows.append({
            "id": fid,
            "wcd_us": json_num(report.e2e_wcd[fid]),
            "per_hop": [hop_json[p] for p, _ in report.per_flow_hops[fid]],
        })
    payload = {
        "testcase": report.testcase,
        "mechanism": "CBS",
        "flows": flows,
        "converged": report.converged,
    }
    return json_text(payload)


# reference CBS network engine

_DELIVERY_PORT = 10 ** 9


class RunPort(sim._CbsPort):
    """A CBS port whose best-effort queue is a saturating source of be_tx
    tick frames, sent as runs: a run keeps its start tick, its frames end
    at start + k * be_tx, and it has at most one pending end event."""

    def __init__(self, idx, key, slopes, be_tx, traced):
        super().__init__(idx, slopes)
        self.key = key
        self.be_tx = be_tx                # frame ticks, or None: no source
        self.traced = traced
        self.run = None                   # (start, stop) ticks
        self.be_end = None                # pending run end: (t, serial)

    def _emit(self, t, cls):
        if self.traced:
            super()._emit(t, cls)


class ReferenceEngine(sim._CbsEngine):
    """The shared event loop plus saturating runs and delivery events.  It
    records each class frame's residence at each port, from the tick it is
    enqueued there to the end of its transmission there."""

    def __init__(self, ports, on_start, horizon):
        super().__init__(ports, on_start)
        self.horizon = horizon
        self.deliveries = []              # (t, flow, seq)
        self._serial = 0
        self.enqueued = {}                # (port idx, flow, seq) -> tick
        # (port idx, flow) -> (smallest, largest) residence in ticks
        self.residence = {}

    def run(self):
        heap, ports = self.heap, self.ports
        while heap:
            t = heap[0][0]
            touched = []
            while heap and heap[0][0] == t:
                _, rank, pidx, cls, flow, seq, hop = heapq.heappop(heap)
                if pidx == _DELIVERY_PORT:
                    self.deliveries.append((t, flow, seq))
                    continue
                port = ports[pidx]
                if rank == sim._RANK_ARRIVE:
                    self.enqueued[pidx, flow, seq] = t
                    port.enqueue(t, cls, (flow, seq, hop))
                elif rank == sim._RANK_TX_END:
                    if flow == sim._NO_FLOW and port.be_end != (t, -seq):
                        continue              # superseded run end
                    self._tx_end(port, t)
                else:
                    port._update(t, cls)
                if pidx not in touched:
                    touched.append(pidx)
            if len(touched) > 1:
                touched.sort()
            for pidx in touched:
                self._kick(ports[pidx], t)

    def _tx_end(self, port, t):
        if port.busy[0] is None:
            port.busy = port.run = port.be_end = None
            return
        _, flow, seq, _ = port.busy
        stay = t - self.enqueued.pop((port.idx, flow, seq))
        lo, hi = self.residence.get((port.idx, flow), (stay, stay))
        self.residence[port.idx, flow] = (min(lo, stay), max(hi, stay))
        super()._tx_end(port, t)

    def _end_be_at(self, port, t):
        self._serial += 1
        port.be_end = (t, self._serial)
        self.push((t, sim._RANK_TX_END, port.idx, 0, sim._NO_FLOW,
                   -self._serial, 0))

    def _run_ends(self, port, t):
        """Whether the saturating run ends at t, a frame boundary at which a
        waiting queue is eligible or the run's stop.  Otherwise schedules
        its end at the first such boundary, if a class frame waits."""
        start, stop = port.run
        if t >= stop:
            return True
        ready = None
        for q in port.queues:
            if q.fifo:
                at = t if q.credit >= 0 else q.t0 - q.credit // q.idle
                ready = at if ready is None else min(ready, at)
        if ready is None:
            return False
        be = port.be_tx
        frames = max(1, -((start - max(ready, t)) // be))
        end = min(start + frames * be, stop)
        if end == t:
            return True
        if port.be_end is None or end < port.be_end[0]:
            self._end_be_at(port, end)
        return False

    def _kick(self, port, t):
        if port.run is not None:
            if not self._run_ends(port, t):
                return
            port.busy = port.run = port.be_end = None
        if port.busy is not None:
            return
        for cls, q in enumerate(port.queues):
            if not q.fifo:
                continue
            port._update(t, cls)
            if q.credit >= 0:
                self._start(port, t, cls, q.fifo.popleft())
                return
        if port.be_tx is not None and t < self.horizon:
            # the run's frames end at t + k * be_tx; it stops at the first
            # such boundary at or past the horizon
            be = port.be_tx
            port.busy = (None,)
            port.run = (t, t - (t - self.horizon) // be * be)
            self._run_ends(port, t)
            return
        for cls, q in enumerate(port.queues):
            if q.fifo:
                assert q.credit < 0, "port idled with an eligible queue"
                self.push((t + sim._exact_div(-q.credit, q.idle),
                           sim._RANK_WAKE, port.idx, cls, sim._NO_FLOW, -1, 0))


def reference_simulate_cbs(tc, cfg):
    """simulate_cbs on the reference engine: same report, same trace."""
    return reference_run(tc, cfg)[0]


def reference_run(tc, cfg):
    """(report, residence): reference_simulate_cbs's report, and per
    ((node, next) port, flow id) the smallest and largest residence of the
    flow's frames at that port, in us."""
    tc.require(CBS)
    if not tc.flows:
        return sim._empty_report(tc, cfg), {}
    phases = sim._phases(tc, cfg, random.Random(cfg.seed))
    consts = tc.constants
    C = consts.link_rate
    idle = consts.idle_slope_fraction * C
    send = idle - C
    tx = {f.id: frame_bits(f, consts) / C for f in tc.flows}
    be_tx = Fraction((MTU_BYTES + consts.frame_overhead) * 8) / C
    durations = sim._grid_durations(tc, cfg, phases, tx)
    durations += [d * -send / idle for d in tx.values()]
    if cfg.be_saturate:
        durations.append(be_tx)
    grid = sim._Grid(durations, (idle, send))

    port_keys, path, _, _ = port_table(tc)
    nxt = {fid: [*p[1:], None] for fid, p in path.items()}
    slopes = [(grid.slope(idle), grid.slope(send))]
    be = grid.ticks(be_tx) if cfg.be_saturate else None
    ports = [RunPort(i, k, slopes, be, k in cfg.trace_ports)
             for i, k in enumerate(port_keys)]
    tx_t = {fid: grid.ticks(d) for fid, d in tx.items()}
    hop_t = grid.ticks(consts.propagation + consts.switching)
    prop_t = grid.ticks(consts.propagation)

    def on_start(port, t, cls, item):
        flow, seq, hop = item
        pidx = nxt[flow][hop]
        if pidx is None:
            eng.push((t + tx_t[flow] + prop_t, sim._RANK_ARRIVE,
                      _DELIVERY_PORT, 0, flow, seq, hop + 1))
        else:
            eng.push((t + hop_t, sim._RANK_ARRIVE, pidx, 0, flow, seq,
                      hop + 1))
        return tx_t[flow]

    eng = ReferenceEngine(ports, on_start, grid.ticks(cfg.horizon))
    if cfg.be_saturate:
        # wake every port at t=0 so the background source starts immediately
        for p in ports:
            eng.push((0, sim._RANK_WAKE, p.idx, 0, sim._NO_FLOW, -1, 0))
    drain = 2 * max(f.period for f in tc.flows)
    releases, last = sim._releases(tc, cfg, grid, phases, drain)
    for fid, (first, period) in releases.items():
        for seq, r in enumerate(range(first, last + 1, period)):
            eng.push((r, sim._RANK_ARRIVE, path[fid][0], 0, fid, seq, 0))
    eng.run()

    # the delivery events folded here, apart from simulate_cbs's fold
    horizon = grid.ticks(cfg.horizon)
    delays = {f.id: [] for f in tc.flows}
    late = set()
    for t, flow, seq in eng.deliveries:
        if t > horizon:
            late.add(flow)
        else:
            first, period = releases[flow]
            delays[flow].append(t - first - seq * period)
    if late:
        raise HorizonError(
            f"flows {sorted(late)}: a frame outlasts the horizon, its delay "
            f"exceeding the drain margin of {float(drain)}us")
    sync = consts.sync_error
    max_delay = {fid: grid.us(max(d)) + sync if d else Fraction(0)
                 for fid, d in delays.items()}
    counts = {fid: len(d) for fid, d in delays.items()}
    trace = None
    if cfg.trace_ports:
        for p in ports:
            if p.traced:
                p.settle()
        raw = [(t, p.key, c) for p in ports for t, _cls, c in p.trace]
        raw.sort(key=lambda e: (e[0], e[1]))
        trace = [(grid.us(t), key, grid.bits(c)) for t, key, c in raw]
    residence = {(port_keys[pidx], flow): (grid.us(lo), grid.us(hi))
                 for (pidx, flow), (lo, hi) in eng.residence.items()}
    return sim.SimReport(tc.name, CBS, cfg.seed, cfg.horizon,
                         cfg.release_policy, max_delay, counts,
                         trace), residence


# routing

def k_shortest_routes(topo, flow, k: int = 1) -> list[Route]:
    """Loop-free routes in (hop count, lexicographic) order.

    Interior hops are switches only.  Best-first expansion over simple
    paths; with unit weights the pop order is exactly nondecreasing length
    with lexicographic node sequences breaking ties.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    out = []
    heap = [(1, (flow.src,))]
    while heap and len(out) < k:
        n, path = heapq.heappop(heap)
        last = path[-1]
        if last == flow.dst:
            out.append(Route(flow.id, path))
            continue
        for nb in topo.neighbors(last):
            if nb in path:
                continue
            if nb != flow.dst and not topo.is_switch(nb):
                continue
            heapq.heappush(heap, (n + 1, path + (nb,)))
    if not out:
        raise ValidationError(f"no route from {flow.src} to {flow.dst}")
    return out
