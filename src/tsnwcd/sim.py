"""Event-driven shaper simulator for CBS and CQF egress ports.

The simulator is the empirical oracle for the analytical bounds: observed
end-to-end delays must never exceed them.  Time and credit are exact
integers.  Each run picks one tick of 1/den us for its inputs, den being the
least common multiple of the denominators of every duration the run can
produce (constants, horizon, cycle, periods, phases, frame transmission
times and CBS credit recovery times), and one credit unit of 1/scale bits
that makes every slope a whole number of units per tick.  The event loops
then work on Python ints; values turn back into Fraction only where they
leave the simulator (reports, traces, transmissions, error messages).  The
event queue breaks ties deterministically (arrivals, then transmission
completions, then credit wakeups; among flows by ascending id), and for a
fixed (test case, config, seed) the report is bit-identical across runs.

The CBS event loop schedules only events that can change what happens
next.  A port saturated with best effort sends one run of back-to-back MTU
frames, not an event per frame: the run keeps its start tick, its frames end
at start + k * be_tx, and it has at most one pending end event, pushed only
while a class frame waits, at the first of those boundaries at which a
waiting queue is eligible or at the first at or past the horizon.  A credit
recovering with an empty queue schedules no wakeup: the next update of the
queue pegs it at zero at the exact tick it got there, and traced ports are
settled once after the loop.

Conventions shared with the analytical modules: cut-through forwarding
enqueues a frame at the next switch one propagation plus one switching
delay after upstream transmission starts (CQF is store-and-forward: one
propagation plus one switching delay after it ends), delivery at the
listener is one propagation after the final transmission ends, and the
synchronization error is added once to every reported delay.  Clock skew
itself is not simulated.
"""
from __future__ import annotations

import heapq
import json
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from .errors import CapacityError, HorizonError, ValidationError
from .minplus import frac
from .netmodel import (
    CBS,
    CQF,
    MTU_BYTES,
    TestCase,
    frame_bits,
    json_num,
)

RELEASE_SYNCHRONIZED = "synchronized"
RELEASE_JITTERED = "jittered"
_POLICIES = (RELEASE_SYNCHRONIZED, RELEASE_JITTERED)

_RANK_ARRIVE = 0
_RANK_TX_END = 1
_RANK_WAKE = 2
_DELIVERY_PORT = 10 ** 9
_BE_CLS = -1
_NO_FLOW = -1


@dataclass(frozen=True)
class SimConfig:
    horizon: Fraction
    seed: int = 0
    release_policy: str = RELEASE_SYNCHRONIZED
    be_saturate: bool = False                 # back-to-back MTU frames on every port
    trace_ports: tuple = ()                   # (node, next_node) ports to trace
    phases: Optional[dict] = None             # flow id -> release offset override

    def __post_init__(self):
        object.__setattr__(self, "horizon", frac(self.horizon))
        if self.horizon <= 0:
            raise ValidationError("horizon must be > 0")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValidationError("seed must be an integer")
        if self.release_policy not in _POLICIES:
            raise ValidationError(f"unknown release policy {self.release_policy!r}")
        object.__setattr__(self, "trace_ports",
                           tuple(tuple(p) for p in self.trace_ports))
        if self.phases is not None:
            object.__setattr__(
                self, "phases",
                {fid: frac(v) for fid, v in self.phases.items()})


@dataclass
class SimReport:
    testcase: str
    mechanism: str
    seed: int
    horizon: Fraction
    release_policy: str
    per_flow_max_delay: dict
    per_flow_frame_count: dict
    credit_trace: Optional[list] = None       # (t, port, credit bits)


# the integer time base

def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a}/{b} is off the simulator's integer grid")
    return q


class _Grid:
    """One run's ticks per us (den) and credit units per bit (scale)."""

    def __init__(self, durations, slopes=()):
        self.den = math.lcm(*(d.denominator for d in durations))
        self.scale = math.lcm(*((s / self.den).denominator for s in slopes))

    def ticks(self, us: Fraction) -> int:
        return _exact_div(us.numerator * self.den, us.denominator)

    def slope(self, bits_per_us: Fraction) -> int:
        """Credit units per tick."""
        return _exact_div(bits_per_us.numerator * self.scale,
                          bits_per_us.denominator * self.den)

    def us(self, ticks: int) -> Fraction:
        return Fraction(ticks, self.den)

    def bits(self, units: int) -> Fraction:
        return Fraction(units, self.scale)


# credit-based shaper port

class _Queue:
    __slots__ = ("idle", "send", "credit", "slope", "t0", "fifo")

    def __init__(self, idle, send):
        self.idle = idle
        self.send = send
        self.credit = 0
        self.slope = 0
        self.t0 = 0
        self.fifo = deque()


class _CbsPort:
    """One egress port: N credit queues in strict priority over one BE queue.

    Credit of a queue rises at idle_slope while a frame waits or the credit
    is negative, falls at send_slope while the queue transmits, and snaps to
    zero the moment it is positive with nothing waiting.  Eligibility is
    credit >= 0; transmission is non-preemptive.  Times are ticks, credits
    and slopes credit units.
    """

    def __init__(self, idx, key, slopes, be_tx, traced):
        self.idx = idx
        self.key = key
        self.queues = [_Queue(a, b) for a, b in slopes]
        self.be_fifo = deque()            # (duration, tag)
        self.be_tx = be_tx                # synthetic saturating frame, or None
        self.traced = traced
        self.busy = None                  # (cls, flow, seq, hop) or (None,) for BE
        self.run = None                   # saturating run: (start, stop) ticks
        self.be_end = None                # pending BE end event: (t, serial)
        self.trace = []                   # (t, cls, credit)

    def _emit(self, t, cls):
        if self.traced:
            self.trace.append((t, cls, self.queues[cls].credit))

    def _set_slope(self, t, cls, slope):
        q = self.queues[cls]
        if slope != q.slope:
            self._emit(t, cls)
            q.slope = slope

    def _transmitting(self, cls):
        return self.busy is not None and self.busy[0] == cls

    def _update(self, t, cls):
        q = self.queues[cls]
        if q.slope != 0 and t > q.t0:
            new = q.credit + q.slope * (t - q.t0)
            if (q.slope > 0 and new >= 0 and not q.fifo
                    and not self._transmitting(cls)):
                # recovery with an empty queue pegs at zero
                cross = q.t0 + _exact_div(-q.credit, q.slope)
                q.t0 = cross
                q.credit = 0
                self._set_slope(cross, cls, 0)
            else:
                q.credit = new
        q.t0 = t

    def enqueue(self, t, cls, item):
        self._update(t, cls)
        self.queues[cls].fifo.append(item)
        if not self._transmitting(cls):
            self._set_slope(t, cls, self.queues[cls].idle)

    def settle(self):
        """Peg every credit still recovering towards zero where it gets
        there; the event loop leaves that to the next touch of the queue."""
        for cls, q in enumerate(self.queues):
            if q.slope > 0 and q.credit < 0:
                self._update(q.t0 + _exact_div(-q.credit, q.slope), cls)


class _CbsEngine:
    """Shared event loop; on_start wires transmissions into the network and
    returns the transmission duration."""

    def __init__(self, ports, on_start: Callable, horizon=None,
                 on_be_start: Optional[Callable] = None):
        self.ports = ports
        self.on_start = on_start
        self.on_be_start = on_be_start
        self.horizon = horizon
        self.heap = []
        self.deliveries = []              # (t, flow, seq)
        self.be_payload = {}              # (flow, seq) -> (duration, tag)
        self._serial = 0

    def push(self, entry):
        heapq.heappush(self.heap, entry)

    def run(self):
        # all events at one instant settle before any port picks its next
        # frame: arrivals, then completions, then wakeups
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
                if rank == _RANK_ARRIVE:
                    if cls == _BE_CLS:
                        port.be_fifo.append(self.be_payload[(flow, seq)])
                    else:
                        port.enqueue(t, cls, (flow, seq, hop))
                elif rank == _RANK_TX_END:
                    if flow == _NO_FLOW and port.be_end != (t, -seq):
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
        cls = port.busy[0]
        port.busy = None
        if cls is None:
            port.run = port.be_end = None
            return                        # best-effort frame, no credit
        q = port.queues[cls]
        port._update(t, cls)
        if q.fifo:
            port._set_slope(t, cls, q.idle)
        elif q.credit > 0:
            port._emit(t, cls)            # reset discontinuity: down to zero
            q.credit = 0
            port._set_slope(t, cls, 0)
            port._emit(t, cls)
        elif q.credit < 0:
            # recovers with nothing waiting: _update pegs it at zero lazily
            port._set_slope(t, cls, q.idle)
        else:
            port._set_slope(t, cls, 0)

    def _end_be_at(self, port, t):
        self._serial += 1
        port.be_end = (t, self._serial)
        self.push((t, _RANK_TX_END, port.idx, 0, _NO_FLOW, -self._serial, 0))

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
        if port.be_fifo:
            duration, tag = port.be_fifo.popleft()
            port.busy = (None,)
            self._end_be_at(port, t + duration)
            if self.on_be_start is not None:
                self.on_be_start(port, t, tag, duration)
            return
        if port.be_tx is not None and t < self.horizon:
            # the run's frames end at t + k * be_tx; it stops at the first
            # such boundary at or past the horizon
            be = port.be_tx
            port.busy = (None,)
            port.run = (t, t - (t - self.horizon) // be * be)
            self._run_ends(port, t)
            return
        # idle: every waiting queue must be credit-blocked (work conservation)
        for cls, q in enumerate(port.queues):
            if q.fifo:
                assert q.credit < 0, "port idled with an eligible queue"
                self.push((t + _exact_div(-q.credit, q.idle), _RANK_WAKE,
                           port.idx, cls, _NO_FLOW, -1, 0))

    def _start(self, port, t, cls, item):
        flow, seq, hop = item
        port.busy = (cls, flow, seq, hop)
        port._set_slope(t, cls, port.queues[cls].send)
        duration = self.on_start(port, t, cls, item)
        self.push((t + duration, _RANK_TX_END, port.idx, cls, flow, seq, hop))


# release schedules

def _phases(tc, cfg, rng, cycle=None):
    """Release offset per flow id, drawn in ascending flow id."""
    max_period = max(f.period for f in tc.flows)
    if cfg.horizon < 10 * max_period:
        raise ValidationError(
            "horizon must be at least 10 times the longest flow period")
    period = {f.id: f.period for f in tc.flows}
    for fid, phase in (cfg.phases or {}).items():
        if fid not in period:
            raise ValidationError(f"phases: no flow {fid!r}")
        if not 0 <= phase < period[fid]:
            raise ValidationError(
                f"flow {fid}: release offset {float(phase)}us outside "
                f"[0, {float(period[fid])}us)")
    phases = {}
    for f in sorted(tc.flows, key=lambda f: f.id):
        if cfg.phases is not None and f.id in cfg.phases:
            phase = cfg.phases[f.id]
        elif cfg.release_policy == RELEASE_SYNCHRONIZED:
            phase = Fraction(0)
        elif cycle is None:
            phase = f.period * Fraction(rng.randrange(1_000_000), 1_000_000)
        else:
            phase = cycle * rng.randrange(int(f.period / cycle))
        phases[f.id] = phase
    return phases


def _releases(tc, cfg, grid, phases):
    """(release tick, flow, seq) up to horizon minus a drain margin."""
    end = grid.ticks(cfg.horizon - 2 * max(f.period for f in tc.flows))
    for f in sorted(tc.flows, key=lambda f: f.id):
        ticks = range(grid.ticks(phases[f.id]), end + 1, grid.ticks(f.period))
        for seq, r in enumerate(ticks):
            yield r, f, seq


def _grid_durations(tc, cfg, phases, tx):
    c = tc.constants
    return [c.propagation, c.switching, cfg.horizon, *phases.values(),
            *(f.period for f in tc.flows), *tx.values()]


def _port_tables(tc):
    """Sorted port keys; per flow id the index of its first port, and per
    hop the index of the port the next node sends it on (None at the
    listener)."""
    keys = sorted({p for r in tc.routes for p in r.ports})
    index = {k: i for i, k in enumerate(keys)}
    first = {r.flow_id: index[r.ports[0]] for r in tc.routes}
    nxt = {r.flow_id: [index[(b, r.hops[h + 2])] if tc.topology.is_switch(b)
                       else None for h, b in enumerate(r.hops[1:])]
           for r in tc.routes}
    return keys, first, nxt


def _empty_report(tc, cfg):
    return SimReport(tc.name, tc.mechanism, cfg.seed, cfg.horizon,
                     cfg.release_policy, {}, {}, None)


def _fold_deliveries(tc, cfg, grid, deliveries, release_of):
    horizon = grid.ticks(cfg.horizon)
    longest = {f.id: 0 for f in tc.flows}
    counts = {f.id: 0 for f in tc.flows}
    late = 0
    for t, flow, seq in deliveries:
        if t > horizon:
            late += 1
            continue
        counts[flow] += 1
        longest[flow] = max(longest[flow], t - release_of[(flow, seq)])
    if late:
        raise HorizonError(
            f"{late} frame(s) not delivered within the horizon; extend it")
    sync = tc.constants.sync_error
    max_delay = {fid: grid.us(d) + sync if counts[fid] else Fraction(0)
                 for fid, d in longest.items()}
    return max_delay, counts


# network-level CBS simulation

def simulate_cbs(tc: TestCase, cfg: SimConfig) -> SimReport:
    """Event-driven credit-based shaper run; reports max delay per flow."""
    tc.require(CBS)
    used = {p for r in tc.routes for p in r.ports}
    for port in cfg.trace_ports:
        if port not in used:
            raise ValidationError(
                f"trace port {'->'.join(map(str, port))}: no route uses it")
    if not tc.flows:
        return _empty_report(tc, cfg)
    phases = _phases(tc, cfg, random.Random(cfg.seed))
    consts = tc.constants
    C = consts.link_rate
    idle = consts.idle_slope_fraction * C
    send = idle - C
    tx = {f.id: frame_bits(f, consts) / C for f in tc.flows}
    be_tx = Fraction((MTU_BYTES + consts.frame_overhead) * 8) / C
    durations = _grid_durations(tc, cfg, phases, tx)
    durations += [d * -send / idle for d in tx.values()]
    if cfg.be_saturate:
        durations.append(be_tx)
    grid = _Grid(durations, (idle, send))

    port_keys, first, nxt = _port_tables(tc)
    slopes = [(grid.slope(idle), grid.slope(send))]
    be = grid.ticks(be_tx) if cfg.be_saturate else None
    ports = [_CbsPort(i, k, slopes, be, k in cfg.trace_ports)
             for i, k in enumerate(port_keys)]
    tx_t = {fid: grid.ticks(d) for fid, d in tx.items()}
    hop_t = grid.ticks(consts.propagation + consts.switching)
    prop_t = grid.ticks(consts.propagation)

    def on_start(port, t, cls, item):
        flow, seq, hop = item
        pidx = nxt[flow][hop]
        if pidx is None:
            eng.push((t + tx_t[flow] + prop_t, _RANK_ARRIVE, _DELIVERY_PORT,
                      0, flow, seq, hop + 1))
        else:
            eng.push((t + hop_t, _RANK_ARRIVE, pidx, 0, flow, seq, hop + 1))
        return tx_t[flow]

    eng = _CbsEngine(ports, on_start, grid.ticks(cfg.horizon))
    if cfg.be_saturate:
        # wake every port at t=0 so the background source starts immediately
        for p in ports:
            eng.push((0, _RANK_WAKE, p.idx, 0, _NO_FLOW, -1, 0))
    release_of = {}
    for r, f, seq in _releases(tc, cfg, grid, phases):
        release_of[(f.id, seq)] = r
        eng.push((r, _RANK_ARRIVE, first[f.id], 0, f.id, seq, 0))
    eng.run()

    max_delay, counts = _fold_deliveries(tc, cfg, grid, eng.deliveries,
                                         release_of)
    trace = None
    if cfg.trace_ports:
        for p in ports:
            if p.traced:
                p.settle()
        raw = [(t, p.key, c) for p in ports for t, _cls, c in p.trace]
        raw.sort(key=lambda e: (e[0], e[1]))
        trace = [(grid.us(t), key, grid.bits(c)) for t, key, c in raw]
    return SimReport(tc.name, CBS, cfg.seed, cfg.horizon, cfg.release_policy,
                     max_delay, counts, trace)


# single-port harness

def simulate_port(frames, rate, slopes):
    """Drive one CBS port directly, outside any topology.

    frames: (label, cls, bits, release) tuples; cls indexes a credit queue
    (0 is highest priority) or is None for best effort.
    slopes: one (idle_slope, send_slope) pair per credit queue.
    Returns (transmissions, traces): transmissions as (label, start, end)
    in port order, traces as queue index -> [(t, credit)].
    """
    rate = frac(rate)
    slopes = [(frac(a), frac(b)) for a, b in slopes]
    frames = [(label, cls, frac(bits) / rate, frac(release))
              for label, cls, bits, release in frames]
    durations = [d for _, _, d, _ in frames]
    durations += [r for *_, r in frames]
    durations += [d * -slopes[cls][1] / slopes[cls][0]
                  for _, cls, d, _ in frames if cls is not None]
    grid = _Grid(durations, [s for pair in slopes for s in pair])
    port = _CbsPort(0, ("port", "out"),
                    [(grid.slope(a), grid.slope(b)) for a, b in slopes],
                    None, True)
    transmissions = []
    meta = {}

    def on_start(p, t, cls, item):
        flow, seq, hop = item
        label, duration = meta[flow]
        transmissions.append((label, t, t + duration))
        return duration

    def on_be_start(p, t, tag, duration):
        transmissions.append((tag, t, t + duration))

    eng = _CbsEngine([port], on_start, on_be_start=on_be_start)
    for i, (label, cls, duration, release) in enumerate(frames):
        duration, release = grid.ticks(duration), grid.ticks(release)
        if cls is None:
            eng.be_payload[(_NO_FLOW, i)] = (duration, label)
            eng.push((release, _RANK_ARRIVE, 0, _BE_CLS, _NO_FLOW, i, 0))
        else:
            meta[i] = (label, duration)
            eng.push((release, _RANK_ARRIVE, 0, cls, i, 0, 0))
    eng.run()
    port.settle()
    transmissions = [(label, grid.us(s), grid.us(e))
                     for label, s, e in transmissions]
    traces = {cls: [(grid.us(t), grid.bits(c))
                    for t, c2, c in port.trace if c2 == cls]
              for cls in range(len(slopes))}
    return transmissions, traces


# cyclic queuing and forwarding

def simulate_cqf(tc: TestCase, cfg: SimConfig) -> SimReport:
    """Ping-pong cycle simulation.

    A frame reaching a port during cycle k is transmitted during cycle k+1;
    injections exactly on a boundary use the cycle they open.  Cycle indices
    then advance one hop per switch.  Raises CapacityError when a cycle is
    asked to carry more serialization time than T, or when a frame reaches
    a switch after the cycle that must forward it has opened.  A CQF
    port has no credit and no best-effort queue, so a config asking for
    best-effort saturation or a credit trace raises ValidationError.
    """
    tc.require(CQF)
    if cfg.be_saturate:
        raise ValidationError("CQF simulation has no best-effort saturation")
    if cfg.trace_ports:
        raise ValidationError("CQF simulation has no credit trace")
    if not tc.flows:
        return _empty_report(tc, cfg)
    T = tc.constants.cycle_T
    if cfg.release_policy == RELEASE_JITTERED:
        for f in tc.flows:
            if (f.period / T).denominator != 1:
                raise ValidationError(
                    f"flow {f.id}: jittered release needs period divisible by T")
    phases = _phases(tc, cfg, random.Random(cfg.seed), cycle=T)
    consts = tc.constants
    tx = {f.id: frame_bits(f, consts) / consts.link_rate for f in tc.flows}
    grid = _Grid(_grid_durations(tc, cfg, phases, tx) + [T])
    T_t = grid.ticks(T)
    tx_t = {fid: grid.ticks(d) for fid, d in tx.items()}
    hop_t = grid.ticks(consts.propagation + consts.switching)
    prop_t = grid.ticks(consts.propagation)
    port_keys, first, nxt = _port_tables(tc)

    load: dict = {}                       # (port index, cycle) -> ticks
    heap = []
    deliveries = []
    release_of = {}
    for r, f, seq in _releases(tc, cfg, grid, phases):
        release_of[(f.id, seq)] = r
        heapq.heappush(heap, (r, _RANK_ARRIVE, first[f.id], 0, f.id, seq, 0))

    while heap:
        t, rank, pidx, cyc_hint, flow, seq, hop = heapq.heappop(heap)
        if hop == 0:
            cycle = -(-t // T_t)
        else:
            cycle = cyc_hint
            if t > cycle * T_t:
                a, b = port_keys[pidx]
                raise CapacityError(
                    f"port {a}->{b} cycle {cycle}: a frame of flow {flow} "
                    f"arrives at {float(grid.us(t))}us, after the cycle "
                    f"opened at {float(grid.us(cycle * T_t))}us")
        key = (pidx, cycle)
        total = load.get(key, 0) + tx_t[flow]
        if total > T_t:
            a, b = port_keys[pidx]
            raise CapacityError(
                f"port {a}->{b} cycle {cycle}: {float(grid.us(total))}us "
                f"of traffic in a {float(T)}us cycle")
        load[key] = total
        # every frame of this cycle arrived by its start: back to back
        end = cycle * T_t + total
        nxt_pidx = nxt[flow][hop]
        if nxt_pidx is None:
            deliveries.append((end + prop_t, flow, seq))
        else:
            heapq.heappush(heap, (end + hop_t, _RANK_ARRIVE, nxt_pidx,
                                  cycle + 1, flow, seq, hop + 1))

    max_delay, counts = _fold_deliveries(tc, cfg, grid, deliveries,
                                         release_of)
    return SimReport(tc.name, CQF, cfg.seed, cfg.horizon, cfg.release_policy,
                     max_delay, counts, None)


# tracing helpers

def credit_trace(tc: TestCase, cfg: SimConfig, port) -> list:
    """(t, credit) record for one port's class queue during a CBS run."""
    port = tuple(port)
    cfg = replace(cfg, trace_ports=(port,))
    report = simulate_cbs(tc, cfg)
    return [(t, c) for t, p, c in (report.credit_trace or []) if p == port]


def trace_to_csv(trace) -> str:
    lines = ["t_us,credit_bits"]
    for t, credit in trace:
        lines.append(f"{float(t)},{float(credit)}")
    return "\n".join(lines) + "\n"


def report_to_json(report: SimReport) -> str:
    flows = [
        {
            "id": fid,
            "frames": report.per_flow_frame_count[fid],
            "max_delay_us": json_num(report.per_flow_max_delay[fid]),
        }
        for fid in sorted(report.per_flow_max_delay)
    ]
    payload = {
        "testcase": report.testcase,
        "mechanism": report.mechanism,
        "seed": report.seed,
        "horizon_us": json_num(report.horizon),
        "release_policy": report.release_policy,
        "flows": flows,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
