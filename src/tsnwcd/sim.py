"""Shaper simulator for CBS and CQF egress ports.

The simulator is the empirical oracle for the analytical bounds: observed
end-to-end delays must never exceed them.  Time and credit are exact
integers.  Each run picks one tick of 1/den us for its inputs, den being the
least common multiple of the denominators of every duration the run can
produce (constants, horizon, cycle, periods, phases, frame transmission
times and CBS credit recovery times).  simulate_port counts credit in units
of 1/scale bits (_Grid.scale), which make every slope a whole number of
units per tick.  simulate_cbs needs no such unit: a port's credit there is
always a whole number of ticks of recovery at the idle slope, since a
frame starts with the credit gathered over the ticks it waited and its
transmission spends what the idle slope recovers in a whole number of
ticks, so it holds each credit as that count, and a credit turns into bits
only where a trace records it.  The loops then work on Python ints; values
turn back into Fraction only where they leave the simulator (reports,
traces, transmissions, error messages).  For a fixed (test case, config,
seed) the report is bit-identical across runs.

A network CBS port has one FIFO credit queue and, at most, a saturating
best-effort source, so nothing that reaches a port after a frame can change
when that frame starts (Lindley's single-server recursion).  simulate_cbs
therefore fixes a frame's start the moment it pops off the heap at a port,
and the heap holds arrivals only: the frame-hops in flight plus one pending
release per flow, whose next release is pushed when it pops.  Each port keeps
the end tick e and end credit c of its last scheduled frame; the start of a
new frame is a closed form of those and its arrival.  Queued behind that
frame, it inherits the end credit; arriving later, it finds the credit
reset to zero or recovering towards it.  It is eligible once the credit is
>= 0: at tick e - c, or on arrival if that is later.  A saturating source
sends a run of back-to-back MTU frames from the end of each class frame (or
from 0) until the first boundary at or past the horizon, and an eligible
frame waits for the first of the run's frame boundaries at or after it
became eligible.  The run start, max(e, 0), is derived, not stored; a run
from e at or past the horizon stops where it starts, and a frame not queued
behind the last one is never eligible before e.  Credit-trace records of a
frame are written when it is scheduled; those of its transmission end wait
until the next frame at the port (or the end of the simulation) shows
whether a frame was queued behind it.

The heap orders entries by (tick, batch, port, flow, seq, hop).  With a
positive propagation plus switching delay every batch is 1.  Without one, a
frame can reach the next port at the tick it starts, and the batch keeps the
order of a loop that lets every event of an instant settle before any port
picks its next frame: an entry pushed from a start at its own arrival tick
gets the arrival's batch + 1, one pushed from a later start gets 2.  A frame
is queued behind its predecessor when it arrives before that frame ends, or
at its end tick in batch 1; one arriving at the tick a best-effort run
started in a later batch waits at least one best-effort frame.

Both network simulators run on one core, _Cut: one heap of that layout
(CQF entries keep batch 1), each flow's releases, and each delivery folded
into its flow's longest delay and count as it is made.  The loops push a
flow's next release themselves and call the core for a release only at a
hypercycle boundary, so an event costs its heap operations and, at the
listener, the fold.  Releases repeat every hypercycle H, the lcm of the
periods, so the core cuts a run short once its state repeats (a
feasibility interval of offset periodic tasks: Leung & Merrill, IPL 1980;
Goossens, Grolleau & Cucu-Grosjean, Real-Time Systems 2016).  At the first
release popped at or after each boundary kH it copies the state.  Its
snapshot, relative to kH, holds each port's end credit and its end tick
less kH (CBS; a port whose last frame ended before kH with its credit back
at zero by then is idle, up to the phase of the best-effort run from its
end tick), or the open tick less kH and the load of the port's latest
cycle (CQF; a cycle that opened before kH takes no later frame), and every
heap entry with its tick less kH and its seq less k times its flow's
releases per H.  When a snapshot equals the previous boundary's, the state
moves m x H on, m being the most that keeps every release of the skipped
hypercycles at or before the last release tick and every delivery in
them by the horizon, saturated or not (_Cut says why); each flow gains
m x its releases per H frames, and the tail runs exactly.  No jump meets
a port still at tick -1: the frames heading for it stay on the heap,
which grows every hypercycle, so no such snapshot repeats.  The skipped
hypercycles repeat delays already seen, so the report is the uncut run's.
A credit trace is per-event output, so a traced run takes no snapshot.  A
saturated run repeats only once its best-effort runs keep their phase
against H, which many never do; such a run goes to the end in memory that
does not grow with the horizon.
SimReport.periodic_from and hypercycles_skipped tell which happened.

simulate_port drives one port with several credit queues and explicit
best-effort frames through an event loop (arrivals, then transmission
completions, then credit wakeups at each instant; among flows by ascending
id).  A credit recovering with an empty queue schedules no wakeup: the next
update of the queue pegs it at zero at the exact tick it got there, and the
port is settled once after the loop.

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
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from .cqf import cqf_wcd, hypercycle
from .errors import CapacityError, HorizonError, ValidationError
from .minplus import frac
from .netmodel import (
    CBS,
    CQF,
    MTU_BYTES,
    TestCase,
    json_num,
    json_text,
    port_table,
    wire_bits,
)

RELEASE_SYNCHRONIZED = "synchronized"
RELEASE_JITTERED = "jittered"
_POLICIES = (RELEASE_SYNCHRONIZED, RELEASE_JITTERED)

_RANK_ARRIVE = 0
_RANK_TX_END = 1
_RANK_WAKE = 2
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
    # the periodic cut, kept out of report_to_json: the boundary k whose
    # snapshot repeated at k + 1 (None: none did), and the hypercycles skipped
    periodic_from: Optional[int] = None
    hypercycles_skipped: int = 0


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

    def __init__(self, idx, slopes):
        self.idx = idx
        self.queues = [_Queue(a, b) for a, b in slopes]
        self.be_fifo = deque()            # (duration, tag)
        self.busy = None                  # (cls, flow, seq, hop) or (None,) for BE
        self.trace = []                   # (t, cls, credit)

    def _emit(self, t, cls):
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
    """Event loop of simulate_port; on_start wires a class transmission
    into the caller and returns its duration, on_be_start is told of each
    best-effort one."""

    def __init__(self, ports, on_start: Callable,
                 on_be_start: Optional[Callable] = None):
        self.ports = ports
        self.on_start = on_start
        self.on_be_start = on_be_start
        self.heap = []
        self.be_payload = {}              # (flow, seq) -> (duration, tag)

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
                port = ports[pidx]
                if rank == _RANK_ARRIVE:
                    if cls == _BE_CLS:
                        port.be_fifo.append(self.be_payload[(flow, seq)])
                    else:
                        port.enqueue(t, cls, (flow, seq, hop))
                elif rank == _RANK_TX_END:
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

    def _kick(self, port, t):
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
            self.push((t + duration, _RANK_TX_END, port.idx, 0, _NO_FLOW, 0, 0))
            self.on_be_start(port, t, tag, duration)
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
        if cycle is not None and phase % cycle:
            raise ValidationError(
                f"flow {fid}: release offset {float(phase)}us is not a "
                f"multiple of the {float(cycle)}us cycle")
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


def _releases(tc, cfg, grid, phases, drain):
    """({flow id: (first release tick, period in ticks)}, last): a flow's
    seq-th release is at first + seq * period, for every such tick up to
    last, the horizon minus the drain margin, which must leave every flow
    a release."""
    if cfg.horizon - drain < max(f.period for f in tc.flows):
        raise HorizonError(f"horizon {float(cfg.horizon)}us leaves less than "
                           f"a period before the drain margin of "
                           f"{float(drain)}us; extend it")
    last = math.floor((cfg.horizon - drain) * grid.den)
    return {f.id: (grid.ticks(phases[f.id]), grid.ticks(f.period))
            for f in sorted(tc.flows, key=lambda f: f.id)}, last


def _grid_durations(tc, cfg, phases, tx):
    c = tc.constants
    return [c.propagation, c.switching, cfg.horizon, *phases.values(),
            *(f.period for f in tc.flows), *tx.values()]


def _empty_report(tc, cfg):
    return SimReport(tc.name, tc.mechanism, cfg.seed, cfg.horizon,
                     cfg.release_policy, {}, {}, None)


# the run core

class _Cut:
    """The run core (module docstring).  The simulator pushes a flow's next
    release, period[fid] ticks on, while it lies at or before last, and
    calls boundary() for a release popped at or after due; deliver() folds
    a delivery.  H is the hypercycle in ticks and per[fid] the flow's
    releases per H.  A boundary copies the heap and the simulator's
    per-port lists; view(B, *lists) yields the ports relative to the
    boundary tick B.  The first list holds each port's tick (CBS end tick,
    CQF open tick) and moves on with the heap.  Saturation needs no bound
    of its own on the jump: the horizon stops a best-effort run, which
    moves only frames eligible at or past it.  A skipped frame whose copy
    was delivered in the copied hypercycle is delivered by the horizon; one
    whose copy was in flight and that becomes eligible at or past it ends
    past it from the shifted state too, and the cut and uncut runs differ
    only in events past the horizon: both raise the same HorizonError."""

    def __init__(self, tc, cfg, grid, phases, drain, path, lists, view):
        self.releases, self.last = _releases(tc, cfg, grid, phases, drain)
        self.period = {fid: period
                       for fid, (_, period) in self.releases.items()}
        self.H = grid.ticks(hypercycle(tc.flows))
        self.per = {fid: self.H // period
                    for fid, period in self.period.items()}
        self.horizon = grid.ticks(cfg.horizon)
        self.drain = drain
        self.lists, self.view = lists, view
        self.due = math.inf if cfg.trace_ports else 0
        self.seen = None            # the state copied at the last boundary
        self.periodic_from = None
        self.skipped = 0
        # per flow, the longest delay in ticks and the frames delivered by
        # the horizon; flows delivered after it; the latest delivery since
        # the last copy
        self.longest = {f.id: 0 for f in tc.flows}
        self.count = {f.id: 0 for f in tc.flows}
        self.late = set()
        self.latest = -1
        self.heap = []
        for fid, (first, _) in self.releases.items():
            heapq.heappush(self.heap, (first, 1, path[fid][0], fid, 0, 0))

    def boundary(self, t, p, flow, seq):
        """The flow's seq-th release popped at t >= due at port p, the
        first at or after a boundary: copy the state and, on a repeat, skip
        the most hypercycles that keep every release of them at or before
        last and every delivery of them by the horizon.  Returns t and seq
        moved on past the hypercycles skipped; due moves to the next
        boundary, or past every tick."""
        H, heap = self.H, self.heap
        k = t // H
        self.due = (k + 1) * H
        entries = [*heap, (t, 1, p, flow, seq, 0)]
        latest, self.latest = self.latest, -1
        if self.repeats((k, k * H, entries,
                         [values[:] for values in self.lists])):
            m = min(self.last - max(u for u, *_, h in entries if h == 0),
                    self.horizon - latest) // H
            if m > 0:
                self.skipped, shift, per = m, m * H, self.per
                heap[:] = [(u + shift, b, q, f, s + m * per[f], h)
                           for u, b, q, f, s, h in heap]
                ticks = self.lists[0]
                ticks[:] = [v + shift for v in ticks]
                for fid, n in per.items():
                    self.count[fid] += m * n
                t += shift
                seq += m * per[flow]
        return t, seq

    def deliver(self, t, flow, seq):
        """The flow's seq-th frame reaches its listener at t."""
        if t > self.latest:
            self.latest = t
        if t > self.horizon:
            self.late.add(flow)
            return
        self.count[flow] += 1
        first, period = self.releases[flow]
        if t - first - seq * period > self.longest[flow]:
            self.longest[flow] = t - first - seq * period

    def repeats(self, state):
        """True when state, (k, kH, heap entries, port lists), has the
        snapshot of the state copied at the boundary before.  Snapshots are
        built piece by piece and compared up to the first piece that
        differs, so a run that does not repeat builds little of either."""
        def snapshot(k, B, entries, lists):
            yield len(entries)
            yield from self.view(B, *lists)
            yield sorted([(t - B, b, p, f, s - k * self.per[f], h)
                          for t, b, p, f, s, h in entries])

        seen, self.seen = self.seen, state
        if seen is None or seen[0] != state[0] - 1 or not all(
                x == y for x, y in zip(snapshot(*seen), snapshot(*state))):
            return False
        self.due = math.inf
        self.periodic_from = seen[0]
        return True

    def report(self, tc, cfg, grid):
        """The run's report; HorizonError if a frame outlasted the horizon."""
        if self.late:
            raise HorizonError(
                f"flows {sorted(self.late)}: a frame outlasts the horizon, "
                f"its delay exceeding the drain margin of "
                f"{float(self.drain)}us")
        sync = tc.constants.sync_error
        max_delay = {fid: grid.us(d) + sync if self.count[fid]
                     else Fraction(0) for fid, d in self.longest.items()}
        return SimReport(tc.name, tc.mechanism, cfg.seed, cfg.horizon,
                         cfg.release_policy, max_delay, self.count, None,
                         self.periodic_from, self.skipped)


# network-level CBS simulation

def simulate_cbs(tc: TestCase, cfg: SimConfig) -> SimReport:
    """Credit-based shaper run; reports max delay per flow.  Each frame's
    start at a port is fixed when it arrives there (module docstring)."""
    tc.require(CBS)
    ports, path, _, bits = port_table(tc)
    for port in cfg.trace_ports:
        if port not in ports:
            raise ValidationError(
                f"trace port {'->'.join(map(str, port))}: no route uses it")
    if not tc.flows:
        return _empty_report(tc, cfg)
    phases = _phases(tc, cfg, random.Random(cfg.seed))
    drain = 2 * max(f.period for f in tc.flows)
    consts = tc.constants
    C = consts.link_rate
    idle = consts.idle_slope_fraction * C
    tx = {fid: b / C for fid, b in bits.items()}
    # a frame's send slope spends what the idle slope recovers in this time
    recovery = {fid: d * (C - idle) / idle for fid, d in tx.items()}
    be_tx = wire_bits(MTU_BYTES, consts) / C
    durations = _grid_durations(tc, cfg, phases, tx)
    durations += recovery.values()
    if cfg.be_saturate:
        durations.append(be_tx)
    grid = _Grid(durations)

    # per flow and hop, the next port's index; None at the listener
    nxt = {fid: [*p[1:], None] for fid, p in path.items()}
    be = grid.ticks(be_tx) if cfg.be_saturate else None
    horizon = grid.ticks(cfg.horizon)
    tx_t = {fid: grid.ticks(d) for fid, d in tx.items()}
    recovery_t = {fid: grid.ticks(d) for fid, d in recovery.items()}
    hop_t = grid.ticks(consts.propagation + consts.switching)
    prop_t = grid.ticks(consts.propagation)

    # per port: end tick and end credit of the last scheduled frame, the
    # credit in ticks of recovery at the idle slope; with saturation a
    # best-effort run starts at that end tick (at 0 before any frame)
    n = len(ports)
    end = [-1] * n
    credit = [0] * n
    records = [[] if k in cfg.trace_ports else None for k in ports]

    def view(B, end, credit):
        # a port whose last frame ended before B with its credit back at
        # zero by then treats every later arrival alike, up to the phase of
        # its best-effort run
        for e, c in zip(end, credit):
            if e >= B or e - c > B:
                yield e - B, c
            elif be is not None:
                yield (max(e, 0) - B) % be
            else:
                yield None

    cut = _Cut(tc, cfg, grid, phases, drain, path, (end, credit), view)
    heap, deliver, due = cut.heap, cut.deliver, cut.due
    period, last = cut.period, cut.last
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        t, batch, p, flow, seq, hop = pop(heap)
        if hop == 0:
            if t >= due:
                t, seq = cut.boundary(t, p, flow, seq)
                due = cut.due
            again = t + period[flow]
            if again <= last:
                push(heap, (again, 1, p, flow, seq + 1, 0))
        e, c = end[p], credit[p]
        behind = t < e or (t == e and batch == 1)
        if behind and c >= 0:
            start = e                     # starts the moment e ends
            c_start = c
        else:
            # eligible once the credit is back at zero, at e - c; arriving
            # later, it finds it there already (reset at e, or recovered)
            ready = e - c
            if ready < t:
                ready = t
            start = ready
            if be is not None:
                # the first boundary at or after ready of the run from
                # max(e, 0), or the run's stop, the first boundary at or
                # past the horizon; a frame reaching the port in a later
                # batch of the run's first tick finds its first best-effort
                # frame already sent
                s0 = e if e > 0 else 0
                frames = -((s0 - ready) // be)
                if frames == 0 and batch > 1:
                    frames = 1
                bound = s0 + frames * be
                if bound >= horizon:
                    bound = s0 - ((s0 - horizon) // be) * be
                if bound > ready:
                    start = bound
            c_start = start - ready
        rec = records[p]
        if rec is not None:
            # the last frame's end; with nothing queued behind it a
            # positive credit drops to zero there
            if e >= 0:
                rec.append((e, c))
                if not behind and c > 0:
                    rec += ((e, 0), (e, 0))
            # into an empty queue: the credit starts to rise at t, pegged at
            # zero first if it got there before t
            if not behind:
                if c >= 0:
                    rec.append((t, 0))
                elif t >= e - c:
                    rec += ((e - c, 0), (t, 0))
            rec.append((start, c_start))
        fin = start + tx_t[flow]
        end[p] = fin
        credit[p] = c_start - recovery_t[flow]
        nxt_p = nxt[flow][hop]
        if nxt_p is None:
            deliver(fin + prop_t, flow, seq)
        elif hop_t:
            push(heap, (start + hop_t, 1, nxt_p, flow, seq, hop + 1))
        else:
            push(heap, (start, (batch if start == t else 1) + 1, nxt_p,
                        flow, seq, hop + 1))

    report = cut.report(tc, cfg, grid)
    if cfg.trace_ports:
        raw = []
        for p, rec in enumerate(records):
            if rec is None:
                continue
            # the last frame's end, and where its credit gets back to zero
            e, c = end[p], credit[p]
            if e >= 0:
                rec.append((e, c))
                if c > 0:
                    rec += ((e, 0), (e, 0))
                elif c < 0:
                    rec.append((e - c, 0))
            key = ports[p]
            raw += [(tick, key, c) for tick, c in rec]
        raw.sort(key=lambda r: (r[0], r[1]))
        # a credit of c ticks of recovery is c ticks times the idle slope
        report.credit_trace = [(grid.us(t), key, grid.us(c) * idle)
                               for t, key, c in raw]
    return report


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
    port = _CbsPort(0, [(grid.slope(a), grid.slope(b)) for a, b in slopes])
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
    best-effort saturation or a credit trace raises ValidationError; so
    does a release offset in cfg.phases that is not a multiple of T, since
    the bound counts from the cycle boundary a release opens.
    """
    tc.require(CQF)
    if cfg.be_saturate:
        raise ValidationError("CQF simulation has no best-effort saturation")
    if cfg.trace_ports:
        raise ValidationError("CQF simulation has no credit trace")
    if not tc.flows:
        return _empty_report(tc, cfg)
    T = tc.constants.cycle_T
    phases = _phases(tc, cfg, random.Random(cfg.seed), cycle=T)
    consts = tc.constants
    drain = max(2 * max(f.period for f in tc.flows),
                max(cqf_wcd(r, T, consts) for r in tc.routes))
    ports, path, _, bits = port_table(tc)
    tx = {fid: b / consts.link_rate for fid, b in bits.items()}
    grid = _Grid(_grid_durations(tc, cfg, phases, tx) + [T])
    T_t = grid.ticks(T)
    tx_t = {fid: grid.ticks(d) for fid, d in tx.items()}
    hop_t = grid.ticks(consts.propagation + consts.switching)
    prop_t = grid.ticks(consts.propagation)
    # per flow and hop, the next port's index; None at the listener
    nxt = {fid: [*p[1:], None] for fid, p in path.items()}

    # per port: the open tick of its latest cycle and that cycle's load; a
    # port carries releases only (an end station) or forwarded frames only
    # (a switch), so its cycles open in the order its frames pop
    opened, load = [-1] * len(ports), [0] * len(ports)

    def view(B, opened, load):
        # a cycle that opened before B takes no frame popped after it
        for o, w in zip(opened, load):
            yield None if o < B else (o - B, w)

    cut = _Cut(tc, cfg, grid, phases, drain, path, (opened, load), view)
    heap, deliver, due = cut.heap, cut.deliver, cut.due
    period, last = cut.period, cut.last
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        t, _, p, flow, seq, hop = pop(heap)
        if hop == 0:
            if t >= due:
                t, seq = cut.boundary(t, p, flow, seq)
                due = cut.due
            again = t + period[flow]
            if again <= last:
                push(heap, (again, 1, p, flow, seq + 1, 0))
            start = t                     # a multiple of T: its own cycle
        else:
            # the sender's cycle carried a load in (0, T], so the cycle
            # that forwards the frame opens at the first multiple of T at
            # or after its send end, hop_t before t
            start = -((hop_t - t) // T_t) * T_t
            if t > start:
                a, b = ports[p]
                raise CapacityError(
                    f"port {a}->{b} cycle {start // T_t}: a frame of flow "
                    f"{flow} arrives at {float(grid.us(t))}us, after the "
                    f"cycle opened at {float(grid.us(start))}us")
        total = tx_t[flow] + (load[p] if opened[p] == start else 0)
        if total > T_t:
            a, b = ports[p]
            raise CapacityError(
                f"port {a}->{b} cycle {start // T_t}: "
                f"{float(grid.us(total))}us of traffic in a {float(T)}us "
                f"cycle")
        opened[p], load[p] = start, total
        # every frame of this cycle arrived by its start: back to back
        end = start + total
        nxt_p = nxt[flow][hop]
        if nxt_p is None:
            deliver(end + prop_t, flow, seq)
        else:
            push(heap, (end + hop_t, 1, nxt_p, flow, seq, hop + 1))
    return cut.report(tc, cfg, grid)


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
    return json_text(payload)
