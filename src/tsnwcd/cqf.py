"""Closed-form worst-case delay for Cyclic Queuing and Forwarding
(IEEE 802.1Qch).

Egress queues ping-pong on a global cycle of T microseconds: everything
received during one cycle is forwarded during the next.  A frame therefore
reaches the listener within (switch_count + 1) full cycles of its aligned
injection, plus the network constant term xi.  T is the test case's
constants.cycle_T.  The hypercycle is the least common multiple of the flow
periods; T must divide it for the schedule to repeat cleanly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CapacityError, ValidationError
from .minplus import frac
from .netmodel import (
    CQF,
    Flow,
    NetworkConstants,
    Route,
    TestCase,
    frame_bits,
    json_num,
    json_text,
)


def _lcm_frac(values: Sequence[Fraction]) -> Fraction:
    num = 1
    den = 0
    for v in values:
        num = math.lcm(num, v.numerator)
        den = math.gcd(den, v.denominator)
    return Fraction(num, den)


def hypercycle(flows: Sequence[Flow], T: Optional[Fraction] = None) -> Fraction:
    """Least common multiple of the flow periods.  When T is given, it must
    divide the result (whole number of cycles per hypercycle)."""
    if not flows:
        raise ValidationError("hypercycle needs at least one flow")
    h = _lcm_frac([f.period for f in flows])
    if T is not None:
        T = frac(T)
        if (h / T).denominator != 1:
            raise ValidationError(
                f"cycle duration {T} does not divide the hypercycle {h}")
    return h


def xi(route: Route, constants: NetworkConstants) -> Fraction:
    """Constant network term of the delay bound: one propagation delay per
    traversed link plus one synchronization error."""
    return constants.propagation * route.link_count + constants.sync_error


def cqf_wcd(route: Route, T: Fraction,
            constants: NetworkConstants) -> Fraction:
    """(switch_count + 1) * T + xi."""
    return (route.switch_count + 1) * T + xi(route, constants)


@dataclass(frozen=True)
class CapacityDiagnostic:
    port: tuple[str, str]
    cycle_index: int
    load_us: Fraction
    limit_us: Fraction

    def __str__(self):
        a, b = self.port
        return (f"port {a}->{b} cycle {self.cycle_index}: "
                f"{float(self.load_us)}us scheduled where a cycle fits "
                f"{float(self.limit_us)}us")


def cycle_capacity_check(tc: TestCase) -> list[CapacityDiagnostic]:
    """Per-port, per-cycle transmission load over one hypercycle.

    A frame released at r is injected in cycle ceil(r/T) (boundary releases
    keep their own cycle) and advances one cycle per switch.  A cycle's
    frames go out back to back from its start, and a port whose next node
    is a switch must finish them propagation + switching before the cycle
    ends, so that they reach the switch before the cycle that forwards them
    opens; a last hop has the whole cycle.  Every cycle over its limit is
    reported.
    """
    tc.require(CQF)
    if not tc.flows:
        return []
    T = tc.constants.cycle_T
    h = hypercycle(tc.flows, T)
    slots = int(h / T)
    margin = tc.constants.propagation + tc.constants.switching
    load: dict[tuple[tuple[str, str], int], Fraction] = {}
    for f in sorted(tc.flows, key=lambda f: f.id):
        route = tc.route_for(f.id)
        tx = frame_bits(f, tc.constants) / tc.constants.link_rate
        releases = int(h / f.period)
        for k in range(releases):
            inject = math.ceil(k * f.period / T)
            for j, port in enumerate(route.ports):
                slot = (inject + j) % slots
                key = (port, slot)
                load[key] = load.get(key, Fraction(0)) + tx
    limits = {port: T - margin if tc.topology.is_switch(port[1]) else T
              for port, _ in load}
    return [
        CapacityDiagnostic(port, slot, total, limits[port])
        for (port, slot), total in sorted(load.items())
        if total > limits[port]
    ]


@dataclass
class CqfReport:
    testcase: str
    T: Fraction
    hypercycle: Fraction
    per_flow: dict   # flow id -> {"sw_num", "xi_us", "wcd_us"}


def solve(tc: TestCase) -> CqfReport:
    """Closed-form per-flow worst-case delays for a CQF test case.

    Raises CapacityError when cycle_capacity_check finds an overfull cycle:
    the bound assumes every frame is forwarded in the cycle after the one
    that received it.
    """
    overfull = cycle_capacity_check(tc)
    if overfull:
        raise CapacityError("; ".join(str(d) for d in overfull))
    T = tc.constants.cycle_T
    h = hypercycle(tc.flows, T) if tc.flows else T
    per_flow = {}
    for f in sorted(tc.flows, key=lambda f: f.id):
        route = tc.route_for(f.id)
        per_flow[f.id] = {
            "sw_num": route.switch_count,
            "xi_us": xi(route, tc.constants),
            "wcd_us": cqf_wcd(route, T, tc.constants),
        }
    return CqfReport(tc.name, T, h, per_flow)


def report_to_json(report: CqfReport) -> str:
    flows = [
        {
            "id": fid,
            "sw_num": report.per_flow[fid]["sw_num"],
            "xi_us": json_num(report.per_flow[fid]["xi_us"]),
            "wcd_us": json_num(report.per_flow[fid]["wcd_us"]),
        }
        for fid in sorted(report.per_flow)
    ]
    payload = {
        "testcase": report.testcase,
        "mechanism": "CQF",
        "T_us": json_num(report.T),
        "hypercycle_us": json_num(report.hypercycle),
        "flows": flows,
    }
    return json_text(payload)
