"""Closed-form worst-case delay for Cyclic Queuing and Forwarding
(IEEE 802.1Qch).

Egress queues ping-pong on a global cycle of T microseconds: everything
received during one cycle is forwarded during the next.  A frame therefore
reaches the listener within (switch_count + 1) full cycles of its aligned
injection, plus the network constant term xi.  T is the test case's
constants.cycle_T, and T divides every period (validate_testcase), so every
release the tool makes opens a cycle.  The hypercycle is the least common
multiple of the flow periods.
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
    json_num,
    json_text,
    port_table,
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
    load_us: Fraction
    limit_us: Fraction

    def __str__(self):
        a, b = self.port
        return (f"port {a}->{b}: {float(self.load_us)}us of frames in one "
                f"cycle where a cycle fits {float(self.limit_us)}us")


def cycle_capacity_check(tc: TestCase) -> list[CapacityDiagnostic]:
    """Every port whose worst cycle overfills, over all release phases.

    T divides every period, so a flow puts at most one frame into each
    cycle of a port on its route, and some phases put every flow crossing
    the port into one cycle.  Those frames go out back to back from its
    start; a port whose next node is a switch must finish them propagation
    + switching before the cycle ends, so that they reach the switch before
    the cycle that forwards them opens, and a last hop has the whole cycle.
    """
    tc.require(CQF)
    consts = tc.constants
    T, margin = consts.cycle_T, consts.propagation + consts.switching
    ports, _, members, bits = port_table(tc)
    out = []
    for port, hops in zip(ports, members):
        total = sum(bits[fid] for fid, _ in hops) / consts.link_rate
        limit = T - margin if tc.topology.is_switch(port[1]) else T
        if total > limit:
            out.append(CapacityDiagnostic(port, total, limit))
    return out


@dataclass
class CqfReport:
    testcase: str
    T: Fraction
    hypercycle: Fraction
    per_flow: dict   # flow id -> {"sw_num", "xi_us", "wcd_us"}


def solve(tc: TestCase) -> CqfReport:
    """Closed-form per-flow worst-case delays for a CQF test case.

    Raises CapacityError when cycle_capacity_check finds a port that some
    release phases overfill: the bound assumes every frame is forwarded in
    the cycle after the one that received it, whatever the phases.
    """
    overfull = cycle_capacity_check(tc)
    if overfull:
        raise CapacityError(f"{tc.name}: " + "; ".join(map(str, overfull)))
    T = tc.constants.cycle_T
    h = hypercycle(tc.flows) if tc.flows else T
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
