"""Reference implementations the tests compare the package against.

The curve-algebra oracles do not touch the package's envelope machinery:
curves are plain (start, value, slope) triples and every operation is a
pointwise candidate search straight from the defining inf/sup formula.  The
CBS aggregate oracle builds a port's arrival curve with the general min-plus
operations (themselves checked against the pointwise oracles), independently
of the breakpoint-list evaluator in cbs.  Exact Fractions throughout, so
agreement checks against the implementation can use ==.
"""
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from tsnwcd.minplus import Curve, CurveLike, as_curve, min_of, sum_of


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
