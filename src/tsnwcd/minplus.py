"""Exact min-plus algebra over piecewise-linear curves.

Curves live on t >= 0, evaluate to 0 at t = 0 (an optional upward jump at 0+
carries burst terms), are non-negative and wide-sense increasing, and consist
of finitely many linear segments followed by one final infinite segment.

All arithmetic is exact rational; callers convert to float only when
reporting.  Operations that build new curves (convolve, deconvolve, min_of)
reduce to exact lower/upper envelopes of shifted candidate copies, so no
floating tolerance exists anywhere in the algebra.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import DivergenceError, InstabilityError, ValidationError

RationalLike = Union[int, str, float, Fraction]


def frac(x: RationalLike) -> Fraction:
    """Coerce to Fraction.

    Floats go through their shortest decimal repr, so 0.75 means exactly 3/4
    and 0.1 means exactly 1/10 rather than the binary approximation.
    Anything that is not a finite rational raises ValidationError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError(f"not a rational quantity: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    try:
        if isinstance(x, float):
            return Fraction(Decimal(repr(x)))
        if isinstance(x, str):
            return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # malformed text, a zero denominator, inf or nan
        raise ValidationError(f"not a rational quantity: {x!r}") from exc
    raise ValidationError(f"not a rational quantity: {x!r}")


class Seg(NamedTuple):
    """One linear piece: value + slope * (t - start) on [start, next start)."""
    start: Fraction
    value: Fraction
    slope: Fraction


class Curve:
    """Piecewise-linear min-plus curve.

    ``segments[0].value`` is the right-limit at 0 (the jump); evaluating at
    exactly t = 0 returns 0 by convention.  Interior upward jumps are allowed
    (a segment may start above where the previous one ends) and evaluation is
    right-continuous; downward jumps are rejected.  The last segment extends
    to infinity.  Instances are immutable and safe to share.
    """

    __slots__ = ("segments", "_starts")

    def __init__(self, segments: Iterable[Sequence[RationalLike]]):
        raw = [Seg(frac(s), frac(v), frac(m)) for s, v, m in segments]
        if not raw:
            raise ValidationError("curve needs at least one segment")
        if raw[0].start != 0:
            raise ValidationError("first segment must start at t = 0")
        merged: list[Seg] = []
        prev_start: Optional[Fraction] = None
        for seg in raw:
            if seg.value < 0 or seg.slope < 0:
                raise ValidationError(
                    f"curve must be non-negative and non-decreasing, got {seg}")
            if prev_start is not None and seg.start <= prev_start:
                raise ValidationError("segment starts must be strictly increasing")
            prev_start = seg.start
            if merged:
                prev = merged[-1]
                reach = prev.value + prev.slope * (seg.start - prev.start)
                if seg.value < reach:
                    raise ValidationError(
                        f"downward jump at t={seg.start}: {reach} -> {seg.value}")
                if seg.value == reach and seg.slope == prev.slope:
                    continue  # collinear continuation; canonical form merges it
            merged.append(seg)
        self.segments: tuple[Seg, ...] = tuple(merged)
        self._starts: list[Fraction] = [s.start for s in merged]

    # ------------------------------------------------------------------
    # evaluation

    def value(self, t: RationalLike) -> Fraction:
        """Curve value at t; exactly 0 at t = 0 by convention."""
        t = frac(t)
        if t < 0:
            raise ValidationError("curve domain is t >= 0")
        if t == 0:
            return Fraction(0)
        return self.value_right(t)

    def value_right(self, t: RationalLike) -> Fraction:
        """Right-limit value; differs from value() only at t = 0."""
        t = frac(t)
        seg = self.segments[bisect.bisect_right(self._starts, t) - 1]
        return seg.value + seg.slope * (t - seg.start)

    def slope_right(self, t: RationalLike) -> Fraction:
        """Slope immediately to the right of t."""
        t = frac(t)
        return self.segments[bisect.bisect_right(self._starts, t) - 1].slope

    @property
    def jump(self) -> Fraction:
        """Upward jump at 0+ (0 for curves starting from the origin)."""
        return self.segments[0].value

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Positive segment-start times; t = 0 is implicit."""
        return tuple(s.start for s in self.segments[1:])

    @property
    def final_slope(self) -> Fraction:
        return self.segments[-1].slope

    @property
    def last_start(self) -> Fraction:
        return self.segments[-1].start

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def zero(cls) -> "Curve":
        return cls([(0, 0, 0)])

    @classmethod
    def affine(cls, burst: RationalLike, rate: RationalLike) -> "Curve":
        return cls([(0, burst, rate)])

    @classmethod
    def from_canonical(cls, segments: Sequence[Seg]) -> "Curve":
        """A curve of segments already as __init__ would leave them:
        Fraction Segs, the first at t = 0, starts strictly increasing, no
        downward jump and no collinear neighbours.  They are taken
        unchecked, so only a producer that guarantees that form may call
        this."""
        curve = cls.__new__(cls)
        curve.segments = tuple(segments)
        curve._starts = [s.start for s in curve.segments]
        return curve

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Curve) and self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"({s.start}, {s.value}, {s.slope})" for s in self.segments)
        return f"Curve([{parts}])"


@dataclass(frozen=True)
class TokenBucket:
    """Burst-rate arrival curve: b + rho*t for t > 0, and 0 at t = 0."""
    burst: Fraction
    rate: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "burst", frac(self.burst))
        object.__setattr__(self, "rate", frac(self.rate))
        if self.burst < 0 or self.rate < 0:
            raise ValidationError("token bucket needs burst >= 0 and rate >= 0")

    def curve(self) -> Curve:
        return Curve.affine(self.burst, self.rate)


@dataclass(frozen=True)
class RateLatency:
    """Rate-latency service curve: rate * max(0, t - latency)."""
    rate: Fraction
    latency: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", frac(self.rate))
        object.__setattr__(self, "latency", frac(self.latency))
        if self.rate <= 0:
            raise ValidationError("rate-latency curve needs rate > 0")
        if self.latency < 0:
            raise ValidationError("rate-latency curve needs latency >= 0")

    def curve(self) -> Curve:
        if self.latency == 0:
            return Curve.affine(0, self.rate)
        return Curve([(0, 0, 0), (self.latency, 0, self.rate)])


@dataclass(frozen=True)
class Delta:
    """Pure-delay element delta_D; the convolution identity when D = 0."""
    delay: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "delay", frac(self.delay))
        if self.delay < 0:
            raise ValidationError("pure delay must be >= 0")


CurveLike = Union[Curve, TokenBucket, RateLatency]


def as_curve(f: CurveLike) -> Curve:
    if isinstance(f, Curve):
        return f
    if isinstance(f, (TokenBucket, RateLatency)):
        return f.curve()
    raise ValidationError(f"not a curve: {f!r}")


# ----------------------------------------------------------------------
# exact envelopes of candidate copies

class _Candidate(NamedTuple):
    """A piecewise-linear candidate valid on [valid_from, valid_to)."""
    valid_from: Fraction
    valid_to: Optional[Fraction]
    pieces: tuple[Seg, ...]


def _value_on(cand: _Candidate, t: Fraction) -> Fraction:
    i = len(cand.pieces) - 1
    while i > 0 and cand.pieces[i].start > t:
        i -= 1
    seg = cand.pieces[i]
    return seg.value + seg.slope * (t - seg.start)


def _slope_on(cand: _Candidate, t: Fraction) -> Fraction:
    i = len(cand.pieces) - 1
    while i > 0 and cand.pieces[i].start > t:
        i -= 1
    return cand.pieces[i].slope


def _envelope(cands: Sequence[_Candidate], lower: bool) -> list[Seg]:
    """Exact pointwise min (lower=True) or max over the candidates.

    Candidate kinks and validity boundaries split [0, inf) into intervals on
    which every active candidate is a straight line; within each interval the
    envelope is traced crossing by crossing.  At least one candidate must be
    valid everywhere.
    """
    kinks: set[Fraction] = set()
    for c in cands:
        kinks.add(c.valid_from)
        if c.valid_to is not None:
            kinks.add(c.valid_to)
        for p in c.pieces:
            kinks.add(p.start)
    grid = sorted(k for k in kinks if k >= 0)
    out: list[Seg] = []
    for idx, a in enumerate(grid):
        b = grid[idx + 1] if idx + 1 < len(grid) else None
        lines = [
            (_value_on(c, a), _slope_on(c, a))
            for c in cands
            if c.valid_from <= a and (c.valid_to is None or c.valid_to > a)
        ]
        if not lines:
            raise ValidationError("envelope interval with no valid candidate")
        # values are taken at the interval start a; every line is exact there
        if lower:
            cur_v, cur_s = min(lines)
        else:
            cur_v, cur_s = max(lines)
        t = a
        t_val = cur_v
        while True:
            nxt: Optional[tuple[Fraction, Fraction, Fraction]] = None
            for v_i, s_i in lines:
                overtakes = s_i < cur_s if lower else s_i > cur_s
                if not overtakes:
                    continue
                x = a + (v_i - cur_v) / (cur_s - s_i)
                if x <= t or (b is not None and x >= b):
                    continue
                if nxt is None or x < nxt[0]:
                    nxt = (x, v_i, s_i)
                elif x == nxt[0] and (s_i < nxt[2] if lower else s_i > nxt[2]):
                    nxt = (x, v_i, s_i)
            out.append(Seg(t, t_val, cur_s))
            if nxt is None:
                break
            x, v_new, s_new = nxt
            t_val = cur_v + cur_s * (x - a)
            t = x
            cur_v, cur_s = v_new, s_new
    return out


def _shifted_copy(base: Curve, shift: Fraction, addend: Fraction) -> _Candidate:
    """t -> base(t - shift) + addend, valid for t >= shift."""
    pieces = tuple(
        Seg(s.start + shift, s.value + addend, s.slope) for s in base.segments)
    return _Candidate(shift, None, pieces)


def _forward_copy(base: Curve, shift: Fraction, subtrahend: Fraction) -> _Candidate:
    """t -> base(t + shift) - subtrahend, valid for all t >= 0."""
    i = bisect.bisect_right(base._starts, shift) - 1
    pieces = [Seg(Fraction(0),
                  base.value_right(shift) - subtrahend,
                  base.segments[i].slope)]
    for seg in base.segments[i + 1:]:
        pieces.append(Seg(seg.start - shift, seg.value - subtrahend, seg.slope))
    return _Candidate(Fraction(0), None, tuple(pieces))


def _reversed_copy(base: Curve, pivot: Fraction, top: Fraction) -> _Candidate:
    """t -> top - base(pivot - t), valid on [0, pivot)."""
    i = bisect.bisect_right(base._starts, pivot) - 1
    pieces: list[Seg] = []
    t0 = Fraction(0)
    while True:
        seg = base.segments[i]
        val = top - (seg.value + seg.slope * (pivot - t0 - seg.start))
        pieces.append(Seg(t0, val, seg.slope))
        if i == 0:
            break
        t0 = pivot - seg.start
        i -= 1
    return _Candidate(Fraction(0), pivot, tuple(pieces))


# ----------------------------------------------------------------------
# operations

def convolve(f: Union[CurveLike, Delta], g: Union[CurveLike, Delta]) -> Union[Curve, Delta]:
    """Min-plus convolution (f (x) g)(t) = inf over 0 <= s <= t of f(t-s) + g(s).

    Exact for any pair of valid curves; the infimum over s is attained at a
    breakpoint of either operand, so the result is the lower envelope of
    shifted copies anchored at those breakpoints.
    """
    if isinstance(f, Delta) and isinstance(g, Delta):
        return Delta(f.delay + g.delay)
    if isinstance(f, Delta):
        f, g = g, f
    if isinstance(g, Delta):
        fc = as_curve(f)
        if g.delay == 0:
            return fc
        segs = [Seg(Fraction(0), Fraction(0), Fraction(0))]
        segs += [Seg(s.start + g.delay, s.value, s.slope) for s in fc.segments]
        return Curve(segs)
    fc, gc = as_curve(f), as_curve(g)
    cands = [
        _shifted_copy(fc, Fraction(0), Fraction(0)),
        _shifted_copy(gc, Fraction(0), Fraction(0)),
    ]
    for s in gc.breakpoints:
        cands.append(_shifted_copy(fc, s, gc.value_right(s)))
    for u in fc.breakpoints:
        cands.append(_shifted_copy(gc, u, fc.value_right(u)))
    return Curve(_envelope(cands, lower=True))


def deconvolve(f: CurveLike, g: Union[CurveLike, Delta]) -> Curve:
    """Min-plus deconvolution (f (/) g)(t) = sup over s >= 0 of f(t+s) - g(s).

    Requires the long-term rate of f to be at most that of g, otherwise the
    supremum diverges.
    """
    if isinstance(g, Delta):
        return shift_delay(f, g.delay)
    fc, gc = as_curve(f), as_curve(g)
    if fc.final_slope > gc.final_slope:
        raise DivergenceError(
            f"deconvolution diverges: rate {fc.final_slope} of f exceeds "
            f"rate {gc.final_slope} of g")
    s_cands = [Fraction(0), *gc.breakpoints]
    # one probe beyond every kink captures the constant tail when rates tie
    s_cands.append(max(fc.last_start, gc.last_start) + 1)
    cands = [_forward_copy(fc, s, gc.value(s)) for s in s_cands]
    for u in fc.breakpoints:
        cands.append(_reversed_copy(gc, u, fc.value_right(u)))
    return Curve(_envelope(cands, lower=False))


def shift_delay(f: CurveLike, delay: RationalLike) -> Curve:
    """f (/) delta_D, i.e. t -> f(t + D): the output envelope after a
    pure-delay stage of D microseconds."""
    fc = as_curve(f)
    d = frac(delay)
    if d < 0:
        raise ValidationError("delay must be >= 0")
    if d == 0:
        return fc
    i = bisect.bisect_right(fc._starts, d) - 1
    segs = [Seg(Fraction(0), fc.value_right(d), fc.segments[i].slope)]
    for seg in fc.segments[i + 1:]:
        segs.append(Seg(seg.start - d, seg.value, seg.slope))
    return Curve(segs)


def min_of(f: CurveLike, g: CurveLike) -> Curve:
    """Exact pointwise minimum."""
    fc, gc = as_curve(f), as_curve(g)
    cands = [
        _Candidate(Fraction(0), None, fc.segments),
        _Candidate(Fraction(0), None, gc.segments),
    ]
    return Curve(_envelope(cands, lower=True))


def sum_of(f: CurveLike, g: CurveLike) -> Curve:
    """Exact pointwise sum."""
    fc, gc = as_curve(f), as_curve(g)
    starts = sorted(set(fc._starts) | set(gc._starts))
    segs = [
        Seg(t, fc.value_right(t) + gc.value_right(t),
            fc.slope_right(t) + gc.slope_right(t))
        for t in starts
    ]
    return Curve(segs)


def h_dev(alpha: CurveLike, beta: CurveLike) -> Fraction:
    """Horizontal deviation: sup over t >= 0 of inf{tau >= 0 | alpha(t) <=
    beta(t + tau)}.  This is the worst-case delay bound for arrival curve
    alpha served at least beta."""
    a, b = as_curve(alpha), as_curve(beta)
    if a.final_slope > b.final_slope:
        raise InstabilityError(
            f"arrival rate {a.final_slope} exceeds service rate {b.final_slope}")
    ts: set[Fraction] = {seg.start for seg in a.segments}
    # preimages under alpha of beta's kink values: between consecutive
    # candidates alpha stays within one linear piece of beta's range
    for bseg in b.segments:
        v = bseg.value
        for j, aseg in enumerate(a.segments):
            nxt = a.segments[j + 1].start if j + 1 < len(a.segments) else None
            if aseg.slope > 0:
                t = aseg.start + (v - aseg.value) / aseg.slope
                if t >= aseg.start and (nxt is None or t <= nxt):
                    ts.add(t)
    ts.add(max(a.last_start, b.last_start) + 1)
    best = Fraction(0)
    for t in ts:
        # right-limit covers both the jump at 0+ and interior points
        v = a.value_right(t)
        u = _inverse(b, v)
        if u is None:
            raise InstabilityError(
                "arrival exceeds the total service the curve ever provides")
        if u - t > best:
            best = u - t
        if a.slope_right(t) > 0:
            # alpha exceeds v right after t, so the supremum also sees the
            # end of any service plateau sitting at level v
            u = _inverse_strict(b, v)
            if u is None:
                raise InstabilityError(
                    "arrival exceeds the total service the curve ever provides")
            if u - t > best:
                best = u - t
    return best


def _inverse(b: Curve, v: Fraction) -> Optional[Fraction]:
    """Earliest u with b(u) >= v (infimum of the level set); None if b never
    reaches v."""
    if v <= 0:
        return Fraction(0)
    for i, seg in enumerate(b.segments):
        if v <= seg.value:
            return seg.start
        nxt = b.segments[i + 1].start if i + 1 < len(b.segments) else None
        if seg.slope > 0:
            u = seg.start + (v - seg.value) / seg.slope
            if nxt is None or u < nxt:
                return u
    return None


def _inverse_strict(b: Curve, v: Fraction) -> Optional[Fraction]:
    """Infimum of {u : b(u) > v}; None if b stays at or below v forever."""
    if v < 0:
        return Fraction(0)
    for i, seg in enumerate(b.segments):
        if seg.value > v:
            return seg.start
        nxt = b.segments[i + 1].start if i + 1 < len(b.segments) else None
        if seg.slope > 0:
            u = seg.start + (v - seg.value) / seg.slope
            if nxt is None or u < nxt:
                return u
    return None
