"""Curve algebra tests.

Covers: construction invariants, closed-form identities for the curve
families the delay analysis actually uses, pointwise equality against the
brute-force candidate oracles in oracles.py, algebraic laws as hypothesis
properties, and the error paths for diverging or unstable inputs.
"""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tsnwcd.errors import DivergenceError, InstabilityError, ValidationError
from tsnwcd.minplus import (
    Curve,
    Delta,
    RateLatency,
    TokenBucket,
    convolve,
    deconvolve,
    frac,
    h_dev,
    min_of,
    shift_delay,
    sum_of,
)

import oracles

F = Fraction


# ======================================================================
# strategies

small_fracs = st.fractions(min_value=0, max_value=12, max_denominator=4)
pos_fracs = st.fractions(min_value=F(1, 4), max_value=12, max_denominator=4)
times = st.fractions(min_value=0, max_value=40, max_denominator=8)


@st.composite
def curve_triples(draw, max_extra_segments=3, allow_jump=True):
    """Valid curve specs as raw (start, value, slope) triples."""
    jump = draw(small_fracs) if allow_jump else F(0)
    segs = [(F(0), jump, draw(small_fracs))]
    t = F(0)
    for _ in range(draw(st.integers(0, max_extra_segments))):
        t += draw(pos_fracs)
        s0, v0, m0 = segs[-1]
        segs.append((t, v0 + m0 * (t - s0), draw(small_fracs)))
    return segs


# ======================================================================
# coercion and construction invariants

def test_frac_decimal_repr_floats():
    assert frac(0.75) == F(3, 4)
    assert frac(0.1) == F(1, 10)
    assert frac(12.336) == F(12336, 1000)
    assert frac(3) == F(3)
    assert frac("1/3") == F(1, 3)
    assert frac(F(2, 7)) == F(2, 7)


def test_frac_rejects_bool():
    with pytest.raises(ValidationError):
        frac(True)


def test_curve_value_at_zero_is_zero_despite_jump():
    c = Curve([(0, 5, 2)])
    assert c.value(0) == 0
    assert c.value_right(0) == 5
    assert c.jump == 5
    assert c.value(3) == 11


def test_curve_rejects_missing_origin_segment():
    with pytest.raises(ValidationError):
        Curve([(1, 0, 1)])


def test_curve_rejects_unsorted_starts():
    with pytest.raises(ValidationError):
        Curve([(0, 0, 1), (2, 2, 1), (2, 2, 3)])


def test_curve_rejects_downward_jump():
    with pytest.raises(ValidationError):
        Curve([(0, 5, 0), (2, 2, 1)])


def test_curve_allows_interior_upward_jump():
    c = Curve([(0, 0, 1), (2, 5, 1)])
    assert c.value(2) == 5  # right-continuous at the jump
    assert c.value(F(3, 2)) == F(3, 2)
    assert c.value(3) == 6


def test_curve_rejects_negative_value_or_slope():
    with pytest.raises(ValidationError):
        Curve([(0, -1, 1)])
    with pytest.raises(ValidationError):
        Curve([(0, 0, -1)])


def test_curve_merges_collinear_segments():
    c = Curve([(0, 0, 2), (3, 6, 2), (5, 10, 1)])
    assert len(c.segments) == 2
    assert c.breakpoints == (F(5),)


def test_curve_equality_is_canonical():
    assert Curve([(0, 1, 2), (4, 9, 2)]) == Curve([(0, 1, 2)])


@given(curve_triples(), times)
def test_from_canonical_is_the_validated_curve(triples, t):
    # canonical segments come back as they went in, and evaluate the same
    c = Curve(triples)
    trusted = Curve.from_canonical(c.segments)
    assert trusted.segments == c.segments
    assert repr(trusted) == repr(c)
    assert trusted.value(t) == c.value(t)
    assert trusted.value_right(t) == c.value_right(t)


@given(curve_triples(), times)
def test_curves_are_nondecreasing(triples, t):
    c = Curve(triples)
    assert c.value(t) <= c.value(t + F(1, 3))


def test_token_bucket_and_rate_latency_validation():
    with pytest.raises(ValidationError):
        TokenBucket(-1, 0)
    with pytest.raises(ValidationError):
        RateLatency(0, 1)
    with pytest.raises(ValidationError):
        RateLatency(5, -1)
    with pytest.raises(ValidationError):
        Delta(-2)
    assert TokenBucket(0, 0).curve() == Curve.zero()
    assert RateLatency(3, 0).curve() == Curve.affine(0, 3)


# ======================================================================
# closed forms

def test_conv_rate_latency_pair_adds_latencies():
    got = convolve(RateLatency(10, 3), RateLatency(4, 2))
    assert got == RateLatency(4, 5).curve()


def test_conv_token_buckets_is_pointwise_min():
    a, b = TokenBucket(5, 1), TokenBucket(3, 2)
    assert convolve(a, b) == min_of(a, b)


def test_conv_token_bucket_with_rate_latency_has_crossing_breakpoint():
    # shaped burst: 0 until T, slope R until the bucket line catches up at
    # T + b/(R - rho), slope rho afterwards
    b, rho, R, T = F(6), F(1), F(4), F(2)
    got = convolve(TokenBucket(b, rho), RateLatency(R, T))
    cross = T + b / (R - rho)
    assert got == Curve([(0, 0, 0), (T, 0, R), (cross, R * (cross - T), rho)])


def test_deconv_token_bucket_through_rate_latency():
    b, rho, R, T = F(7), F(2), F(5), F(3)
    got = deconvolve(TokenBucket(b, rho), RateLatency(R, T))
    assert got == TokenBucket(b + rho * T, rho).curve()


def test_conv_with_zero_delay_is_identity():
    f = Curve([(0, 2, 1), (4, 6, 3)])
    assert convolve(f, Delta(0)) == f
    assert convolve(Delta(0), f) == f
    assert deconvolve(f, Delta(0)) == f


def test_conv_with_delay_shifts_right():
    got = convolve(TokenBucket(5, 2), Delta(3))
    assert got == Curve([(0, 0, 0), (3, 5, 2)])
    assert got.value(3) == 5  # right-limit picks up the shifted jump
    assert got.value(2) == 0


def test_delta_composition_adds_delays():
    assert convolve(Delta(2), Delta(F(1, 2))) == Delta(F(5, 2))


def test_shift_delay_drops_the_first_interval():
    f = Curve([(0, 0, 0), (4, 0, 2)])
    assert shift_delay(f, 6) == Curve.affine(4, 2)
    assert shift_delay(TokenBucket(5, 2), 3) == Curve.affine(11, 2)
    assert shift_delay(f, 0) == f


# ======================================================================
# pointwise agreement with the brute-force oracles

@given(curve_triples(), curve_triples(), times)
@settings(deadline=None)
def test_convolve_matches_candidate_oracle(ft, gt, t):
    got = convolve(Curve(ft), Curve(gt))
    assert got.value(t) == oracles.conv_at(ft, gt, t)


@given(curve_triples(), curve_triples(), times)
@settings(deadline=None)
def test_deconvolve_matches_candidate_oracle(ft, gt, t):
    f, g = Curve(ft), Curve(gt)
    if f.final_slope > g.final_slope:
        with pytest.raises(DivergenceError):
            deconvolve(f, g)
        return
    got = deconvolve(f, g)
    want = oracles.deconv_at(ft, gt, t)
    if t == 0:
        assert got.value_right(0) == want
        assert got.value(0) == 0
    else:
        assert got.value(t) == want


@given(curve_triples(), curve_triples(), times)
@settings(deadline=None)
def test_min_and_sum_match_pointwise(ft, gt, t):
    f, g = Curve(ft), Curve(gt)
    assert min_of(f, g).value(t) == min(f.value(t), g.value(t))
    assert sum_of(f, g).value(t) == f.value(t) + g.value(t)


# ======================================================================
# algebraic laws

@given(curve_triples(), curve_triples())
@settings(deadline=None)
def test_convolve_commutes(ft, gt):
    f, g = Curve(ft), Curve(gt)
    assert convolve(f, g) == convolve(g, f)


@given(curve_triples(max_extra_segments=2), curve_triples(max_extra_segments=2),
       curve_triples(max_extra_segments=2))
@settings(deadline=None, max_examples=60)
def test_convolve_associates(ft, gt, ht):
    f, g, h = Curve(ft), Curve(gt), Curve(ht)
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


@given(curve_triples(), curve_triples(), times)
@settings(deadline=None)
def test_convolve_below_both_operands(ft, gt, t):
    f, g = Curve(ft), Curve(gt)
    c = convolve(f, g)
    assert c.value(t) <= min(f.value(t), g.value(t))


@given(curve_triples(), curve_triples(), times)
@settings(deadline=None)
def test_deconvolve_dominates_first_operand(ft, gt, t):
    f, g = Curve(ft), Curve(gt)
    if f.final_slope > g.final_slope:
        return
    d = deconvolve(f, g)
    assert d.value_right(t) >= f.value_right(t)
    assert d.final_slope == f.final_slope


@given(curve_triples(), curve_triples())
@settings(deadline=None)
def test_convolve_tail_rate_is_the_smaller_rate(ft, gt):
    f, g = Curve(ft), Curve(gt)
    assert convolve(f, g).final_slope == min(f.final_slope, g.final_slope)


# ======================================================================
# horizontal deviation

def test_h_dev_token_bucket_vs_rate_latency_hand_value():
    assert h_dev(TokenBucket(8000, 1), RateLatency(75, 2)) == F(2) + F(8000, 75)


@given(st.fractions(min_value=0, max_value=50, max_denominator=8),
       st.fractions(min_value=F(1, 8), max_value=20, max_denominator=8),
       st.fractions(min_value=F(1, 8), max_value=30, max_denominator=8),
       st.fractions(min_value=0, max_value=40, max_denominator=8))
def test_h_dev_token_bucket_closed_form(b, rho_scale, R, T):
    rho = R * rho_scale / (rho_scale + 1)  # keeps rho < R
    assert h_dev(TokenBucket(b, rho), RateLatency(R, T)) == T + b / R


@given(curve_triples(),
       st.fractions(min_value=F(1, 4), max_value=30, max_denominator=4),
       st.fractions(min_value=0, max_value=20, max_denominator=4))
@settings(deadline=None)
def test_h_dev_general_arrival_vs_rate_latency_oracle(at, R, T):
    # with a rate-latency service the delay needed at t is T + alpha(t)/R - t
    # whenever there is traffic at or right after t, and 0 otherwise;
    # it is piecewise linear with kinks only at alpha's kinks
    alpha = Curve(at)
    assume(alpha.final_slope < R)

    def needed(t):
        v = oracles.pw_value_right(at, t)
        if v <= 0 and oracles.pw_slope_right(at, t) <= 0:
            return F(0)
        return max(F(0), T + v / R - t)

    cand_ts = [s for s, _, _ in at] + [at[-1][0] + 1]
    want = max(needed(t) for t in cand_ts)
    assert h_dev(alpha, RateLatency(R, T)) == want


def test_h_dev_with_plateau_service():
    # service raises 2/us, holds flat on [3, 6], then resumes: the burst
    # needs 1us of the first ramp, but level 5 is only reached at t = 6.5
    beta = Curve([(0, 0, 2), (3, 6, 0), (6, 6, 2)])
    assert h_dev(TokenBucket(2, 0), beta) == 1
    assert h_dev(TokenBucket(7, 0), beta) == F(13, 2)


def test_h_dev_zero_when_service_always_ahead():
    assert h_dev(TokenBucket(0, 1), RateLatency(2, 0)) == 0
    assert h_dev(Curve.zero(), RateLatency(1, 5)) == 0


@given(curve_triples(), curve_triples(), times)
@settings(deadline=None)
def test_h_dev_is_sound_against_needed_delay(at, bt, t):
    alpha, beta = Curve(at), Curve(bt)
    if alpha.final_slope > beta.final_slope:
        with pytest.raises(InstabilityError):
            h_dev(alpha, beta)
        return
    try:
        d = h_dev(alpha, beta)
    except InstabilityError:
        # service saturates below the arrival's reach; the oracle agrees
        # somewhere: some level is never served
        probe = max(at[-1][0], bt[-1][0]) + 1
        assert beta.final_slope == 0
        assert oracles.needed_delay_at(at, bt, probe) is None
        return
    need = oracles.needed_delay_at(at, bt, t)
    assert need is not None
    assert need <= d


@given(curve_triples(), curve_triples(allow_jump=False),
       st.fractions(min_value=F(1, 4), max_value=30, max_denominator=4),
       st.fractions(min_value=0, max_value=20, max_denominator=4))
@settings(deadline=None)
def test_h_dev_monotone_in_both_arguments(at, extra, R, T):
    alpha = Curve(at)
    assume(alpha.final_slope < R)
    beta = RateLatency(R, T)
    base = h_dev(alpha, beta)
    # more service never hurts; more traffic never helps
    more_service = sum_of(beta.curve(), Curve(extra))
    assert h_dev(alpha, more_service) <= base
    bigger_alpha = sum_of(alpha, Curve(extra))
    if bigger_alpha.final_slope < R:
        assert h_dev(bigger_alpha, beta) >= base


def test_h_dev_unreachable_level_raises():
    flat = Curve([(0, 5, 0)])
    with pytest.raises(InstabilityError):
        h_dev(TokenBucket(10, 0), flat)


def test_h_dev_rate_violation_raises():
    with pytest.raises(InstabilityError):
        h_dev(TokenBucket(1, 2), RateLatency(1, 0))


def test_deconvolve_rate_violation_raises():
    with pytest.raises(DivergenceError):
        deconvolve(TokenBucket(0, 2), RateLatency(1, 0))
