"""Scoring harness for model-predicted worst-case delays and MCQA answers.

Two independent pieces live here:

  * prompt assembly for open-ended delay questions (one fixed template per
    shaping mechanism, with the topology / flow / route text injected), and
  * lenient ingestion of model output into PredictionSet records plus the
    open-ended and MCQA metric computations (MAE, MAPE, accuracy,
    consistency, ECE, Brier, confidently-wrong rate).

Metric arithmetic is exact (Fraction) end to end; floats appear only in
JSON/CSV output and in standard deviations, which need a square root.

Open-ended scoring weighs every test case equally regardless of its flow
count. A test case enters the aggregate only when its failure mode is
``ok`` or ``partial``; empty, all-zero and timed-out responses are counted
separately. Flows whose ground truth is exactly zero are excluded from
MAPE (the ratio is undefined) and reported as diagnostics.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .errors import ParseError, ValidationError
from .minplus import frac
from .netmodel import (
    CBS,
    TestCase,
    is_int,
    json_num,
    json_text,
    serialize_flows,
    serialize_routes,
    serialize_topology,
)

FAILURE_OK = "ok"
FAILURE_TRIVIAL_ZERO = "trivial_zero"
FAILURE_PARTIAL = "partial"
FAILURE_EMPTY = "empty"
FAILURE_TIMEOUT = "timeout"
FAILURE_MODES = (FAILURE_OK, FAILURE_TRIVIAL_ZERO, FAILURE_PARTIAL,
                 FAILURE_EMPTY, FAILURE_TIMEOUT)

# a response must cover at least this share of a test case's flows to
# count as complete
COVERAGE_THRESHOLD = Fraction(4, 5)
# answers at or above this confidence count as high-confidence
HIGH_CONFIDENCE = Fraction(4, 5)
# an aggregate needs at least this many answered test cases
MIN_ANSWERED_TESTCASES = 50

DEFAULT_BIN_COUNT = 10


# ---------------------------------------------------------------- MCQA types


@dataclass(frozen=True)
class McqItem:
    """One multiple-choice question with a known correct option."""

    id: str
    question: str
    options: tuple[str, ...]
    correct_label: int

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(self.options))
        if len(self.options) < 2:
            raise ValidationError(f"item {self.id}: need at least 2 options")
        if len(set(self.options)) != len(self.options):
            raise ValidationError(f"item {self.id}: options must be distinct")
        if not 0 <= self.correct_label < len(self.options):
            raise ValidationError(
                f"item {self.id}: correct_label {self.correct_label} "
                f"out of range")


@dataclass(frozen=True)
class Run:
    """A single model response to a multiple-choice item.

    ``answer`` is an option index or letter, or None when the model gave
    nothing usable; ``confidence``, when given, is what calibration reads.
    """

    answer: Union[int, str, Fraction, None]
    confidence: Optional[Fraction] = None

    def __post_init__(self):
        if self.confidence is not None:
            c = frac(self.confidence)
            if not 0 <= c <= 1:
                raise ValidationError(f"confidence {c} outside [0, 1]")
            object.__setattr__(self, "confidence", c)


@dataclass(frozen=True)
class RunRecord:
    """Responses for one item across repeated runs (1 to 3)."""

    id: str
    runs: tuple[Run, ...]

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))
        if not 1 <= len(self.runs) <= 3:
            raise ValidationError(
                f"record {self.id}: need 1 to 3 runs, got {len(self.runs)}")


# ---------------------------------------------------------- prediction types


@dataclass(frozen=True)
class FlowPrediction:
    wcd: Fraction

    def __post_init__(self):
        object.__setattr__(self, "wcd", frac(self.wcd))


@dataclass(frozen=True)
class PredictionSet:
    """One model response to one test case, already classified."""

    testcase: str
    per_flow: Mapping[int, FlowPrediction]
    failure_mode: str

    def __post_init__(self):
        object.__setattr__(self, "per_flow", dict(self.per_flow))
        if self.failure_mode not in FAILURE_MODES:
            raise ValidationError(
                f"unknown failure mode {self.failure_mode!r}")


def classify_failure(provided: int, total: int, all_zero: bool) -> str:
    """Failure taxonomy for an open-ended response.

    Precedence: nothing extracted beats all-zero beats low coverage.
    """
    if provided == 0 or total == 0:
        return FAILURE_EMPTY
    if all_zero:
        return FAILURE_TRIVIAL_ZERO
    if Fraction(provided, total) < COVERAGE_THRESHOLD:
        return FAILURE_PARTIAL
    return FAILURE_OK


# ------------------------------------------------------------------ prompts

_ROLE = ("You are an expert Time-Sensitive Networking (TSN) orchestrator. "
         "Your task is to calculate the worst case delay (WCD) for each "
         "TSN flow.")

_CBS_MECHANISM = (
    "Only Credit-Based Shaper (CBS, IEEE 802.1Qav) is allowed;\n"
    "All flows are AVB Class A, PCP = 6, using queue 6 only.")

_CQF_MECHANISM = (
    "Only Cyclic Queuing and Forwarding (CQF, IEEE 802.1Qch) is allowed;\n"
    "All flows are TT, PCP = 7, using queue 7 (odd) and 6 (even) only.")

_CBS_TASKS = (
    "1. Map each egress port's queues and collect the set of flows "
    "traversing that port, using the given topology, flows, and route of "
    "the flow.\n"
    "2. Calculate the worst case delay (WCD) in microseconds (µs) for "
    "each flow.\n"
    "3. Provide the confidence score between 0.0 and 1.0 from your "
    "answers. 1.0 means mathematically or procedurally provable from "
    "given info with zero ambiguity. 0.0 means zero confidence.")

_CQF_TASKS = (
    "1. Map each egress port's queues and collect the set of flows "
    "traversing that port, using the given topology, flows, and route of "
    "the flow.\n"
    "2. For the entire network, use the given cycle duration and compute "
    "the Hypercycle.\n"
    "3. For each flow, set the offset or the start time of the flow from "
    "the sending node as 0.\n"
    "4. Calculate the worst case delay (WCD) in microseconds (µs) for "
    "each flow.\n"
    "5. Provide the confidence score between 0.0 and 1.0 from your "
    "answers. 1.0 means mathematically or procedurally provable from "
    "given info with zero ambiguity. 0.0 means zero confidence.")

_OUTPUT_RULE = (
    "Provide the output strictly in JSON format: one object mapping each "
    'flow id ("F0", "F1", ...) to an object '
    '{"wcd_us": <number>, "confidence": <number>}.')


def _fmt(x: Fraction) -> str:
    n = json_num(frac(x))
    return str(n)


def _constants_block(tc: TestCase, mechanism: str) -> str:
    c = tc.constants
    lines = [
        f"Bandwidth link = {_fmt(c.link_rate)} Mbps;",
        f"Propagation delay = {_fmt(c.propagation)} µs;",
        f"Switching delay = {_fmt(c.switching)} µs;",
        f"Time synchronization error = {_fmt(c.sync_error)} µs;",
        "The switches of the network are cut-through switches."
        if c.cut_through else
        "The switches of the network are store-and-forward switches.",
    ]
    if mechanism == CBS:
        lines.append(f"IdleSlope = {_fmt(c.idle_slope_fraction * 100)}%")
    else:
        lines.append(f"Cycle duration = {_fmt(c.cycle_T)} µs")
    return "\n".join(lines)


def build_open_prompt(tc: TestCase, mechanism: str) -> str:
    """Assemble the fixed open-ended prompt for one test case.

    The template is constant per mechanism; only the three network text
    blocks and the constants differ between test cases, so output is
    byte-stable for equal input.
    """
    tc.require(mechanism)
    mech_block = _CBS_MECHANISM if mechanism == CBS else _CQF_MECHANISM
    tasks = _CBS_TASKS if mechanism == CBS else _CQF_TASKS
    return (
        f"{_ROLE}\n"
        f"\n"
        f"Input:\n"
        f"Network Topology ({tc.name}_topo.txt):\n"
        f"{serialize_topology(tc.topology)}\n"
        f"Flow Information ({tc.name}_flows.txt):\n"
        f"{serialize_flows(tc.flows)}\n"
        f"Routing of the Flow ({tc.name}_route.txt):\n"
        f"{serialize_routes(tc.routes)}\n"
        f"Constant:\n"
        f"{_constants_block(tc, mechanism)}\n"
        f"\n"
        f"TSN Mechanism:\n"
        f"{mech_block}\n"
        f"\n"
        f"Task:\n"
        f"{tasks}\n"
        f"\n"
        f"Output:\n"
        f"{_OUTPUT_RULE}\n")


# ----------------------------------------------------------- prediction parse

_FLOW_LABEL = re.compile(r"(?:flow|f)?[ _]*(\d+)", re.IGNORECASE)
_WCD_KEYS = ("wcd_us", "wcd", "delay_us", "delay", "value")


def _flow_id(key) -> Optional[int]:
    if not isinstance(key, str):
        return None
    m = _FLOW_LABEL.fullmatch(key.strip())
    return int(m.group(1)) if m else None


def _as_number(v) -> Optional[Fraction]:
    if isinstance(v, bool) or v is None:
        return None
    if isinstance(v, (int, Fraction)):
        try:
            float(v)
        except OverflowError:
            # beyond float range: no answer, as Infinity and NaN are not
            return None
        return Fraction(v)
    return None


def _scan_mapping(obj: dict) -> dict[int, FlowPrediction]:
    """Each flow-labelled key's delay: its number, or the first of
    _WCD_KEYS in its object; every other key, confidence included, is
    skipped."""
    out = {}
    for key, val in obj.items():
        fid = _flow_id(key)
        if fid is None:
            continue
        wcd = _as_number(val)
        if wcd is None and isinstance(val, dict):
            for wk in _WCD_KEYS:
                if wk in val:
                    wcd = _as_number(val[wk])
                    break
        if wcd is not None:
            out[fid] = FlowPrediction(wcd)
    return out


def parse_prediction(text: str, testcase: str,
                     flow_ids: Collection[int]) -> PredictionSet:
    """Extract per-flow delay predictions from a model's raw reply to the
    question on testcase, whose flows are flow_ids.

    Takes the first well-formed JSON object in the text that yields at
    least one flow-label-to-number entry; labels 0 / F0 / flow_0 are all
    accepted, unknown flow ids are dropped. Never raises on garbage; the
    failure mode of the returned set records what went wrong.
    """
    known = set(flow_ids)
    decoder = json.JSONDecoder(parse_float=Fraction,
                               parse_constant=lambda _: None)
    flows: dict[int, FlowPrediction] = {}
    pos = text.find("{")
    while pos != -1:
        try:
            obj, _ = decoder.raw_decode(text, pos)
        except ValueError:
            obj = None
        if isinstance(obj, dict):
            found = {k: v for k, v in _scan_mapping(obj).items()
                     if k in known}
            if found:
                flows = found
                break
        pos = text.find("{", pos + 1)
    mode = classify_failure(len(flows), len(known),
                            all(p.wcd == 0 for p in flows.values()))
    return PredictionSet(testcase, flows, mode)


# ------------------------------------------------------------- open scoring


@dataclass(frozen=True)
class OpenScore:
    """Open-ended aggregate; every scored test case weighs equally."""

    per_tc_mae: dict[str, Fraction]
    per_tc_mape: dict[str, Optional[Fraction]]
    overall_mae: Optional[Fraction]
    overall_mae_stddev: Optional[float]
    overall_mape: Optional[Fraction]
    overall_mape_stddev: Optional[float]
    median_mae: Optional[Fraction]
    scored_testcases: int
    failure_counts: dict[str, int]
    suppression_flags: tuple[str, ...]
    diagnostics: tuple[str, ...] = ()


def _pstdev(values: Sequence[Fraction]) -> Union[float, int]:
    """Population standard deviation, a float, or an int when no float
    holds it (a MAPE over a truth below 100 us can exceed float range)."""
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    try:
        return math.sqrt(float(var))
    except OverflowError:
        # a variance beyond float range means a deviation above 1e154,
        # where the integer square root is exact far beyond float precision
        root = math.isqrt(round(var))
        try:
            return float(root)
        except OverflowError:
            return root


def truth_from_json(text: str) -> tuple[str, dict[int, Fraction]]:
    """Read (testcase name, flow id -> wcd) from an analysis report."""
    with _malformed("analysis report"):
        doc = json.loads(text, parse_float=Fraction)
        name, flows = doc["testcase"], {}
        if not isinstance(name, str):
            raise TypeError(f"testcase must be a string, got {name!r}")
        for row in doc["flows"]:
            fid = row["id"]
            if not is_int(fid):
                raise TypeError(f"flow id must be an integer, got {fid!r}")
            if fid in flows:
                raise ValueError(f"flow id {fid} appears twice")
            wcd = row["wcd_us"]
            if not (is_int(wcd) or isinstance(wcd, Fraction)):
                raise TypeError(f"wcd_us must be a number, got {wcd!r}")
            flows[fid] = Fraction(wcd)
        return name, flows


def score_open(preds: Iterable[PredictionSet],
               truths: Mapping[str, Mapping[int, Fraction]]) -> OpenScore:
    """Per-test-case MAE/MAPE and their equal-weight aggregates.

    Only ok and partial responses are scored; the rest are tallied in
    failure_counts. MAPE skips flows whose ground truth is zero.
    """
    preds = list(preds)
    seen = set()
    for p in preds:
        if p.testcase in seen:
            raise ValidationError(f"duplicate prediction for {p.testcase}")
        seen.add(p.testcase)
        if p.testcase not in truths:
            raise ValidationError(f"no ground truth for {p.testcase}")

    per_mae: dict[str, Fraction] = {}
    per_mape: dict[str, Optional[Fraction]] = {}
    failure_counts = {mode: 0 for mode in FAILURE_MODES}
    diagnostics = []
    any_partial = False
    all_wcds = []

    for p in sorted(preds, key=lambda p: p.testcase):
        failure_counts[p.failure_mode] += 1
        all_wcds.extend(fp.wcd for fp in p.per_flow.values())
        if p.failure_mode not in (FAILURE_OK, FAILURE_PARTIAL):
            continue
        any_partial = any_partial or p.failure_mode == FAILURE_PARTIAL
        truth = truths[p.testcase]
        abs_errors = []
        ratios = []
        for fid in sorted(p.per_flow):
            if fid not in truth:
                diagnostics.append(
                    f"{p.testcase}: flow {fid} not in ground truth, skipped")
                continue
            err = abs(p.per_flow[fid].wcd - truth[fid])
            abs_errors.append(err)
            if truth[fid] == 0:
                diagnostics.append(
                    f"{p.testcase}: flow {fid} has zero ground truth, "
                    f"excluded from MAPE")
            else:
                ratios.append(err / truth[fid])
        if not abs_errors:
            diagnostics.append(
                f"{p.testcase}: no flows matched ground truth, skipped")
            continue
        per_mae[p.testcase] = sum(abs_errors) / len(abs_errors)
        if ratios:
            per_mape[p.testcase] = 100 * sum(ratios) / len(ratios)
        else:
            per_mape[p.testcase] = None
            diagnostics.append(
                f"{p.testcase}: MAPE undefined, all ground truths zero")

    maes = list(per_mae.values())
    mapes = [m for m in per_mape.values() if m is not None]
    answered = failure_counts[FAILURE_OK] + failure_counts[FAILURE_PARTIAL]
    flags = []
    if answered < MIN_ANSWERED_TESTCASES:
        flags.append("too_few_testcases")
    if any_partial:
        flags.append("low_coverage")
    if all_wcds and all(w == 0 for w in all_wcds):
        flags.append("all_zero")

    return OpenScore(
        per_tc_mae=per_mae,
        per_tc_mape=per_mape,
        overall_mae=sum(maes) / len(maes) if maes else None,
        overall_mae_stddev=_pstdev(maes) if maes else None,
        overall_mape=sum(mapes) / len(mapes) if mapes else None,
        overall_mape_stddev=_pstdev(mapes) if mapes else None,
        median_mae=statistics.median(maes) if maes else None,
        scored_testcases=len(per_mae),
        failure_counts=failure_counts,
        suppression_flags=tuple(flags),
        diagnostics=tuple(diagnostics))


# ------------------------------------------------------------- MCQA scoring


@dataclass(frozen=True)
class McqaScore:
    accuracy: Optional[Fraction]          # percent, mean across runs
    per_run_accuracy: tuple[Optional[Fraction], ...]
    consistency: Optional[Fraction]       # fraction of stable items
    answered_items: int
    diagnostics: tuple[str, ...] = ()


def _norm_answer(ans) -> Optional[int]:
    if isinstance(ans, bool) or ans is None:
        return None
    if isinstance(ans, int):
        return ans
    if isinstance(ans, str):
        s = ans.strip().upper()
        if len(s) == 1 and "A" <= s <= "Z":
            return ord(s) - ord("A")
        if s.isdigit():
            return int(s)
    return None


def _items_by_id(items: Sequence[McqItem],
                 records: Sequence[RunRecord]) -> dict[str, McqItem]:
    """Items by id, once item ids are unique and every record names a
    distinct known item (a repeated record would weigh its item twice)."""
    by_id = {it.id: it for it in items}
    if len(by_id) != len(items):
        raise ValidationError("duplicate item ids")
    answered = set()
    for r in records:
        if r.id not in by_id:
            raise ValidationError(f"record {r.id} references no known item")
        if r.id in answered:
            raise ValidationError(f"duplicate record for item {r.id}")
        answered.add(r.id)
    return by_id


def score_mcqa(items: Sequence[McqItem],
               records: Sequence[RunRecord]) -> McqaScore:
    """Accuracy (percent, averaged across run indices) and run consistency."""
    by_id = _items_by_id(items, records)
    answered = {r.id for r in records}
    diagnostics = [f"item {it.id}: no record, excluded"
                   for it in items if it.id not in answered]
    max_runs = max((len(r.runs) for r in records), default=0)
    per_run = []
    for run_idx in range(max_runs):
        correct = total = 0
        for r in records:
            if run_idx >= len(r.runs):
                continue
            total += 1
            got = _norm_answer(r.runs[run_idx].answer)
            if got == by_id[r.id].correct_label:
                correct += 1
        per_run.append(Fraction(100 * correct, total) if total else None)

    run_accs = [a for a in per_run if a is not None]
    stable = sum(
        1 for r in records
        if len({_norm_answer(run.answer) for run in r.runs}) == 1)
    return McqaScore(
        accuracy=sum(run_accs) / len(run_accs) if run_accs else None,
        per_run_accuracy=tuple(per_run),
        consistency=Fraction(stable, len(records)) if records else None,
        answered_items=len(records),
        diagnostics=tuple(diagnostics))


# -------------------------------------------------------------- calibration


@dataclass(frozen=True)
class ReliabilityBin:
    lo: Fraction
    hi: Fraction
    count: int
    conf_mean: Optional[Fraction]
    accuracy: Optional[Fraction]


@dataclass(frozen=True)
class CalibrationScore:
    ece: Fraction
    brier: Fraction
    cw_rate: Optional[Fraction]           # percent; null when nothing wrong
    bins: tuple[ReliabilityBin, ...]
    sample_count: int
    diagnostics: tuple[str, ...] = ()


def calibration(items: Sequence[McqItem],
                records: Sequence[RunRecord],
                bin_count: int = DEFAULT_BIN_COUNT) -> CalibrationScore:
    """ECE over equal-width confidence bins, Brier score, and the share of
    wrong answers delivered with high confidence.

    Each (record, run) pair with a confidence is one sample; runs without
    confidence are skipped with a diagnostic.
    """
    if bin_count < 1:
        raise ValidationError("bin_count must be >= 1")
    by_id = _items_by_id(items, records)

    samples = []       # (confidence, correct 0/1)
    diagnostics = []
    for r in records:
        for idx, run in enumerate(r.runs):
            if run.confidence is None:
                diagnostics.append(
                    f"item {r.id} run {idx}: no confidence, excluded")
                continue
            correct = int(_norm_answer(run.answer)
                          == by_id[r.id].correct_label)
            samples.append((run.confidence, correct))
    if not samples:
        raise ValidationError("no confidence-bearing samples to calibrate")

    binned: list[list[tuple[Fraction, int]]] = [[] for _ in range(bin_count)]
    for conf, correct in samples:
        idx = min(int(conf * bin_count), bin_count - 1)
        binned[idx].append((conf, correct))

    n = len(samples)
    ece = Fraction(0)
    bins = []
    for b, members in enumerate(binned):
        lo, hi = Fraction(b, bin_count), Fraction(b + 1, bin_count)
        if members:
            conf_mean = sum(c for c, _ in members) / len(members)
            acc = Fraction(sum(k for _, k in members), len(members))
            ece += Fraction(len(members), n) * abs(acc - conf_mean)
            bins.append(ReliabilityBin(lo, hi, len(members), conf_mean, acc))
        else:
            bins.append(ReliabilityBin(lo, hi, 0, None, None))

    brier = sum((conf - correct) ** 2 for conf, correct in samples) / n
    wrong = [(conf, correct) for conf, correct in samples if not correct]
    cw = None
    if wrong:
        high = sum(1 for conf, _ in wrong if conf >= HIGH_CONFIDENCE)
        cw = Fraction(100 * high, len(wrong))
    return CalibrationScore(
        ece=ece,
        brier=brier,
        cw_rate=cw,
        bins=tuple(bins),
        sample_count=n,
        diagnostics=tuple(diagnostics))


def reliability_to_csv(cal: CalibrationScore) -> str:
    lines = ["bin_lo,bin_hi,n,conf_mean,acc"]
    for b in cal.bins:
        conf = "" if b.conf_mean is None else repr(float(b.conf_mean))
        acc = "" if b.accuracy is None else repr(float(b.accuracy))
        lines.append(f"{json_num(b.lo)},{json_num(b.hi)},{b.count},"
                     f"{conf},{acc}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ metrics file


def _opt(x) -> Optional[Union[int, float]]:
    return None if x is None else json_num(Fraction(x))


def metrics_to_json(open_ended: Optional[OpenScore] = None,
                    mcqa: Optional[McqaScore] = None,
                    calib: Optional[CalibrationScore] = None) -> str:
    """The metrics file: one section per score given."""
    doc: dict = {}
    if open_ended is not None:
        o = open_ended
        doc["open_ended"] = {
            "per_tc_mae": {k: json_num(v) for k, v in o.per_tc_mae.items()},
            "per_tc_mape": {k: _opt(v) for k, v in o.per_tc_mape.items()},
            "overall_mae": _opt(o.overall_mae),
            "overall_mae_stddev": o.overall_mae_stddev,
            "overall_mape": _opt(o.overall_mape),
            "overall_mape_stddev": o.overall_mape_stddev,
            "median_mae": _opt(o.median_mae),
            "scored_testcases": o.scored_testcases,
            "failure_counts": dict(o.failure_counts),
            "suppression_flags": list(o.suppression_flags),
            "diagnostics": list(o.diagnostics),
        }
    if mcqa is not None:
        m = mcqa
        doc["mcqa"] = {
            "accuracy_percent": _opt(m.accuracy),
            "per_run_accuracy_percent": [_opt(a) for a in m.per_run_accuracy],
            "consistency": _opt(m.consistency),
            "answered_items": m.answered_items,
            "diagnostics": list(m.diagnostics),
        }
    if calib is not None:
        c = calib
        doc["calibration"] = {
            "ece": json_num(c.ece),
            "brier": json_num(c.brier),
            "cw_rate_percent": _opt(c.cw_rate),
            "sample_count": c.sample_count,
            "bins": [
                {"lo": json_num(b.lo), "hi": json_num(b.hi),
                 "n": b.count, "conf_mean": _opt(b.conf_mean),
                 "acc": _opt(b.accuracy)}
                for b in c.bins],
            "diagnostics": list(c.diagnostics),
        }
    return json_text(doc)


def calibration_from_json(section: dict) -> CalibrationScore:
    """Read back the "calibration" section that metrics_to_json writes."""
    def opt(x):
        return None if x is None else frac(x)
    try:
        return CalibrationScore(
            ece=frac(section["ece"]),
            brier=frac(section["brier"]),
            cw_rate=opt(section["cw_rate_percent"]),
            bins=tuple(ReliabilityBin(frac(b["lo"]), frac(b["hi"]), b["n"],
                                      opt(b["conf_mean"]), opt(b["acc"]))
                       for b in section["bins"]),
            sample_count=section["sample_count"],
            diagnostics=tuple(section["diagnostics"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            f"malformed calibration section: {exc!r}") from exc


# ---------------------------------------------------------------- file IO


@contextmanager
def _malformed(what: str, line_no: Optional[int] = None):
    """Turn what a reader hits on a malformed document (bad JSON, a
    missing key, a value of the wrong type, a number that is not a finite
    rational) into a ParseError."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError,
            ArithmeticError) as exc:
        raise ParseError(f"malformed {what}: {exc!r}", line_no) from exc


def mcq_items_from_json(text: str) -> list[McqItem]:
    """Items from a JSON list of {id, question, options, correct}."""
    out = []
    with _malformed("MCQ items"):
        doc = json.loads(text)
        items = doc["items"] if isinstance(doc, dict) else doc
        for row in items:
            correct = row["correct"]
            if not is_int(correct):
                raise TypeError(
                    f"correct must be an integer, got {correct!r}")
            out.append(McqItem(
                id=str(row["id"]),
                question=row["question"],
                options=tuple(row["options"]),
                correct_label=correct))
    return out


def run_records_from_jsonl(text: str) -> list[RunRecord]:
    """Records from JSONL: one {id, runs: [...]} object per line."""
    out = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        with _malformed("run record", line_no):
            doc = json.loads(line, parse_float=Fraction)
            runs = tuple(
                Run(answer=r.get("answer"), confidence=r.get("confidence"))
                for r in doc["runs"])
            out.append(RunRecord(id=str(doc["id"]), runs=runs))
    return out
