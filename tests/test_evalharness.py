"""Scoring-harness tests: hand-checked metric fixtures, lenient parsing,
calibration arithmetic, and a scripted HTTP stub for the client."""
import json
import os
import socket
import subprocess
import sys
import threading
from fractions import Fraction as F
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tsnwcd import evalharness as ev
from tsnwcd import cqf, testgen
from tsnwcd.errors import (
    AuthError,
    CompletionError,
    CompletionTimeout,
    MalformedResponseError,
    ValidationError,
)
from tsnwcd.minplus import frac
from tsnwcd.netmodel import (
    ES,
    SW,
    Flow,
    Link,
    NetworkConstants,
    Node,
    Route,
    TestCase,
    Topology,
)


def tiny_tc(name="TCX", n_flows=2, mechanism="CBS", constants=None):
    """Star test case with n_flows one-hop flows, enough for parsing and
    prompt tests."""
    hosts = [f"h{i}" for i in range(n_flows + 1)]
    topo = Topology([Node(h, ES) for h in hosts] + [Node("s1", SW)],
                    [Link(h, "s1") for h in hosts])
    flows = tuple(Flow(i, hosts[i], hosts[i + 1], F(1000), F(5000), 100)
                  for i in range(n_flows))
    routes = tuple(Route(i, (hosts[i], "s1", hosts[i + 1]))
                   for i in range(n_flows))
    return TestCase(name, topo, flows, routes, mechanism,
                    constants or NetworkConstants())


def pred(name, flows, mode=None):
    per_flow = {fid: ev.FlowPrediction(frac(w)) for fid, w in flows.items()}
    if mode is None:
        mode = ev.classify_failure(
            len(per_flow), len(per_flow) or 1,
            all(p.wcd == 0 for p in per_flow.values()))
    return ev.PredictionSet(name, per_flow, mode)


def fixture_truths():
    return {"TC1": {0: F(200), 1: F(150), 2: F(500)},
            "TC2": {0: F(100), 1: F(300)},
            "TC3": {0: F(400), 1: F(250), 2: F(600)}}


def fixture_preds():
    return [pred("TC1", {0: 212, 1: 180, 2: 490}),
            pred("TC2", {0: 108, 1: 255}),
            pred("TC3", {0: 420, 1: 265, 2: 600})]


# open-ended scoring


def test_three_tc_fixture_matches_hand_arithmetic():
    score = ev.score_open(fixture_preds(), fixture_truths())
    assert score.per_tc_mae == {"TC1": F(52, 3), "TC2": F(53, 2),
                                "TC3": F(35, 3)}
    assert score.overall_mae == F(37, 2)            # 18.5 exactly
    assert score.per_tc_mape == {"TC1": F(28, 3), "TC2": F(23, 2),
                                 "TC3": F(11, 3)}
    assert score.overall_mape == F(49, 6)           # about 8.17
    assert score.median_mae == F(52, 3)
    assert score.scored_testcases == 3
    assert score.failure_counts["ok"] == 3


def test_perfect_predictions():
    truths = fixture_truths()
    preds = [pred(name, dict(flows)) for name, flows in truths.items()]
    score = ev.score_open(preds, truths)
    assert score.overall_mae == 0
    assert score.overall_mape == 0
    assert score.overall_mae_stddev == 0.0


def test_testcases_weigh_equally_regardless_of_flow_count():
    base = ev.score_open(
        [pred("A", {0: 110, 1: 220}), pred("B", {0: 305})],
        {"A": {0: F(100), 1: F(200)}, "B": {0: F(300)}})
    doubled = ev.score_open(
        [pred("A", {0: 110, 1: 220, 2: 110, 3: 220}), pred("B", {0: 305})],
        {"A": {0: F(100), 1: F(200), 2: F(100), 3: F(200)},
         "B": {0: F(300)}})
    assert base.overall_mae == doubled.overall_mae == F(15, 2) + F(5, 2)


def test_mape_scale_free_mae_scales():
    truths = fixture_truths()
    preds = fixture_preds()
    scaled_truths = {n: {f: 7 * w for f, w in m.items()}
                     for n, m in truths.items()}
    scaled_preds = [
        pred(p.testcase, {f: 7 * fp.wcd for f, fp in p.per_flow.items()})
        for p in preds]
    a = ev.score_open(preds, truths)
    b = ev.score_open(scaled_preds, scaled_truths)
    assert a.overall_mape == b.overall_mape
    assert b.overall_mae == 7 * a.overall_mae


def test_zero_truth_flow_excluded_from_mape():
    score = ev.score_open(
        [pred("T", {0: 10, 1: 110})], {"T": {0: F(0), 1: F(100)}})
    assert score.per_tc_mae == {"T": F(10)}         # (10 + 10) / 2
    assert score.per_tc_mape == {"T": F(10)}        # only flow 1: 10/100
    assert any("zero ground truth" in d for d in score.diagnostics)


def test_all_zero_truth_tc_has_null_mape():
    score = ev.score_open([pred("T", {0: 5})], {"T": {0: F(0)}})
    assert score.per_tc_mape == {"T": None}
    assert score.overall_mape is None


def test_failures_counted_not_scored():
    preds = fixture_preds() + [
        pred("TC4", {0: 0, 1: 0}),
        pred("TC5", {}),
        ev.PredictionSet("TC6", {}, ev.FAILURE_TIMEOUT)]
    truths = dict(fixture_truths(),
                  TC4={0: F(1), 1: F(2)}, TC5={0: F(1)}, TC6={0: F(1)})
    score = ev.score_open(preds, truths)
    assert score.scored_testcases == 3
    assert score.failure_counts == {
        "ok": 3, "trivial_zero": 1, "empty": 1, "timeout": 1, "partial": 0}
    assert "too_few_testcases" in score.suppression_flags


def test_partial_scored_with_low_coverage_flag():
    # 2 of 3 flows predicted: partial, still enters with its flows
    tc_pred = ev.PredictionSet(
        "TC1", {0: ev.FlowPrediction(F(212)), 1: ev.FlowPrediction(F(180))},
        ev.FAILURE_PARTIAL)
    score = ev.score_open([tc_pred], fixture_truths())
    assert score.per_tc_mae == {"TC1": F(21)}       # (12 + 30) / 2
    assert "low_coverage" in score.suppression_flags


def test_all_zero_flag():
    score = ev.score_open(
        [pred("A", {0: 0}), pred("B", {0: 0, 1: 0})],
        {"A": {0: F(1)}, "B": {0: F(1), 1: F(2)}})
    assert "all_zero" in score.suppression_flags
    assert score.overall_mae is None


def test_fifty_answered_testcases_clear_the_flag():
    truths = {f"T{i}": {0: F(100)} for i in range(50)}
    preds = [pred(f"T{i}", {0: 101}) for i in range(50)]
    score = ev.score_open(preds, truths)
    assert "too_few_testcases" not in score.suppression_flags
    assert score.overall_mae == 1


def test_duplicate_and_unknown_testcases_rejected():
    with pytest.raises(ValidationError):
        ev.score_open([pred("A", {0: 1}), pred("A", {0: 2})],
                      {"A": {0: F(1)}})
    with pytest.raises(ValidationError):
        ev.score_open([pred("B", {0: 1})], {"A": {0: F(1)}})


# prediction parsing


def test_parse_plain_mapping():
    tc = tiny_tc(n_flows=2)
    ps = ev.parse_prediction('{"F0": 12.5, "F1": 30}', tc)
    assert ps.failure_mode == "ok"
    assert ps.per_flow[0].wcd == F(25, 2)
    assert ps.per_flow[1].wcd == F(30)


def test_parse_label_spellings():
    tc = tiny_tc(n_flows=3)
    ps = ev.parse_prediction('{"flow_0": 10, "1": 20, "F2": 30}', tc)
    assert {f: p.wcd for f, p in ps.per_flow.items()} == {
        0: F(10), 1: F(20), 2: F(30)}


def test_parse_skips_preamble_and_non_flow_objects():
    tc = tiny_tc(n_flows=2)
    text = ('The delays are {"unrelated": true} as computed.\n'
            'Final answer: {"F0": 101.5, "F1": 202}\n'
            'Alternative: {"F0": 999, "F1": 999}')
    ps = ev.parse_prediction(text, tc)
    assert ps.per_flow[0].wcd == F(203, 2)
    assert ps.per_flow[1].wcd == F(202)


def test_parse_nested_flows_object():
    tc = tiny_tc(n_flows=2)
    ps = ev.parse_prediction(
        '{"answer": {"F0": 7, "F1": 9}, "confidence": 0.8}', tc)
    assert ps.per_flow[0].wcd == F(7)
    assert ps.failure_mode == "ok"


def test_parse_per_flow_details_and_shared_confidence():
    tc = tiny_tc(n_flows=2)
    ps = ev.parse_prediction(
        '{"F0": {"wcd_us": 10, "confidence": 0.9}, "F1": 20, '
        '"confidence": 0.7}', tc)
    assert ps.per_flow[0] == ev.FlowPrediction(F(10), F(9, 10))
    assert ps.per_flow[1] == ev.FlowPrediction(F(20), F(7, 10))


def test_parse_all_zero_is_trivial_zero():
    tc = tiny_tc(n_flows=2)
    ps = ev.parse_prediction('{"F0": 0, "F1": 0.0}', tc)
    assert ps.failure_mode == "trivial_zero"


def test_parse_empty_and_garbage():
    tc = tiny_tc(n_flows=2)
    assert ev.parse_prediction("", tc).failure_mode == "empty"
    assert ev.parse_prediction("no json here {", tc).failure_mode == "empty"
    assert ev.parse_prediction('{"F9": 5}', tc).failure_mode == "empty"


def test_parse_partial_below_80_percent():
    tc = tiny_tc(n_flows=20)
    body = json.dumps({f"F{i}": 10 + i for i in range(15)})
    ps = ev.parse_prediction(body, tc)
    assert ps.failure_mode == "partial"             # 75% < 80%
    body16 = json.dumps({f"F{i}": 10 + i for i in range(16)})
    assert ev.parse_prediction(body16, tc).failure_mode == "ok"


def test_parse_unknown_ids_dropped():
    tc = tiny_tc(n_flows=2)
    ps = ev.parse_prediction('{"F0": 5, "F7": 9}', tc)
    assert set(ps.per_flow) == {0}


def test_classify_failure_precedence():
    assert ev.classify_failure(0, 10, True) == "empty"
    assert ev.classify_failure(5, 10, True) == "trivial_zero"
    assert ev.classify_failure(5, 10, False) == "partial"
    assert ev.classify_failure(8, 10, False) == "ok"


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=200))
def test_parse_never_raises(text):
    ps = ev.parse_prediction(text, tiny_tc(n_flows=2))
    assert ps.failure_mode in ev.FAILURE_MODES


# MCQA scoring


def items3(correct=(0, 0, 2)):
    return [ev.McqItem(f"q{i}", f"question {i}",
                       ("opt a", "opt b", "opt c", "opt d"), c)
            for i, c in enumerate(correct)]


def rec(item_id, answers, conf=None):
    return ev.RunRecord(item_id, tuple(
        ev.Run(a, confidence=conf) for a in answers))


def test_mcqa_all_correct():
    items = items3()
    records = [rec("q0", "AAA"), rec("q1", "AAA"), rec("q2", "CCC")]
    score = ev.score_mcqa(items, records)
    assert score.accuracy == 100
    assert score.consistency == 1
    assert score.per_run_accuracy == (F(100), F(100), F(100))


def test_mcqa_consistency_two_thirds():
    items = items3()
    records = [rec("q0", "AAA"), rec("q1", "ABA"), rec("q2", "CCC")]
    score = ev.score_mcqa(items, records)
    assert score.consistency == F(2, 3)
    assert score.per_run_accuracy == (F(100), F(200, 3), F(100))
    assert score.accuracy == F(800, 9)


def test_mcqa_large_single_run_accuracy():
    items = [ev.McqItem(f"q{i}", "q", ("a", "b"), 0) for i in range(939)]
    records = [rec(f"q{i}", [0] if i < 885 else [1]) for i in range(939)]
    score = ev.score_mcqa(items, records)
    assert score.accuracy == F(88500, 939)
    assert float(score.accuracy) == pytest.approx(94.25, abs=5e-3)


def test_mcqa_letter_and_index_answers_agree():
    items = items3()
    a = ev.score_mcqa(items, [rec("q0", "A"), rec("q1", "A"), rec("q2", "C")])
    b = ev.score_mcqa(items, [rec("q0", [0]), rec("q1", [0]),
                              rec("q2", [2])])
    assert a == b


def test_mcqa_unparseable_answer_is_incorrect():
    items = items3((0,))[:1]
    score = ev.score_mcqa(items, [rec("q0", ["maybe A or B"])])
    assert score.accuracy == 0


def test_mcqa_missing_item_excluded_with_diagnostic():
    items = items3()
    score = ev.score_mcqa(items, [rec("q0", "A")])
    assert score.answered_items == 1
    assert any("q1" in d for d in score.diagnostics)
    assert any("q2" in d for d in score.diagnostics)


def test_mcqa_unknown_record_rejected():
    with pytest.raises(ValidationError):
        ev.score_mcqa(items3(), [rec("mystery", "A")])


def test_run_record_bounds():
    with pytest.raises(ValidationError):
        ev.RunRecord("q0", ())
    with pytest.raises(ValidationError):
        ev.RunRecord("q0", tuple(ev.Run("A") for _ in range(4)))
    with pytest.raises(ValidationError):
        ev.Run("A", confidence=frac("1.5"))


def test_mcq_item_invariants():
    with pytest.raises(ValidationError):
        ev.McqItem("q", "t", ("only",), 0)
    with pytest.raises(ValidationError):
        ev.McqItem("q", "t", ("a", "a"), 0)
    with pytest.raises(ValidationError):
        ev.McqItem("q", "t", ("a", "b"), 2)


# calibration


def conf_records(spec_rows):
    """spec_rows: list of (confidence, correct_bool); single-run records
    against a two-option item with correct label 0."""
    items = [ev.McqItem(f"q{i}", "q", ("a", "b"), 0)
             for i in range(len(spec_rows))]
    records = [rec(f"q{i}", [0 if ok else 1], conf=frac(c))
               for i, (c, ok) in enumerate(spec_rows)]
    return items, records


def test_calibration_all_correct_full_confidence():
    items, records = conf_records([(1, True)] * 5)
    cal = ev.calibration(items, records)
    assert cal.ece == 0
    assert cal.brier == 0
    assert cal.cw_rate is None


def test_calibration_all_wrong_at_09():
    items, records = conf_records([("0.9", False)] * 4)
    cal = ev.calibration(items, records)
    assert cal.cw_rate == 100
    assert cal.brier == F(81, 100)
    assert cal.ece == F(9, 10)


def test_calibration_two_bin_hand_case():
    rows = [("0.75", True)] * 3 + [("0.75", False)] + \
           [("0.95", True)] * 2 + [("0.95", False)] * 2
    items, records = conf_records(rows)
    cal = ev.calibration(items, records)
    assert cal.ece == F(9, 40)                      # 0.225
    occupied = [b for b in cal.bins if b.count]
    assert [(b.lo, b.count) for b in occupied] == [
        (F(7, 10), 4), (F(9, 10), 4)]
    assert occupied[0].accuracy == F(3, 4)
    assert occupied[1].conf_mean == F(19, 20)


def test_calibration_bin_count_knob():
    items, records = conf_records([("0.2", True), ("0.8", False)])
    assert ev.calibration(items, records, bin_count=10).ece == F(4, 5)
    assert ev.calibration(items, records, bin_count=1).ece == 0


def test_calibration_permutation_invariant():
    rows = [("0.3", True), ("0.6", False), ("0.9", True), ("0.9", False)]
    items, records = conf_records(rows)
    fwd = ev.calibration(items, records)
    rev = ev.calibration(list(reversed(items)), list(reversed(records)))
    assert (fwd.ece, fwd.brier, fwd.cw_rate) == (rev.ece, rev.brier,
                                                 rev.cw_rate)


def test_calibration_bins_partition_unit_interval():
    items, records = conf_records([("0.7", True)])
    cal = ev.calibration(items, records)
    assert len(cal.bins) == 10
    assert [b.lo for b in cal.bins] == [F(k, 10) for k in range(10)]
    assert all(b.hi - b.lo == F(1, 10) for b in cal.bins)
    assert cal.bins[7].count == 1                   # 0.7 in [0.7, 0.8)


def test_calibration_missing_confidence_and_empty():
    items, records = conf_records([("0.5", True)])
    extra = ev.RunRecord("q0", (ev.Run(0, confidence=frac("0.5")),
                                ev.Run(1)))
    cal = ev.calibration(items, [extra])
    assert cal.sample_count == 1
    assert any("no confidence" in d for d in cal.diagnostics)
    bare = [ev.RunRecord("q0", (ev.Run(0),))]
    with pytest.raises(ValidationError):
        ev.calibration(items, bare)


def test_reliability_csv_layout():
    items, records = conf_records([("0.75", True), ("0.75", False)])
    text = ev.reliability_to_csv(ev.calibration(items, records))
    lines = text.splitlines()
    assert lines[0] == "bin_lo,bin_hi,n,conf_mean,acc"
    assert len(lines) == 11
    assert lines[8] == "0.7,0.8,2,0.75,0.5"
    assert lines[1] == "0,0.1,0,,"


def test_calibration_json_round_trip_keeps_csv_bytes():
    items, records = conf_records(
        [("0.75", True), ("0.75", False), ("1/3", True), (1, False)])
    cal = ev.calibration(items, records)
    doc = json.loads(ev.metrics_to_json(ev.MetricsReport(calib=cal)))
    back = ev.calibration_from_json(doc["calibration"])
    assert ev.reliability_to_csv(back) == ev.reliability_to_csv(cal)
    with pytest.raises(ValidationError, match="malformed calibration"):
        ev.calibration_from_json({"bins": [{}]})


# prompts


def test_cbs_prompt_contains_required_text():
    tc = tiny_tc("TC9", mechanism="CBS")
    prompt = ev.build_open_prompt(tc, "CBS")
    assert "You are an expert Time-Sensitive Networking" in prompt
    assert "Only Credit-Based Shaper (CBS, IEEE 802.1Qav) is allowed" in prompt
    assert "IdleSlope = 75%" in prompt
    assert "TC9_topo.txt" in prompt
    assert "Hypercycle" not in prompt
    assert prompt == ev.build_open_prompt(tc, "CBS")


def test_cqf_prompt_contains_required_text():
    tc = tiny_tc("TC8", mechanism="CQF",
                 constants=NetworkConstants(cycle_T=F(100)))
    prompt = ev.build_open_prompt(tc, "CQF")
    assert ("set the offset or the start time of the flow from the "
            "sending node as 0") in prompt
    assert "compute the Hypercycle" in prompt
    assert "Cycle duration = 100 µs" in prompt
    assert ("Only Cyclic Queuing and Forwarding (CQF, IEEE 802.1Qch) "
            "is allowed") in prompt
    assert "IdleSlope" not in prompt


def test_prompt_embeds_network_blocks():
    tc = tiny_tc("TC7")
    prompt = ev.build_open_prompt(tc, "CBS")
    from tsnwcd.netmodel import serialize_flows, serialize_topology
    assert serialize_topology(tc.topology) in prompt
    assert serialize_flows(tc.flows) in prompt


def test_prompt_mechanism_mismatch():
    tc = tiny_tc(mechanism="CBS")
    with pytest.raises(ValidationError):
        ev.build_open_prompt(tc, "CQF")
    with pytest.raises(ValidationError):
        ev.build_open_prompt(tc, "TAS")


# report serialization


def test_metrics_json_round_structure():
    report = ev.MetricsReport(
        open_ended=ev.score_open(fixture_preds(), fixture_truths()),
        mcqa=ev.score_mcqa(items3(), [rec("q0", "AAA"), rec("q1", "AAA"),
                                      rec("q2", "CCC")]),
        calib=ev.calibration(*conf_records([("0.9", True)] * 3)))
    doc = json.loads(ev.metrics_to_json(report))
    assert doc["open_ended"]["overall_mae"] == 18.5
    assert doc["open_ended"]["per_tc_mape"]["TC2"] == 11.5
    assert doc["mcqa"]["accuracy_percent"] == 100
    assert doc["calibration"]["ece"] == pytest.approx(0.1)
    assert len(doc["calibration"]["bins"]) == 10
    assert ev.metrics_to_json(report).endswith("\n")


def test_prediction_json_roundtrip():
    ps = ev.PredictionSet(
        "TC2", {0: ev.FlowPrediction(F(25, 2), F(9, 10)),
                1: ev.FlowPrediction(F(30))}, "ok")
    again = ev.prediction_from_json(ev.prediction_to_json(ps))
    assert again == ps


def test_truth_from_json_reads_analysis_report():
    tc = testgen.testcase_from_entry(testgen.default_manifest()[5])
    text = cqf.report_to_json(cqf.solve(tc))
    name, truth = ev.truth_from_json(text)
    assert name == tc.name
    assert truth[0] == F(203)


def test_run_records_jsonl():
    text = ('{"id": "q0", "runs": [{"answer": "A", "confidence": 0.9, '
            '"latency_ms": 120.5, "raw_text": "A"}]}\n'
            '\n'
            '{"id": "q1", "runs": [{"answer": 2}, {"answer": 2}]}\n')
    records = ev.run_records_from_jsonl(text)
    assert records[0].runs[0].confidence == F(9, 10)
    assert records[0].runs[0].latency_ms == F(241, 2)
    assert records[1].runs == (ev.Run(2), ev.Run(2))


def test_mcq_items_json():
    text = json.dumps({"items": [
        {"id": 7, "question": "pick", "options": ["a", "b"], "correct": 1}]})
    item, = ev.mcq_items_from_json(text)
    assert item == ev.McqItem("7", "pick", ("a", "b"), 1)


# HTTP client against a scripted stub


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.requests.append(json.loads(self.rfile.read(length)))
        step = self.server.script.pop(0) if self.server.script else ("ok", "")
        kind, arg = step
        if kind == "status":
            body = b"{}"
            self.send_response(arg)
        elif kind == "raw":
            body = arg.encode()
            self.send_response(200)
        else:
            body = json.dumps(
                {"choices": [{"message": {"content": arg}}]}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def cfg_for(server, **kw):
    kw.setdefault("backoff_base_s", 0.0)
    return ev.EndpointConfig(
        base_url=f"http://127.0.0.1:{server.server_address[1]}/v1/chat",
        model="test-model", **kw)


def test_requests_is_imported_lazily():
    # the HTTP client's dependency is optional: loading the package and
    # its CLI must not need it
    code = ("import sys, tsnwcd.cli, tsnwcd.evalharness; "
            "sys.exit('requests' in sys.modules)")
    src = str(Path(ev.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


def test_fetch_roundtrip(stub_server, monkeypatch):
    monkeypatch.setenv("TSNWCD_API_KEY", "sekrit")
    stub_server.script = [("ok", "the answer text")]
    text, latency = ev.fetch_completion(cfg_for(stub_server), "hello")
    assert text == "the answer text"
    assert latency > 0
    sent = stub_server.requests[0]
    assert sent["model"] == "test-model"
    assert [m["role"] for m in sent["messages"]] == ["system", "user"]
    assert sent["messages"][1]["content"] == "hello"
    assert "temperature" not in sent


def test_fetch_temperature_passthrough(stub_server, monkeypatch):
    monkeypatch.setenv("TSNWCD_API_KEY", "k")
    stub_server.script = [("ok", "x")]
    ev.fetch_completion(cfg_for(stub_server, temperature=0.2), "p")
    assert stub_server.requests[0]["temperature"] == 0.2


def test_fetch_retries_through_429(stub_server, monkeypatch):
    monkeypatch.setenv("TSNWCD_API_KEY", "k")
    stub_server.script = [("status", 429), ("status", 429), ("ok", "done")]
    text, _ = ev.fetch_completion(cfg_for(stub_server, max_retries=3), "p")
    assert text == "done"
    assert len(stub_server.requests) == 3


def test_fetch_transient_budget_exhausted(stub_server, monkeypatch):
    monkeypatch.setenv("TSNWCD_API_KEY", "k")
    stub_server.script = [("status", 503)] * 3
    with pytest.raises(CompletionError):
        ev.fetch_completion(cfg_for(stub_server, max_retries=2), "p")


def test_fetch_auth_failures(stub_server, monkeypatch):
    monkeypatch.delenv("TSNWCD_API_KEY", raising=False)
    with pytest.raises(AuthError):
        ev.fetch_completion(cfg_for(stub_server), "p")
    assert not stub_server.requests                 # no credential, no call
    monkeypatch.setenv("TSNWCD_API_KEY", "bad")
    stub_server.script = [("status", 401)]
    with pytest.raises(AuthError):
        ev.fetch_completion(cfg_for(stub_server, max_retries=5), "p")
    assert len(stub_server.requests) == 1           # no retry on auth


def test_fetch_malformed_payload(stub_server, monkeypatch):
    monkeypatch.setenv("TSNWCD_API_KEY", "k")
    stub_server.script = [("raw", '{"unexpected": 1}')]
    with pytest.raises(MalformedResponseError):
        ev.fetch_completion(cfg_for(stub_server), "p")


def test_fetch_timeout_after_retries(monkeypatch):
    monkeypatch.setenv("TSNWCD_API_KEY", "k")
    # a local listener that never answers: every attempt times out
    with socket.create_server(("127.0.0.1", 0)) as silent:
        port = silent.getsockname()[1]
        cfg = ev.EndpointConfig(base_url=f"http://127.0.0.1:{port}/v1/chat",
                                model="m", timeout_s=0.2, max_retries=1,
                                backoff_base_s=0.0)
        with pytest.raises(CompletionTimeout):
            ev.fetch_completion(cfg, "p")


def test_collect_predictions_records_timeout(monkeypatch):
    cbs_tc = tiny_tc("TCA", n_flows=2)
    other = tiny_tc("TCB", n_flows=2)

    def fake_fetch(cfg, prompt, system_text=ev.SYSTEM_TEXT):
        if "TCA" in prompt:
            raise CompletionTimeout("slow")
        return '{"F0": 5, "F1": 6}', 10.0

    monkeypatch.setattr(ev, "fetch_completion", fake_fetch)
    cfg = ev.EndpointConfig(base_url="http://127.0.0.1:1/x", model="m")
    got = ev.collect_predictions(cfg, [cbs_tc, other], concurrency=2)
    assert got["TCA"].failure_mode == "timeout"
    assert got["TCB"].failure_mode == "ok"
    assert got["TCB"].per_flow[1].wcd == F(6)


def test_endpoint_config_validation():
    with pytest.raises(ValidationError):
        ev.EndpointConfig(base_url="ftp://x", model="m")
    with pytest.raises(ValidationError):
        ev.EndpointConfig(base_url="https://x", model="m", timeout_s=0)
    with pytest.raises(ValidationError):
        ev.endpoint_config_from_json(
            '{"base_url": "https://x", "model": "m", "api_key": "inline"}')
    cfg = ev.endpoint_config_from_json(
        '{"base_url": "https://api.example/v1/chat", "model": "m", '
        '"temperature": 0.1, "credential_env": "OTHER_KEY"}')
    assert cfg.credential_env == "OTHER_KEY"
