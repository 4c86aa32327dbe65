"""End-to-end subcommand tests through CliRunner: exit codes, stdout
summary lines, file outputs, and flag/config precedence."""
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

from tsnwcd import testgen
from tsnwcd.cli import main
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
    save_testcase,
)


@pytest.fixture
def runner():
    return CliRunner()


def summary(result):
    assert result.exit_code == 0, result.stderr or result.stdout
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 1, "stdout must be a single summary line"
    return json.loads(lines[0])


def chain_tc_dir(tmp_path, name="case", switches=3, mechanism="CQF",
                 cycle_T=F(50)):
    """End-station chain through the given number of switches."""
    sws = [f"s{i}" for i in range(1, switches + 1)]
    hops = ["es1"] + sws + ["es2"]
    topo = Topology(
        [Node("es1", ES), Node("es2", ES)] + [Node(s, SW) for s in sws],
        [Link(a, b) for a, b in zip(hops, hops[1:])])
    flows = (Flow(0, "es1", "es2", F(1000), F(5000), 100),)
    routes = (Route(0, tuple(hops)),)
    constants = NetworkConstants(cycle_T=cycle_T if mechanism == "CQF"
                                 else None)
    tc = TestCase(name, topo, flows, routes, mechanism, constants)
    save_testcase(tc, tmp_path / name)
    return tmp_path / name


def write_manifest(tmp_path, count=4):
    entries = testgen.default_manifest()[:count]
    path = tmp_path / "manifest.json"
    path.write_text(testgen.manifest_to_json(entries))
    return path


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_gen_is_deterministic(runner, tmp_path):
    manifest = write_manifest(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    res = runner.invoke(main, ["gen", "--manifest", str(manifest),
                               "--out", str(out_a)])
    assert summary(res)["testcases"] == 4
    runner.invoke(main, ["gen", "--manifest", str(manifest),
                         "--out", str(out_b)], catch_exceptions=False)
    assert tree_bytes(out_a) == tree_bytes(out_b)
    assert (out_a / "TC1" / "TC1_topo.txt").exists()


def test_gen_truth_identical_across_job_counts(runner, tmp_path):
    manifest = write_manifest(tmp_path, count=6)
    results = {}
    for jobs in (1, 4):
        out = tmp_path / f"j{jobs}"
        res = runner.invoke(main, [
            "gen", "--manifest", str(manifest), "--out", str(out / "tc"),
            "--truth-dir", str(out / "truth"), "--jobs", str(jobs)])
        assert summary(res)["truth"] == str(out / "truth")
        results[jobs] = tree_bytes(out / "truth")
    assert results[1] == results[4]
    assert len(results[1]) == 6


def test_analyze_emits_known_cqf_value(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path, switches=3)
    out = tmp_path / "truth.json"
    res = runner.invoke(main, ["analyze", "--tc", str(tc_dir),
                               "--mechanism", "cqf", "--out", str(out)])
    s = summary(res)
    assert s["mechanism"] == "CQF" and s["flows"] == 1
    doc = json.loads(out.read_text())
    assert doc["flows"][0]["wcd_us"] == 205
    assert doc["flows"][0]["sw_num"] == 3


def test_analyze_mechanism_mismatch_is_domain_error(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path, mechanism="CBS")
    res = runner.invoke(main, ["analyze", "--tc", str(tc_dir),
                               "--mechanism", "cqf",
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 1
    assert "error:" in res.stderr
    assert not (tmp_path / "x.json").exists()


def test_analyze_bad_config_number_is_domain_error(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path, mechanism="CBS")
    config = tc_dir / "case_config.json"
    doc = json.loads(config.read_text())
    doc["constants"]["link_rate"] = "abc"
    config.write_text(json.dumps(doc))
    res = runner.invoke(main, ["analyze", "--tc", str(tc_dir),
                               "--mechanism", "cbs",
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 1
    assert res.stderr.startswith("error: link_rate: not a rational quantity")
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("deadline", ["-5", "0"])
def test_analyze_non_positive_deadline_is_domain_error(runner, tmp_path,
                                                       deadline):
    tc_dir = chain_tc_dir(tmp_path, mechanism="CBS")
    flows = tc_dir / "case_flows.txt"
    fields = flows.read_text().strip().split(",")
    fields[4] = deadline
    flows.write_text(",".join(fields) + "\n")
    res = runner.invoke(main, ["analyze", "--tc", str(tc_dir),
                               "--mechanism", "cbs",
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ")
    assert "deadline must be > 0" in res.stderr
    assert not (tmp_path / "x.json").exists()


def test_usage_errors_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["analyze", "--tc", str(tmp_path)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["gen", "--manifest", "/nonexistent",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["unknown-subcommand"])
    assert res.exit_code == 2


def test_sim_writes_report(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path, mechanism="CBS")
    out = tmp_path / "sim.json"
    res = runner.invoke(main, ["sim", "--tc", str(tc_dir),
                               "--seed", "3", "--horizon", "20000",
                               "--out", str(out)])
    s = summary(res)
    assert s["seed"] == 3 and s["frames"] > 0
    doc = json.loads(out.read_text())
    assert doc["mechanism"] == "CBS"
    assert doc["horizon_us"] == 20000
    assert doc["flows"][0]["max_delay_us"] > 0


def test_sim_default_horizon(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path)
    out = tmp_path / "sim.json"
    res = runner.invoke(main, ["sim", "--tc", str(tc_dir),
                               "--out", str(out)])
    s = summary(res)
    assert s["release"] == "synchronized"
    assert json.loads(out.read_text())["horizon_us"] == 20000


def test_sim_short_horizon_is_domain_error(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path)
    res = runner.invoke(main, ["sim", "--tc", str(tc_dir),
                               "--horizon", "50",
                               "--out", str(tmp_path / "s.json")])
    assert res.exit_code == 1
    assert "error:" in res.stderr


def test_prompt_contains_template(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path, mechanism="CBS")
    out = tmp_path / "p.txt"
    res = runner.invoke(main, ["prompt", "--tc", str(tc_dir),
                               "--mechanism", "cbs", "--out", str(out)])
    assert summary(res)["bytes"] == len(out.read_bytes())
    text = out.read_text()
    assert "You are an expert Time-Sensitive Networking" in text
    assert "Only Credit-Based Shaper (CBS, IEEE 802.1Qav) is allowed" in text


def write_fixture_score_dirs(tmp_path):
    truth_dir = tmp_path / "truth"
    pred_dir = tmp_path / "pred"
    truth_dir.mkdir()
    pred_dir.mkdir()
    truths = {"TC1": {0: 200, 1: 150, 2: 500},
              "TC2": {0: 100, 1: 300},
              "TC3": {0: 400, 1: 250, 2: 600}}
    preds = {"TC1": {0: 212, 1: 180, 2: 490},
             "TC2": {0: 108, 1: 255},
             "TC3": {0: 420, 1: 265, 2: 600}}
    for name, flows in truths.items():
        (truth_dir / f"{name}_truth.json").write_text(json.dumps(
            {"testcase": name,
             "flows": [{"id": i, "wcd_us": w} for i, w in flows.items()]}))
    for name, flows in preds.items():
        (pred_dir / f"{name}_pred.json").write_text(json.dumps(
            {"testcase": name, "failure_mode": "ok",
             "flows": {str(i): {"wcd_us": w, "confidence": None}
                       for i, w in flows.items()}}))
    return truth_dir, pred_dir


def test_score_reproduces_fixture_mae(runner, tmp_path):
    truth_dir, pred_dir = write_fixture_score_dirs(tmp_path)
    out = tmp_path / "metrics.json"
    res = runner.invoke(main, ["score", "--truth-dir", str(truth_dir),
                               "--pred-dir", str(pred_dir),
                               "--out", str(out)])
    s = summary(res)
    assert s["overall_mae_us"] == 18.5
    assert s["scored"] == 3
    doc = json.loads(out.read_text())
    assert doc["open_ended"]["per_tc_mape"]["TC2"] == 11.5
    assert doc["open_ended"]["median_mae"] == pytest.approx(52 / 3)


def write_mcqa_inputs(tmp_path):
    items = tmp_path / "items.json"
    runs = tmp_path / "runs.jsonl"
    items.write_text(json.dumps([
        {"id": "q0", "question": "?", "options": ["a", "b"], "correct": 0},
        {"id": "q1", "question": "?", "options": ["a", "b"], "correct": 1},
    ]))
    runs.write_text(
        '{"id": "q0", "runs": [{"answer": "A", "confidence": 0.9}]}\n'
        '{"id": "q1", "runs": [{"answer": "A", "confidence": 0.6}]}\n')
    return items, runs


def test_score_mcqa_and_report_csv(runner, tmp_path):
    items, runs = write_mcqa_inputs(tmp_path)
    metrics = tmp_path / "metrics.json"
    res = runner.invoke(main, ["score-mcqa", "--items", str(items),
                               "--runs", str(runs), "--out", str(metrics)])
    s = summary(res)
    assert s["accuracy_percent"] == 50
    assert s["calibrated"] is True
    doc = json.loads(metrics.read_text())
    assert doc["mcqa"]["consistency"] == 1
    assert doc["calibration"]["cw_rate_percent"] == 0

    csv_out = tmp_path / "rel.csv"
    res = runner.invoke(main, ["report", "--metrics", str(metrics),
                               "--reliability-csv", str(csv_out)])
    assert summary(res)["bins"] == 10
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,n,conf_mean,acc"
    assert len(lines) == 11
    assert lines[7] == "0.6,0.7,1,0.6,0.0"          # the wrong answer
    assert lines[10] == "0.9,1,1,0.9,1.0"


def test_report_requires_calibration_section(runner, tmp_path):
    metrics = tmp_path / "m.json"
    metrics.write_text("{}")
    res = runner.invoke(main, ["report", "--metrics", str(metrics),
                               "--reliability-csv", str(tmp_path / "r.csv")])
    assert res.exit_code == 1


def assert_clean_domain_error(res, *fragments):
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ")
    for fragment in fragments:
        assert fragment in res.stderr
    assert "Traceback" not in res.stderr + res.stdout
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_gen_manifest_not_json_is_domain_error(runner, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{not json")
    res = runner.invoke(main, ["gen", "--manifest", str(manifest),
                               "--out", str(tmp_path / "out")])
    assert_clean_domain_error(res, str(manifest), "not valid JSON")


def test_gen_manifest_entry_without_spec_is_domain_error(runner, tmp_path):
    entry = testgen.default_manifest()[0]
    del entry["spec"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(testgen.manifest_to_json([entry]))
    res = runner.invoke(main, ["gen", "--manifest", str(manifest),
                               "--out", str(tmp_path / "out")])
    assert_clean_domain_error(res, "manifest entry 'TC1'", "'spec'")


def test_report_metrics_not_json_is_domain_error(runner, tmp_path):
    metrics = tmp_path / "m.json"
    metrics.write_text("[1, 2")
    res = runner.invoke(main, ["report", "--metrics", str(metrics),
                               "--reliability-csv", str(tmp_path / "r.csv")])
    assert_clean_domain_error(res, str(metrics), "not valid JSON")
    assert not (tmp_path / "r.csv").exists()


def test_config_file_supplies_defaults(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"seed": 9, "horizon": 30000}}))
    out = tmp_path / "s.json"
    res = runner.invoke(main, ["--config", str(cfg), "sim",
                               "--tc", str(tc_dir), "--out", str(out)])
    assert summary(res)["seed"] == 9
    assert json.loads(out.read_text())["horizon_us"] == 30000
    # explicit flag beats the config file
    res = runner.invoke(main, ["--config", str(cfg), "sim",
                               "--tc", str(tc_dir), "--seed", "2",
                               "--out", str(out)])
    assert summary(res)["seed"] == 2


@pytest.mark.parametrize("config, shown", [
    ({"gen": {"jobs": "many"}}, "gen.jobs must be an integer, got 'many'"),
    ({"gen": {"jobs": 2.5}}, "gen.jobs must be an integer, got 2.5"),
    ({"gen": {"jobs": True}}, "gen.jobs must be an integer, got True"),
    ({"gen": 3}, "config section 'gen' must be a JSON object"),
])
def test_gen_bad_config_value_is_usage_error(runner, tmp_path, config,
                                             shown):
    manifest = write_manifest(tmp_path, count=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = runner.invoke(main, ["--config", str(cfg), "gen", "--manifest",
                               str(manifest), "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert shown in res.stderr
    assert "Traceback" not in res.output
    assert not (tmp_path / "out").exists()


def test_sim_and_score_mcqa_bad_config_value_is_usage_error(runner,
                                                            tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"seed": 1.5},
                               "score-mcqa": {"bins": "10"}}))
    res = runner.invoke(main, ["--config", str(cfg), "sim",
                               "--tc", str(chain_tc_dir(tmp_path)),
                               "--out", str(tmp_path / "s.json")])
    assert res.exit_code == 2
    assert "sim.seed must be an integer, got 1.5" in res.stderr
    items, runs = write_mcqa_inputs(tmp_path)
    res = runner.invoke(main, ["--config", str(cfg), "score-mcqa",
                               "--items", str(items), "--runs", str(runs),
                               "--out", str(tmp_path / "m.json")])
    assert res.exit_code == 2
    assert "score-mcqa.bins must be an integer, got '10'" in res.stderr


def test_verbose_logs_to_stderr_only(runner, tmp_path):
    manifest = write_manifest(tmp_path, count=2)
    res = runner.invoke(main, ["-v", "gen", "--manifest", str(manifest),
                               "--out", str(tmp_path / "out")])
    assert summary(res)["testcases"] == 2           # stdout still one line
    assert "generating" in res.stderr
