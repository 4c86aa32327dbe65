"""End-to-end subcommand tests through CliRunner: exit codes, stdout
summary lines, file outputs, and flag/config precedence."""
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

import tsnwcd
from test_cbs import ring_tc
from tsnwcd import cbs, testgen
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


@pytest.mark.parametrize("cycle_T,fragment", [
    (60, "does not divide the period of flow"),   # TC7 cannot be built
    (10, "TC7: port node1_2->sw1: 8.88us"),       # TC7 cannot be analyzed
])
def test_gen_failing_entry_writes_nothing(runner, tmp_path, cycle_T,
                                          fragment):
    tc6, tc7 = testgen.default_manifest()[5:7]
    tc7["constants"]["cycle_T"] = cycle_T
    manifest = tmp_path / "manifest.json"
    manifest.write_text(testgen.manifest_to_json([tc6, tc7]))
    out, truth = tmp_path / "out", tmp_path / "truth"
    res = runner.invoke(main, ["gen", "--manifest", str(manifest),
                               "--out", str(out), "--truth-dir", str(truth)])
    assert_clean_domain_error(res, fragment)
    assert not out.exists() and not truth.exists()


def test_gen_entry_that_cannot_be_built_names_itself(runner, tmp_path):
    # TC3 is one switch with 8 end stations, 28 pairs: the error used to
    # name neither the entry nor the manifest
    tc3 = testgen.default_manifest()[2]
    tc3["spec"]["flow_count"] = 500
    manifest = tmp_path / "manifest.json"
    manifest.write_text(testgen.manifest_to_json([tc3]))
    out = tmp_path / "out"
    res = runner.invoke(main, ["gen", "--manifest", str(manifest),
                               "--out", str(out)])
    assert_clean_domain_error(
        res, "manifest entry 'TC3': cannot draw 500 distinct pairs")
    assert not out.exists()


def test_analyze_rejects_cqf_cycle_that_does_not_divide_a_period(runner,
                                                                 tmp_path):
    # es1-s1-s2-es2 with T = 60 and periods 100 and 75: the closed form
    # would print 184us for flow 0, which synchronized release exceeds
    tc_dir = tmp_path / "chain"
    tc_dir.mkdir()
    (tc_dir / "chain_topo.txt").write_text(
        "node,es1,es\nnode,es2,es\nnode,s1,sw\nnode,s2,sw\n"
        "link,es1,s1\nlink,s1,s2\nlink,s2,es2\n")
    (tc_dir / "chain_flows.txt").write_text(
        "0,es1,es2,100,5000,300\n1,es1,es2,75,5000,64\n")
    (tc_dir / "chain_route.txt").write_text(
        "0:es1>s1>s2>es2\n1:es1>s1>s2>es2\n")
    (tc_dir / "chain_config.json").write_text(
        '{"mechanism": "CQF", "constants": {"cycle_T": 60}}')
    out = tmp_path / "truth.json"
    res = runner.invoke(main, ["analyze", "--tc", str(tc_dir),
                               "--mechanism", "cqf", "--out", str(out)])
    assert_clean_domain_error(res, "flow 0 (100.0us)", "flow 1 (75.0us)")
    assert not out.exists()


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
    assert res.stderr.startswith(
        f"error: {config}: link_rate: not a rational quantity")
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


def test_analyze_evaluation_cap_is_domain_error(runner, tmp_path,
                                                monkeypatch):
    save_testcase(ring_tc(), tmp_path / "ring")
    monkeypatch.setattr(cbs, "MAX_ITERATIONS", 2)
    out = tmp_path / "x.json"
    res = runner.invoke(main, ["analyze", "--tc", str(tmp_path / "ring"),
                               "--mechanism", "cbs", "--out", str(out)])
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ring: port ")
    assert "still moving after 2 evaluations" in res.stderr
    assert not out.exists()


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


@pytest.mark.parametrize("name", ["TC14", "TC28"])
def test_verbose_sim_logs_the_cut_and_keeps_its_outputs(runner, tmp_path,
                                                         name):
    # One CBS and one CQF case, each with H = 5000us: -v adds one INFO line
    # on stderr and changes neither the report bytes nor the summary.
    out = tmp_path / "sim.json"
    args = ["sim", "--tc", str(CORPUS / name), "--release", "jittered",
            "--seed", "3", "--out", str(out)]
    quiet = runner.invoke(main, args)
    quiet_bytes = out.read_bytes()
    loud = runner.invoke(main, ["-v", *args])
    assert out.read_bytes() == quiet_bytes
    assert summary(loud) == summary(quiet)
    assert quiet.stderr == ""
    lines = loud.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"INFO tsnwcd: {name}: hypercycle 5000us, "
                               f"periodic from boundary ")
    assert lines[0].endswith(" hypercycles skipped")


def test_prompt_contains_template(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path, mechanism="CBS")
    out = tmp_path / "p.txt"
    res = runner.invoke(main, ["prompt", "--tc", str(tc_dir),
                               "--mechanism", "cbs", "--out", str(out)])
    assert summary(res)["bytes"] == len(out.read_bytes())
    text = out.read_text()
    assert "You are an expert Time-Sensitive Networking" in text
    assert "Only Credit-Based Shaper (CBS, IEEE 802.1Qav) is allowed" in text


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_prompt_bytes_do_not_depend_on_the_locale(tmp_path):
    # the prompt says "µs": run in a child interpreter under an ASCII
    # locale, the CLI must still write it as UTF-8
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env["PYTHONPATH"] = str(Path(tsnwcd.__file__).parents[1])
    outs = []
    for locale in ({"PYTHONUTF8": "1"},
                   {"LC_ALL": "C", "PYTHONUTF8": "0",
                    "PYTHONCOERCECLOCALE": "0"}):
        out = tmp_path / f"p{len(outs)}.txt"
        res = subprocess.run(
            [sys.executable, "-m", "tsnwcd.cli", "prompt", "--tc",
             str(CORPUS / "TC1"), "--mechanism", "cbs", "--out", str(out)],
            env={**env, **locale}, capture_output=True, timeout=120)
        assert res.returncode == 0, res.stderr.decode(errors="replace")
        outs.append(out.read_bytes())
    assert "µs".encode() in outs[0]
    assert outs[1] == outs[0]


@pytest.mark.parametrize("command", ["analyze", "sim", "prompt", "gen"])
def test_unwritable_out_is_domain_error(runner, tmp_path, command):
    if command == "gen":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "bundles"   # a directory below a file
        args = ["gen", "--manifest", str(write_manifest(tmp_path, 1))]
    else:
        out = tmp_path / "missing" / "out.txt"
        args = [command, "--tc", str(chain_tc_dir(tmp_path))]
        args += [] if command == "sim" else ["--mechanism", "cqf"]
    res = runner.invoke(main, args + ["--out", str(out)])
    assert_clean_domain_error(res, str(out))



@pytest.mark.parametrize("line,message", [
    ("link,sw1,sw1", "link sw1-sw1: self-loop"),
    ("link,node1_8,sw1", "duplicate link node1_8-sw1"),
])
def test_analyze_bad_topology_line_names_file_and_line(runner, tmp_path,
                                                       line, message):
    # appended to TC1's 17 topology lines
    tc_dir = tmp_path / "TC1"
    shutil.copytree(CORPUS / "TC1", tc_dir)
    topo = tc_dir / "TC1_topo.txt"
    topo.write_text(topo.read_text() + line + "\n")
    out = tmp_path / "x.json"
    res = runner.invoke(main, ["analyze", "--tc", str(tc_dir),
                               "--mechanism", "cbs", "--out", str(out)])
    assert_clean_domain_error(res)
    assert res.stderr == f"error: {topo}: line 18: {message}\n"
    assert not out.exists()

def reply(answer):
    """A model's raw reply: the answer object in a JSON block amid prose."""
    return ("Mapping each egress port first, then summing the delays.\n"
            f"```json\n{json.dumps(answer, indent=2)}\n```\n"
            "These bounds assume the worst-case alignment.\n")


def score_args(truth_dir, pred_dir, out):
    return ["score", "--truth-dir", str(truth_dir), "--pred-dir",
            str(pred_dir), "--out", str(out)]


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
        (pred_dir / f"{name}.txt").write_text(reply(
            {f"F{i}": {"wcd_us": w, "confidence": 0.5}
             for i, w in flows.items()}))
    return truth_dir, pred_dir


def test_score_reproduces_fixture_mae(runner, tmp_path):
    truth_dir, pred_dir = write_fixture_score_dirs(tmp_path)
    out = tmp_path / "metrics.json"
    s = summary(runner.invoke(main, score_args(truth_dir, pred_dir, out)))
    assert s["overall_mae_us"] == 18.5
    assert s["scored"] == 3
    doc = json.loads(out.read_text())
    assert doc["open_ended"]["per_tc_mape"]["TC2"] == 11.5
    assert doc["open_ended"]["median_mae"] == pytest.approx(52 / 3)


def test_prompt_reply_score_loop(runner, tmp_path):
    # the paper's loop offline: a prompt, a reply with prose around the
    # JSON block the prompt asks for, and the reply scored against analyze
    tc_dir = chain_tc_dir(tmp_path, mechanism="CBS")
    truth_dir, pred_dir = tmp_path / "truth", tmp_path / "replies"
    truth_dir.mkdir()
    pred_dir.mkdir()
    truth = truth_dir / "case_truth.json"
    summary(runner.invoke(main, ["analyze", "--tc", str(tc_dir),
                                 "--mechanism", "cbs", "--out", str(truth)]))
    prompt = tmp_path / "case_prompt.txt"
    summary(runner.invoke(main, ["prompt", "--tc", str(tc_dir),
                                 "--mechanism", "cbs", "--out", str(prompt)]))
    assert '"wcd_us": <number>' in prompt.read_text()
    rows = json.loads(truth.read_text())["flows"]
    (pred_dir / "case.txt").write_text(reply(
        {f"F{row['id']}": {"wcd_us": row["wcd_us"], "confidence": 0.9}
         for row in rows}))
    out = tmp_path / "metrics.json"
    s = summary(runner.invoke(main, score_args(truth_dir, pred_dir, out)))
    assert (s["testcases"], s["scored"], s["overall_mae_us"]) == (1, 1, 0)
    counts = json.loads(out.read_text())["open_ended"]["failure_counts"]
    assert counts["ok"] == 1


def test_score_classifies_replies_by_what_they_answer(runner, tmp_path):
    # a reply covering 1 of 3 flows is partial whatever it claims about
    # itself, and an empty reply is counted, not scored
    truth_dir, pred_dir = write_fixture_score_dirs(tmp_path)
    (pred_dir / "TC1.txt").write_text(
        '{"failure_mode": "ok", "flows": {"0": {"wcd_us": 212}}}')
    (pred_dir / "TC2.txt").write_text("")
    out = tmp_path / "metrics.json"
    s = summary(runner.invoke(main, score_args(truth_dir, pred_dir, out)))
    assert s["scored"] == 2
    assert "low_coverage" in s["flags"]
    doc = json.loads(out.read_text())["open_ended"]
    assert doc["per_tc_mae"] == pytest.approx({"TC1": 12, "TC3": 35 / 3})
    counts = doc["failure_counts"]
    assert (counts["ok"], counts["partial"], counts["empty"]) == (1, 1, 1)


CORPUS_TRUTH = CORPUS / "truth"


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("replies, scored, mae, mae_stddev", [
    # a number no float can hold is no answer: TC1 answers one flow of six
    ({"TC1": '{"F0": 5, "F1": 1e999}'}, 1, F("275.69015750837434"), 0),
    # one answer of 1e200 spreads the two test cases' MAEs beyond what a
    # float variance can hold
    ({"TC1": '{"F0": 1e200}', "TC2": '{"F0": 100}'}, 2, None, F(10**200, 2)),
], ids=["beyond-float-range", "huge-spread"])
def test_score_survives_extreme_numbers(runner, tmp_path, replies, scored,
                                        mae, mae_stddev):
    pred_dir = tmp_path / "replies"
    pred_dir.mkdir()
    for name, text in replies.items():
        (pred_dir / f"{name}.txt").write_text(text)
    out = tmp_path / "metrics.json"
    s = summary(runner.invoke(main, score_args(CORPUS_TRUTH, pred_dir, out)))
    assert s["scored"] == scored
    doc = strict_json(out.read_text())["open_ended"]
    if mae is not None:
        assert doc["overall_mae"] == float(mae)
    assert doc["overall_mae_stddev"] == pytest.approx(float(mae_stddev))


def test_score_writes_a_mape_beyond_float_range(runner, tmp_path):
    # an answer a float holds, over a truth of 30 us, makes a MAPE no float
    # holds: it is written as its nearest int, and so are the mean and the
    # spread of it and a zero MAPE, in strict JSON
    truth_dir, pred_dir = tmp_path / "truth", tmp_path / "replies"
    truth_dir.mkdir()
    pred_dir.mkdir()
    for name in ("X", "Y"):
        (truth_dir / f"{name}_truth.json").write_text(json.dumps(
            {"testcase": name, "flows": [{"id": 0, "wcd_us": 30}]}))
    (pred_dir / "X.txt").write_text('{"F0": 1.7e308}')
    out = tmp_path / "metrics.json"
    s = summary(runner.invoke(main, score_args(truth_dir, pred_dir, out)))
    assert s["scored"] == 1
    assert s["overall_mae_us"] == 17 * 10**307 - 30
    mape = round((17 * 10**307 - 30) * F(100, 30))
    doc = strict_json(out.read_text())["open_ended"]
    assert doc["per_tc_mape"] == {"X": mape}
    assert doc["overall_mape"] == mape
    assert doc["overall_mape_stddev"] == 0.0
    (pred_dir / "Y.txt").write_text('{"F0": 30}')
    s = summary(runner.invoke(main, score_args(truth_dir, pred_dir, out)))
    assert s["scored"] == 2
    doc = strict_json(out.read_text())["open_ended"]
    assert doc["per_tc_mape"] == {"X": mape, "Y": 0}
    assert abs(doc["overall_mape"] - mape // 2) <= 1
    assert abs(doc["overall_mape_stddev"] - mape // 2) <= 1


def test_score_keeps_a_negative_answer(runner, tmp_path):
    # a negative delay is scored as given: its error exceeds the truth, so
    # it scores worse than answering 0 and never escapes that penalty
    near = {"F1": 437, "F2": 465, "F3": 423, "F4": 522, "F5": 529}
    maes = []
    for f0 in (-280, 0):
        pred_dir = tmp_path / f"replies{f0}"
        pred_dir.mkdir()
        (pred_dir / "TC1.txt").write_text(reply({"F0": f0, **near}))
        s = summary(runner.invoke(main, score_args(
            CORPUS_TRUTH, pred_dir, tmp_path / f"metrics{f0}.json")))
        assert s["scored"] == 1
        maes.append(s["overall_mae_us"])
    assert round(maes[0], 1) == 93.8
    assert maes[0] - maes[1] == pytest.approx(280 / 6)


@pytest.mark.parametrize("files, fragment", [
    ({}, "no reply files (*.txt) in"),
    ({"TC1_pred.json": '{"testcase": "TC1", "flows": {"0": 200}}'},
     "no reply files (*.txt) in"),
    ({"TC9.txt": '{"F0": 1}'}, "no ground truth for TC9"),
    ({"TC1.txt": None}, "TC1.txt: Is a directory"),
], ids=["no-files", "json-prediction-file", "reply-without-truth",
        "reply-is-a-directory"])
def test_score_reply_files_are_domain_errors(runner, tmp_path, files,
                                             fragment):
    truth_dir, pred_dir = write_fixture_score_dirs(tmp_path)
    for path in pred_dir.iterdir():
        path.unlink()
    for name, text in files.items():
        if text is None:
            (pred_dir / name).mkdir()
        else:
            (pred_dir / name).write_text(text)
    out = tmp_path / "metrics.json"
    res = runner.invoke(main, score_args(truth_dir, pred_dir, out))
    assert_clean_domain_error(res, fragment)
    assert not out.exists()


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


@pytest.mark.parametrize("flag, config", [
    (["--bins", "0"], {}),
    (["--bins", "-3"], {}),
    ([], {"score-mcqa": {"bins": 0}}),
])
def test_score_mcqa_bins_below_one_is_usage_error(runner, tmp_path, flag,
                                                  config):
    items, runs = write_mcqa_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "m.json"
    res = runner.invoke(main, ["--config", str(cfg), "score-mcqa",
                               "--items", str(items), "--runs", str(runs),
                               "--out", str(out), *flag])
    assert res.exit_code == 2
    assert "--bins must be >= 1" in res.stderr
    assert not out.exists()


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


def test_gen_manifest_testcases_not_a_list_is_domain_error(runner, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"testcases": 5}')
    out = tmp_path / "out"
    res = runner.invoke(main, ["gen", "--manifest", str(manifest),
                               "--out", str(out)])
    assert_clean_domain_error(res, str(manifest),
                              "testcases must be a list, got int")
    assert not out.exists()


def test_gen_manifest_repeated_name_is_domain_error(runner, tmp_path):
    # two entries with one name would write one bundle from two threads
    entry = testgen.default_manifest()[0]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(testgen.manifest_to_json([entry, entry]))
    out, truth = tmp_path / "out", tmp_path / "truth"
    res = runner.invoke(main, ["gen", "--manifest", str(manifest),
                               "--out", str(out), "--truth-dir", str(truth)])
    assert_clean_domain_error(res, str(manifest), "'TC1' appears twice")
    assert not out.exists() and not truth.exists()


def test_gen_manifest_name_not_a_string_is_domain_error(runner, tmp_path):
    entry = testgen.default_manifest()[0]
    entry["name"] = 5
    manifest = tmp_path / "manifest.json"
    manifest.write_text(testgen.manifest_to_json([entry]))
    res = runner.invoke(main, ["gen", "--manifest", str(manifest),
                               "--out", str(tmp_path / "out")])
    assert_clean_domain_error(res, "manifest entry 5", "name must be a string")


@pytest.mark.parametrize("name", ["../escaped", "", ".", "..", "a/b",
                                  "a\\b"])
def test_gen_manifest_name_not_one_path_component_is_domain_error(
        runner, tmp_path, name):
    entry = testgen.default_manifest()[0]
    entry["name"] = name
    manifest = tmp_path / "manifest.json"
    manifest.write_text(testgen.manifest_to_json([entry]))
    work = tmp_path / "work"
    res = runner.invoke(main, ["gen", "--manifest", str(manifest),
                               "--out", str(work / "out"),
                               "--truth-dir", str(work / "truth")])
    assert_clean_domain_error(res, str(manifest),
                              f"manifest entry {name!r}",
                              "one plain path component")
    assert not work.exists()


def test_analyze_bundle_parse_error_names_the_file(runner, tmp_path):
    tc_dir = chain_tc_dir(tmp_path, mechanism="CBS")
    flows = tc_dir / "case_flows.txt"
    flows.write_text("0,es1,es2\n")
    res = runner.invoke(main, ["analyze", "--tc", str(tc_dir),
                               "--mechanism", "cbs",
                               "--out", str(tmp_path / "x.json")])
    assert_clean_domain_error(res, f"error: {flows}: line 1: flow line")


def non_utf8_input(tmp_path, command):
    """(arguments, file) for command with that file made not UTF-8."""
    if command == "analyze":
        tc_dir = chain_tc_dir(tmp_path, mechanism="CBS")
        path = tc_dir / "case_flows.txt"
        args = ["analyze", "--tc", str(tc_dir), "--mechanism", "cbs"]
    elif command == "score":
        truth_dir, pred_dir = write_fixture_score_dirs(tmp_path)
        path = truth_dir / "TC2_truth.json"
        args = ["score", "--truth-dir", str(truth_dir),
                "--pred-dir", str(pred_dir)]
    else:
        path = write_manifest(tmp_path, count=1)
        args = ["gen", "--manifest", str(path)]
    path.write_bytes(b"\xff" + path.read_bytes())
    return args, path


@pytest.mark.parametrize("command", ["analyze", "score", "gen"])
def test_input_not_utf8_is_domain_error(runner, tmp_path, command):
    args, path = non_utf8_input(tmp_path, command)
    out = tmp_path / "out"
    res = runner.invoke(main, args + ["--out", str(out)])
    assert_clean_domain_error(res, f"error: {path}: not UTF-8 text")
    assert not out.exists()


def test_report_metrics_not_json_is_domain_error(runner, tmp_path):
    metrics = tmp_path / "m.json"
    metrics.write_text("[1, 2")
    res = runner.invoke(main, ["report", "--metrics", str(metrics),
                               "--reliability-csv", str(tmp_path / "r.csv")])
    assert_clean_domain_error(res, str(metrics), "not valid JSON")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command, name, text, fragment", [
    ("score", "truth/TC2_truth.json", "[1, 2", "JSONDecodeError"),
    ("score-mcqa", "items.json",
     '[{"id": "q0", "options": ["a", "b"], "correct": 0}]',
     "KeyError('question')"),
    ("score-mcqa", "runs.jsonl",
     '{"id": "q0", "runs": [{"answer": "A"}]}\n{"id": "q1", "runs"\n',
     "line 2"),
], ids=["truth-not-json", "item-without-question", "runs-line-not-json"])
def test_score_malformed_file_is_domain_error(runner, tmp_path, command,
                                              name, text, fragment):
    truth_dir, pred_dir = write_fixture_score_dirs(tmp_path)
    items, runs = write_mcqa_inputs(tmp_path)
    (tmp_path / name).write_text(text)
    out = tmp_path / "metrics.json"
    args = (["score", "--truth-dir", str(truth_dir),
             "--pred-dir", str(pred_dir)] if command == "score" else
            ["score-mcqa", "--items", str(items), "--runs", str(runs)])
    res = runner.invoke(main, args + ["--out", str(out)])
    assert_clean_domain_error(res, str(tmp_path / name), fragment)
    assert not out.exists()


def test_score_two_truth_files_for_one_testcase_is_domain_error(runner,
                                                                 tmp_path):
    # B_truth.json names TC1 again with doubled bounds; it used to replace
    # A_truth.json silently, scoring a prediction equal to A at MAE 443.
    truth_dir, pred_dir = tmp_path / "truth", tmp_path / "pred"
    truth_dir.mkdir()
    pred_dir.mkdir()
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    doc = json.loads((corpus / "truth" / "TC1_truth.json").read_text())
    (truth_dir / "A_truth.json").write_text(json.dumps(doc))
    (pred_dir / "TC1.txt").write_text(reply(
        {f"F{row['id']}": row["wcd_us"] for row in doc["flows"]}))
    for row in doc["flows"]:
        row["wcd_us"] *= 2
    (truth_dir / "B_truth.json").write_text(json.dumps(doc))
    out = tmp_path / "metrics.json"
    res = runner.invoke(main, score_args(truth_dir, pred_dir, out))
    assert_clean_domain_error(res, "'TC1'", str(truth_dir / "A_truth.json"),
                              str(truth_dir / "B_truth.json"))
    assert not out.exists()


@pytest.mark.parametrize("field, raw", [
    ("switch_count", "3.0"), ("switch_count", "1e400"),
    ("hosts_per_switch", "3.0"), ("hosts_per_switch", "2.5"),
    ("hosts_per_switch", "1e400"), ("flow_count", "3.0"),
    ("flow_count", "2.5"), ("flow_count", "true"),
    ("period_choices", '"a"'), ("period_choices", '{"a": 1}'),
    ("period_choices", '["a", "b"]'), ("payload_range", "[1.5, 2.5]"),
    ("deadline_range", "[1.5, 2.5]"),
    ("period_choices", "[true]"), ("period_choices", "[1e400]"),
    ("testcase", '["TC2"]'), ("testcase", "5"), ("id", "1.5"),
    ("id", "true"), ("correct", "1.5"), ("correct", "true"),
    ("seed", "8100.0"), ("seed", "true"), ("seed", '"x"'),
    ("wcd_us", "true"), ("wcd_us", '"250"'), ("id", "1"),
])
def test_wrong_type_in_manifest_spec_truth_or_item_is_domain_error(
        runner, tmp_path, field, raw):
    # each used to end in a traceback from range, Fraction or randrange, or
    # to be taken as another value: true as 1, a truth's id 1.5 as flow 1,
    # an item's correct 1.5 as option 1, a truth's wcd_us "250" as 250, a
    # seed 8100.0 as another case than 8100; a truth's id 1 repeats flow
    # 1's, and its second row (300) replaced the first (100)
    out = tmp_path / "out"
    if field == "correct":
        path, runs = write_mcqa_inputs(tmp_path)
        doc = json.loads(path.read_text())
        doc[1][field] = "@"
        path.write_text(json.dumps(doc).replace('"@"', raw))
        args = ["score-mcqa", "--items", str(path), "--runs", str(runs),
                "--out", str(out)]
        where = str(path)
    elif field in ("testcase", "id", "wcd_us"):
        truth_dir, pred_dir = write_fixture_score_dirs(tmp_path)
        path = truth_dir / "TC2_truth.json"
        doc = json.loads(path.read_text())
        (doc if field == "testcase" else doc["flows"][0])[field] = "@"
        path.write_text(json.dumps(doc).replace('"@"', raw))
        args, where = score_args(truth_dir, pred_dir, out), str(path)
    else:
        entry = testgen.default_manifest()[10]    # TC11, a ring
        entry["spec"][field] = "@"
        path = tmp_path / "manifest.json"
        path.write_text(testgen.manifest_to_json([entry]).replace('"@"', raw))
        args = ["gen", "--manifest", str(path), "--out", str(out)]
        where = "manifest entry 'TC11'"
    res = runner.invoke(main, args)
    assert_clean_domain_error(res, where, field)
    assert not out.exists()


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
    ({"gen": {"jobs": 0}}, "--jobs must be >= 1"),
    ({"gen": {"truth_dir": 5}}, "gen.truth_dir must be a string, got 5"),
    ({"gen": {"truth_dir": ["a"]}},
     "gen.truth_dir must be a string, got ['a']"),
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
