"""Command-line entry point.

Every subcommand writes only to its declared output paths and prints a
single JSON summary line to stdout; logs go to stderr. Exit codes: 0 on
success, 1 for domain errors (validation, instability, capacity), 2 for
usage errors.

Flag values resolve in order: command line, then the --config JSON file
(keyed by subcommand), then built-in defaults.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from . import cbs, cqf, evalharness, netmodel, sim, testgen
from .errors import ParseError, ToolkitError, ValidationError

log = logging.getLogger("tsnwcd")

_LEVELS = (logging.WARNING, logging.INFO, logging.DEBUG)


@click.group()
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False),
              help="JSON file with per-subcommand flag defaults.")
@click.option("-v", "--verbose", count=True,
              help="Repeat for more stderr logging.")
@click.pass_context
def main(ctx, config_path, verbose):
    """Worst-case delay toolkit for TSN networks."""
    logging.basicConfig(
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s",
        level=_LEVELS[min(verbose, len(_LEVELS) - 1)], force=True)
    ctx.obj = {}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                ctx.obj = json.load(fh)
            except ValueError as exc:
                raise click.UsageError(f"bad config file: {exc}")
        if not isinstance(ctx.obj, dict):
            raise click.UsageError("config file must hold a JSON object")


def _setting(ctx, command, key, flag_value, default):
    """flag > config file > built-in default"""
    if flag_value is not None:
        return flag_value
    section = ctx.obj.get(command, {}) if ctx.obj else {}
    if not isinstance(section, dict):
        raise click.UsageError(
            f"config section {command!r} must be a JSON object")
    return section.get(key, default)


def _int_setting(ctx, command, key, flag_value, default):
    """_setting for an integer flag: a config value must be a JSON int,
    neither a bool nor a float, so nothing is truncated or coerced."""
    value = _setting(ctx, command, key, flag_value, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise click.UsageError(
            f"config {command}.{key} must be an integer, got {value!r}")
    return value


def _count_setting(ctx, command, key, flag_value, default):
    """_int_setting for a count flag, which must be at least 1."""
    value = _int_setting(ctx, command, key, flag_value, default)
    if value < 1:
        raise click.UsageError(f"--{key} must be >= 1")
    return value


def _emit(summary: dict) -> None:
    click.echo(json.dumps(summary, sort_keys=True))


def _domain(fn):
    """fn(); a domain error, or an OSError such as an output directory
    that cannot be made, ends in its message on stderr and exit code 1."""
    try:
        return fn()
    except (ToolkitError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)


def _solve_text(tc: netmodel.TestCase) -> str:
    if tc.mechanism == netmodel.CBS:
        return cbs.report_to_json(cbs.tfa_solve(tc))
    return cqf.report_to_json(cqf.solve(tc))


_MECH_CHOICE = click.Choice(["cbs", "cqf"], case_sensitive=False)


@main.command()
@click.option("--manifest", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--truth-dir", type=click.Path(file_okay=False),
              help="Also analyze each generated case into this directory.")
@click.option("--jobs", type=int, default=None,
              help="Worker threads; they overlap file writes only, since "
                   "generation and analysis are pure Python. Defaults to "
                   "os.cpu_count(), every CPU of the machine, including "
                   "any this process may not run on.")
@click.pass_context
def gen(ctx, manifest, out_dir, truth_dir, jobs):
    """Generate test-case bundles from a manifest; nothing is written
    unless every entry builds and, with --truth-dir, analyzes."""
    def body():
        n_jobs = _count_setting(ctx, "gen", "jobs", jobs,
                                os.cpu_count() or 1)
        truth_out = _setting(ctx, "gen", "truth_dir", truth_dir, None)
        if truth_out is not None and not isinstance(truth_out, str):
            raise click.UsageError(
                f"config gen.truth_dir must be a string, got {truth_out!r}")
        entries = netmodel.parse_file(manifest, testgen.parse_manifest)
        log.info("generating %d test cases with %d jobs",
                 len(entries), n_jobs)
        tcs = [testgen.testcase_from_entry(entry) for entry in entries]
        truths = [_solve_text(tc) if truth_out else None for tc in tcs]

        def write(tc, truth):
            testgen.emit_testcase(tc, out_dir)
            if truth is not None:
                netmodel.write_file(Path(truth_out) / f"{tc.name}_truth.json",
                                    truth)

        Path(out_dir).mkdir(parents=True, exist_ok=True)
        if truth_out:
            Path(truth_out).mkdir(parents=True, exist_ok=True)
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            list(pool.map(write, tcs, truths))
        return {"command": "gen", "testcases": len(tcs),
                "out": str(out_dir),
                "truth": str(truth_out) if truth_out else None}

    _emit(_domain(body))


@main.command()
@click.option("--tc", "tc_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--mechanism", required=True, type=_MECH_CHOICE)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def analyze(tc_dir, mechanism, out_path):
    """Compute worst-case delay bounds for one test-case bundle."""
    def body():
        tc = netmodel.load_testcase(tc_dir)
        tc.require(mechanism.upper())
        text = _solve_text(tc)
        netmodel.write_file(out_path, text)
        return {"command": "analyze", "testcase": tc.name,
                "mechanism": tc.mechanism, "flows": len(tc.flows),
                "out": str(out_path)}

    _emit(_domain(body))


@main.command("sim")
@click.option("--tc", "tc_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--seed", type=int, default=None, help="RNG seed (default 0).")
@click.option("--horizon", type=str, default=None,
              help="Length of the simulated window in us "
                   "(default 20x the largest period).")
@click.option("--release", "release_policy",
              type=click.Choice([sim.RELEASE_SYNCHRONIZED,
                                 sim.RELEASE_JITTERED]),
              default=None, help="Flow release phasing (default synchronized).")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_context
def sim_cmd(ctx, tc_dir, seed, horizon, release_policy, out_path):
    """Replay one test case through the event-driven shaper simulator."""
    def body():
        tc = netmodel.load_testcase(tc_dir)
        seed_v = _int_setting(ctx, "sim", "seed", seed, 0)
        policy = _setting(ctx, "sim", "release", release_policy,
                          sim.RELEASE_SYNCHRONIZED)
        horizon_v = _setting(ctx, "sim", "horizon", horizon, None)
        if horizon_v is None:
            if not tc.flows:
                raise ValidationError(f"{tc.name} has no flows to simulate")
            horizon_v = 20 * max(f.period for f in tc.flows)
        cfg = sim.SimConfig(horizon=netmodel.frac(horizon_v), seed=seed_v,
                            release_policy=policy)
        report = (sim.simulate_cbs(tc, cfg) if tc.mechanism == netmodel.CBS
                  else sim.simulate_cqf(tc, cfg))
        log.info("%s: hypercycle %gus, periodic from boundary %s, "
                 "%d hypercycles skipped", tc.name,
                 cqf.hypercycle(tc.flows), report.periodic_from,
                 report.hypercycles_skipped)
        netmodel.write_file(out_path, sim.report_to_json(report))
        frames = sum(report.per_flow_frame_count.values())
        return {"command": "sim", "testcase": tc.name, "seed": seed_v,
                "release": policy, "frames": frames, "out": str(out_path)}

    _emit(_domain(body))


@main.command()
@click.option("--tc", "tc_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--mechanism", required=True, type=_MECH_CHOICE)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def prompt(tc_dir, mechanism, out_path):
    """Render the open-ended question prompt for one test case."""
    def body():
        tc = netmodel.load_testcase(tc_dir)
        text = evalharness.build_open_prompt(tc, mechanism.upper())
        netmodel.write_file(out_path, text)
        return {"command": "prompt", "testcase": tc.name,
                "mechanism": tc.mechanism, "bytes": len(text.encode()),
                "out": str(out_path)}

    _emit(_domain(body))


@main.command()
@click.option("--truth-dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--pred-dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def score(truth_dir, pred_dir, out_path):
    """Score a model's raw replies, one <testcase>.txt each, against truth."""
    def body():
        truths, source = {}, {}
        for path in sorted(Path(truth_dir).glob("*_truth.json")):
            name, flows = netmodel.parse_file(path,
                                              evalharness.truth_from_json)
            if name in truths:
                raise ValidationError(
                    f"test case {name!r} has two truth files: "
                    f"{source[name]} and {path}")
            truths[name], source[name] = flows, path
        # score_open rejects a reply whose test case has no truth
        preds = [evalharness.parse_prediction(netmodel.parse_file(path),
                                              path.stem,
                                              truths.get(path.stem, ()))
                 for path in sorted(Path(pred_dir).glob("*.txt"))]
        if not preds:
            raise ValidationError(f"no reply files (*.txt) in {pred_dir}")
        open_score = evalharness.score_open(preds, truths)
        netmodel.write_file(
            out_path, evalharness.metrics_to_json(open_ended=open_score))
        mae = open_score.overall_mae
        return {"command": "score", "testcases": len(preds),
                "scored": open_score.scored_testcases,
                "overall_mae_us": None if mae is None else netmodel.json_num(mae),
                "flags": list(open_score.suppression_flags),
                "out": str(out_path)}

    _emit(_domain(body))


@main.command("score-mcqa")
@click.option("--items", "items_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--runs", "runs_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--bins", type=int, default=None,
              help="Calibration bin count (default 10).")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_context
def score_mcqa(ctx, items_path, runs_path, bins, out_path):
    """Score multiple-choice answers: accuracy, consistency, calibration."""
    def body():
        bin_count = _count_setting(ctx, "score-mcqa", "bins", bins,
                                   evalharness.DEFAULT_BIN_COUNT)
        items = netmodel.parse_file(items_path,
                                    evalharness.mcq_items_from_json)
        records = netmodel.parse_file(runs_path,
                                      evalharness.run_records_from_jsonl)
        mcqa = evalharness.score_mcqa(items, records)
        try:
            calib = evalharness.calibration(items, records, bin_count)
        except ValidationError as exc:
            log.warning("calibration skipped: %s", exc)
            calib = None
        netmodel.write_file(
            out_path, evalharness.metrics_to_json(mcqa=mcqa, calib=calib))
        acc = mcqa.accuracy
        return {"command": "score-mcqa", "items": len(items),
                "answered": mcqa.answered_items,
                "accuracy_percent":
                    None if acc is None else netmodel.json_num(acc),
                "calibrated": calib is not None,
                "out": str(out_path)}

    _emit(_domain(body))


@main.command()
@click.option("--metrics", "metrics_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--reliability-csv", "csv_path", required=True,
              type=click.Path(dir_okay=False))
def report(metrics_path, csv_path):
    """Export the reliability-bin table of a metrics file as CSV."""
    def body():
        try:
            doc = json.loads(netmodel.parse_file(metrics_path))
        except ValueError as exc:
            raise ParseError(f"{metrics_path}: not valid JSON: {exc}") from exc
        cal = doc.get("calibration") if isinstance(doc, dict) else None
        if not cal:
            raise ValidationError(
                f"{metrics_path} has no calibration section")
        netmodel.write_file(csv_path, evalharness.reliability_to_csv(
            evalharness.calibration_from_json(cal)))
        return {"command": "report", "bins": len(cal["bins"]),
                "ece": cal["ece"], "out": str(csv_path)}

    _emit(_domain(body))


if __name__ == "__main__":
    main()
