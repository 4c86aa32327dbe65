"""tsnwcd benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of the same checkout, sets the workload
up from ``--seed``, then runs whole cases in a closed loop on one thread
until ``--seconds`` have passed and at least one full pass over the
workload's cases is done.  The set-up is repeated between cases and
``setup_s`` is its median.  Every case is checked.  With ``--trace 1``
every case runs once untraced and once traced, and the per-layer metrics
come from the traced runs.  The last line of standard output is the result
object; the line before it carries run metadata, the determinism record and
(traced) the span table.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from importlib import import_module
from pathlib import Path
from time import perf_counter

import workloads
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("testgen", "netmodel", "cbs", "minplus", "cqf", "sim")
# set-ups take about this share of an untraced run's wall time, and there
# are at least SETUP_MIN_REPEATS of them; setup_s is their median
SETUP_SHARE = 0.1
SETUP_MIN_REPEATS = 5
TAIL_BEYOND = 10


class BenchError(Exception):
    """The checkout cannot run the benchmark."""


def load_api():
    src = ROOT / "src"
    for needed in (src / "tsnwcd" / "__init__.py",
                   ROOT / "corpus" / "manifest.json"):
        if not needed.is_file():
            raise BenchError(f"missing {needed.relative_to(ROOT)}")
    sys.path.insert(0, str(src))
    api = {m: import_module(f"tsnwcd.{m}") for m in MODULES}
    where = Path(api["cbs"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise BenchError(f"tsnwcd imported from {where}, not from {src}")
    return api


def commit_id():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_info():
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit_id()}


def run_pass(api, wl, cases, workdir, case_ms, stop, after_case):
    """One untraced pass over the cases, appending each case's host
    milliseconds to case_ms; returns (tally, complete)."""
    tally = workloads.Tally()
    for i, case in enumerate(cases):
        t0 = perf_counter()
        wl.run(api, case, tally, workdir)
        case_ms.append((perf_counter() - t0) * 1e3)
        after_case()
        if i + 1 < len(cases) and stop():
            return tally, False
    return tally, True


class Run:
    """Accumulates the passes of one benchmark run."""

    def __init__(self):
        self.total = workloads.Tally()
        self.first = None                 # tally of the first complete pass
        self.passes = 0
        self.frames = 0                   # simulated frames, all passes

    def add(self, tally, complete):
        self.total.merge(tally)
        self.frames += tally.counts.get("sim.frames", 0)
        if not complete:
            return
        self.passes += 1
        if self.first is None:
            self.first = tally
        else:
            self.total.check(tally.record() == self.first.record(),
                             "a pass did not repeat the first pass's report "
                             "digests and counts")


def measure_untraced(api, wl, args, workdir, meta):
    setup_s = []

    def set_up():
        t0 = perf_counter()
        cases = wl.setup(api, ROOT, args.seed)
        setup_s.append(perf_counter() - t0)
        return cases

    cases = set_up()
    gc.collect()
    run, case_ms = Run(), []
    t_start = perf_counter()

    def stop():
        return run.first is not None and perf_counter() - t_start >= args.seconds

    def after_case():
        # the set-up is repeated between cases all through the run, so that
        # its median samples the machine's varying speed as the cases do
        if sum(setup_s) < SETUP_SHARE * (perf_counter() - t_start):
            set_up()

    while run.first is None or not stop():
        run.add(*run_pass(api, wl, cases, workdir, case_ms, stop, after_case))
    while len(setup_s) < SETUP_MIN_REPEATS:
        set_up()

    body_s = sum(case_ms) / 1e3
    ordered = sorted(case_ms)
    n = len(ordered)
    tail_idx = max(n - 1 - TAIL_BEYOND, 0)
    meta.update(setup_runs=len(setup_s), case_samples=n, body_s=body_s,
                case_ms_tail_percentile=100.0 * (tail_idx + 1) / n,
                case_ms_tail_beyond=n - 1 - tail_idx,
                sim_frames_per_s=run.frames / body_s)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "cases_per_s": (n / body_s, "1/s"),
        "case_ms_p50": (statistics.median(ordered), "ms"),
        "case_ms_tail": (ordered[tail_idx], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return run, cases, metrics


def measure_traced(api, wl, args, workdir, meta):
    cases = wl.setup(api, ROOT, args.seed)
    setup_tracer = Tracer()
    with setup_tracer.installed(api):
        setup_tracer.span("bench.setup", wl.setup, api, ROOT, args.seed)
    gc.collect()

    # every case runs twice in a row, once untraced and once traced, the
    # order alternating from case to case, so that the machine's speed
    # drifting during the run does not read as tracing overhead
    run, tracers = Run(), []
    untraced_s = traced_s = 0.0
    t_start = perf_counter()
    while run.first is None or perf_counter() - t_start < args.seconds:
        tracer, plain, traced = Tracer(), workloads.Tally(), workloads.Tally()
        for i, case in enumerate(cases):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                t0 = perf_counter()
                if with_trace:
                    with tracer.installed(api):
                        tracer.span("bench.case", wl.run, api, case, traced,
                                    workdir)
                    traced_s += perf_counter() - t0
                else:
                    wl.run(api, case, plain, workdir)
                    untraced_s += perf_counter() - t0
        run.add(plain, True)
        run.add(traced, True)
        tracers.append(tracer)

    counts = [pass_counts(t) for t in tracers]
    run.total.check(all(c == counts[0] for c in counts),
                    "traced passes disagree on call counts")
    meta["spans"] = setup_tracer.edge_table() + tracers[0].edge_table()
    meta["traced_passes"] = len(tracers)
    metrics = layer_metrics(setup_tracer, tracers, run.first)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    metrics["sim_frames_per_s"] = (
        run.first.counts.get("sim.frames", 0) * len(tracers) / untraced_s,
        "1/s")
    return run, cases, metrics


def pass_counts(tracer):
    return {key: v[0] for key, v in tracer.edges.items()}, (
        tracer.heap.pushes, tracer.heap.pops)


def layer_metrics(setup_tracer, tracers, first):
    """Per-layer numbers for one traced set-up plus one traced pass; times
    are averaged over the traced passes, counts repeat exactly."""
    k = len(tracers)

    def per_pass(fn):
        return fn(setup_tracer) + sum(fn(t) for t in tracers) / k

    def calls(name):
        return setup_tracer.calls(name) + tracers[0].calls(name)

    def total(name):
        return per_pass(lambda t: t.total_s(name))

    heap = tracers[0].heap
    push_s = sum(t.heap.push_s for t in tracers) / k
    c = first.counts
    m = {f"{layer}.self_s": (per_pass(lambda t, l=layer: t.layer_self_s(l)),
                             "s") for layer in LAYERS}
    m.update({
        "sim.cbs_s": (total("sim.simulate_cbs"), "s"),
        "sim.cqf_s": (total("sim.simulate_cqf"), "s"),
        "sim.runs": (c.get("sim.runs", 0), "count"),
        "sim.frames": (c.get("sim.frames", 0), "count"),
        "sim.frame_hops": (c.get("sim.frame_hops", 0), "count"),
        "sim.heap_pushes": (heap.pushes, "count"),
        "sim.heap_pops": (heap.pops, "count"),
        "sim.us_per_heap_push": (
            push_s / heap.pushes * 1e6 if heap.pushes else 0.0, "us"),
        "sim.report_json_s": (total("sim.report_to_json"), "s"),
        "cbs.tfa_s": (total("cbs.tfa_solve"), "s"),
        "cbs.tfa_calls": (calls("cbs.tfa_solve"), "count"),
        "cbs.sweeps": (c.get("cbs.sweeps", 0), "count"),
        "cbs.ports": (c.get("cbs.ports", 0), "count"),
        "cbs.port_evals": (c.get("cbs.port_evals", 0), "count"),
        "cbs.cyclic_cases": (c.get("cbs.cyclic_cases", 0), "count"),
        "cbs.aggregate_s": (per_pass(
            lambda t: t.self_s("cbs.aggregate_arrival")), "s"),
        "cbs.report_json_s": (total("cbs.report_to_json"), "s"),
    })
    for op in ("sum_of", "min_of", "h_dev", "shift_delay"):
        m[f"minplus.{op}_calls"] = (calls(f"minplus.{op}"), "count")
        m[f"minplus.{op}_s"] = (total(f"minplus.{op}"), "s")
    m.update({
        "minplus.arrival_segments": (
            c.get("minplus.arrival_segments", 0), "count"),
        "netmodel.load_s": (total("netmodel.load_testcase"), "s"),
        "netmodel.save_s": (total("netmodel.save_testcase"), "s"),
        "netmodel.validate_calls": (
            calls("netmodel.validate_testcase"), "count"),
        "netmodel.validate_s": (total("netmodel.validate_testcase"), "s"),
        "testgen.build_s": (total("testgen.build_testcase"), "s"),
        "testgen.cases": (calls("testgen.build_testcase"), "count"),
        "cqf.solve_s": (total("cqf.solve"), "s"),
        "cqf.solve_calls": (calls("cqf.solve"), "count"),
        "cqf.report_json_s": (total("cqf.report_to_json"), "s"),
    })
    return m


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its scratch bundles
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        api = load_api()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    meta = {"workload": wl.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **host_info()}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        measure = measure_traced if args.trace else measure_untraced
        run, cases, metrics = measure(api, wl, args, workdir, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass                          # another run still uses it

    total, first = run.total, run.first
    meta.update(
        passes=run.passes,
        redraws=workloads.redraws(cases),
        cases=first.cases,
        cyclic_cases=sum(c["cyclic"] for c in first.cases.values()),
        determinism={"reports_sha256": workloads.combined_digest(
                         first.digests),
                     "counts": first.counts, "digests": first.digests},
        failed_frac=total.failed / total.attempted,
        failures=total.failures)
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    if args.trace:
        result["metrics"]["failed_frac"] = {
            "value": meta["failed_frac"], "unit": "ratio"}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
