"""Run one translim benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload limits --seed 1 --seconds 20 --trace 0

Run from anywhere; translim is imported from src/ next to this directory.
One client, one process, closed loop: each verdict starts when the previous
one has ended.  The workload's fixed case list (see workloads.py) is run in
whole passes, after one untimed warm-up pass, until --seconds have gone.
Every time is scaled to reference speed by the yardstick (yardstick.py)
timed after each verdict.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1 is a
separate run: it installs the tracer (tracer.py), spends three quarters of
the time in traced passes and the rest in untraced ones, and reports the
per-layer metrics.  Counts come from the first traced pass alone, so they
repeat exactly; times are per traced pass.  Set-up is timed in fresh
interpreters (probe.py).  The last stdout line is the result; the line
before it carries the run's metadata, and .perfbench_out/ gets the full
detail (scaling curves by input size, reached bindings, spans).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
import yardstick
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBES = 5
TAIL_BEYOND = 10
TRACED_SHARE = 0.75


class SetupError(Exception):
    """The checkout cannot run this workload; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- set-up -------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> list:
    """PROBES cold set-ups, each in a fresh interpreter, after one warm-up
    that leaves the bytecode cache in place."""
    samples = []
    for i in range(PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{done.stderr.strip()}")
        if i:
            sample = json.loads(done.stdout.strip().splitlines()[-1])
            sample["scale"] = yardstick.REFERENCE_NS / sample["kernel_ns"]
            samples.append(sample)
    return samples


def import_translim():
    if not (SRC / "translim" / "__init__.py").is_file():
        raise SetupError(f"no translim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import translim
    import translim.cli  # noqa: F401  (cli is a traced layer too)
    if not Path(translim.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"translim came from {translim.__file__}")
    return translim


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- measuring ----------------------------------------------------------------


def run_passes(inputs, seconds, verdict):
    """Whole passes over inputs until `seconds` have gone (at least one).

    verdict(pass_index, case_index, case) -> (ok, observed).  Each verdict's
    time is scaled to reference speed by the yardstick timed around it.
    Returns the scaled latencies per case, the scaled seconds of each pass,
    the first pass's observations, counts, the raw verdict time and the
    run's median speed scale.
    """
    latencies = [[] for _ in inputs]
    first = []
    attempted = failed = passes = raw_ns = 0
    start = time.perf_counter()
    before = yardstick.kernel_ns()
    kernels = [before]
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, case in enumerate(inputs):
            t0 = time.perf_counter_ns()
            ok, observed = verdict(passes, i, case)
            took = time.perf_counter_ns() - t0
            after = yardstick.kernel_ns()
            kernels.append(after)
            latencies[i].append(yardstick.scale(took, before, after))
            before = after
            raw_ns += took
            attempted += 1
            failed += not ok
            if passes == 0:
                first.append((bool(ok), repr(observed)))
        passes += 1
    pass_s = [sum(per_pass) / 1e9 for per_pass in zip(*latencies)]
    return {"latencies": latencies, "first": first, "attempted": attempted,
            "failed": failed, "passes": passes, "pass_s": pass_s,
            "raw_busy_s": raw_ns / 1e9,
            "scale": yardstick.REFERENCE_NS / statistics.median(kernels)}


def latency_summary(latencies) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(x for per_case in latencies for x in per_case)
    n = len(xs)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    return {"p50_ms": statistics.median(xs) / 1e6,
            "tail_ms": xs[tail_index] / 1e6,
            "tail_percentile": 100.0 * (tail_index + 1) / n,
            "samples": n}


def curves_by_size(cases, latencies, counts=None) -> dict:
    """Median verdict time (and first-pass counters) grouped by input size."""
    groups = defaultdict(lambda: {"cases": 0, "times": []})
    for i, case in enumerate(cases):
        row = groups[str(case["size"])]
        row["cases"] += 1
        row["times"].extend(latencies[i])
        for key, value in (counts[i] if counts else {}).items():
            row[key] = row.get(key, 0) + value
    out = {}
    for size, row in groups.items():
        times = row.pop("times")
        row["median_ms"] = statistics.median(times) / 1e6
        out[size] = row
    return out


def verdicts_per_s(run) -> float:
    """Cases per pass over the median pass time: a pass is the whole fixed
    input set, and the median keeps a pass that the yardstick could not
    correct (the speed changed inside a long verdict) from moving it."""
    return len(run["latencies"]) / statistics.median(run["pass_s"])


def plain_verdict(workload):
    return lambda _pass, _i, case: workloads.verdict(workload, case)


def measure_untraced(workload, inputs, seconds, setup):
    """The end-to-end metrics, with one untimed warm-up pass first."""
    warm = run_passes(inputs, 0, plain_verdict(workload))
    run = run_passes(inputs, seconds, plain_verdict(workload))
    summary = latency_summary(run["latencies"])
    metrics = {
        "verdicts_per_s": (verdicts_per_s(run), "1/s"),
        "verdict_p50_ms": (summary["p50_ms"], "ms"),
        "verdict_tail_ms": (summary["tail_ms"], "ms"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    meta = {"tail_percentile": summary["tail_percentile"],
            "tail_samples": summary["samples"]}
    detail = {"passes": run["passes"],
              "raw_verdicts_per_s": run["attempted"] / run["raw_busy_s"],
              "case_median_ms": {case["id"]: statistics.median(times) / 1e6
                                 for case, times in zip(inputs,
                                                        run["latencies"])},
              "curves": curves_by_size(inputs, run["latencies"])}
    return (warm, run), metrics, meta, detail


CURVE_COUNTERS = ("transfinite.lim_eval_calls", "ordinal.lt_calls",
                  "instances.module_ops")


def _curve_counts(tracer):
    return (tracer.calls("transfinite.lim_eval"),
            tracer.calls("ordinal.Ordinal.__lt__"), tracer.module_ops())


def measure_traced(workload, inputs, seconds, setup, translim, spans_path):
    """The per-layer metrics; spans of the first traced pass go to
    spans_path as [id, verdict, name, start_ns, end_ns, parent or -1]."""
    tracer = Tracer()
    tracer.install(translim)
    per_case = []
    first_counts = {}
    first_calls = {}

    def traced_verdict(pass_index, i, case):
        tracer.verdict = i
        if pass_index:
            return workloads.verdict(workload, case)
        tracer.recording = True
        before = _curve_counts(tracer)
        outcome = workloads.verdict(workload, case)
        after = _curve_counts(tracer)
        per_case.append(dict(zip(CURVE_COUNTERS,
                                 (a - b for a, b in zip(after, before)))))
        if i == len(inputs) - 1:
            tracer.recording = False
            first_counts.update(per_layer_counts(tracer))
            first_calls.update(tracer.counts())
        return outcome

    try:
        traced = run_passes(inputs, seconds * TRACED_SHARE, traced_verdict)
    finally:
        tracer.uninstall()
    untraced = run_passes(inputs, seconds * (1 - TRACED_SHARE),
                          plain_verdict(workload))
    spans_path.write_text(json.dumps(tracer.spans))
    values = dict(first_counts, **per_layer_times(tracer, traced["passes"],
                                                 traced["scale"]))
    values["cli.import_s"] = setup["import_s"]
    metrics = {k: (v, unit_of(k)) for k, v in sorted(values.items())}
    traced_rate = verdicts_per_s(traced)
    untraced_rate = verdicts_per_s(untraced)
    curves = curves_by_size(inputs, untraced["latencies"], per_case)
    for size, row in curves_by_size(inputs, traced["latencies"]).items():
        curves[size]["traced_median_ms"] = row["median_ms"]
    meta = {"overhead": traced_rate / untraced_rate,
            "verdicts_match": traced["first"] == untraced["first"]}
    detail = {
        "passes": {"traced": traced["passes"],
                   "untraced": untraced["passes"]},
        "verdicts_per_s": {"traced": traced_rate, "untraced": untraced_rate},
        "curves": curves,
        "function_calls": first_calls,
        "reached": dict(sorted(tracer.site_calls.items())),
        "spans": tracer.span_summary(),
    }
    return (traced, untraced), metrics, meta, detail


def per_layer_counts(tracer) -> dict:
    """The deterministic per-layer counters, read after the first pass."""
    lim_calls = tracer.calls("transfinite.lim_eval")
    pieces = tracer.extra["lim_eval_pieces"]
    counts = {
        "transfinite.lim_eval_calls": lim_calls,
        "transfinite.lim_eval_calls_per_piece":
            lim_calls / pieces if pieces else 0.0,
        "transfinite.sum_eval_calls":
            tracer.calls("transfinite.sum_eval_from_lim"),
        "ordinal.lt_calls": tracer.calls("ordinal.Ordinal.__lt__"),
        "ordinal.add_calls": tracer.calls("ordinal.Ordinal.__add__"),
        "ordinal.left_subtract_calls":
            tracer.calls("ordinal.left_subtract"),
        "pwcseq.value_at_calls": tracer.calls("pwcseq.PwcSeq.value_at"),
        "pwcseq.prefix_calls": tracer.calls("pwcseq.PwcSeq.prefix"),
        "pwcseq.from_support_calls":
            tracer.calls("pwcseq.PwcSeq.from_support"),
        "pwcseq.pieces_built": tracer.extra["pieces_built"],
        "terms.evaluate_calls": tracer.calls("terms.evaluate"),
        "terms.parse_calls": tracer.calls("terms.parse_term"),
        "instances.module_ops": tracer.module_ops(),
        "instances.hom_verified":
            tracer.calls("instances.Homomorphism._verify"),
        "instances.submodule_builds":
            tracer.calls("instances.Submodule.__post_init__"),
        "diagrams.limit_object_calls": tracer.calls("diagrams.limit_object"),
        "diagrams.image_chain_steps": tracer.extra["image_chain_steps"],
        "diagrams.system_morphisms_built":
            tracer.calls("diagrams.SystemMorphism.__init__"),
        "ab5check.calls": tracer.layer_calls("ab5check"),
        "cli.invocations": tracer.calls("cli.main"),
    }
    counts.update((f"{layer}.errors", n) for layer, n in tracer.errors.items())
    return counts


def per_layer_times(tracer, passes, scale) -> dict:
    """Self time per layer and table-verification time, per traced pass,
    at reference speed (scale from the run's median yardstick time)."""
    per_pass = scale / 1e9 / passes
    times = {f"{layer}.self_s": tracer.self_ns[layer] * per_pass
             for layer in LAYERS}
    verify = tracer.stats.get("instances.Homomorphism._verify")
    times["instances.hom_verify_s"] = (
        verify.incl_ns * per_pass if verify else 0.0)
    return times


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_piece"):
        return "calls/piece"
    return "count"


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        translim = import_translim()
        probes = probe_setup(args.workload, args.seed)
        cases = workloads.generate(args.workload, args.seed)
        inputs = workloads.build(args.workload, cases, ROOT)
    except (SetupError, OSError, ImportError, subprocess.SubprocessError) \
            as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup = {"probes": probes,
             "setup_s": statistics.median(
                 (p["import_s"] + p["build_s"]) * p["scale"] for p in probes),
             "import_s": statistics.median(
                 p["import_s"] * p["scale"] for p in probes)}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        runs, metrics, extra, detail = measure_traced(
            args.workload, inputs, args.seconds, setup, translim,
            OUT / f"{stem}-spans.json")
    else:
        runs, metrics, extra, detail = measure_untraced(
            args.workload, inputs, args.seconds, setup)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    meta = {"workload": args.workload, "seed": args.seed,
            "traced": bool(args.trace), "seconds": args.seconds,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "cases": len(inputs), "failed_share": failed / attempted,
            **extra, "setup": setup}
    result = {"correct": failed == 0 and extra.get("verdicts_match", True),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "detail": detail}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
