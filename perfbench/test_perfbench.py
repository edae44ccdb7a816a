"""Self-test of the benchmark: references, negative control, trace fidelity.

    python3 -m pytest -q perfbench/test_perfbench.py

Verdicts run in this process; traced runs and the empty-checkout check run
run.py in subprocesses, so the tracer never patches this interpreter.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 90210
TRACE_SEED = 4

# Bindings each workload must reach through the tracer; the diagrams and
# suites entries catch a missed `from .x import y` rebinding.
REACHED = {
    "limits": ("transfinite:transfinite.lim_eval",
               "transfinite:transfinite.lim_value",
               "transfinite:transfinite.build_lim_term",
               "terms:terms.evaluate", "Ordinal:ordinal.Ordinal.__lt__",
               "PwcSeq:pwcseq.PwcSeq.prefix",
               "PwcSeq:pwcseq.PwcSeq.from_support",
               "FiniteMod:instances.FiniteMod.add"),
    "sums": ("transfinite:transfinite.sum_eval_from_lim",
             "transfinite:transfinite.restrict_sum",
             "transfinite:ordinal.left_subtract", "terms:terms.sum_term",
             "PwcSeq:pwcseq.PwcSeq.value_at",
             "PwcSeq:pwcseq.PwcSeq.support_if_finite",
             "ModuleInstance:instances.ModuleInstance.infinitary_sum"),
    "systems": ("diagrams:transfinite.lim_eval",
                "diagrams:diagrams.limit_object",
                "diagrams:diagrams.induced_limit_map",
                "diagrams:diagrams.check_inverse_limit_surjectivity",
                "diagrams:diagrams.lim_to_prod_section_check",
                "diagrams:instances.is_regular_epi",
                "Homomorphism:instances.Homomorphism._verify",
                "Homomorphism:instances.Homomorphism.from_generator_images",
                "Submodule:instances.Submodule.__post_init__",
                "SystemMorphism:diagrams.SystemMorphism.__init__"),
    "cli": ("cli:cli.main", "cli:cli.build_parser",
            "cli:instances.parse_instance", "cli:terms.parse_term",
            "suites:suites.run_suite", "suites:suites.transfinite_suite",
            "suites:transfinite.build_lim_term", "suites:terms.evaluate",
            "suites:reports.case",
            "SuiteReport:reports.SuiteReport.render_text",
            "ab5check:ab5check.eta_surjective_decision",
            "ab5check:diagrams.lim_to_prod_section_check",
            "sampling:sampling.random_pwc"),
}


def _failures(workload, inputs):
    outcome = run.run_passes(inputs, 0, run.plain_verdict(workload))
    return outcome["failed"], outcome["attempted"]


def _tampered(workload, case):
    wrong = dict(case)
    if workload == "cli":
        wrong["golden"] = case["golden"] + "\n"
    elif workload == "systems":
        wrong["expected"] = dict(case["expected"])
        key = "source_depth" if case["kind"] == "morphism" else "depth"
        wrong["expected"][key] += 1
    elif case["expected"] == workloads.DIVERGENT:
        wrong["expected"] = (0,)  # claims the divergent family has a sum
    else:
        wrong["expected"] = tuple((x + 1) for x in case["expected"])
    return wrong


@pytest.fixture(scope="module")
def translim_loaded():
    return run.import_translim()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", (0, HELD_OUT_SEED))
def test_every_verdict_holds(translim_loaded, workload, seed):
    inputs = workloads.build(workload, workloads.generate(workload, seed),
                             ROOT)
    assert _failures(workload, inputs) == (0, len(inputs))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_reference_is_caught(translim_loaded, workload):
    inputs = workloads.build(workload, workloads.generate(workload, 0), ROOT)
    wrong = [_tampered(workload, case) for case in inputs]
    failed, attempted = _failures(workload, wrong)
    assert failed / attempted > 0
    assert failed == attempted  # every case's reference is really checked


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_come_from_the_seed(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    first, other = (workloads.generate(workload, s) for s in (5, 6))
    assert [c["size"] for c in first] == [c["size"] for c in other]
    # cli runs the fixed golden argv lists: the seed has nothing to draw
    assert (first == other) == (workload == "cli")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload at one seed, with their detail files."""
    out = {}
    for workload in workloads.WORKLOADS:
        pair = []
        for _ in range(2):
            meta, result = _result(_run("--workload", workload, "--seed",
                                        str(TRACE_SEED), "--seconds", "1",
                                        "--trace", "1"))
            detail = json.loads((run.OUT / f"{workload}-seed{TRACE_SEED}"
                                 "-trace1.json").read_text())["detail"]
            pair.append((meta, result, detail))
        out[workload] = pair
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_verdicts_match(traced_runs, workload):
    (meta_a, res_a, det_a), (_, res_b, det_b) = traced_runs[workload]
    assert res_a["correct"] and res_b["correct"]
    assert meta_a["verdicts_match"] and meta_a["failed_share"] == 0
    counts_a = {k: v["value"] for k, v in res_a["metrics"].items()
                if v["unit"] != "s"}
    counts_b = {k: v["value"] for k, v in res_b["metrics"].items()
                if v["unit"] != "s"}
    assert counts_a == counts_b
    assert det_a["function_calls"] == det_b["function_calls"]
    assert 0 < meta_a["overhead"] < 1.5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_named_bindings_are_reached(traced_runs, workload):
    reached = traced_runs[workload][0][2]["reached"]
    missing = [b for b in REACHED[workload] if reached.get(b, 0) == 0]
    assert not missing


def test_layers_work_where_the_mapping_says(traced_runs):
    def metric(workload, name):
        return traced_runs[workload][0][1]["metrics"][name]["value"]
    per_piece = "transfinite.lim_eval_calls_per_piece"
    assert metric("limits", per_piece) > 4 * metric("sums", per_piece)
    verify = "instances.hom_verify_s"
    assert metric("systems", verify) > 0.5 * sum(
        metric("systems", f"{layer}.self_s") for layer in run.LAYERS)
    assert metric("limits", verify) == 0
    assert metric("sums", "pwcseq.value_at_calls") > \
        100 * max(metric("limits", "pwcseq.value_at_calls"), 1)
    assert metric("sums", "transfinite.errors") > 0  # the divergent cases


def test_metrics_match_the_declaration(traced_runs):
    traced = traced_runs["cli"][0][1]["metrics"]
    assert {k: v["unit"] for k, v in traced.items()} == _declared("per_layer")
    meta, result = _result(_run("--workload", "sums", "--seed", "1",
                                "--seconds", "1", "--trace", "0"))
    untraced = result["metrics"]
    assert {k: v["unit"] for k, v in untraced.items()} == \
        _declared("end_to_end")
    assert all(v["value"] > 0 for v in untraced.values())
    assert meta["tail_samples"] > 10 and 0 < meta["tail_percentile"] < 100
    for key in ("python", "nproc", "commit", "seed", "traced"):
        assert key in meta


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "limits", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
