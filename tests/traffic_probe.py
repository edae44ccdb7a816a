"""Traffic probe: which function-body statements of src/translim does no
real use reach?

    PYTHONPATH=src:tests python tests/traffic_probe.py

A real use is one of these, all run in this process:

  - every argv list of the CLI corpus (tests/golden/diagram_corpus.json);
  - every demo script;
  - one pass over each perfbench workload at seed 0, read from
    perfbench/workloads.py, which the probe only imports.

The probe traces them with coverage_probe's tracer and prints, module by
module, the statements inside function bodies that none of them ran.  A
statement listed here that coverage_probe does not list is reached by the
tests alone.  The tracer slows every run several times over, so tier-1
does not run this script.
"""

import contextlib
import io
import pathlib
import runpy
import sys
import tempfile

import coverage_probe

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests" / "golden"), str(ROOT / "perfbench")]

import make_diagram_corpus  # noqa: E402
import workloads  # noqa: E402


def run_corpus():
    argvs = make_diagram_corpus.argv_lists()
    with tempfile.TemporaryDirectory() as workdir:
        for argv in argvs:
            make_diagram_corpus.run(make_diagram_corpus.expand(argv, workdir))
    return f"{len(argvs)} corpus argv lists"


def run_demos():
    demos = sorted((ROOT / "demos").glob("*.py"))
    for path in demos:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
    return f"{len(demos)} demos"


def run_workloads():
    counts = []
    for name in workloads.WORKLOADS:
        cases = workloads.build(name, workloads.generate(name, 0), ROOT)
        wrong = sum(not workloads.verdict(name, case)[0] for case in cases)
        counts.append(f"{name} {len(cases)} ({wrong} wrong)")
    return "one pass of perfbench " + ", ".join(counts)


def main():
    coverage_probe.install()
    ran = [run() for run in (run_corpus, run_demos, run_workloads)]
    for line in coverage_probe.report_lines("traffic probe"):
        print(line)
    print("ran: " + "; ".join(ran))


if __name__ == "__main__":
    main()
