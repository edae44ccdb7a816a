"""Time one cold set-up of a workload in this fresh interpreter.

    python3 perfbench/probe.py <workload> <seed>

Imports translim (translim.cli for the cli workload) from ../src, then
builds the workload's inputs, and prints {"import_s": ..., "build_s": ...,
"kernel_ns": ...}, the last being the yardstick's time right afterwards.
Nothing but the standard library's preloaded modules is imported before
the clock starts, so the import cost a user pays is the one measured.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    if workload == "cli":
        import translim.cli  # noqa: F401
    else:
        import translim  # noqa: F401
    imported = time.perf_counter()
    import workloads
    workloads.build(workload, workloads.generate(workload, seed), ROOT)
    built = time.perf_counter()
    import json
    import statistics
    import yardstick
    yardstick.kernel_ns()  # the first run also specialises its bytecode
    kernel_ns = statistics.median(yardstick.kernel_ns() for _ in range(5))
    print(json.dumps({"import_s": imported - start,
                      "build_s": built - imported, "kernel_ns": kernel_ns}))


if __name__ == "__main__":
    main()
