"""Record the reference outputs that later runs are compared against.

    python3 bench/make_reference.py

Runs one pass of every analytic workload at both sizes, requires every
independent oracle to pass, and writes ``bench/reference.json``. Run it only
on the commit that defines the benchmark: later commits must reproduce these
outputs to 1e-12, so regenerating them would hide a change in results.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    doc = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for size in ("full", "tiny"):
            doc[size] = {}
            for name, record in workloads.RECORDERS.items():
                wl = workloads.WORKLOADS[name]
                inputs = wl.setup(size, 0, tmpdir)
                outputs = workloads.run_pass(wl, inputs, 0)
                problems = [p for p in wl.check(inputs, outputs, None) if p]
                if problems:
                    print(f"{name} ({size}): {problems}", file=sys.stderr)
                    return 1
                doc[size][name] = record(inputs, outputs)
                print(f"recorded {name} ({size})")
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
