"""Gate on one-second benchmark runs of every workload at seed 1.

Each run must read correct: true. Traced, it must also read the exact
counters of its workload below; untraced, a positive value for every
end_to_end metric that BENCHMARK.json names. Exits 1 with one line per
failed check. Run from anywhere: python3 .github/bench_gate.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The flood's calls, pixels claimed and heap pushes; for segment also the 3x3
# filter passes and the counters hooked on names of cloudseg.cli (seed
# components, regions in and out of the merge), for ccs the patches before
# and after the merge.
COUNTERS = {
    "segment_large": {"flood.calls": 1, "flood.pixels_claimed": 4042, "flood.heap_pushes": 6842,
                      "morphology.filter_passes": 112, "markers.seed_components": 4,
                      "watershed.regions_in": 4, "watershed.regions_out": 4},
    "ccs_outbreak": {"flood.calls": 2, "flood.pixels_claimed": 7603, "flood.heap_pushes": 13947,
                     "ccs.patches_in": 113, "ccs.patches_out": 46},
}


def run(workload: str, trace: int) -> dict:
    """The result line of one benchmark run, whose report is echoed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    report = subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    print(report, end="", flush=True)
    return json.loads(report.splitlines()[-1])


def main() -> int:
    names = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    failures = []
    for workload, want in COUNTERS.items():
        result = run(workload, 1)
        got = {name: result["metrics"].get(name, {}).get("value") for name in want}
        if result["correct"] is not True or got != want:
            failures.append(f"{workload} traced: correct: {result['correct']}, counters {got}, expected {want}")
        result = run(workload, 0)
        values = {name: result["metrics"].get(name, {}).get("value") for name in names}
        missing = [name for name, value in values.items() if not (isinstance(value, (int, float)) and value > 0)]
        if result["correct"] is not True or missing:
            failures.append(f"{workload} untraced: correct: {result['correct']}, no positive value for {missing}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
