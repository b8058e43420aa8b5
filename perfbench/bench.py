"""One benchmark run: set-up, timed CLI iterations, checks, and the result.

Set-up renders the workload's scene and hydrometeor volume from the seed
and writes them as GMS1/GMSV files; it runs five times and reports the
median as ``setup_s``. One pipeline iteration runs the workload's
detection command (``segment`` or ``ccs``), then ``truth-mask`` and
``evaluate``, through the real CLI: one child process per command, one
after another (a closed loop with a single client). Iterations repeat
while the next one, at the mean length so far, still ends within
``--seconds``.

Every command is checked: it fails if it exits non-zero, if an output's
SHA-256 differs from the first iteration's, or if the first iteration's
outputs fail the independent checks in ``check.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced CLI iteration with an in-process iteration that calls
``cloudseg.cli.main`` under the span tracer of ``spans.py``, for at least
two rounds, and prints the per-layer metrics. Traced outputs must be
byte-identical to the CLI's, and the counters must repeat exactly from
round to round. The spans are written to ``perfbench/_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import check
import cloudseg.cli
import spans
from cloudseg.formats import write_raster_file, write_volume_file
from cloudseg.synth import generate_scene
from workloads import WORKLOADS

SETUP_REPEATS = 5
STARTUP_REPEATS = 3
MIN_TRACE_ROUNDS = 2
RUN_BUDGET_S = 170.0


def run_context() -> dict:
    """Machine and library versions the numbers were measured on."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / key).read_text().strip() for key in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "caches": caches}


class Runner:
    """Runs CLI children one at a time through ``spawner.py`` and keeps the
    run's tallies. Use it as a context manager, which stops the spawner."""

    def __init__(self, src: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._spawner = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawner.py"))],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            if self._spawner.poll() is None:
                self._spawner.kill()
                self._spawner.wait()
        self._spawner.stdout.close()

    def spawn(self, argv, stderr_path):
        """Run one child to completion: (exit code, wall s, cpu s, peak RSS MiB).

        The child is killed if it outlives the run's deadline."""
        request = {"argv": argv, "env": self.env, "stderr": str(stderr_path),
                   "timeout_s": self.deadline - time.monotonic()}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        return reply["code"], reply["wall_s"], reply["cpu_s"], reply["rss_mib"]

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def commands(workload, inputs: Path, out: Path):
    """(label, CLI argv after the program name, output files) per command."""
    detect = [workload.command, "--input", str(inputs / "scene.gms1"),
              "--segments-output", str(out / "seg.gms1"), "--mask-output", str(out / "mask.gms1")]
    outputs = ["seg.gms1", "mask.gms1"]
    if workload.command == "segment":
        detect += ["--stats-output", str(out / "stats.csv")]
        outputs.append("stats.csv")
    return [
        ("detect", detect, outputs),
        ("truth_mask", ["truth-mask", "--input", str(inputs / "volume.gmsv"),
                        "--output", str(out / "truth.gms1")], ["truth.gms1"]),
        ("evaluate", ["evaluate", "--prediction", str(out / "mask.gms1"), "--truth",
                      str(out / "truth.gms1"), "--output", str(out / "report.json")], ["report.json"]),
    ]


def setup(workload, seed: int, inputs: Path):
    """Render and write the inputs SETUP_REPEATS times; (median s, scene BT, truth)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        image, volume = generate_scene(workload.scene(seed))
        write_raster_file(image, inputs / "scene.gms1")
        write_volume_file(volume, inputs / "volume.gmsv")
        times.append(time.perf_counter() - start)
    truth = check.truth_mask(volume.values)
    bt = check.read_gms1(inputs / "scene.gms1")[0].astype(np.float64)
    return statistics.median(times), bt, truth


def oracle(workload, label, out: Path, bt, truth):
    """Independent checks of one command's outputs; (problems, quality scores)."""
    if label == "detect":
        if workload.command == "segment":
            return check.check_segment(out, bt), {}
        return check.check_ccs(out, bt), {}
    if label == "truth_mask":
        return check.check_truth(out, truth), {}
    problems, pod, ets = check.check_report(out)
    return problems, {"pod": pod, "ets": ets}


def cli_iteration(runner, workload, inputs, out, reference, bt, truth):
    """One untraced pipeline pass: {label: (wall s, cpu s, RSS MiB)}, or None if cut short.

    The first pass fills ``reference`` with output digests and quality scores."""
    result = {}
    for label, argv, outputs in commands(workload, inputs, out):
        if runner.out_of_time():
            return None
        code, wall, cpu, rss = runner.spawn([sys.executable, "-m", "cloudseg", *argv], out / "stderr.txt")
        problems = []
        if code != 0:
            err = (out / "stderr.txt").read_text(errors="replace").strip()
            problems.append(f"exit code {code}: {err[-300:]}")
        else:
            digests = {name: check.sha256(out / name) for name in outputs}
            if label not in reference:
                problems, scores = oracle(workload, label, out, bt, truth)
                reference[label] = digests
                reference.update(scores)
            elif digests != reference[label]:
                problems.append("output bytes differ from the first iteration")
        runner.record(f"cli {label}", problems)
        result[label] = (wall, cpu, rss)
    return result


def traced_iteration(runner, workload, inputs, out, reference) -> spans.Tracer:
    """One in-process pipeline pass under a fresh tracer."""
    tracer = spans.Tracer()
    main = tracer.wrap("cli.main", cloudseg.cli.main)
    tracer.install()
    try:
        for label, argv, outputs in commands(workload, inputs, out):
            tracer.command = label
            try:
                code = main(argv)
            except Exception as exc:  # a crash in the program is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            problems = []
            if code != 0:
                problems.append(f"in-process exit {code}")
            elif {name: check.sha256(out / name) for name in outputs} != reference.get(label):
                problems.append("traced output bytes differ from the CLI's")
            runner.record(f"traced {label}", problems)
    finally:
        tracer.restore()
    return tracer


def startup_seconds(runner, out: Path) -> float:
    """Median wall time of a child that only starts Python and imports the CLI."""
    times = []
    for _ in range(STARTUP_REPEATS):
        code, wall, _, _ = runner.spawn([sys.executable, "-c", "import cloudseg.cli"], out / "stderr.txt")
        runner.record("cli startup", [] if code == 0 else [f"exit code {code}"])
        times.append(wall)
    return statistics.median(times)


def end_to_end(iterations, setup_s, pixels, reference) -> dict:
    """{name: (value, unit)}: medians over iterations, peaks over all children."""
    wall = statistics.median(sum(v[0] for v in it.values()) for it in iterations)

    def per_command(label, k):
        return [it[label][k] for it in iterations]

    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(sum(v[1] for v in it.values()) for it in iterations), "s"),
        "mpx_per_s": (pixels / 1e6 / wall, "Mpx/s"),
        "peak_rss_mb": (max(v[2] for it in iterations for v in it.values()), "MiB"),
        "detect_rss_mb": (max(per_command("detect", 2)), "MiB"),
        "setup_s": (setup_s, "s"),
        "detect_s": (statistics.median(per_command("detect", 0)), "s"),
        "truth_mask_s": (statistics.median(per_command("truth_mask", 0)), "s"),
        "evaluate_s": (statistics.median(per_command("evaluate", 0)), "s"),
        "pod": (reference["pod"], "ratio"),
        "ets": (reference["ets"], "ratio"),
    }


def per_layer(rounds, startup_s) -> dict:
    """{name: (value, unit)}: times are medians over traced rounds, counts
    come from the first round (later rounds must repeat them exactly)."""
    metrics = {}
    for name, first in rounds[0][0].items():
        if isinstance(first, int):
            metrics[name] = (first, "count")
        else:
            metrics[name] = (statistics.median(r[0][name] for r in rounds), spans.unit(name))
    metrics["cli.startup_s"] = (startup_s, "s")
    metrics["trace.overhead_s"] = (statistics.median(
        spans.overhead(tracer, walls, startup_s) for _, walls, tracer in rounds), "s")
    return metrics


def run(args, root: Path) -> int:
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 64
    workload = WORKLOADS[args.workload]
    out_root = root / "perfbench" / "_out"
    work = out_root / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    inputs, out, traced_out = work / "inputs", work / "cli", work / "traced"
    for d in (inputs, out, traced_out):
        d.mkdir(parents=True, exist_ok=True)
    iterations, rounds, reference = [], [], {}
    try:
        with Runner(root / "src", time.monotonic() + RUN_BUDGET_S) as runner:
            setup_s, bt, truth = setup(workload, args.seed, inputs)
            startup_s = startup_seconds(runner, out) if args.trace else None
            start = time.perf_counter()
            while not runner.out_of_time():
                it = cli_iteration(runner, workload, inputs, out, reference, bt, truth)
                if it is None:
                    break
                iterations.append(it)
                if args.trace:
                    tracer = traced_iteration(runner, workload, inputs, traced_out, reference)
                    if rounds and spans.exact_counts(tracer) != spans.exact_counts(rounds[0][2]):
                        runner.record("exact counts", [
                            f"{spans.exact_counts(tracer)} != {spans.exact_counts(rounds[0][2])}"])
                    rounds.append((spans.layer_metrics(tracer), it, tracer))
                elapsed = time.perf_counter() - start
                next_ends_late = elapsed * (1 + 1 / len(iterations)) > args.seconds
                if next_ends_late and (not args.trace or len(rounds) >= MIN_TRACE_ROUNDS):
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context = run_context()
    print(f"cloudseg benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"context: {json.dumps(context)}")
    print(f"iterations {len(iterations)}, operations attempted {runner.attempted}, failed {runner.failed},"
          f" failed_fraction {runner.failed / max(runner.attempted, 1):g}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    if not iterations or "pod" not in reference or (args.trace and not rounds):
        print("perfbench: no complete iteration", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(rounds, startup_s)
        print("accounting of the last round (untraced CLI wall = startup + traced self times + rest):")
        print("\n".join(spans.accounting(rounds[-1][2], rounds[-1][1], startup_s)))
        trace_file = out_root / f"trace-{workload.name}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "context": context, "cli_startup_s": startup_s,
            "rounds": [{"spans": t.spans, "counts": dict(t.counts)} for _, _, t in rounds],
        }))
        print(f"spans: {trace_file.relative_to(root)}")
    else:
        metrics = end_to_end(iterations, setup_s, bt.size, reference)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
