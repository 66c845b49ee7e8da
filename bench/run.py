"""Run one benchmark workload of relayosc and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload switching --seed 1 --seconds 20 --trace 0

The workload's fixed job list (one round) runs again and again until
``--seconds`` have passed; whole rounds only.  Before that, an untraced run
times the set-up (import, input generation, one warm-up call) in fresh
processes.  Times are CPU seconds (``time.process_time``, plus the child
processes waited for), not wall time: the process runs one thread, so its
CPU time is its wall time less the time it waited for a processor, which
depends on the load of the host.  The end-to-end times are then rescaled
by calibration samples taken between the probes and between the rounds
(bench/calibration.py), since the processor's own speed drifts too (see
README.md).  After the rounds, the
first round's outputs are checked against computations made apart from the
program, and every later round must reproduce them bit for bit.  Checks are
never timed.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over SETUP_PROBES fresh processes of the CPU time from
               process start to the first timed job, in reference seconds
  round_ref_s  median CPU time of one round, in reference seconds
  peak_rss_mb  peak resident memory of this process, read before the checks
``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics of bench/tracing.py, among them the median CPU and wall time of an
untraced round (``round.cpu_s``, ``round.wall_s``) and of a calibration
sample (``calibration.sample_s``); the spans of the first traced round are written to
bench/out/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every process, child processes included, runs
its BLAS with one thread (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy is imported here or in any child process.  numpy, the
# package and the benchmark modules that use them are imported inside the
# functions below, so that prepare() times their import.
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 3
SETUP_SAMPLES = 3      # calibration samples before the first probe and after each
CAL_EVERY_S = 0.25     # one calibration sample per this much CPU time of rounds
WORKLOAD_NAMES = ("switching", "high_order", "survey", "smooth")


def prepare(workload: str, seed: int, workdir: Path):
    """Import the program, generate the inputs, make one warm-up call."""
    t0 = time.perf_counter()
    import relayosc.cli  # noqa: F401  (imports every module with numpy and scipy)
    import_s = time.perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.warm_up()
    return wl, import_s


def time_setup(args) -> float:
    """CPU seconds from the start of a fresh process to its first timed job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().split()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or len(line) != 2 or line[0] != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return float(line[1])


def cpu_seconds() -> float:
    """CPU time of this process and of the child processes it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure(wl, seconds: float, traced: bool):
    """Run whole rounds for ``seconds``; with ``traced``, odd rounds are traced.

    Returns the first round's outputs, every round's digest, the (CPU, wall)
    seconds of each untraced and each traced round, and the calibration
    samples taken after each untraced round.
    """
    import calibration
    import tracing
    from workloads import digest

    tracer = tracing.Tracer() if traced else None
    plain, with_trace, summaries, digests, cal = [], [], [], [], []
    first = spans = None
    start = time.perf_counter()
    while True:
        now_traced = traced and len(plain) > len(with_trace)
        if now_traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        c0 = cpu_seconds()
        try:
            out = wl.run()
        finally:
            elapsed = (cpu_seconds() - c0, time.perf_counter() - t0)
            if now_traced:
                tracer.uninstall()
        if now_traced:
            with_trace.append(elapsed)
            summaries.append(tracer.summary())
            if spans is None:
                spans = [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]
        else:
            plain.append(elapsed)
            cal += calibration.samples(max(1, round(elapsed[0] / CAL_EVERY_S)))
        if first is None:
            first = out
        digests.append(digest(out))
        done = time.perf_counter() - start >= seconds
        if done and (not traced or with_trace):
            break
    return first, digests, plain, with_trace, summaries, spans, cal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "relayosc" / "__init__.py").is_file():
        print(f"bench: no relayosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"

    if args.probe:
        prepare(args.workload, args.seed, workdir)
        print("ready", time.process_time(), flush=True)
        return 0

    # setup_s is an end-to-end metric; a traced run does not report it.
    setup, setup_cal = [], []
    if not args.trace:
        import calibration

        calibration.sample()  # warm-up, not counted
        setup_cal += calibration.samples(SETUP_SAMPLES)
        for _ in range(SETUP_PROBES):
            setup.append(time_setup(args))
            setup_cal += calibration.samples(SETUP_SAMPLES)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, import_s = prepare(args.workload, args.seed, workdir)
        first, digests, plain, with_trace, summaries, spans, cal = measure(
            wl, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = wl.check(first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(digests)
    failed_jobs = wl.failed_jobs(first)
    problems = list(checks.problems)
    if len(set(digests)) != 1:
        problems.append("rounds produced different outputs")
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    for k in failed_jobs:
        print(f"bench: operation failed: {k}: {first[k]!r}", file=sys.stderr)

    if args.trace:
        import tracing

        layer = tracing.median_of_rounds(summaries)
        layer["relayosc.import_s"] = import_s
        cpu, traced_cpu = ([c for c, _ in rounds] for rounds in (plain, with_trace))
        layer["trace.overhead_s"] = statistics.median(traced_cpu) - statistics.median(cpu)
        layer["round.cpu_s"] = statistics.median(cpu)
        layer["round.wall_s"] = statistics.median(w for _, w in plain)
        layer["calibration.sample_s"] = statistics.median(cal)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "blas_threads": 1,
            "rounds_traced": len(with_trace), "rounds_untraced": len(plain),
            "metrics": {k: v["value"] for k, v in metrics.items()},
            "spans_of_first_traced_round": spans,
        }))
    else:
        setup_s = calibration.to_reference(statistics.median(setup), setup_cal)
        round_s = calibration.to_reference(statistics.median(c for c, _ in plain), cal)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_ref_s": {"value": round_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"bench: workload={args.workload} seed={args.seed} rounds={rounds} "
          f"operations_per_round={wl.operations} "
          f"round_cpu_s={[round(c, 4) for c, _ in plain]} "
          f"round_wall_s={[round(w, 4) for _, w in plain]} "
          f"setup_cpu_s={[round(t, 4) for t in setup]} "
          f"calibration_ms={1e3 * statistics.median(cal + setup_cal):.2f} blas_threads=1")
    print(json.dumps({
        "correct": not problems,
        "attempted": wl.operations * rounds,
        "failed": (len(failed_jobs) + checks.known_fault) * rounds,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
