"""racml benchmark: one seeded workload, timed from outside the package.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sparse_qp_rp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` is the separate traced run: it wraps racml's public functions
(see tracer.py), reports per-layer metrics for one operation, then restores
every wrapper, checks that it did, and times the same operation untraced to
give the tracing overhead. Both modes check every operation's output; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Earlier lines record the machine
and environment and print every metric by name and unit.

The package is imported from ``src/`` of the checkout this file sits in and
nowhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads: the machine is shared and
# small, and thread scheduling would otherwise dominate the spread.
THREAD_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3  # setup_s adds the medians of this many imports and builds

# Times `import racml` in a fresh interpreter, given the src/ directory.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import racml; "
                "print(time.perf_counter() - start)")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_mem_mb": "MB", "sweeps": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_racml() -> float:
    """Import racml from this checkout's src/; return the seconds it took."""
    src = ROOT / "src"
    if not (src / "racml" / "__init__.py").is_file():
        die(f"no racml package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import racml
    elapsed = time.perf_counter() - start
    if Path(racml.__file__).resolve().parent != (src / "racml").resolve():
        die(f"racml imported from {racml.__file__}, not {src}")
    return elapsed


def fresh_import_times(repeats: int) -> list[float]:
    """Seconds to import racml in each of ``repeats`` fresh interpreters.

    An interpreter imports a package once, so the further samples of the
    import that setup_s needs come from child processes, run one at a time
    and each waited for.
    """
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return times


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
    }


def percentile_ms(samples: list[float], q: float) -> float:
    import numpy
    return float(numpy.percentile(samples, q)) * 1e3 if samples else 0.0


def call_times(outputs) -> list[tuple[str, float]]:
    """Kind and mean duration of each call across the repetitions.

    Every repetition makes the same calls in the same order, on the same
    inputs, so a call's work is fixed and only interference from other load
    on the host changes its time. On the shared 2-vCPU x86-64 VM this
    benchmark was tuned on, that load slowed all code by 1.4-1.9x in
    stretches lasting from seconds to minutes. The mean over a run weighs
    each stretch by the time the run spent in it; the fastest repetition
    depends on whether the run caught a short fast moment, and the median
    jumps with whichever stretch covered more than half of the run. In a
    seven-minute recording of tiny_certify_mc cut into 20-second runs, the
    sums of per-call means spread 0.20 of their median, of medians 0.24 and
    of fastest repetitions 0.29.
    """
    kinds = [kind for kind, _ in outputs[0].calls]
    return [(kind, statistics.fmean(out.calls[j][1] for out in outputs))
            for j, kind in enumerate(kinds)]


def of_kind(times, kind: str) -> list[float]:
    return [seconds for k, seconds in times if k == kind]


def pooled(outputs, kind: str) -> list[float]:
    """Every duration of the calls of one kind, over all repetitions.

    Latency percentiles are taken over these rather than over each call's
    mean or median: on tiny_certify_mc the calls fall into clusters by block
    count, and the 50th percentile of 24 per-call values sits between two of
    them, so it moved with the noise of the two calls on either side.
    """
    return [seconds for out in outputs for k, seconds in out.calls if k == kind]


class Gate:
    """Tally of checked operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def build(workload, seed: int, repeats: int):
    """Build the inputs ``repeats`` times; keep the last, return build times."""
    times = []
    inputs = None
    for _ in range(repeats):
        inputs = None  # free the previous copy before building the next
        gc.collect()
        start = time.perf_counter()
        inputs = workload.build(seed)
        times.append(time.perf_counter() - start)
    return inputs, times


def timed_ops(op, seconds: float, min_ops: int, on_output):
    """Repeat ``op()`` for ``seconds`` (at least ``min_ops`` times).

    Returns each operation's wall time; ``on_output`` receives each output
    after its timing has been taken.
    """
    op_times = []
    start = time.perf_counter()
    while len(op_times) < min_ops or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        out = op()
        op_times.append(time.perf_counter() - t0)
        on_output(out)
    return op_times


def plain_run(workload, args, import_s: float):
    gate = Gate()
    import_times = [import_s] + fresh_import_times(SETUP_REPEATS - 1)
    inputs, build_times = build(workload, args.seed, SETUP_REPEATS)

    outputs = []

    def collect(out):
        gate.add(workload.check(inputs, out))
        outputs.append(out)

    def op():
        return workload.run(inputs)

    # The untimed tracemalloc pass, which measures the operation's peak
    # memory (the inputs were allocated before it started), sits between the
    # two halves of the timed repetitions, so they span a longer stretch of
    # the host's slow and fast stretches at no extra cost. At least three
    # operations are timed, however long each takes. The first is a warm-up:
    # it is checked and its time is printed, but it stays out of wall_s,
    # since it also pays for first-call set-up inside numpy and scipy (about
    # 20% more time on sparse_qp_rp, 10% on enet_sparse).
    op_times = timed_ops(op, args.seconds / 2, 2, collect)
    gc.collect()
    start = time.perf_counter()
    tracemalloc.start()
    out = op()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    peak_pass_s = time.perf_counter() - start
    gate.add(workload.check(inputs, out))
    op_times += timed_ops(op, args.seconds / 2, 1, collect)
    times = call_times(outputs[1:])
    solves = of_kind(times, "solve")
    metrics = {
        "wall_s": sum(seconds for _, seconds in times),
        "setup_s": statistics.median(import_times) + statistics.median(build_times),
        "peak_mem_mb": peak / 2**20,
        "sweeps": statistics.median(out.sweeps for out in outputs),
    }
    notes = {"ops": len(op_times), "solve_calls_per_op": len(solves),
             "op_s": op_times, "import_s": import_times, "build_s": build_times,
             "peak_pass_s": peak_pass_s}
    return metrics, {k: END_TO_END_UNITS[k] for k in metrics}, gate, notes


def traced_run(workload, args):
    import layers
    from tracer import BUILD_SPAN, OP_SPAN, Tracer, snapshot

    gate = Gate()
    before = snapshot()

    build_tracer = Tracer()
    build_tracer.install()
    try:
        with build_tracer.span(BUILD_SPAN):
            inputs = workload.build(args.seed)
    finally:
        build_tracer.restore()

    # Outputs are checked only after the wrappers are gone, so the checks'
    # own racml calls leave no spans or counts.
    tracer = Tracer()
    traced_outputs = []
    tracer.install()
    try:
        def traced_op():
            with tracer.span(OP_SPAN):
                return workload.run(inputs)

        traced_times = timed_ops(traced_op, args.seconds / 2, 1,
                                 traced_outputs.append)
    finally:
        tracer.restore()
    if snapshot() != before:
        raise RuntimeError("tracer left a wrapper installed")
    for out in traced_outputs:
        gate.add(workload.check(inputs, out))

    outputs = []

    def collect(out):
        gate.add(workload.check(inputs, out))
        outputs.append(out)

    plain_times = timed_ops(lambda: workload.run(inputs), args.seconds / 2, 2,
                            collect)
    times = call_times(outputs)
    solves = pooled(outputs, "solve")
    certifies = pooled(outputs, "certify")

    metrics, units = layers.per_layer(tracer, build_tracer, len(traced_times))
    # mean operation on each side, for the reason call_times gives
    traced_wall = statistics.fmean(traced_times)
    plain_wall = statistics.fmean(plain_times)
    extra = {
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace_overhead_pct": (100.0 * (traced_wall - plain_wall) / plain_wall, "%"),
        "latency.solve_p50_ms": (percentile_ms(solves, 50), "ms"),
        "latency.solve_p90_ms": (percentile_ms(solves, 90), "ms"),
        "latency.solve_calls": (len(of_kind(times, "solve")), "count"),
        "spectral.certify_p50_ms": (percentile_ms(certifies, 50), "ms"),
        "spectral.certify_p90_ms": (percentile_ms(certifies, 90), "ms"),
        "spectral.certify_calls": (len(of_kind(times, "certify")), "count"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = value
        units[name] = unit

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_file)
    notes = {"traced_ops": len(traced_times), "untraced_ops": len(plain_times),
             "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, units, gate, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_racml()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        metrics, units, gate, notes = traced_run(workload, args)
    else:
        metrics, units, gate, notes = plain_run(workload, args, import_s)
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} "
          + json.dumps(notes))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    fail_rate = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"gate attempted={gate.attempted} failed={gate.failed} fail_rate={fail_rate:g}")
    print(json.dumps({
        "correct": gate.attempted > 0 and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
