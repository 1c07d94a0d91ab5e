"""The walshcube benchmark: one workload, one process, one client in a closed loop.

    python3 benchmarks/run.py --workload search-pisier --seed 1 --seconds 20 --trace 0

Workloads: search-pisier, search-umd, desk-eval (see benchmarks/README.md).
With ``--trace 0`` the run is timed untraced and reports the end-to-end
metrics, each time rescaled to reference speed (see ``reference.py``); with
``--trace 1`` it alternates untraced and traced blocks of the same
operations and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every operation passed its gate.

The package is imported from ``src/`` of this checkout and nowhere else;
without it the run exits nonzero before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"

# Single-threaded BLAS/OpenMP: the plain baseline, and unpinned threads make
# the p50 of search-pisier spread several times wider between runs.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 20  # every run completes at least this many; the first MIN_OPS are fingerprinted
SETUP_REPEATS = 9
TAIL_BEYOND = 10


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with TAIL_BEYOND samples above it.

    With N sorted samples this is the (N - TAIL_BEYOND)-th smallest, at
    percentile 100 * (N - TAIL_BEYOND) / N.  Fewer than TAIL_BEYOND + 1
    samples leave no such percentile.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def fingerprint(digests: list[str]) -> str:
    """SHA-256 over the run's result digests, in operation order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def import_walshcube():
    sys.path.insert(0, str(SRC))
    try:
        import walshcube
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import walshcube from {SRC}: {exc}")
    if Path(walshcube.__file__).resolve().parent.parent != SRC:
        sys.exit(f"benchmark: walshcube resolved to {walshcube.__file__}, not {SRC}")
    return walshcube


def fresh_import_s() -> float:
    """Wall time of `import walshcube` in a fresh interpreter that has numpy loaded.

    numpy's own import is left out: no change to this project can move it,
    and at about 0.1 s it would hide a doubling of the package's import.
    """
    code = (
        f"import sys, time, numpy; sys.path.insert(0, {str(SRC)!r}); "
        "start = time.perf_counter(); import walshcube; print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = result.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "commit": commit,
    }


class Loop:
    """Counts and gate results shared by the timed and the traced run."""

    def __init__(self, workload, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.ratios: list[float] = []
        self.digests: list[str] = []

    def step(self, index: int, around_op=None):
        """Prepare, run and gate operation `index`; returns (op_s, recheck_s) or None."""
        self.attempted += 1
        inputs = self.workload.prepare(self.seed, index)
        try:
            start = time.perf_counter()
            if around_op is None:
                output = self.workload.operate(inputs)
            else:
                with around_op():
                    output = self.workload.operate(inputs)
            middle = time.perf_counter()
            ratio, digest = self.workload.check(inputs, output)
            end = time.perf_counter()
        except Exception:  # a failed operation is counted, reported and survived
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if index < len(self.digests) and self.digests[index] != digest:
            # The traced run repeats operations; their results must not change.
            self.failed += 1
            print(f"operation {index} gave a different result when repeated", file=sys.stderr)
            return None
        if index < MIN_OPS and len(self.digests) == index:
            self.ratios.append(ratio)
            self.digests.append(digest)
        return middle - start, end - middle


def timed_run(loop: Loop, seconds: float, kernel) -> tuple[dict, dict]:
    """Run the closed loop, with a kernel pass after every step; times are rescaled by the passes."""
    timings, steps = [], []
    passes = [kernel.seconds()]
    start = time.perf_counter()
    while len(steps) < MIN_OPS or time.perf_counter() - start < seconds:
        step_start = time.perf_counter()
        timings.append(loop.step(len(steps)))
        steps.append(time.perf_counter() - step_start)
        passes.append(kernel.seconds())
    wall = time.perf_counter() - start
    unfinished = (0.0, 0.0)
    op_s = kernel.rescaled([(timing or unfinished)[0] for timing in timings], passes)
    recheck_s = kernel.rescaled([(timing or unfinished)[1] for timing in timings], passes)
    done = [i for i, timing in enumerate(timings) if timing is not None]
    latencies = [op_s[i] for i in done]
    rechecks = [recheck_s[i] for i in done]
    raw = [timings[i][0] for i in done]
    busy = sum(kernel.rescaled(steps, passes))  # failed steps included
    if len(latencies) <= TAIL_BEYOND:
        return {}, {"completed": len(latencies)}
    percentile, tail = tail_latency(latencies)
    metrics = {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "ops_per_s": len(latencies) / busy,
        "witnessed_ratio_mean": statistics.fmean(loop.ratios),
        "recheck_p50_s": statistics.median(rechecks),
    }
    notes = {
        "completed": len(latencies),
        "tail_percentile": round(percentile, 2),
        "samples_beyond_tail": TAIL_BEYOND,
        "wall_s": wall,
        "op_p50_wall_s": statistics.median(raw),
        "speed_vs_reference": kernel.speed(statistics.median(passes)),
        "ratio_ops": len(loop.ratios),
    }
    return metrics, notes


def traced_run(loop: Loop, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    ops = loop.workload.trace_ops
    tracer = spans.Tracer()
    totals = spans.SpanTotals()
    first_round = None
    untraced_s = traced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds < 2 or time.perf_counter() - start < seconds:
        for index in range(ops):
            timing = loop.step(index)
            untraced_s += timing[0] if timing else 0.0
        for index in range(ops):
            timing = loop.step(index, around_op=lambda: spans.patched(tracer))
            traced_s += timing[0] if timing else 0.0
        totals.add(tracer.spans)
        if first_round is None:
            first_round = list(tracer.spans)
        tracer.clear()
        rounds += 1
    spans.write_spans(spans_path, first_round)
    done = ops * rounds
    metrics = totals.per_layer(done)
    metrics["trace.op_s"] = traced_s / done
    metrics["trace.overhead_s"] = (traced_s - untraced_s) / done
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    split = {layer: round(totals.layer_self_ns(layer) * 1e-9 / traced_s, 4) for layer in spans.LAYERS}
    split["outside layers"] = round(1.0 - sum(split.values()), 4)
    notes = {
        "rounds": rounds,
        "ops_per_block": ops,
        "untraced_op_s": untraced_s / done,
        "layer_split_of_traced_op_time": split,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_in_file": len(first_round),
    }
    return metrics, notes


def main(argv=None) -> int:
    for name in THREAD_ENV:
        os.environ[name] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_walshcube()
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    # Set-up is import, seeded input generation and warm-up, each repeated;
    # the import is timed in fresh interpreters, as a command-line user pays it.
    # A kernel pass follows each repeat, so set-up is rescaled like the operations.
    kernel = reference.ReferenceKernel()
    imports, warm = [], []
    passes = [kernel.seconds()]
    for _ in range(SETUP_REPEATS):
        imports.append(fresh_import_s())
        start = time.perf_counter()
        workload.warm_up(args.seed)
        warm.append(time.perf_counter() - start)
        passes.append(kernel.seconds())
    imports, warm = kernel.rescaled(imports, passes), kernel.rescaled(warm, passes)
    setup_s = statistics.median(imports) + statistics.median(warm)

    loop = Loop(workload, args.seed)
    if args.trace:
        spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        metrics, notes = traced_run(loop, args.seconds, spans_path)
    else:
        metrics, notes = timed_run(loop, args.seconds, kernel)
        if metrics:
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = peak_rss_mb()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    correct = loop.failed == 0 and bool(metrics)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, 1 client, 1 process)")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    print(f"  {'failed_share':44s} {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} of {loop.attempted} operations)")
    print(f"  {'fingerprint':44s} {fingerprint(loop.digests)} "
          f"(first {len(loop.digests)} operations)")
    print("notes " + json.dumps({"setup": {"import_s": imports, "warm_up_s": warm}, **notes}))
    print("environment " + json.dumps(environment()))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
