"""rnaloop benchmark: one workload, closed loop, one client.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload depth_tto --seed 1 --seconds 10 --trace 0

Workloads: depth_tto, depth_controller, cls_knn (see BENCHMARK.json for
why each exists). The run makes its inputs from the seed, times the set-up
several times, checks the correctness gates, warms up, then runs units
back to back for ``--seconds`` (and at least as many units as the error
metrics and the p90 need). With ``--trace 0`` it reports the end-to-end
metrics. With ``--trace 1`` it runs units untraced for half of
``--seconds``, replays the same number of units with every rnaloop layer
boundary wrapped and reports the per-layer metrics instead. Every metric
is printed with its unit; the last line of standard output is one JSON
object. A result, a manifest and (traced) the spans are written under
``perfbench/out/``.

The exit code is 0 only when every gate passed and no unit failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WARMUP_UNITS = 3
E2E_UNITS = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "images_per_s": "1/s",
    "error_before": "error",
    "error_after": "error",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_rnaloop():
    """Import rnaloop from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "rnaloop" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rnaloop source under {src}")
    sys.path.insert(0, str(src))
    import rnaloop
    import rnaloop.nets, rnaloop.serialize, rnaloop.signals, rnaloop.taskgen  # noqa: E401,F401

    if Path(rnaloop.__file__).resolve().parent != (src / "rnaloop").resolve():
        raise SystemExit(f"perfbench: rnaloop imported from {rnaloop.__file__}, not {src}")
    return rnaloop


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(rnaloop, workload, seed: int, config_hash: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": seed,
        "config": workload.config,
        "config_hash": config_hash,
        "rnaloop_version": rnaloop.__version__,
        "numpy_version": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "setup_repeats": SETUP_REPEATS,
        "warmup_units": WARMUP_UNITS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Units:
    """Runs units of one workload and keeps latency and failure counts."""

    def __init__(self, workload, state, tracer=None):
        self.workload, self.state, self.tracer = workload, state, tracer
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []

    def run_one(self, i: int):
        if self.tracer is not None:
            self.tracer.unit = i
        t0 = time.perf_counter()
        try:
            out = self.workload.unit(self.state, i)
        except Exception:  # a failed unit is counted, not fatal
            out = None
            self.failures.append(traceback.format_exc())
        self.latencies.append(time.perf_counter() - t0)
        if out is None or not self.workload.check(out):
            self.failed += 1
            return None
        return out


def timed_phase(workload, state, seconds: float, min_units: int) -> tuple[Units, float]:
    """Closed loop for ``seconds`` and at least ``min_units`` units.

    The first ``scored_units`` units are scored.
    """
    units = Units(workload, state)
    i = 0
    t0 = time.perf_counter()
    while i < min_units or time.perf_counter() - t0 < seconds:
        out = units.run_one(i)
        if i < workload.scored_units and out is not None:
            workload.score(state, i, out)
        i += 1
    return units, time.perf_counter() - t0


def replay(workload, state, n: int, tracer=None) -> tuple[Units, float]:
    units = Units(workload, state, tracer)
    t0 = time.perf_counter()
    for i in range(n):
        units.run_one(i)
    return units, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    rnaloop = import_rnaloop()
    import spans
    import summary
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    out_dir = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / "artifacts"
    workdir.mkdir(parents=True, exist_ok=True)
    info = manifest(rnaloop, workload, args.seed, workloads.config_hash(workload))

    inputs = workload.make_inputs(args.seed)

    tracer = spans.Tracer(spans.rnaloop_targets(rnaloop)) if args.trace else None
    setup_times, digests = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        state = None  # the previous set-up's state is garbage from here on
        t0 = time.perf_counter()
        if tracer:
            with tracer:
                state = workload.setup(inputs, workdir)
        else:
            state = workload.setup(inputs, workdir)
        setup_times.append(time.perf_counter() - t0)
        digests.append(state.digest())
    shutil.rmtree(workdir)

    gates = workload.gates(state)
    gates["setup_repeatable"] = len(set(digests)) == 1

    warm = Units(workload, state)
    for i in range(WARMUP_UNITS):
        warm.run_one(i)
    min_units = max(workload.scored_units, summary.min_samples(90))
    # A traced run spends about half its time replaying under the tracer.
    seconds = args.seconds / 2 if tracer else args.seconds
    units, wall = timed_phase(workload, state, seconds, min_units)
    gates.update(workload.final_gates(state))
    attempted = len(units.latencies) + WARMUP_UNITS
    failed = units.failed + warm.failed
    failures = warm.failures + units.failures

    if tracer:
        n = len(units.latencies)
        with tracer:
            traced, traced_wall = replay(workload, state, n, tracer)
        gates["tracer_restored_every_attribute"] = not tracer.leftover_wrappers()
        attempted += n
        failed += traced.failed
        failures += traced.failures
        metrics = spans.layer_metrics(tracer, n, len(setup_times))
        metrics["trace.overhead_frac"] = (traced_wall - wall) / wall
        tracer.write(out_dir / "spans.jsonl.gz")
    else:
        err_before, err_after = workload.errors(state)
        lat_ms = [t * 1e3 for t in units.latencies]
        metrics = {
            "latency_ms_p50": statistics.median(lat_ms),
            "latency_ms_p90": summary.percentile(lat_ms, 90),
            "images_per_s": len(lat_ms) / wall,
            "error_before": err_before,
            "error_after": err_after,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup_times),
        }
        info["latency_samples"] = len(lat_ms)
        info["setup_s_samples"] = setup_times

    unit_of = {**E2E_UNITS, **spans.LAYER_UNITS}
    correct = all(gates.values()) and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    info.update({"gates": gates, "fail_frac": failed / attempted, "failures": failures[:5],
                 "units_timed": len(units.latencies), "timed_wall_s": wall})
    (out_dir / "result.json").write_text(json.dumps({"manifest": info, "result": result}, indent=1))

    for name, ok in gates.items():
        print(f"gate {name}: {'pass' if ok else 'FAIL'}")
    for tb in failures[:3]:
        print(tb, file=sys.stderr)
    print(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted} units)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
