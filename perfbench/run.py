"""The reconstruction benchmark: one command for every workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-cold-129 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import os
import sys

# Pinned before numpy is imported anywhere in this process, and inherited
# by the input generator and by forked fleet workers: one BLAS/OpenMP
# thread per process, because two processes with OpenBLAS's default thread
# count oversubscribe a 2-core machine and spread the figures.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Program knobs that would change what is measured: a leftover disk cache
#: makes set-up bimodal, the others bound the cache, inject worker crashes
#: or scale the program's own bench timings.
UNSET = (
    "REPRO_TABLE_CACHE_DIR",
    "REPRO_TABLE_CACHE_BYTES",
    "REPRO_PARALLEL_CRASH_RATE",
    "REPRO_PARALLEL_CRASH_SEED",
    "REPRO_BENCH_HANDICAP",
)
os.environ.update(PINNED)
for _name in UNSET:
    os.environ.pop(_name, None)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Where a traced run writes its spans (ignored by git).
TRACE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("fit-cold-129", "discharge-65", "stream-dn-65")


def _load_inputs(workload: str, seed: int, seconds: float):
    """Run the input generator in its own process and read its archive."""
    import numpy as np

    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "inputs.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
        ],
        cwd=ROOT,
        capture_output=True,
        timeout=150,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"input generation failed with exit code {proc.returncode}")
    with np.load(io.BytesIO(proc.stdout), allow_pickle=False) as archive:
        return {k: archive[k] for k in archive.files}


def _stop_children() -> None:
    """End every process the run started before it reports.

    Fleet workers are joined by the engines' ``close``; the resource
    tracker that ``multiprocessing.shared_memory`` starts would outlive
    this process by a moment, so it is stopped and waited for here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="EFIT reconstruction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    arrays = _load_inputs(args.workload, args.seed, args.seconds)

    import measure
    import workloads

    env = measure.environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    calib = measure.calibrate()
    print(f"machine.calib_s = {calib:.6f} s")

    inputs = workloads.Inputs(args.workload, arrays)
    tracer = measure.Tracer(enabled=bool(args.trace))
    run = workloads.run_workload(args.workload, inputs, args.seconds, bool(args.trace), tracer)
    if args.trace:
        run.put("machine.calib_s", calib, "s")
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, run.records)
        print(f"trace written to {os.path.relpath(path, ROOT)}")

    print(
        f"{args.workload} seed {args.seed}: {run.attempted} slices attempted, "
        f"{run.failed} failed, outputs {'correct' if run.correct else 'WRONG'}"
    )
    for note in run.notes:
        print(f"  {note}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    _stop_children()
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
