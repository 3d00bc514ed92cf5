"""The benchmark's three workloads, their output checks and their metrics.

Each workload function takes the loaded inputs, the run length and the
trace flag and returns a :class:`Run`.  An untraced run measures the
end-to-end metrics.  A traced run measures the same work twice, first
untraced and then with the program's ``TraceHooks`` attached and the
benchmark's own spans around public calls; it reports the per-layer
metrics from the second pass and the tracing overhead from the pair.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pickle
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.batch import BatchFitEngine
from repro.efit.boundary import find_xpoints
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.fitting import EfitSolver, FitResult, GridStatics
from repro.efit.machine import diiid_like_machine, double_null_machine
from repro.efit.measurements import MeasurementSet
from repro.efit.operators import cached_edge_operator, drop_edge_operator
from repro.efit.solvers import make_solver
from repro.efit.tables import boundary_table_cache, cached_boundary_tables
from repro.obs.hooks import TraceHooks
from repro.obs.trace import TraceRecorder
from repro.parallel import ParallelFitEngine
from repro.scenarios import get_scenario
from repro.serve import Frame, ReconstructionService, ServeConfig

from inputs import SPECS, STREAM_RATE, Spec
from measure import Tracer, median, peak_rss_mb, tail

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: A slice fails when max|psi - psi_truth| / span(psi_truth) exceeds this:
#: five times the 1e-3 relative noise of each synthetic diagnostic class.
PSI_ERR_BOUND = 5e-3
#: ... or when its summed current is off the truth Ip by more than this
#: share: ten times the 1e-3 relative noise of the Rogowski coil.
IP_REL_BOUND = 1e-2

BATCH_SIZE = 8
FLEET_WORKERS = 2
#: Slices per ``fit_many`` call on ``discharge-65``: one between-shot batch
#: of four batch groups, two per worker.
FLEET_CALL_SLICES = 32
#: Per-slice solve deadline of ``stream-dn-65``, about ten times the slowest
#: warm slice seen when the benchmark was written.
STREAM_DEADLINE_S = 1.0
#: Deep enough that a run never sheds a frame at the offered rate.
STREAM_QUEUE_DEPTH = 64
EXECUTOR_WORKERS = 2
#: Scheduled frames per stream replayed through serial ``fit`` after the
#: run (the serial path, without GridStatics, takes ~75 ms a warm slice).
STREAM_CHECK_FRAMES = 24

REGIONS = ("steps_", "current_", "green_", "pflux_", "fit_")
_MACHINES = {"g186610": diiid_like_machine, "double-null": double_null_machine}


@dataclass
class Run:
    """What one workload run hands back to the command line."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Human-readable lines printed before the result.
    notes: list[str] = field(default_factory=list)
    #: Program trace records written out with the benchmark's spans.
    records: list[dict] = field(default_factory=list)
    #: max|psi - psi_truth| / span(psi_truth) of every slice that passed.
    psi_errs: list[float] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


class Inputs:
    """One run's generated inputs, as the measured process sees them."""

    def __init__(self, workload: str, arrays) -> None:
        self.workload = workload
        self.spec: Spec = SPECS[workload]
        self.scenario = get_scenario(self.spec.scenario)
        #: The scenario's registered solver settings, as its engines use them.
        self.solver_kwargs = dict(self.scenario.solver_kwargs)
        names = tuple(str(n) for n in arrays["names"])
        values = arrays["values"]
        self.streams: list[list[MeasurementSet]] = [
            [
                MeasurementSet(
                    values=values[s, i],
                    uncertainties=arrays["uncertainties"][s, i],
                    coil_currents=arrays["coil_currents"][s, i],
                    names=names,
                )
                for i in range(values.shape[1])
            ]
            for s in range(values.shape[0])
        ]
        self.psi_truth = np.asarray(arrays["psi_truth"])
        self.ip_truth = float(arrays["ip_truth"])
        machine, diagnostics, grid = self.fresh()
        if tuple(diagnostics.names) != names:
            raise RuntimeError("generated measurement names do not match the diagnostic set")
        self.machine, self.grid = machine, grid

    def fresh(self):
        """New machine, diagnostic set and grid objects (no cached state)."""
        machine = _MACHINES[self.spec.scenario]()
        return machine, DiagnosticSet.for_machine(machine), machine.make_grid(self.spec.grid)

    def drop_caches(self, grid) -> None:
        """Forget every table and operator the program cached for ``grid``."""
        boundary_table_cache().drop(grid)
        drop_edge_operator(grid, "dense")

    # -- output checks --------------------------------------------------------
    def psi_err(self, result: FitResult) -> float:
        span = float(np.ptp(self.psi_truth))
        return float(np.max(np.abs(result.psi - self.psi_truth)) / span)

    def check(self, result: FitResult) -> list[str]:
        """Names of the slice checks ``result`` fails (empty: it passes)."""
        sc = self.scenario
        failed = []
        if not result.converged:
            failed.append("converged")
        if not self.psi_err(result) <= PSI_ERR_BOUND:
            failed.append("psi_err")
        if not abs(result.ip - self.ip_truth) <= IP_REL_BOUND * abs(self.ip_truth):
            failed.append("ip")
        if not result.chi2 <= sc.max_chi2:
            failed.append("chi2")
        # Topology from the fitted flux map alone: saddle points of psi
        # inside the limiter, found apart from the solver's boundary search.
        xpoints = [
            (r, z)
            for r, z, _ in find_xpoints(self.grid, result.psi, max_points=6)
            if bool(self.machine.limiter.contains(r, z))
        ]
        if result.boundary.boundary_type != sc.boundary_type or len(xpoints) != sc.n_xpoints:
            failed.append("topology")
        return failed

    def tally(self, run: Run, results: Sequence[FitResult | None]) -> None:
        """Check every slice into ``run`` and keep the passing slices' psi_err."""
        reasons: dict[str, int] = {}
        for result in results:
            run.attempted += 1
            problems = ["missing"] if result is None else self.check(result)
            if problems:
                run.failed += 1
                for p in problems:
                    reasons[p] = reasons.get(p, 0) + 1
            else:
                run.psi_errs.append(self.psi_err(result))
        if reasons:
            run.notes.append(f"failed slice checks: {reasons}")


# -- shared metric helpers ------------------------------------------------------
def _end_to_end(run: Run, *, completed: int, window: float, latencies, setups, rss) -> None:
    run.put("slices_per_s", completed / window, "1/s")
    run.put("slice_p50_s", median(latencies), "s")
    run.put("setup_s", median(setups), "s")
    run.notes.append("cold set-ups: " + ", ".join(f"{t:.3f}" for t in setups) + " s")
    run.put("peak_rss_mb", rss, "MB")


def _regions(run: Run, totals: dict[str, float], iterations: int) -> None:
    """Per-iterate self time of the four ``fit_`` regions, and pflux_'s share."""
    run.put("boundary.steps_s", totals.get("steps_", 0.0) / iterations, "s")
    run.put("current.current_s", totals.get("current_", 0.0) / iterations, "s")
    run.put("response.green_s", totals.get("green_", 0.0) / iterations, "s")
    run.put("pflux.pflux_s", totals.get("pflux_", 0.0) / iterations, "s")
    fit_total = sum(totals.get(name, 0.0) for name in REGIONS)
    run.put("pflux.share", totals.get("pflux_", 0.0) / fit_total, "1")
    shares = ", ".join(f"{n} {100 * totals.get(n, 0.0) / fit_total:.1f}%" for n in REGIONS)
    run.notes.append(f"region shares of fit_: {shares}")


def _serial_pflux(run: Run, tracer: Tracer, grid, since: float) -> None:
    """pflux_ split on the single-slice path, which holds no edge operator.

    ``operators.apply_s`` is ``pflux.compute`` minus its interior ``solve``
    per call: the boundary Green sums against the table (plus the O(N^2)
    right-hand side).  Operations per byte are computed from array sizes
    for those table contractions.
    """
    solve = tracer.mean("solvers.solve", since=since)
    run.put("solvers.solve_s", solve, "s")
    run.put("operators.apply_s", tracer.mean("pflux.compute", since=since) - solve, "s")
    nw, nh = grid.nw, grid.nh
    flops = 4.0 * nw * nh * (nw + nh)
    # Two table slices for the vertical edges, the whole table twice for
    # the horizontal ones, the current grid four times, two scratch blocks.
    words = 2 * nh * nw + 2 * nw * nh * nw + 4 * nw * nh + 2 * nh * nh
    run.put("operators.flop_per_byte", flops / (8.0 * words), "flop/B")


def _dense_flop_per_byte(grid, columns: int) -> float:
    """Computed operations per byte of the dense edge GEMM on ``columns`` slices."""
    n_edge, n_grid = grid.n_boundary, grid.size
    return 2.0 * n_edge * n_grid * columns / (8.0 * (n_edge * n_grid + (n_grid + n_edge) * columns))


def _setup_ledger(run: Run, inputs: Inputs, tracer: Tracer, *, operator: bool, statics: bool) -> None:
    """Cold time of each public set-up call, median over ``SETUP_REPS``."""
    samples: dict[str, list[float]] = {}

    def timed(name: str, fn: Callable):
        t0 = time.perf_counter()
        with tracer.span(name):
            out = fn()
        samples.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    op = None
    for _ in range(SETUP_REPS):
        machine, diagnostics, grid = inputs.fresh()
        inputs.drop_caches(grid)
        tables = timed("tables.build", lambda: cached_boundary_tables(grid))
        if operator:
            op = timed("operators.build", lambda: cached_edge_operator(tables, "dense"))
        timed("solvers.factor", lambda: make_solver("dst", grid))
        timed(
            "diagnostics.response",
            lambda: (diagnostics.response_to_grid(grid), diagnostics.response_to_coils(machine)),
        )
        if statics:
            timed("fitting.statics", lambda: GridStatics.build(machine, grid))
        inputs.drop_caches(grid)
    run.put("tables.build_s", median(samples["tables.build"]), "s")
    run.put("operators.build_s", median(samples["operators.build"]) if operator else 0.0, "s")
    run.put("operators.mb", op.nbytes / 1e6 if op is not None else 0.0, "MB")
    run.put("solvers.factor_s", median(samples["solvers.factor"]), "s")
    run.put("diagnostics.response_s", median(samples["diagnostics.response"]), "s")
    run.put("fitting.statics_s", median(samples["fitting.statics"]) if statics else 0.0, "s")


def _cache_counts(run: Run, before: dict, after: dict) -> None:
    """Table-cache hits and misses per cold set-up."""
    run.put("tables.cache_hits", (after["hits"] - before["hits"]) / SETUP_REPS, "count")
    run.put("tables.cache_misses", (after["misses"] - before["misses"]) / SETUP_REPS, "count")


# Layers a workload does not run, reported with their neutral value so that
# every traced run prints every per-layer metric.
_NO_FLEET = (
    ("parallel.spawn_s", 0.0, "s"),
    ("parallel.arena_mb", 0.0, "MB"),
    ("parallel.worker_busy_ratio", 0.0, "1"),
    ("parallel.parent_s", 0.0, "s"),
    ("parallel.result_mb", 0.0, "MB"),
    ("parallel.retries", 0.0, "count"),
    ("parallel.scaling", 0.0, "1"),
)
_NO_SERVE = (
    ("serve.queue_p50_s", 0.0, "s"),
    ("serve.queue_tail_s", 0.0, "s"),
    ("serve.latency_tail_s", 0.0, "s"),
    ("serve.solve_p50_s", 0.0, "s"),
    ("serve.generator_late_s", 0.0, "s"),
    ("serve.frames_shed", 0.0, "count"),
)
#: One current column per pflux_ call, always unconverged; no workspace arenas.
_NO_BATCH = (
    ("batch.useful_column_ratio", 1.0, "1"),
    ("batch.steady_allocations", 0.0, "count"),
)


# -- fit-cold-129 -----------------------------------------------------------------
def _fit_window(solver: EfitSolver, slices, *, seconds=None, count=None, tracer: Tracer):
    """Cold serial fits one after another until ``seconds`` or ``count``."""
    results, latencies = [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - t_start >= seconds:
            break
        m = slices[i % len(slices)]
        t0 = time.perf_counter()
        with tracer.span("fitting.fit"):
            result = solver.fit(m, require_convergence=False)
        latencies.append(time.perf_counter() - t0)
        results.append(result)
        i += 1
    return results, latencies, time.perf_counter() - t_start


def fit_cold(inputs: Inputs, seconds: float, trace: bool, tracer: Tracer) -> Run:
    run = Run()
    slices = inputs.streams[0]
    cache = boundary_table_cache()
    before = cache.cache_info()
    setups = []
    for _ in range(SETUP_REPS):
        machine, diagnostics, grid = inputs.fresh()
        inputs.drop_caches(grid)
        t0 = time.perf_counter()
        with tracer.span("setup"):
            solver = EfitSolver(machine, diagnostics, grid, **inputs.solver_kwargs)
        setups.append(time.perf_counter() - t0)
    after = cache.cache_info()

    if not trace:
        results, latencies, window = _fit_window(solver, slices, seconds=seconds, tracer=tracer)
        inputs.tally(run, results)
        iterations = sum(r.iterations for r in results)
        run.notes.append(
            f"{iterations / len(results):.1f} iterates a slice, {1e3 * sum(latencies) / iterations:.2f} ms an iterate"
        )
        _end_to_end(
            run,
            completed=sum(r.converged for r in results),
            window=window,
            latencies=latencies,
            setups=setups,
            rss=peak_rss_mb(),
        )
        return run

    results_a, lat_a, _ = _fit_window(solver, slices, seconds=seconds / 2, tracer=tracer)
    recorder = TraceRecorder()
    solver.hooks = TraceHooks(recorder)
    tracer.wrap(solver.solver, "solve", "solvers.solve")
    tracer.wrap(solver.pflux, "compute", "pflux.compute")
    since = time.perf_counter()
    results_b, lat_b, _ = _fit_window(solver, slices, count=len(results_a), tracer=tracer)
    inputs.tally(run, results_a + results_b)
    run.records = [r.to_dict() for r in recorder.records]

    iterations = sum(r.iterations for r in results_b)
    _regions(run, recorder.region_totals(), iterations)
    run.put("fitting.iters_per_slice", iterations / len(results_b), "count")
    run.put("fitting.iterate_s", sum(lat_b) / iterations, "s")
    run.put("fitting.warm_slices", 0, "count")
    run.put("fitting.warm_fallbacks", 0, "count")
    _serial_pflux(run, tracer, solver.grid, since)
    _setup_ledger(run, inputs, tracer, operator=False, statics=False)
    _cache_counts(run, before, after)
    for name, value, unit in _NO_BATCH + _NO_FLEET + _NO_SERVE:
        run.put(name, value, unit)
    run.put("obs.trace_overhead", sum(lat_b) / sum(lat_a) - 1.0, "1")
    return run


# -- discharge-65 -------------------------------------------------------------------
@dataclass
class _Call:
    slices: list
    result: object
    start: float
    wall: float


def _fleet_window(fleet, slices, *, seconds=None, calls=None, tracer: Tracer) -> list[_Call]:
    """Between-shot batches of ``FLEET_CALL_SLICES`` cold slices, one call at a time."""
    out: list[_Call] = []
    t_start = time.perf_counter()
    k = 0
    while True:
        if calls is not None and k >= len(calls):
            break
        if calls is None and time.perf_counter() - t_start >= seconds:
            break
        if calls is not None:
            batch = calls[k].slices
        else:
            first = (k * FLEET_CALL_SLICES) % len(slices)
            batch = slices[first : first + FLEET_CALL_SLICES]
        t0 = time.perf_counter()
        with tracer.span("parallel.fit_many"):
            result = fleet.fit_many(batch, require_convergence=False, allow_failures=True)
        out.append(_Call(batch, result, t0, time.perf_counter() - t0))
        k += 1
    return out


def _group_ratio(iterations: Sequence[int]) -> tuple[int, int]:
    """(useful, carried) current columns over the batch groups of one call."""
    useful = carried = 0
    for start in range(0, len(iterations), BATCH_SIZE):
        group = iterations[start : start + BATCH_SIZE]
        useful += sum(group)
        carried += len(group) * max(group)
    return useful, carried


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    covered, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            covered += b - a
            reach = b
    return covered


def discharge(inputs: Inputs, seconds: float, trace: bool, tracer: Tracer) -> Run:
    run = Run()
    slices = inputs.streams[0]
    cache = boundary_table_cache()
    retries = 0
    # Every fleet is closed on the way out, also when a call raises (close
    # is idempotent, so the explicit closes below are safe to repeat).
    with ExitStack() as stack:
        before = cache.cache_info()
        setups, spawns = [], []
        for rep in range(SETUP_REPS):
            machine, diagnostics, grid = inputs.fresh()
            inputs.drop_caches(grid)
            t0 = time.perf_counter()
            with tracer.span("setup"):
                fleet = ParallelFitEngine(
                    machine,
                    diagnostics,
                    grid,
                    batch_size=BATCH_SIZE,
                    workers=FLEET_WORKERS,
                    **inputs.solver_kwargs,
                )
                stack.callback(fleet.close)
                # The first call forks the workers and returns only once
                # both have reported ready: the fleet is then usable.
                t1 = time.perf_counter()
                fleet.fit_many(slices[:1], require_convergence=False)
            t2 = time.perf_counter()
            setups.append(t2 - t0)
            spawns.append(t2 - t1)
            if rep < SETUP_REPS - 1:
                retries += fleet.scheduler.counters.retries
                fleet.close()
        after = cache.cache_info()
        arena_mb = fleet.arena.nbytes / 1e6

        calls_a = _fleet_window(fleet, slices, seconds=seconds / 2 if trace else seconds, tracer=tracer)
        rss = peak_rss_mb(p.pid for p in multiprocessing.active_children())
        retries += fleet.scheduler.counters.retries
        fleet.close()

        calls_b: list[_Call] = []
        if trace:
            recorder = TraceRecorder()
            traced = ParallelFitEngine(
                machine,
                diagnostics,
                grid,
                batch_size=BATCH_SIZE,
                workers=FLEET_WORKERS,
                hooks=TraceHooks(recorder),
                **inputs.solver_kwargs,
            )
            stack.callback(traced.close)
            traced.fit_many(slices[:1], require_convergence=False)
            calls_b = _fleet_window(traced, slices, calls=calls_a, tracer=tracer)
            retries += traced.scheduler.counters.retries
            traced.close()

    window_results = [r for c in calls_a + calls_b for r in c.result.results]
    n_sent = sum(len(c.slices) for c in calls_a + calls_b)
    inputs.tally(run, window_results + [None] * (n_sent - len(window_results)))

    # Cross-engine check, outside the timed window: the fleet's first call
    # against one in-process BatchFitEngine on the same batch groups.
    first = calls_a[0]
    local = BatchFitEngine(machine, diagnostics, grid, batch_size=BATCH_SIZE, **inputs.solver_kwargs)
    t0 = time.perf_counter()
    head = local.fit_many(first.slices[:BATCH_SIZE], require_convergence=False)
    allocations = local.workspace_counters().allocations
    rest = (
        local.fit_many(first.slices[BATCH_SIZE:], require_convergence=False).results
        if len(first.slices) > BATCH_SIZE
        else ()
    )
    local_wall = time.perf_counter() - t0
    steady_allocations = local.workspace_counters().allocations - allocations
    local_results = head.results + tuple(rest)
    # A call that lost slices is already counted in ``failed``; the
    # comparison needs the whole call.
    identical = len(local_results) != len(first.result.results) or all(
        np.array_equal(a.psi, b.psi) and a.iterations == b.iterations and a.chi2 == b.chi2
        for a, b in zip(local_results, first.result.results)
    )
    if not identical:
        run.correct = False
        run.notes.append("fleet results differ from the in-process BatchFitEngine")

    if not trace:
        walls = [c.wall for c in calls_a]
        latencies = [c.wall for c in calls_a for _ in c.result.results]
        _end_to_end(
            run,
            completed=sum(r.converged for c in calls_a for r in c.result.results),
            window=sum(walls),
            latencies=latencies,
            setups=setups,
            rss=rss,
        )
        run.notes.append("slice latencies on discharge-65 are the wall time of each slice's fit_many call")
        return run

    # Per-layer numbers from the traced pass.
    totals: dict[str, float] = {}
    job_seconds = 0.0
    parent_s = 0.0
    result_bytes = 0
    results_b = []
    for call in calls_b:
        jobs = []
        for report in call.result.worker_reports:
            for rec in report.records:
                run.records.append({"worker": report.worker, **rec})
                if rec.get("kind") != "span" or rec.get("category") != "region":
                    continue
                if rec["name"] == "job":
                    jobs.append((rec["start"], rec["start"] + rec["duration"]))
                    job_seconds += rec["duration"]
                else:
                    totals[rec["name"]] = totals.get(rec["name"], 0.0) + rec["exclusive"]
        parent_s += call.wall - _covered(jobs, call.start, call.start + call.wall)
        result_bytes += len(pickle.dumps(call.result.results, protocol=pickle.HIGHEST_PROTOCOL))
        results_b.extend(call.result.results)
    iterations = sum(r.iterations for r in results_b)
    _regions(run, totals, iterations)
    run.put("fitting.iters_per_slice", iterations / len(results_b), "count")
    run.put("fitting.iterate_s", job_seconds / iterations, "s")
    run.put("fitting.warm_slices", 0, "count")
    run.put("fitting.warm_fallbacks", 0, "count")

    useful = carried = 0
    for call in calls_b:
        u, c = _group_ratio([r.iterations for r in call.result.results])
        useful, carried = useful + u, carried + c
    run.put("batch.useful_column_ratio", useful / carried, "1")
    run.put("batch.steady_allocations", steady_allocations, "count")

    wall_b = sum(c.wall for c in calls_b)
    run.put("parallel.spawn_s", median(spawns), "s")
    run.put("parallel.arena_mb", arena_mb, "MB")
    run.put("parallel.worker_busy_ratio", job_seconds / (FLEET_WORKERS * wall_b), "1")
    run.put("parallel.parent_s", parent_s / len(calls_b), "s")
    run.put("parallel.result_mb", result_bytes / 1e6 / len(results_b), "MB")
    run.put("parallel.retries", retries, "count")
    run.put("parallel.scaling", (len(first.slices) / first.wall) / (len(first.slices) / local_wall), "1")

    # pflux_ split: the fleet's workers cannot be reached from here, so the
    # edge apply and the batched solve are timed on the in-process engine,
    # over the same first batch group.
    tracer.wrap(local.edge_op, "apply", "operators.apply")
    tracer.wrap(local.solver.solver, "solve_batch", "solvers.solve_batch")
    since = time.perf_counter()
    local.fit_many(first.slices[:BATCH_SIZE], require_convergence=False)
    run.put("operators.apply_s", tracer.mean("operators.apply", since=since), "s")
    run.put("solvers.solve_s", tracer.mean("solvers.solve_batch", since=since), "s")
    run.put("operators.flop_per_byte", _dense_flop_per_byte(grid, BATCH_SIZE), "flop/B")

    _setup_ledger(run, inputs, tracer, operator=True, statics=True)
    _cache_counts(run, before, after)
    for name, value, unit in _NO_SERVE:
        run.put(name, value, unit)
    run.put("obs.trace_overhead", wall_b / sum(c.wall for c in calls_a) - 1.0, "1")
    return run


# -- stream-dn-65 ----------------------------------------------------------------------
STREAM_IDS = ("shot-a", "shot-b")


async def _open_service(engine: BatchFitEngine) -> ReconstructionService:
    service = ReconstructionService(
        engine,
        config=ServeConfig(
            deadline_s=STREAM_DEADLINE_S,
            queue_depth=STREAM_QUEUE_DEPTH,
            max_streams=len(STREAM_IDS),
            warm_start=True,
            executor_workers=EXECUTOR_WORKERS,
        ),
    )
    await service.start()
    for sid in STREAM_IDS:
        await service.open_stream(sid)
    return service


@dataclass
class _Served:
    reports: dict  # stream id -> tuple of SliceReport (frame 0 first)
    due: dict  # (stream id, frame index) -> due time
    submitted: dict  # (stream id, frame index) -> submit time
    t_first: float
    shed: int
    fallbacks: int
    t_schedule: float  # clock when the schedule started (after the cold frames)


async def _serve(service: ReconstructionService, frames, n_sched: int, tracer: Tracer) -> _Served:
    """Cold first frames, then ``n_sched`` frames per stream on a fixed schedule."""
    served0 = service.metrics.slices.value
    for sid, stream in zip(STREAM_IDS, frames):
        await service.submit(sid, Frame(stream_id=sid, index=0, measurements=stream[0]))
    while service.metrics.slices.value < served0 + len(STREAM_IDS):
        await asyncio.sleep(0.002)
    t_schedule = time.perf_counter()
    period = 1.0 / STREAM_RATE
    t_first = t_schedule + 0.05
    due, submitted = {}, {}
    for i in range(1, n_sched + 1):
        for k, (sid, stream) in enumerate(zip(STREAM_IDS, frames)):
            # Streams interleave evenly inside each period.
            t_due = t_first + (i - 1) * period + k * period / len(STREAM_IDS)
            delay = t_due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            due[sid, i] = t_due
            submitted[sid, i] = time.perf_counter()
            with tracer.span("serve.submit"):
                await service.submit(sid, Frame(stream_id=sid, index=i, measurements=stream[i]))
    summaries = await service.stop()
    return _Served(
        reports={sid: summaries[sid].reports for sid in STREAM_IDS},
        due=due,
        submitted=submitted,
        t_first=t_first,
        shed=int(service.metrics.frames_shed.value),
        fallbacks=int(service.metrics.warm_start_fallbacks.value),
        t_schedule=t_schedule,
    )


def _latencies(served: _Served):
    """Per scheduled frame: (report, due-to-report latency, generator lateness)."""
    out = []
    for sid in STREAM_IDS:
        for report in served.reports[sid][1:]:
            key = (sid, report.index)
            late = served.submitted[key] - served.due[key]
            out.append((report, late + report.queue_seconds + report.solve_seconds, late))
    return out


def _chained_serial_identical(solver: EfitSolver, frames, served: _Served) -> bool:
    """Replay the head of each stream through serial ``fit`` with the
    service's warm chaining; converged slices must match bit for bit."""
    for sid, stream in zip(STREAM_IDS, frames):
        prev_psi = prev_coeffs = None
        for report in served.reports[sid][: STREAM_CHECK_FRAMES + 1]:
            serial = solver.fit(
                stream[report.index],
                psi_initial=prev_psi,
                coeffs_initial=prev_coeffs,
                require_convergence=False,
            )
            if report.converged:
                if not (np.array_equal(serial.psi, report.result.psi) and serial.chi2 == report.result.chi2):
                    return False
                prev_psi, prev_coeffs = serial.psi, serial.history[-1].coefficients
            else:
                prev_psi = prev_coeffs = None
    return True


def stream(inputs: Inputs, seconds: float, trace: bool, tracer: Tracer) -> Run:
    return asyncio.run(_stream(inputs, seconds, trace, tracer))


async def _stream(inputs: Inputs, seconds: float, trace: bool, tracer: Tracer) -> Run:
    run = Run()
    frames = inputs.streams
    n_sched = min(len(f) for f in frames) - 1
    if trace:
        n_sched = (n_sched + 1) // 2
    cache = boundary_table_cache()
    before = cache.cache_info()
    setups = []
    for rep in range(SETUP_REPS):
        machine, diagnostics, grid = inputs.fresh()
        inputs.drop_caches(grid)
        t0 = time.perf_counter()
        with tracer.span("setup"):
            engine = BatchFitEngine(
                machine, diagnostics, grid, batch_size=BATCH_SIZE, **inputs.solver_kwargs
            )
            service = await _open_service(engine)
        setups.append(time.perf_counter() - t0)
        if rep < SETUP_REPS - 1:
            await service.stop()
    after = cache.cache_info()

    served_a = await _serve(service, frames, n_sched, tracer)
    rss = peak_rss_mb()
    served_b = None
    if trace:
        recorder = TraceRecorder()
        engine.solver.hooks = TraceHooks(recorder)
        tracer.wrap(engine.solver.solver, "solve", "solvers.solve")
        tracer.wrap(engine.solver.pflux, "compute", "pflux.compute")
        served_b = await _serve(await _open_service(engine), frames, n_sched, tracer)
        # Per-layer numbers first: the serial replay of the check below
        # runs the same solver objects and would add to their spans.
        _stream_layers(run, served_a, served_b, recorder, tracer, grid)
        _setup_ledger(run, inputs, tracer, operator=True, statics=True)
        _cache_counts(run, before, after)
        for name, value, unit in _NO_BATCH + _NO_FLEET:
            run.put(name, value, unit)

    reports = [r for s in (served_a, served_b) if s for sid in STREAM_IDS for r in s.reports[sid]]
    expected = (n_sched + 1) * len(STREAM_IDS) * (2 if trace else 1)
    inputs.tally(run, [r.result for r in reports] + [None] * (expected - len(reports)))
    run.notes.append(
        f"{sum(r.deadline_missed for r in reports)} deadline misses, "
        f"{served_a.shed + (served_b.shed if served_b else 0)} frames shed"
    )
    if not _chained_serial_identical(engine.solver, frames, served_a):
        run.correct = False
        run.notes.append("served slices differ from a chained serial fit")
    if trace:
        return run

    samples = _latencies(served_a)
    its = sorted(r.iterations for r, _, _ in samples)
    run.notes.append(
        f"scheduled slices: {sum(r.warm_start for r, _, _ in samples)} warm, "
        f"{served_a.fallbacks} warm-start fallbacks, iterates median {its[len(its) // 2]} max {its[-1]}"
    )
    completion = max(served_a.due[r.stream_id, r.index] + lat for r, lat, _ in samples)
    _end_to_end(
        run,
        completed=sum(r.converged for r, _, _ in samples),
        window=completion - served_a.t_first,
        latencies=[lat for _, lat, _ in samples],
        setups=setups,
        rss=rss,
    )
    value, label = tail([lat for _, lat, _ in samples])
    run.notes.append(f"latency tail (reported, not gated) = {value:.6g} s, the {label}")
    run.notes.append(
        f"offered {STREAM_RATE * len(STREAM_IDS):.1f} slices/s over {n_sched} frames per stream"
    )
    return run


def _stream_layers(run: Run, served_a: _Served, served_b: _Served, recorder, tracer: Tracer, grid) -> None:
    """Per-layer metrics of the traced stream pass (warm, scheduled slices only)."""
    samples_b = _latencies(served_b)
    scheduled = [r for r, _, _ in samples_b]
    totals: dict[str, float] = {}
    for span in recorder.spans(category="region"):
        if span.start >= served_b.t_schedule:
            totals[span.name] = totals.get(span.name, 0.0) + span.exclusive
    run.records = [r.to_dict() for r in recorder.records]
    iterations = sum(r.iterations for r in scheduled)
    _regions(run, totals, iterations)
    solve_b = sum(r.solve_seconds for r in scheduled)
    run.put("fitting.iters_per_slice", iterations / len(scheduled), "count")
    run.put("fitting.iterate_s", solve_b / iterations, "s")
    run.put("fitting.warm_slices", sum(r.warm_start for r in scheduled), "count")
    run.put("fitting.warm_fallbacks", served_b.fallbacks, "count")
    _serial_pflux(run, tracer, grid, served_b.t_schedule)

    queue = [r.queue_seconds for r in scheduled]
    run.put("serve.queue_p50_s", median(queue), "s")
    run.put("serve.queue_tail_s", tail(queue)[0], "s")
    run.put("serve.latency_tail_s", tail([lat for _, lat, _ in samples_b])[0], "s")
    run.put("serve.solve_p50_s", median(r.solve_seconds for r in scheduled), "s")
    run.put("serve.generator_late_s", max(late for _, _, late in samples_b), "s")
    run.put("serve.frames_shed", served_b.shed, "count")
    solve_a = sum(r.solve_seconds for r, _, _ in _latencies(served_a))
    run.put("obs.trace_overhead", solve_b / solve_a - 1.0, "1")


WORKLOADS = {
    "fit-cold-129": fit_cold,
    "discharge-65": discharge,
    "stream-dn-65": stream,
}


def run_workload(name: str, inputs: Inputs, seconds: float, trace: bool, tracer: Tracer) -> Run:
    run = WORKLOADS[name](inputs, seconds, trace, tracer)
    # Reconstruction accuracy: per layer, since its spread across seeds is
    # that of the noise draws of the few slices a run holds, not the code's.
    if run.psi_errs:
        psi_err = median(run.psi_errs)
        if trace:
            run.put("fitting.psi_err", psi_err, "1")
        else:
            run.notes.append(f"psi_err (median over {len(run.psi_errs)} slices) = {psi_err:.4g}")
    return run
