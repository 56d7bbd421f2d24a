"""Run one teleroute benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload full --seed 1 --seconds 20 --trace 1

One client runs the workload's jobs one after another in this process
(a closed loop), repeating passes over the job list until ``--seconds``
would be exceeded (at least one pass).  With ``--trace 0`` the passes
run the unmodified program and the end-to-end metrics are printed.
With ``--trace 1`` untraced and traced passes alternate (at least one
of each) and the per-layer metrics are printed.  Times are calibrated
seconds (see calibrate.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
(provenance, raw times, quality rows, output fingerprints) is written
to perfbench/out/.

The program is imported from src/ next to this directory; without it
the benchmark exits with status 2 before printing a result.
"""

from __future__ import annotations

import os

# numpy links a multi-threaded OpenBLAS; the closed loop is one client
# on one core, so the BLAS/OpenMP pools are pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from calibrate import REFERENCE_S, Speedometer, reference_time  # noqa: E402
from jobs import SCALES, WORKLOADS, RouteJob, build_jobs, warmup_jobs  # noqa: E402
from spans import BOOKKEEPING, Tracer, instrument, patched  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
CALIBRATION = "calibrate"   # span name of speed samples in traced passes
TAIL_BEYOND = 10   # samples beyond the reported tail percentile
_MODULES = ("cli", "graphs", "schedule", "execute", "bounds", "stabilizer",
            "teleport_circuit", "swap_routing", "sparse_routing",
            "tele_routing")

LAYER_TIMES = (
    "graphs.generate_graph", "graphs.generate_permutation",
    "graphs.graph_from_json", "swap_routing.route_generic",
    "tele_routing.greedy_schedule", "tele_routing.ladder_schedule",
    "sparse_routing.sparse_route", "execute.verify_schedule",
    "execute.apply_schedule", "execute.achieved_permutation",
    "schedule.to_json", "schedule.from_json", "schedule.depth",
    "teleport_circuit.emit_circuit", "teleport_circuit.verify_teleportation",
    "stabilizer.run", "bounds.bounds_report",
)
LAYER_COUNTS = (
    "graphs.edges", "swap_routing.timesteps", "swap_routing.swaps",
    "tele_routing.rounds", "tele_routing.transfers",
    "sparse_routing.timesteps", "sparse_routing.ops", "execute.timesteps",
    "execute.ops", "execute.failures", "schedule.json_bytes",
    "teleport_circuit.layers", "teleport_circuit.gates", "stabilizer.qubits",
    "stabilizer.measurements", "bounds.exact_cuts",
)


def load_teleroute() -> SimpleNamespace:
    """A fresh import of teleroute from SRC, as a user's process pays it."""
    for name in [m for m in sys.modules
                 if m == "teleroute" or m.startswith("teleroute.")]:
        del sys.modules[name]
    tr = SimpleNamespace(**{m: importlib.import_module(f"teleroute.{m}")
                            for m in _MODULES})
    if Path(tr.cli.__file__).resolve().parent != SRC / "teleroute":
        raise ImportError(f"teleroute was imported from {tr.cli.__file__}, "
                          f"not from {SRC}")
    return tr


def geo_mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return statistics.geometric_mean(values)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


@dataclass
class Pass:
    """One pass over the job list.  ``times`` are calibrated per-job
    seconds and ``wall`` their sum; ``raw_wall`` is the uncalibrated
    sum, which paces the run."""

    wall: float
    raw_wall: float
    times: list[float]
    problems: list[list[str]]
    outcomes: list


class Runner:
    def __init__(self, workload: str, scale: str, seed: int):
        self.workload, self.scale, self.seed = workload, scale, seed
        self.work = OUT / f"work-{os.getpid()}"

    def setup(self) -> float:
        """Import, build the job list and its inputs, warm up; returns
        the calibrated seconds it took.  The last set-up's modules and
        jobs are the ones measured."""
        if self.work.exists():
            shutil.rmtree(self.work)
        meter = Speedometer()
        before = reference_time()
        with meter.sampling():
            start = time.perf_counter()
            self.work.mkdir(parents=True)
            self.tr = load_teleroute()
            self.jobs = build_jobs(self.workload, self.scale)
            for job in self.jobs:
                job.prepare(self.tr, self.work, self.seed)
            warm = warmup_jobs(self.workload)
            for job in warm:
                job.prepare(self.tr, self.work, self.seed)
            for job in warm:
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        job.check(self.tr, job.run(self.tr))
                except Exception:
                    pass   # the measured passes report the failure
            elapsed = time.perf_counter() - start - meter.spent
        return elapsed * meter.scale(before, reference_time())

    def run_pass(self, jobs, tracer: Tracer | None) -> Pass:
        """Each job timed alone, with the machine's speed sampled before,
        during and after it (the samples are not timed), then every
        output checked."""
        gc.collect()
        results, raw, times = [], [], []
        targets = instrument(self.tr, tracer) if tracer else []
        meter = Speedometer(
            (lambda start, end: tracer.record(CALIBRATION, start, end))
            if tracer else None)
        with patched(targets):
            cal = reference_time()
            for job in jobs:
                with meter.sampling():
                    start = time.perf_counter()
                    try:
                        with contextlib.redirect_stderr(io.StringIO()) as err:
                            if tracer:
                                with tracer.span("job"):
                                    result = job.run(self.tr)
                            else:
                                result = job.run(self.tr)
                    except Exception:
                        result = traceback.format_exc()
                    elapsed = time.perf_counter() - start - meter.spent
                after = reference_time()
                scale = meter.scale(cal, after)
                cal = after
                raw.append(elapsed)
                times.append(elapsed * scale)
                if tracer:
                    tracer.root_scale.append(scale)
                results.append((result, err.getvalue()))
        outcomes, problems = [], []
        for job, (result, err) in zip(jobs, results):
            out = None
            if isinstance(result, str):
                bad = [f"raised: {result}"]
            else:
                try:
                    out = job.check(self.tr, result)
                    bad = out.problems
                except Exception:
                    bad = [f"check raised: {traceback.format_exc()}"]
            if bad and err:
                bad.append(f"stderr: {err.strip()}")
            outcomes.append(out)
            problems.append(bad)
        return Pass(sum(times), sum(raw), times, problems, outcomes)

    def quality_bounds(self, outcomes):
        """diam and iso_lb beside each route job's row (interval bounds
        above 24 vertices, as `teleroute bounds --no-exact` gives)."""
        cache = {}
        for job, out in zip(self.jobs, outcomes):
            if not isinstance(job, RouteJob) or out is None:
                continue
            key = job.name.split("/")[0]
            if key not in cache:
                g = job.g
                hi = self.tr.bounds.vertex_expansion_bounds(g)[1]
                cache[key] = (self.tr.graphs.diameter(g),
                              self.tr.bounds.iso_lower_bound(hi))
            out.row["diam"], out.row["iso_lb"] = cache[key]


def _job_stats(times_by_pass):
    """Per-job median over passes, then the median job and the tail:
    the highest percentile with TAIL_BEYOND samples beyond it."""
    per_job = sorted(statistics.median(ts) for ts in zip(*times_by_pass))
    count = len(per_job)
    tail_idx = max(count - TAIL_BEYOND - 1, 0)
    pct = 100.0 * (tail_idx + 1) / count
    return statistics.median(per_job), per_job[tail_idx], pct, count


def _format_rows(names, outcomes) -> list[str]:
    cols = ["job"]
    for out in outcomes:
        for key in (out.row if out else {}):
            if key not in cols and key not in ("family", "perm"):
                cols.append(key)
    table = [cols] + [[name] + [str((out.row if out else {}).get(c, "-"))
                                for c in cols[1:]]
                      for name, out in zip(names, outcomes)]
    widths = [max(len(r[i]) for r in table) for i in range(len(cols))]
    return ["  ".join(cell.rjust(w) if i else cell.ljust(w)
                      for i, (cell, w) in enumerate(zip(row, widths)))
            for row in table]


def _layer_metrics(tracers, plain, traced, outcomes):
    """Per-layer metrics from the traced passes, and the line that
    shows self times adding up to the traced job time.  Times are means
    over traced passes, so the sum is exact; counts repeat exactly in
    every pass."""
    per_pass = [t.self_times() for t in tracers]

    def mean_self(name):
        return statistics.fmean(p.get(name, 0.0) for p in per_pass)

    metrics = {name + "_s": (mean_self(name), "s") for name in LAYER_TIMES}
    metrics["cli.self_s"] = (mean_self("cli.main"), "s")
    # the speed samples taken inside jobs are not job time
    job_time = statistics.fmean(t.total("job") - t.total(CALIBRATION)
                                for t in tracers)
    layers = sum(v for v, _ in metrics.values()) - metrics["cli.self_s"][0]
    residual = job_time - layers - metrics["cli.self_s"][0]
    metrics["trace.residual_s"] = (residual, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in plain), "s")

    counts = tracers[0].counts
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    rounds = counts.get("tele_routing.rounds", 0)
    metrics["tele_routing.transfers_per_round"] = (
        counts.get("tele_routing.transfers", 0) / rounds if rounds else 0.0,
        "ratio")
    metrics["tele_routing.chained_cycles"] = (
        counts.get("tele_routing.local_swaps", 0) // 3, "count")

    ok = [o for o in outcomes if o is not None]
    for layer, model in (("swap_routing", "swap"), ("tele_routing", "teleport"),
                         ("sparse_routing", "sparse")):
        metrics[f"{layer}.depth_geo"] = (
            geo_mean(o.depths[model] for o in ok if model in o.depths),
            "count")
    circuits = [o.circuit for o in ok if o.circuit]
    metrics["teleport_circuit.layers_geo"] = (geo_mean(c[0] for c in circuits),
                                              "count")
    metrics["teleport_circuit.gates_geo"] = (geo_mean(c[1] for c in circuits),
                                             "count")
    accounting = (f"traced job time {job_time:.4f} s = layers {layers:.4f}"
                  f" + cli self {metrics['cli.self_s'][0]:.4f} + residual "
                  f"{residual:.4f} (bookkeeping {mean_self(BOOKKEEPING):.4f})")
    return metrics, accounting


def measure(args) -> dict:
    runner = Runner(args.workload, args.scale, args.seed)
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    jobs = runner.jobs

    plain, traced, tracers = [], [], []
    problems_seen, outcomes = [], None
    fingerprints_stable = True
    attempted = failed = 0
    while True:
        modes = [None, Tracer()] if args.trace else [None]
        for tracer in modes:
            done = runner.run_pass(jobs, tracer)
            (traced if tracer else plain).append(done)
            if tracer:
                tracers.append(tracer)
            attempted += len(jobs)
            failed += sum(1 for p in done.problems if p)
            problems_seen += [f"{job.name}: {p}" for job, ps in
                              zip(jobs, done.problems) for p in ps]
            if outcomes is None:
                outcomes = done.outcomes
            elif [o and o.fingerprints for o in done.outcomes] != \
                    [o and o.fingerprints for o in outcomes]:
                fingerprints_stable = False
        # --seconds bounds the measured passes in real seconds; the
        # calibrations and output checks between jobs are not counted
        measured = sum(p.raw_wall for p in plain + traced)
        passes = len(plain) + len(traced)
        if measured + measured / passes * len(modes) > args.seconds:
            break

    runner.quality_bounds(outcomes)
    p50, tail, tail_pct, samples = _job_stats([p.times for p in plain])
    if args.trace:
        metrics, accounting = _layer_metrics(tracers, plain, traced, outcomes)
    else:
        accounting = None
        metrics = {
            "wall_s": (statistics.median(p.wall for p in plain), "s"),
            "job_s_p50": (p50, "s"),
            "job_s_tail": (tail, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    import numpy
    record = {
        "provenance": {
            "git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "seed": args.seed, "workload": args.workload,
            "scale": args.scale, "seconds": args.seconds,
            "trace": args.trace,
        },
        "passes": {"untraced": [p.wall for p in plain],
                   "traced": [p.wall for p in traced],
                   "untraced_raw": [p.raw_wall for p in plain],
                   "traced_raw": [p.raw_wall for p in traced]},
        "reference_s": REFERENCE_S,
        "setup_s": setups,
        "job_s_tail": {"percentile": tail_pct, "samples": samples,
                       "passes": len(plain)},
        "jobs": [{"name": job.name, "row": out.row if out else None,
                  "fingerprints": out.fingerprints if out else None,
                  "seconds": statistics.median(ts)}
                 for job, out, ts in zip(jobs, outcomes,
                                         zip(*[p.times for p in plain]))],
        "fingerprints_stable": fingerprints_stable,
        "problems": problems_seen,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / (f"{args.workload}-{args.scale}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(runner.work)

    for line in _format_rows([j.name for j in jobs], outcomes):
        print(line)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"job_s_tail is p{tail_pct:.0f} of {samples} per-job medians")
    if accounting:
        print(accounting)
    for p in problems_seen:
        print(f"FAILED {p}", file=sys.stderr)
    if not fingerprints_stable:
        print("note: output fingerprints differ between passes")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(f"record: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="bench",
                    help="job sizes; 'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "teleroute" / "cli.py").is_file():
        print(f"perfbench: no teleroute sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
