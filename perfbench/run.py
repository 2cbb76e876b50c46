#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Ev-Edge scenario simulator.

Run from the repository root::

    python3 perfbench/run.py --workload dsfa_fleet --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload: simulated
frames per second (median over simulations run back to back for
``--seconds``), the set-up time (compile, render and the first, cold
simulation; median over this process and two fresh ones) and the peak
resident memory.  Both timings are wall times divided by the host slowdown
that ``hostspeed.py`` measures next to each of them.  ``--trace 1`` is a separate run that wraps each layer's
public functions with spans and reports per-layer self times, counts and
ratios, plus the tracing overhead.

Every simulation is checked: its aggregates must equal the run's first
simulation of the same kind and, for the default seed, the reference
recorded in ``reference.json``; per-stream frame accounting must be
conserved.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-reference`` records the default-seed aggregates (``--workload
all`` for every workload).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
MIN_REPEATS = 3
MAX_FAILURES = 20
SETUP_PROBES = 2  # fresh processes timed in addition to this one
SETUP_SLOWDOWN_PASSES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "frames_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenarios.compile_s": "s",
    "events.generate_s": "s",
    "e2sf.render_s": "s",
    "e2sf.frames": "count",
    "streams.prime_s": "s",
    "streams.run_self_s": "s",
    "kernel.self_s": "s",
    "kernel.events": "count",
    "kernel.events_per_s": "1/s",
    "kernel.heap_high_water": "count",
    "dsfa.push_s": "s",
    "dsfa.pushes": "count",
    "dsfa.merge_factor": "ratio",
    "frames.merge_ranges_s": "s",
    "executor.dispatch_s": "s",
    "executor.dispatches": "count",
    "executor.delivery_ratio": "ratio",
    "cost.profile_cost_s": "s",
    "cost.densities_profile_s": "s",
    "cost.layer_hit_rate": "ratio",
    "cost.layer_misses": "count",
    "occupancy.combine_s": "s",
    "hw.layer_model_s": "s",
    "shard.partition_s": "s",
    "shard.report_bytes": "bytes",
    "shard.events_imbalance": "ratio",
    "shard.sync_overhead_s": "s",
    "shard.speedup": "ratio",
    "nmp.remap_s": "s",
    "nmp.search_s": "s",
    "nmp.remaps": "count",
    "nmp.evaluations": "count",
    "nmp.evals_per_s": "1/s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}


def load_program() -> None:
    """Import the simulator from this checkout's ``src`` (never elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    try:
        import numba  # noqa: F401  (selects the frames/_jit.py branch)

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def shard_kind(workload) -> str:
    return f"{workload.name}@{workload.trace_shards}shards"


def timed_once(simulate, checker, kind: str, label: str):
    """One checked simulation; returns ``(wall seconds, report)`` or None.

    Garbage from the previous simulation is collected first, outside the
    timed region.  A raising simulation is a failed operation.
    """
    gc.collect()
    start = perf_counter()
    try:
        report = simulate()
    except Exception as exc:
        checker.fail(f"{label}: {type(exc).__name__}: {exc}")
        return None
    wall = perf_counter() - start
    if report is None:
        checker.fail(f"{label}: no MultiStreamSimulator.run report captured")
        return None
    checker.check(report, kind, label)
    return wall, report


def repeat_until(seconds: float, checker, step) -> None:
    """Call ``step()`` for ``seconds``, at least ``MIN_REPEATS`` times."""
    deadline = perf_counter() + seconds
    done = 0
    while done < MIN_REPEATS or perf_counter() < deadline:
        step()
        done += 1
        if checker.failed > MAX_FAILURES:
            break


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def median_of(rows):
    """Per-key median of a list of equally keyed dicts."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def setup_probe(workload: str, seed: int) -> dict:
    """Time set-up in a fresh interpreter (``--setup-probe`` mode)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-probe"]
    done = subprocess.run(
        cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"exited {done.returncode}: {done.stderr[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def timed_setup(runner):
    """``(report, wall seconds, host slowdown)`` of the workload's set-up.

    The slowdown is read right after the set-up, as the median of
    ``SETUP_SLOWDOWN_PASSES`` reference loops.
    """
    start = perf_counter()
    report = runner.setup()
    wall = perf_counter() - start
    return report, wall, slowdown(SETUP_SLOWDOWN_PASSES)


def measure_end_to_end(runner, checker, seconds: float, info: dict) -> dict:
    kind = runner.workload.name
    report, wall, factor = timed_setup(runner)
    setup_raw, factors = [wall], [factor]
    checker.check(report, kind, "setup")
    frames = report.frames_generated
    durations, sim_factors = [], []

    def step():
        # The reference loop runs just before the simulation, outside its
        # timed region; its garbage is collected before the timer starts.
        factor = slowdown()
        timed = timed_once(runner.simulate, checker, kind, "timed")
        if timed is not None:
            durations.append(timed[0])
            sim_factors.append(factor)

    repeat_until(seconds, checker, step)
    # Before the probes: their processes must not count as this run's.
    rss = peak_rss_mb()
    for i in range(SETUP_PROBES):
        try:
            probe = setup_probe(kind, runner.seed)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            checker.fail(f"set-up probe {i}: {exc}")
            continue
        setup_raw.append(probe["setup_s"])
        factors.append(probe["slowdown"])
        checker.check_aggregates(probe["aggregates"], kind, f"set-up probe {i}")
        if probe["conservation"]:
            checker.fail(f"set-up probe {i}: " + "; ".join(probe["conservation"]))
    raw_fps = [frames / d for d in durations]
    fps = [rate * factor for rate, factor in zip(raw_fps, sim_factors)]
    info.update(
        repeats=len(durations),
        frames_per_simulation=frames,
        frames_per_s_quartiles=quartiles(fps),
        wall_frames_per_s_quartiles=quartiles(raw_fps),
        host_slowdown_quartiles=quartiles(sim_factors),
        wall_setup_s=setup_raw,
        setup_slowdowns=factors,
    )
    return {
        "frames_per_s": statistics.median(fps),
        "setup_s": statistics.median(s / f for s, f in zip(setup_raw, factors)),
        "peak_rss_mb": rss,
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def measure_layers(runner, checker, seconds: float, info: dict) -> dict:
    from tracing import ROOT as ROOT_SPAN
    from tracing import Tracer

    workload = runner.workload
    kind = workload.name
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"spans-{kind}-seed{runner.seed}"

    rendered = []
    setup_tracer = Tracer()
    setup_tracer.observers["e2sf.render"] = lambda args, result: rendered.append(len(result))
    with setup_tracer.installed():
        with setup_tracer.span("setup"):
            report = runner.setup()
    setup = setup_tracer.summary()
    setup_tracer.write_csv(f"{stem}-setup.csv")
    checker.check(report, kind, "setup")

    tracer = Tracer()
    shard_tracer = Tracer()
    shard_reports = []
    shard_tracer.observers["shard.merge"] = lambda args, result: shard_reports.append(list(args[1]))

    def traced(tracer, simulate):
        def run():
            tracer.clear()
            with tracer.installed():
                with tracer.span(ROOT_SPAN):
                    return simulate()

        return run

    # Each round interleaves an untraced and a traced simulation (the
    # tracing overhead compares their medians) and, for a workload with
    # shard metrics, an untraced sharded simulation in worker processes and
    # a traced one with its shards inline.
    untraced, layers, sharded, shard_rows = [], [], [], []

    def step():
        timed = timed_once(runner.simulate, checker, kind, "untraced")
        if timed is not None:
            untraced.append(timed[0])
        timed = timed_once(traced(tracer, runner.simulate), checker, kind, "traced")
        if timed is not None:
            layers.append(layer_metrics(tracer, timed[1]))
        if workload.trace_shards:
            skind = shard_kind(workload)
            timed = timed_once(runner.simulate_sharded, checker, skind, "sharded")
            if timed is not None:
                sharded.append(timed[0])
            simulate = traced(shard_tracer, runner.simulate_sharded_inline)
            timed = timed_once(simulate, checker, skind, "sharded traced")
            if timed is not None:
                shard_rows.append(shard_metrics(shard_tracer, timed[1], shard_reports))
            del shard_reports[:]

    repeat_until(seconds, checker, step)
    tracer.write_csv(f"{stem}.csv")

    metrics = median_of(layers)
    traced_wall = metrics.pop("wall_s")
    metrics.update(
        {
            "scenarios.compile_s": setup.self_of("scenarios.compile"),
            "events.generate_s": setup.self_of("events.generate"),
            "e2sf.render_s": setup.self_of("e2sf.render"),
            "e2sf.frames": float(sum(rendered)),
            "trace.overhead": traced_wall / statistics.median(untraced) - 1.0,
            "shard.partition_s": 0.0,
            "shard.report_bytes": 0.0,
            "shard.events_imbalance": 0.0,
            "shard.sync_overhead_s": 0.0,
            "shard.speedup": 0.0,
        }
    )
    missing = setup_tracer.missing | tracer.missing | shard_tracer.missing
    info.update(
        missing_span_targets=sorted(missing),
        traced_repeats=len(layers),
        traced_wall_s=traced_wall,
        untraced_wall_s=statistics.median(untraced),
        spans=[f"{stem.name}.csv", f"{stem.name}-setup.csv"],
    )
    if shard_rows:
        shard_tracer.write_csv(f"{stem}-shards.csv")
        shards = median_of(shard_rows)
        process_wall = statistics.median(sharded)
        metrics.update(
            {
                "shard.partition_s": shards["partition_s"],
                "shard.report_bytes": shards["report_bytes"],
                "shard.events_imbalance": shards["events_imbalance"],
                # Process-mode wall time beyond the slowest shard's compute
                # per epoch: fork, set-up, barriers and report pickling.
                "shard.sync_overhead_s": process_wall - shards["slowest_compute_s"],
                "shard.speedup": statistics.median(untraced) / process_wall,
            }
        )
        info.update(sharded_wall_s=process_wall, spans=info["spans"] + [f"{stem.name}-shards.csv"])
    return {name: metrics[name] for name in PER_LAYER}


def layer_metrics(tracer, report) -> dict:
    """Per-layer metrics of the simulation ``tracer`` last recorded."""
    from tracing import ROOT as ROOT_SPAN

    spans = tracer.summary()
    wall = tracer.duration(0)
    generated = report.frames_generated
    merged = sum(stream.frames_merged for stream in report.reports.values())
    pushes = spans.count_of("dsfa.push_index")
    kernel_total = spans.total_of("kernel.run")
    search_total = spans.total_of("nmp.search")
    evaluations = sum(remap.evaluations for remap in report.remaps)
    cache = report.cache_info or {}
    return {
        "wall_s": wall,
        "streams.prime_s": spans.self_of("streams.prime"),
        "streams.run_self_s": spans.self_of("streams.run"),
        "kernel.self_s": spans.self_of("kernel.run"),
        "kernel.events": float(report.events_processed),
        "kernel.events_per_s": report.events_processed / kernel_total if kernel_total else 0.0,
        "kernel.heap_high_water": float(report.heap_high_water),
        "dsfa.push_s": spans.self_of("dsfa.push_index", "dsfa.flush"),
        "dsfa.pushes": float(pushes),
        "dsfa.merge_factor": pushes / merged if pushes and merged else 0.0,
        "frames.merge_ranges_s": spans.self_of("frames.merge_ranges"),
        "executor.dispatch_s": spans.self_of("executor.dispatch"),
        "executor.dispatches": float(spans.count_of("executor.dispatch")),
        # Evictions are modelled outcomes, so this is a ratio, not failures.
        "executor.delivery_ratio": (generated - report.frames_dropped) / generated,
        "cost.profile_cost_s": spans.self_of("cost.profile_cost"),
        "cost.densities_profile_s": spans.self_of("cost.densities_profile"),
        "cost.layer_hit_rate": float(cache.get("hit_rate", 0.0)),
        "cost.layer_misses": float(cache.get("misses", 0.0)),
        "occupancy.combine_s": spans.self_of("occupancy.combine"),
        "hw.layer_model_s": spans.self_of("hw.layer_latency", "hw.layer_energy"),
        "nmp.remap_s": spans.self_of("nmp.remap"),
        "nmp.search_s": spans.self_of("nmp.search"),
        "nmp.remaps": float(len(report.remaps)),
        "nmp.evaluations": float(evaluations),
        "nmp.evals_per_s": evaluations / search_total if search_total else 0.0,
        "trace.unattributed_share": spans.self_of(ROOT_SPAN) / wall,
    }


def shard_metrics(tracer, report, shard_reports) -> dict:
    """Shard-runtime metrics of one traced inline sharded simulation."""
    from tracing import slowest_shard_compute

    spans = tracer.summary()
    events = {}
    for summary in report.epochs or ():
        events[summary.shard] = max(events.get(summary.shard, 0), summary.events_processed)
    counts = list(events.values()) or [1]
    compute = slowest_shard_compute(spans.durations.get("kernel.run", []), report.shards)
    return {
        "partition_s": spans.self_of("shard.partition"),
        "report_bytes": float(
            sum(
                len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL))
                for reports in shard_reports
                for r in reports
            )
        ),
        "events_imbalance": max(counts) / statistics.mean(counts),
        "slowest_compute_s": compute or 0.0,
    }


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def run_probe(args) -> int:
    from check import aggregates, conservation_errors
    from workloads import WORKLOADS, Capture, Runner

    workload = WORKLOADS[args.workload]
    capture = Capture()
    capture.install()
    runner = Runner(workload, args.seed, capture)
    report, setup_s, factor = timed_setup(runner)
    result = {
        "setup_s": setup_s,
        "slowdown": factor,
        "aggregates": aggregates(report),
        "conservation": conservation_errors(report, workload.uses_dsfa)[:3],
    }
    print(json.dumps(result))
    return 0


def run_write_reference(args) -> int:
    from check import REFERENCE_PATH, aggregates, conservation_errors, load_references
    from workloads import WORKLOADS, Capture, Runner

    capture = Capture()
    capture.install()
    table = load_references()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        runner = Runner(workload, DEFAULT_SEED, capture)
        runs = {name: runner.setup()}
        if workload.trace_shards:
            runs[shard_kind(workload)] = runner.simulate_sharded()
        for kind, report in runs.items():
            errors = conservation_errors(report, workload.uses_dsfa)
            if errors:
                print(f"{kind}: conservation violated: {errors[:3]}", file=sys.stderr)
                return 1
            table[kind] = aggregates(report)
            print(kind, json.dumps(table[kind]))
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    REFERENCE_PATH.write_text(text, encoding="utf-8")
    return 0


def run_benchmark(args) -> int:
    from check import Checker, load_references
    from workloads import WORKLOADS, Capture, Runner

    workload = WORKLOADS[args.workload]
    references = load_references() if args.seed == DEFAULT_SEED else None
    checker = Checker(workload.uses_dsfa, references)
    capture = Capture()
    capture.install()
    runner = Runner(workload, args.seed, capture)
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    info["env"] = environment()
    measure = measure_layers if args.trace else measure_end_to_end
    units = PER_LAYER if args.trace else END_TO_END
    try:
        values = measure(runner, checker, float(args.seconds), info)
    except Exception:
        # A run that cannot finish prints no result line.
        traceback.print_exc()
        print(json.dumps({"info": info, "errors": checker.errors[:5]}), file=sys.stderr)
        return 1
    # The simulated statistics are printed as reference fields, not metrics:
    # they are outputs of the platform model and cannot move with host speed.
    info["reference_fields"] = checker.first
    info["errors"] = checker.errors[:5]
    print(json.dumps(info))
    for name, value in values.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record the default-seed aggregates of --workload (or 'all')",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    known = set(WORKLOADS) | ({"all"} if args.write_reference else set())
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return run_probe(args)
    if args.write_reference:
        return run_write_reference(args)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
