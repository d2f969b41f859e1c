"""codedpir benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload retrieve-array --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One workload runs in this process: set-up (repeated, median reported), any
one-off timed work, then timed passes for as long as the next one still
fits in `--seconds` (at least one). The process is pinned to one CPU, where
a probe thread times a reference loop throughout (probe.py); `pass_cost`
and `setup_s` divide wall times by it. With `--trace 1` every untraced pass
is followed by a traced one and the per-layer metrics come from the
traced passes. `--workload all` runs each workload in a fresh process of
its own, one after another.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics untraced, the
per-layer metrics traced). The full record, with the machine description
and, when traced, the spans, goes to perfbench/out/. Failed operations are
listed on standard error. See perfbench/METRICS.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from probe import REFLOOP_S, SpeedProbe, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("table-fixtures", "retrieve-array", "wide-field")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
IMPORT_PROBES = 4  # fresh interpreters that time the imports again, for a median

# What set-up imports: codedpir through the workloads module, then any module
# the workload's first call would import lazily. perf_counter is the
# system-wide monotonic clock, so the parent can place the window in time.
IMPORT_CODE = """
import importlib, sys
from time import perf_counter
sys.path[:0] = [{src!r}, {here!r}]
t0 = perf_counter()
import workloads
for module in workloads.WORKLOADS[{name!r}].preload:
    importlib.import_module(module)
print(t0, perf_counter())
"""

# Rebound names of a traced pass: (module.attr, layer span name, result hook).
PLAN = (
    ("codedpir.optimizer.compute_erasure_pattern_list", "optimizer.list",
     lambda tr, res: tr.count("optimizer.patterns_listed", len(res.patterns))),
    ("codedpir.optimizer._search_matrix", "optimizer.search",
     lambda tr, res: tr.count("optimizer.search_incomplete", int(not res[1]))),
    ("codedpir.optimizer.is_ml_correctable", "codes.correctable",
     lambda tr, res: tr.count("codes.correctable_true", int(res))),
    ("codedpir.optimizer.min_distance", "codes.min_distance", None),
    ("codedpir.codes.min_distance", "codes.min_distance", None),
    ("codedpir.optimizer.rref", "algebra.rref", None),
    ("codedpir.algebra.rref", "algebra.rref", None),
    ("codedpir.protocol.encode_file", "codes.encode", None),
    ("codedpir.protocol.node_response", "protocol.node_response", None),
    ("codedpir.protocol.solve", "algebra.solve", None),
)


def cap_thread_env() -> int:
    """Cap BLAS/OpenMP thread counts at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def machine_record(nproc: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = []
        for index in cache_dir.glob("index*"):
            if (index / "type").read_text().strip() != "Instruction":
                levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        if levels:
            llc = max(levels)[1]
    except (OSError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc,
        "cpu_model": cpu,
        "last_level_cache": llc,
        "platform": platform.platform(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def call_costs(passes, probe) -> list[dict[str, float]]:
    """Per pass, each timed call's cost in reference loops."""
    return [{label: probe.cost(t0, t1) for label, (_, t0, t1) in p.calls.items()} for p in passes]


def pass_cost(costs: list[dict[str, float]]) -> float:
    """A pass's cost: the sum over its calls of each call's median cost."""
    labels = {label for c in costs for label in c}
    return sum(median([c[label] for c in costs if label in c]) for label in labels)


def layer_metrics(setup_tracers, start_tracer, traced, traced_costs, untraced_costs) -> tuple[dict, list]:
    """Per-layer metrics: one-off work once plus one typical traced pass.

    Times are the one-off value plus the median over traced passes; counts
    are the one-off value plus the first traced pass's (every pass of a run
    does the same amount of work). Metrics of a layer whose rebound names
    all vanished are left out and returned in the second list.
    """
    passes = [p for p, _ in traced]
    tracers = [tr for _, tr in traced]
    first, first_tr = passes[0], tracers[0]
    wrapped = set(start_tracer.wrapped) | set(first_tr.wrapped)

    def secs(name):
        return start_tracer.seconds(name) + median([tr.seconds(name) for tr in tracers])

    def calls(name):
        return start_tracer.ncalls(name) + first_tr.ncalls(name)

    def counted(name):
        return start_tracer.counts.get(name, 0) + first_tr.counts.get(name, 0)

    def exact(name):
        return first.exact.get(name, 0)

    correctable = calls("codes.correctable")
    respond_s = secs("protocol.respond")
    rows = {
        "workbench.parse_s": ("s", None, median([tr.seconds("workbench.parse") for tr in setup_tracers])),
        "optimizer.list_s": ("s", "optimizer.list", secs("optimizer.list")),
        "optimizer.patterns_listed": ("count", "optimizer.list", counted("optimizer.patterns_listed")),
        "optimizer.search_s": ("s", "optimizer.search", secs("optimizer.search")),
        "optimizer.search_incomplete": ("count", "optimizer.search", counted("optimizer.search_incomplete")),
        "optimizer.widths_scanned": ("count", "optimizer.list", calls("optimizer.list")),
        "optimizer.beta_gap": ("count", None, exact("beta_gap")),
        "codes.correctable_calls": ("count", "codes.correctable", correctable),
        "codes.correctable_s": ("s", "codes.correctable", secs("codes.correctable")),
        "codes.correctable_yield": (
            "ratio", "codes.correctable",
            counted("codes.correctable_true") / correctable if correctable else 0.0,
        ),
        "codes.min_distance_s": ("s", "codes.min_distance", secs("codes.min_distance")),
        "codes.encode_s": ("s", "codes.encode", secs("codes.encode")),
        "algebra.rref_calls": ("count", "algebra.rref", calls("algebra.rref")),
        "algebra.rref_s": ("s", "algebra.rref", secs("algebra.rref")),
        "algebra.solve_calls": ("count", "algebra.solve", calls("algebra.solve")),
        "algebra.solve_s": ("s", "algebra.solve", secs("algebra.solve")),
        "protocol.queries_s": ("s", None, secs("protocol.queries")),
        "protocol.respond_s": ("s", None, respond_s),
        "protocol.recover_s": ("s", None, secs("protocol.recover")),
        "protocol.respond_ops": ("count", None, exact("respond_ops")),
        "protocol.respond_ops_per_s": (
            "1/s", None, exact("respond_ops") / respond_s if respond_s else 0.0
        ),
        "protocol.downloaded_bits": ("bit", None, exact("downloaded_bits")),
        "protocol.retrieved_bits": ("bit", None, exact("retrieved_bits")),
        "protocol.privacy_exact_s": ("s", None, secs("protocol.privacy_exact")),
        "protocol.privacy_masks": ("count", None, exact("privacy_masks")),
        "protocol.privacy_stat_s": ("s", None, secs("protocol.privacy_stat")),
        "protocol.privacy_tests": ("count", None, exact("privacy_tests")),
        "trace.overhead": ("ratio", None, pass_cost(traced_costs) / pass_cost(untraced_costs)),
    }
    metrics, absent = {}, []
    for name, (unit, layer, value) in rows.items():
        if layer is not None and layer not in wrapped:
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def under_trace(tr, fn):
    """Call fn with PLAN's names rebound to tr's wrappers; restore them after."""
    for target, layer, hook in PLAN:
        tr.wrap(target, layer, hook)
    try:
        return fn()
    finally:
        tr.unwrap_all()


def import_windows(name: str, fresh: int) -> list[tuple[float, float]]:
    """(start, end) of set-up's imports: this process's, then `fresh` new interpreters'."""
    t0 = perf_counter()
    import workloads

    for module in workloads.WORKLOADS[name].preload:
        importlib.import_module(module)
    windows = [(t0, perf_counter())]
    code = IMPORT_CODE.format(src=str(ROOT / "src"), here=str(HERE), name=name)
    for _ in range(fresh):
        out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                             text=True, check=True, timeout=120)
        start, end = map(float, out.stdout.split())
        windows.append((start, end))
    return windows


def run_workload(name: str, seed: int, seconds: float, trace: bool, fresh_imports: int = 0) -> dict:
    """Run one workload in this process and return its full record.

    Set-up's imports are timed here and in `fresh_imports` new interpreters.
    """
    pin_to_one_cpu()  # before the probe's thread starts, so all share one CPU
    with SpeedProbe() as probe:
        return _run_workload(name, seed, seconds, trace, fresh_imports, probe)


def _run_workload(name, seed, seconds, trace, fresh_imports, probe) -> dict:
    imports = import_windows(name, fresh_imports)
    import workloads
    from tracing import NO_TRACE, Tracer

    wl = workloads.WORKLOADS[name]
    gate = workloads.Gate()

    setup_times, setup_tracers = [], []
    for i in range(wl.setup_repeats):
        state = None
        gc.collect()
        tr = Tracer(f"{name}/{seed}/setup{i}") if trace else NO_TRACE
        t0 = perf_counter()
        state = wl.setup(seed, tr)
        setup_times.append((t0, perf_counter()))
        setup_tracers.append(tr)

    if trace:
        start_tracer = Tracer(f"{name}/{seed}/start")
        one_off = under_trace(start_tracer, lambda: wl.start(state, gate, start_tracer))
    else:
        start_tracer = NO_TRACE
        one_off = wl.start(state, gate, NO_TRACE)

    untraced, traced, laps = [], [], []
    began = perf_counter()
    index = 0
    while True:
        lap = perf_counter()
        p = wl.run_pass(state, index, gate, NO_TRACE)
        wl.check(state, p, gate)
        p.outputs = []  # retained payloads would slow every later pass's garbage collection
        untraced.append(p)
        if index == 0:
            # the peak keeps creeping up with every pass the run fits in, so
            # read it once set-up and one full pass have run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1
        if trace:
            tr = Tracer(f"{name}/{seed}/pass{index}")
            p = under_trace(tr, lambda: wl.run_pass(state, index, gate, tr))
            wl.check(state, p, gate)
            p.outputs = []
            traced.append((p, tr))
            index += 1
        now = perf_counter()
        laps.append(now - lap)
        # start no pass that would run past the time given
        if now - began + min(laps) > seconds:
            break

    costs = call_costs(untraced, probe)
    setup_cost = median([probe.cost(*w) for w in imports]) + median(
        [probe.cost(*w) for w in setup_times]
    )
    loop_s = [d for _, d in probe.samples]
    first = untraced[0]
    ratios = first.exact.get("theta_ratios", [])
    breakdown = {op: {"value": v, "unit": "s", "samples": 1} for op, v in one_off.items()}
    setup_wall_s = median([b - a for a, b in imports]) + median([b - a for a, b in setup_times])
    breakdown["setup_wall_s"] = {"value": setup_wall_s, "unit": "s", "samples": len(setup_times)}
    breakdown["pass_s"] = {"value": median([p.seconds for p in untraced]), "unit": "s",
                           "samples": len(untraced)}
    for op in sorted({op for p in untraced for op in p.ops}):
        samples = [p.ops[op] for p in untraced if op in p.ops]
        breakdown[op] = {"value": median(samples), "unit": "s", "samples": len(samples)}
    breakdown["refloop_s"] = {"value": median(loop_s), "unit": "s", "samples": len(loop_s)}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "end_to_end": {
            "setup_s": {"value": setup_cost * REFLOOP_S, "unit": "s"},
            "pass_cost": {"value": pass_cost(costs), "unit": "refloop"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "theta_ratio": {
                "value": float(sum(ratios) / len(ratios)) if ratios else 0.0, "unit": "ratio"
            },
        },
        "operations": breakdown,
        "exact": {
            "beta_gap": {"value": first.exact.get("beta_gap", 0), "unit": "count"},
            "fail_ratio": {"value": gate.failed / max(gate.attempted, 1), "unit": "ratio"},
        },
        "samples": {
            "import_s": [b - a for a, b in imports],
            "setup_s": [b - a for a, b in setup_times],
            "pass_s": [p.seconds for p in untraced],
            "calls_s": [{label: t1 - t0 for label, (_, t0, t1) in p.calls.items()} for p in untraced],
            "calls_refloop": costs,
            "refloop_s": loop_s,
        },
    }
    if trace:
        traced_costs = call_costs([p for p, _ in traced], probe)
        metrics, absent = layer_metrics(setup_tracers, start_tracer, traced, traced_costs, costs)
        record["per_layer"] = metrics
        record["absent"] = absent
        record["samples"]["traced_pass_s"] = [p.seconds for p, _ in traced]
        record["traces"] = [tr.export() for tr in setup_tracers + [start_tracer]] + [
            tr.export() for _, tr in traced
        ]
    return record


def report_lines(record: dict) -> list[str]:
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"]
    rows = dict(record["end_to_end"])
    rows.update(record["operations"])
    rows.update(record["exact"])
    rows.update(record.get("per_layer", {}))
    for name, m in rows.items():
        extra = f"  (median of {m['samples']})" if m.get("samples", 1) > 1 else ""
        lines.append(f"  {name:<28} {m['value']:.6g} {m['unit']}{extra}")
    lines.append(f"  operations attempted {record['attempted']}, failed {record['failed']}")
    for name in record.get("absent", []):
        lines.append(f"  {name:<28} absent (wrapped name no longer exists)")
    return lines


def result_line(record: dict) -> dict:
    chosen = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in chosen.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process; print their reports and one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed passes run this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "codedpir" / "__init__.py").is_file() or not (
        ROOT / "tests" / "fixtures"
    ).is_dir():
        print(f"error: no codedpir sources (src/codedpir, tests/fixtures) under {ROOT}",
              file=sys.stderr)
        return 2
    nproc = cap_thread_env()
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    origin = importlib.util.find_spec("codedpir").origin  # found, not yet imported
    if Path(origin).resolve().parent != ROOT / "src" / "codedpir":
        print(f"error: codedpir resolves to {origin}, not to {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), IMPORT_PROBES)
    record["machine"] = machine_record(nproc)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(report_lines(record)))
    print(f"  full record: {out.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
