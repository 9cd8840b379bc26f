"""causalqca benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chart_boost --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
tracer of ``tracer.py`` on the package's functions and prints the per-layer
metrics instead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat every metric with its unit, give the provenance and name
every failed check.  A fuller record, and the spans of a traced run, go to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_op_ratio", "ratio"),
)

PER_LAYER = (
    ("gates.solve_gates.busy_s", "s/op"),
    ("gates.solve_gates.calls", "calls/op"),
    ("gates.least_squares.calls", "calls/op"),
    ("gates.least_squares.calls_per_feasible_solve", "calls"),
    ("gates.least_squares.calls_per_infeasible_solve", "calls"),
    ("gates.least_squares.nfev", "evals/op"),
    ("gates.least_squares.busy_s", "s/op"),
    ("gates.least_squares.converged_ratio", "ratio"),
    ("gates.fock_consistency.busy_s", "s/op"),
    ("gates.fock_gate_matrix.calls", "calls/op"),
    ("gates.fock_gate_matrix.calls_per_gate", "calls"),
    ("gates.expm.calls", "calls/op"),
    ("gates.expm.busy_s", "s/op"),
    ("gates.logm.busy_s", "s/op"),
    ("walk.evolve.busy_s", "s/op"),
    ("walk.evolve.site_steps_per_s", "1/s"),
    ("walk.step.calls", "calls/op"),
    ("walk.evolve.bytes_computed", "B/op"),
    ("walk.evolve_fourier.busy_s", "s/op"),
    ("walk.zitter_frequency.busy_s", "s/op"),
    ("walk.front_speed.busy_s", "s/op"),
    ("observers.boost_map.busy_s", "s/op"),
    ("observers.boost_map.events", "events/op"),
    ("observers.radar_coordinates.calls", "calls/op"),
    ("observers.radar_coordinates.busy_s", "s/op"),
    ("observers.radar.distinct_share", "ratio"),
    ("observers.fit_lorentz.busy_s", "s/op"),
    ("observers.achronality.busy_s", "s/op"),
    ("lattice.causally_precedes.calls", "calls/op"),
    ("cli.import_s", "s/call"),
    ("cli.import_scipy_s", "s/call"),
    ("cli.spawn_s", "s/call"),
    ("recipes.run_recipe.busy_s", "s/op"),
    ("recipes.write.busy_s", "s/op"),
    ("recipes.bytes_written", "B/op"),
    ("diagrams.spacetime_svg.busy_s", "s/op"),
    ("cli.exit0.count", "count"),
    ("cli.exit1.count", "count"),
    ("cli.exit2.count", "count"),
    ("cli.traceback.count", "count"),
    ("cli.known_defect.count", "count"),
    ("lattice.self_s", "s/op"),
    ("observers.self_s", "s/op"),
    ("walk.self_s", "s/op"),
    ("gates.self_s", "s/op"),
    ("units.self_s", "s/op"),
    ("recipes.self_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("diagrams.self_s", "s/op"),
    ("process.cpu_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one causalqca benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- set-up -----------------------------------------------------------------


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter's start until its first op is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - spawned


# -- measurement ------------------------------------------------------------


def _run_op(wl, inp: dict, tracer, op_id: int) -> dict:
    start = time.perf_counter()
    try:
        if tracer is None:
            latency, checks = wl.run(inp, None)
        else:
            tracer.op = op_id
            tracer.install()
            try:
                with tracer.span("op"):
                    latency, checks = wl.run(inp, tracer)
            finally:
                tracer.uninstall()
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        latency = time.perf_counter() - start
        checks = [Check("exception", f"{type(exc).__name__}: {exc}", "no exception", False)]
    ok = all(c.ok for c in checks)
    known = not ok and all(c.ok or c.known_defect for c in checks)
    return {"op": op_id, "traced": tracer is not None, "latency": latency,
            "ok": ok, "known_defect": known, "checks": checks}


def _measure(wl, seconds: float, tracer) -> dict:
    """Run whole blocks of ops until the run is nearest to ``seconds`` long.

    Untraced: each op once.  Traced: each op twice, untraced and traced, the
    order alternating between pairs, so the two halves see the same inputs.
    """
    records: list[dict] = []
    cpu_start = os.times()
    start = time.perf_counter()
    blocks = 0
    while True:
        for inp in wl.inputs(blocks):
            if tracer is None:
                records.append(_run_op(wl, inp, None, len(records)))
                continue
            order = (None, tracer) if (len(records) // 2) % 2 == 0 else (tracer, None)
            for tr in order:
                records.append(_run_op(wl, inp, tr, len(records)))
        blocks += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / blocks >= seconds:
            break
    cpu_end = os.times()
    cpu = sum(cpu_end[:4]) - sum(cpu_start[:4])
    return {"records": records, "elapsed": elapsed, "blocks": blocks, "cpu": cpu}


def op_tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with ten samples beyond.

    Below twenty samples that percentile would not be above the median; the
    interpolated 90th percentile is returned instead, with the number of
    samples above it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        value = statistics.quantiles(xs, n=10, method="inclusive")[-1] if n > 1 else xs[0]
        return value, 90.0, sum(x > value for x in xs)
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(wl, run: dict, setups: list[float]) -> tuple[dict, dict]:
    records = run["records"]
    latencies = [r["latency"] for r in records]
    tail, pct, beyond = op_tail(latencies)
    if wl.ops_in_children:
        rss = wl.stats["max_rss_mb"]
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setups),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": rss,
        "ok_op_ratio": sum(r["ok"] for r in records) / len(records),
    }
    # printed and recorded but not gated: see "Metrics that are not gated" in README.md
    notes = {"ops_per_s": len(records) / run["elapsed"], "op_p50_ms": 1e3 * statistics.median(latencies),
             "op_tail_percentile": pct, "op_tail_samples_beyond": beyond, "op_samples": len(latencies),
             "setup_samples_s": setups}
    return values, notes


def _solve_of(spans: list, idx: int):
    """The nearest solve_gates span enclosing span ``idx``, or None."""
    idx = spans[idx][3]
    while idx >= 0:
        if spans[idx][0] == "gates.solve_gates":
            return idx
        idx = spans[idx][3]
    return None


def per_layer(wl, run: dict, tracer) -> dict:
    traced = [r for r in run["records"] if r["traced"]]
    plain = [r for r in run["records"] if not r["traced"]]
    n = max(len(traced), 1)
    calls, busy, spans = tracer.calls, tracer.busy, tracer.spans

    def per_op(mapping, name):
        return mapping.get(name, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    ls_per_solve: dict = {}
    site_steps = evolve_bytes = events = nfev = converged = fock_gates = 0
    for i, (name, _, _, _, _, attrs) in enumerate(spans):
        if name == "gates.least_squares":
            nfev += attrs["nfev"]
            converged += attrs["converged"]
            solve = _solve_of(spans, i)
            if solve is not None:
                ls_per_solve[solve] = ls_per_solve.get(solve, 0) + 1
        elif name == "walk.evolve" and attrs:
            site_steps += attrs["site_steps"]
            evolve_bytes += attrs["bytes"]
        elif name == "observers.boost_map" and attrs:
            events += attrs["events"]
        elif name == "gates.fock_consistency" and attrs:
            fock_gates += attrs["gates"]
    by_status: dict = {"feasible": [], "infeasible": []}
    for solve, count in ls_per_solve.items():
        attrs = spans[solve][5] or {}
        by_status.setdefault(attrs.get("status"), []).append(count)

    stats = wl.stats
    exits = stats.get("exit", {})

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    values = {
        "gates.solve_gates.busy_s": per_op(busy, "gates.solve_gates"),
        "gates.solve_gates.calls": per_op(calls, "gates.solve_gates"),
        "gates.least_squares.calls": per_op(calls, "gates.least_squares"),
        "gates.least_squares.calls_per_feasible_solve": mean(by_status["feasible"]),
        "gates.least_squares.calls_per_infeasible_solve": mean(by_status["infeasible"]),
        "gates.least_squares.nfev": nfev / n,
        "gates.least_squares.busy_s": per_op(busy, "gates.least_squares"),
        "gates.least_squares.converged_ratio": ratio(converged, calls.get("gates.least_squares", 0)),
        "gates.fock_consistency.busy_s": per_op(busy, "gates.fock_consistency"),
        "gates.fock_gate_matrix.calls": per_op(calls, "gates.fock_gate_matrix"),
        "gates.fock_gate_matrix.calls_per_gate": ratio(calls.get("gates.fock_gate_matrix", 0), fock_gates),
        "gates.expm.calls": per_op(calls, "gates.expm"),
        "gates.expm.busy_s": per_op(busy, "gates.expm"),
        "gates.logm.busy_s": per_op(busy, "gates.logm"),
        "walk.evolve.busy_s": per_op(busy, "walk.evolve"),
        "walk.evolve.site_steps_per_s": ratio(site_steps, busy.get("walk.evolve", 0.0)),
        "walk.step.calls": per_op(calls, "walk.step"),
        "walk.evolve.bytes_computed": evolve_bytes / n,
        "walk.evolve_fourier.busy_s": per_op(busy, "walk.evolve_fourier"),
        "walk.zitter_frequency.busy_s": per_op(busy, "walk.zitter_frequency"),
        "walk.front_speed.busy_s": per_op(busy, "walk.front_speed"),
        "observers.boost_map.busy_s": per_op(busy, "observers.boost_map"),
        "observers.boost_map.events": events / n,
        "observers.radar_coordinates.calls": per_op(calls, "observers.radar_coordinates"),
        "observers.radar_coordinates.busy_s": per_op(busy, "observers.radar_coordinates"),
        "observers.radar.distinct_share": ratio(len(tracer.radar_keys), calls.get("observers.radar_coordinates", 0)),
        "observers.fit_lorentz.busy_s": per_op(busy, "observers.fit_lorentz"),
        "observers.achronality.busy_s": per_op(busy, "observers.achronality"),
        "lattice.causally_precedes.calls": per_op(calls, "lattice.causally_precedes"),
        "cli.import_s": mean(stats.get("import_s", [])),
        "cli.import_scipy_s": mean(stats.get("import_scipy_s", [])),
        "cli.spawn_s": mean(stats.get("spawn_s", [])),
        "recipes.run_recipe.busy_s": per_op(busy, "recipes.run_recipe"),
        "recipes.write.busy_s": (busy.get("recipes.write_csv", 0.0) + busy.get("recipes.write_json", 0.0)) / n,
        "recipes.bytes_written": stats.get("bytes_written", 0) / n,
        "diagrams.spacetime_svg.busy_s": per_op(busy, "diagrams.spacetime_svg"),
        "cli.exit0.count": exits.get(0, 0),
        "cli.exit1.count": exits.get(1, 0),
        "cli.exit2.count": exits.get(2, 0),
        "cli.traceback.count": stats.get("tracebacks", 0),
        "cli.known_defect.count": sum(r["known_defect"] for r in run["records"]),
        "process.cpu_s": run["cpu"],
        "trace.overhead_ratio": ratio(sum(r["latency"] for r in traced), sum(r["latency"] for r in plain)) - 1.0,
        "trace.ops": len(traced),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.self_time.get(layer, 0.0) / n
    return values


# -- provenance -------------------------------------------------------------


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = {k: config["Build Dependencies"]["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # numpy older than 1.26 prints its config only
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "causalqca" / "__init__.py").is_file():
        print(f"error: no causalqca sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]

    if args.setup_probe:
        wl = workload_cls(args.seed, ROOT)
        wl.warm_up()
        ready = time.monotonic()
        wl.close()
        print(repr(ready))
        return 0

    setups = [] if args.trace else [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = workload_cls(args.seed, ROOT)
    module = sys.modules.get("causalqca")
    if module is not None and Path(module.__file__).resolve().parent != ROOT / "src" / "causalqca":
        print(f"error: causalqca imported from {module.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        wl.paired = True
    try:
        wl.warm_up()
        run = _measure(wl, args.seconds, tracer)
    finally:
        wl.close()

    if args.trace:
        metrics, units, notes = per_layer(wl, run, tracer), dict(PER_LAYER), {}
    else:
        (metrics, notes), units = end_to_end(wl, run, setups), dict(END_TO_END)
    _report(args, run, metrics, units, notes, tracer)
    return 0


def _report(args, run: dict, metrics: dict, units: dict, notes: dict, tracer) -> None:
    """Write the full record under .perfbench_out/ and print the summary, result line last."""
    records = run["records"]
    failures = [
        {"op": r["op"], "traced": r["traced"], "check": c.name, "value": repr(c.value), "bound": c.bound,
         "known_defect": c.known_defect}
        for r in records for c in r["checks"] if not c.ok
    ]
    failed = sum(not r["ok"] and not r["known_defect"] for r in records)
    prov = provenance(args.seed)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.json")
    record = {
        "workload": args.workload, "seconds": args.seconds, "blocks": run["blocks"], "elapsed_s": run["elapsed"],
        "provenance": prov, "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": notes, "latencies_s": [r["latency"] for r in records], "check_failures": failures,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=repr) + "\n")

    print(f"# causalqca benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(records)} blocks={run['blocks']} elapsed={run['elapsed']:.3f}s")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    if notes:
        print(f"op_tail_ms is p{notes['op_tail_percentile']:.1f} of {notes['op_samples']} op latencies, "
              f"{notes['op_tail_samples_beyond']} beyond it")
        print(f"not gated: ops_per_s = {notes['ops_per_s']!r} 1/s, op_p50_ms = {notes['op_p50_ms']!r} ms")
    for f in failures:
        kind = "known defect" if f["known_defect"] else "CHECK FAILED"
        print(f"{kind}: op {f['op']} {f['check']} = {f['value']}, expected {f['bound']}"
              + (f" ({f['known_defect']})" if f["known_defect"] else ""))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
