"""The four benchmark workloads: seeded inputs, one op each, and its checks.

Each workload is a closed loop driven by one client.  Its inputs come in
blocks: every block covers the input range evenly (one op per stratum, in a
seeded order), so a run of whole blocks does the same mix of work whatever
the seed.  ``run(inp, tracer)`` performs one op, times the program's part of
it and returns ``(seconds, checks)``; the checks follow the paper's
predictions, never a recipe's own ``ok`` flag.

The ``causalqca`` modules are imported when a workload is constructed, so
the set-up time measured by the harness includes them.  Ops call the package
through module attributes (``self.gates.solve_gates``) so that a tracer
installed on those attributes sees every call.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120.0


class Check(NamedTuple):
    """One condition on an op's output; a failure names its value and bound."""

    name: str
    value: object
    bound: str
    ok: bool
    known_defect: str = ""  # set when a failure here is a documented defect


def at_most(name: str, value: float, bound: float) -> Check:
    return Check(name, value, f"<= {bound:g}", bool(value <= bound))


def at_least(name: str, value: float, bound: float) -> Check:
    return Check(name, value, f">= {bound:g}", bool(value >= bound))


def equals(name: str, value, expected, known_defect: str = "") -> Check:
    return Check(name, value, f"== {expected!r}", value == expected, known_defect)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class Workload:
    """Interface of a workload; subclasses set ``name`` and ``block_size``."""

    name = ""
    block_size = 1
    ops_in_children = False  # True when each op runs in its own process
    paired = False  # True in traced runs, which do every op twice

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.stats: dict = {}

    def warm_up(self) -> None:
        """Finish lazy set-up so that the first timed op is like the others."""

    def close(self) -> None:
        """Remove anything the workload left in the checkout."""

    def inputs(self, block: int) -> list[dict]:
        raise NotImplementedError

    def run(self, inp: dict, tracer) -> tuple[float, list[Check]]:
        raise NotImplementedError


class GateCertify(Workload):
    """Refraction-bound certification: feasible and infeasible solves plus the Fock oracle."""

    name = "gate_certify"
    block_size = 4  # mu strata over [0.1, 0.9]

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        from causalqca import gates

        self.gates = gates

    def warm_up(self) -> None:
        # first calls pay lazy scipy imports and the BLAS thread pool start
        warm = self.gates.solve_gates(0.8, 0.6, restarts=0)
        tiles = self.gates.tile_gates(warm.gate_a, warm.gate_b, 2, periodic=False)
        self.gates.fock_consistency(tiles, 2)

    def inputs(self, block: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{self.seed}:{block}")
        strata = rng.sample(range(self.block_size), self.block_size)
        return [
            {"mu": 0.1 + 0.2 * (k + rng.random()), "seeds": (rng.randrange(2**31), rng.randrange(2**31))}
            for k in strata
        ]

    def run(self, inp: dict, tracer) -> tuple[float, list[Check]]:
        g = self.gates
        mu = inp["mu"]
        zeta_max = math.sqrt(1.0 - mu * mu)  # the paper's bound
        start = time.perf_counter()
        feasible = g.solve_gates(zeta_max * (1 - 1e-6), mu, restarts=20, seed=inp["seeds"][0])
        infeasible = g.solve_gates(zeta_max * 1.001, mu, restarts=20, seed=inp["seeds"][1])
        tiles = g.tile_gates(feasible.gate_a, feasible.gate_b, 4, periodic=False)
        fock = g.fock_consistency(tiles, 4)
        elapsed = time.perf_counter() - start
        return elapsed, [
            equals("feasible.status", feasible.status, "feasible"),
            at_most("feasible.residual", feasible.residual, 1e-8),
            equals("infeasible.status", infeasible.status, "infeasible"),
            at_least("infeasible.min_restart_residual", min(infeasible.restart_residuals), 1e-4),
            at_most("fock.max_deviation", fock.max_deviation, 1e-10),
        ]


class WalkEvolve(Workload):
    """Real-space and Fourier evolution, jitter frequency and front speed on a 1024-site ring."""

    name = "walk_evolve"
    block_size = 4  # mu strata over [0.3, 0.9]
    n_sites = 1024
    steps = 10_000

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        import numpy as np

        from causalqca import walk

        self.np = np
        self.walk = walk

    def warm_up(self) -> None:
        params = self.walk.WalkParams(16, 0.6)
        psi = self.walk.delta_state(params)
        self.walk.evolve(psi, params, 2)
        self.walk.evolve_fourier(psi, params, 2)

    def inputs(self, block: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{self.seed}:{block}")
        strata = rng.sample(range(self.block_size), self.block_size)
        ops = []
        for k in strata:
            mu = 0.3 + 0.15 * (k + rng.random())
            params = self.walk.WalkParams(self.n_sites, mu)
            state = self.walk.random_state(params, self.np.random.default_rng(rng.randrange(2**31)))
            ops.append({"mu": mu, "params": params, "state": state})
        return ops

    def run(self, inp: dict, tracer) -> tuple[float, list[Check]]:
        w, np = self.walk, self.np
        params, psi = inp["params"], inp["state"]
        start = time.perf_counter()
        real = w.evolve(psi, params, self.steps)
        fourier = w.evolve_fourier(psi, params, self.steps)
        zitter = w.zitter_frequency(params, 0.0, 8.0, 1024)
        front = w.front_speed(params, 400, 1e-6)
        elapsed = time.perf_counter() - start
        zeta = math.sqrt(1.0 - inp["mu"] ** 2)
        return elapsed, [
            at_most("real_vs_fourier", float(np.max(np.abs(real - fourier))), 1e-9),
            at_most("norm_drift", abs(float(np.linalg.norm(real)) - 1.0), 1e-9),
            at_most("zitter_peak_error", abs(zitter.frequency - 2.0 * math.acos(zeta)), 2.0 * math.pi / 1024),
            at_most("front_speed_error", abs(front - zeta), 0.05),
        ]


def _patterns(max_period: int = 6) -> list[str]:
    out = []
    for period in range(2, max_period + 1):
        for bits in range(2**period):
            p = "".join("R" if bits >> i & 1 else "L" for i in range(period))
            if "R" in p and "L" in p:
                out.append(p)
    return out


class ChartBoost(Workload):
    """Boost between two observer charts over a shifted 1057-event window, plus leaf achronality."""

    name = "chart_boost"
    block_size = 8  # half of each block uses the rest chart RL as its first observer
    patterns = _patterns()

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        from causalqca import lattice, observers

        self.lattice = lattice
        self.observers = observers

    def warm_up(self) -> None:
        self.observers.radar_coordinates(self.observers.ObserverSpec("RL"), self.lattice.Event(1, 0))

    def inputs(self, block: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{self.seed}:{block}")
        rest = [True, False] * (self.block_size // 2)
        rng.shuffle(rest)
        return [
            {
                "a": "RL" if r else rng.choice(self.patterns),
                "b": rng.choice(self.patterns),
                "shift": (rng.randint(-4, 4), rng.randint(-4, 4)),  # lattice translation (du, dv)
            }
            for r in rest
        ]

    def _achronality_violations(self, spec, events) -> int:
        by_time: dict = {}
        for e in events:
            by_time.setdefault(self.observers.radar_coordinates(spec, e).t_obs, []).append(e)
        precedes = self.lattice.causally_precedes
        violations = 0
        for leaf in by_time.values():
            for i, a in enumerate(leaf):
                for b in leaf[i + 1:]:
                    if precedes(a, b) or precedes(b, a):
                        violations += 1
        return violations

    def run(self, inp: dict, tracer) -> tuple[float, list[Check]]:
        obs = self.observers
        spec_a, spec_b = obs.ObserverSpec(inp["a"]), obs.ObserverSpec(inp["b"])
        du, dv = inp["shift"]
        dt, dx = du + dv, du - dv
        window = obs.Window((-23 + dt, 23 + dt), (-22 + dx, 22 + dx))
        start = time.perf_counter()
        mapping = obs.boost_map(
            spec_a, spec_b, window,
            scale_a=obs.default_scale(spec_a) * 0.5, scale_b=obs.default_scale(spec_b) * 0.5,
        )
        fit = obs.fit_lorentz(mapping)
        with _span(tracer, "observers.achronality"):
            events = list(window.events())
            violations = sum(self._achronality_violations(s, events) for s in (spec_a, spec_b))
        elapsed = time.perf_counter() - start
        predicted = (-spec_a.drift + spec_b.drift) / (1 - spec_a.drift * spec_b.drift)  # velocity addition
        return elapsed, [
            equals("events", len(mapping), 1057),
            at_most("beta_error", abs(fit.beta - float(predicted)), 0.02),
            at_most("determinant_error", abs(fit.determinant - 1.0), 0.02),
            equals("achronality_violations", violations, 0),
        ]


_FIG1_DEFECT = "fig1 checks hard-coded RL/RRRL tic-tac counts (ROADMAP item 1): a mirrored pattern exits 1"
_EMPTY_SCAN_DEFECT = "bound_scan accepts count=0 and passes with zero rows (ROADMAP item 1): exits 0"
_GATES_OUTPUT_DEFECT = ("gates_verify writes raw solver entries and decade bounds that differ between two "
                        "untraced runs too (ROADMAP item 1)")
_MALFORMED = (
    ["--recipe", "no_such_recipe"],
    ["--recipe", "fig1", "--set", "bogus=1"],
    ["--recipe", "dispersion", "--set", "mu"],
    ["--recipe", "zitter", "--set", "steps=many"],
    ["--recipe", "dispersion", "--set", "mu=1.5"],
)
_TRACEBACK = "Traceback (most recent call last)"


def _cli_cases(rng: random.Random) -> list[dict]:
    """One block: every recipe at small sizes, two known defects and one malformed call."""

    def case(kind, args, expect=0, defect="", defect_value=None):
        return {"kind": kind, "args": args, "expect": expect, "defect": defect, "defect_value": defect_value}

    def svg():
        return ["--svg"] if rng.random() < 0.5 else []

    def mu(lo, hi):
        return f"mu={rng.uniform(lo, hi):.4f}"

    gate_mu = rng.uniform(0.3, 0.8)
    gate_zeta = math.floor(math.sqrt(1.0 - round(gate_mu, 4) ** 2) * 1e6) / 1e6
    return [
        case("fig1", ["--recipe", "fig1", *svg()]),
        case("fig1_mirror", ["--recipe", "fig1", "--set", f"boosted_pattern={rng.choice(['LLLR', 'LLR', 'LLLLR'])}"],
             0, _FIG1_DEFECT, 1),
        case("lorentz_fit", ["--recipe", "lorentz_fit", "--set", f"pattern_b={rng.choice(['RRL', 'RRRL', 'RRRRL'])}",
                             "--set", f"t_radius={rng.randint(12, 16)}", "--set", "x_radius=12", *svg()]),
        case("dispersion", ["--recipe", "dispersion", "--set", mu(0.1, 0.9),
                            "--set", f"n_sites={2 * rng.randint(8, 128)}"]),
        case("zitter", ["--recipe", "zitter", "--set", mu(0.5, 0.8), "--set", "steps=128",
                        "--set", "n_sites=256", "--set", "width=6"]),
        case("front_speed", ["--recipe", "front_speed", "--set", mu(0.3, 0.9)]),
        case("bound_scan", ["--recipe", "bound_scan", "--set", f"count={rng.randint(2, 21)}"]),
        case("bound_scan_empty", ["--recipe", "bound_scan", "--set", "count=0"], 2, _EMPTY_SCAN_DEFECT, 0),
        case("gates_verify", ["--recipe", "gates_verify", "--set", f"mu={gate_mu:.4f}", "--set", f"zeta={gate_zeta}",
                              "--set", "restarts=3", "--set", "n_sites=3", "--set", f"seed={rng.randrange(1000)}"]),
        case("eff_hamiltonian", ["--recipe", "eff_hamiltonian", "--set", mu(0.1, 0.9),
                                 "--set", f"n_sites={rng.choice([16, 32, 64])}"]),
        case("units_table", ["--recipe", "units_table"]),
        case("malformed", list(rng.choice(_MALFORMED)), 2),
    ]


def parse_importtime(text: str) -> tuple[float, float]:
    """(seconds importing causalqca, seconds importing scipy) from ``-X importtime`` output.

    causalqca's time is the cumulative time of its top-level import entries;
    scipy's is the cumulative time of every scipy entry not nested in another
    scipy entry.  The output lists children before their parent, so it is
    read backwards to see parents first.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # header line
        name = raw.strip()
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((level, name, int(cumulative) * 1e-6))
    own = scipy = 0.0
    stack: list[str] = []
    for level, name, cumulative in reversed(entries):
        del stack[level:]
        in_scipy = any(n == "scipy" or n.startswith("scipy.") for n in stack)
        if level == 0 and (name == "causalqca" or name.startswith("causalqca.")):
            own += cumulative
        if (name == "scipy" or name.startswith("scipy.")) and not in_scipy:
            scipy += cumulative
        stack.append(name)
    return own, scipy


class CliCold(Workload):
    """Sequential cold ``python -m causalqca.cli run`` calls, one subprocess per op."""

    name = "cli_cold"
    block_size = 12
    ops_in_children = True

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.root = root
        self.work = root / ".perfbench_out" / f"work-{os.getpid()}"
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.stats = {"exit": {}, "tracebacks": 0, "max_rss_mb": 0.0,
                      "bytes_written": 0, "import_s": [], "import_scipy_s": [], "spawn_s": []}
        self._pending: dict = {}  # op index -> output snapshot awaiting its traced/untraced twin
        self._index = 0

    def warm_up(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def inputs(self, block: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{self.seed}:{block}")
        cases = _cli_cases(rng)
        rng.shuffle(cases)
        for c in cases:
            c["index"] = self._index
            self._index += 1
        return cases

    def _spawn(self, cmd: list[str], out_dir: Path) -> tuple[float, float, float, int, str]:
        with open(out_dir / "stdout.txt", "wb") as fo, open(out_dir / "stderr.txt", "wb") as fe:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=fo, stderr=fe)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                reaped = time.monotonic()
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
        stderr = (out_dir / "stderr.txt").read_text(errors="replace")
        return spawned, reaped, usage.ru_maxrss / 1024.0, proc.returncode, stderr

    def run(self, inp: dict, tracer) -> tuple[float, list[Check]]:
        tag = "traced" if tracer is not None else "plain"
        op_dir = self.work / f"op{inp['index']}-{tag}"
        out = op_dir / "out"
        op_dir.mkdir(parents=True)
        argv = ["run", *inp["args"], "--out", str(out)]
        if tracer is None:
            cmd = [sys.executable, "-m", "causalqca.cli", *argv]
        else:
            spans = op_dir / "spans.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), str(spans), "--", *argv]
        spawned, reaped, rss_mb, code, stderr = self._spawn(cmd, op_dir)
        elapsed = reaped - spawned

        stats = self.stats
        stats["exit"][code] = stats["exit"].get(code, 0) + 1
        stats["max_rss_mb"] = max(stats["max_rss_mb"], rss_mb)
        traceback = _TRACEBACK in stderr
        stats["tracebacks"] += traceback
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        checks = [
            equals("exit_code", code, inp["expect"],
                   inp["defect"] if code == inp["defect_value"] else ""),
            equals("traceback", traceback, False),
        ]
        if tracer is not None:
            data = json.loads(spans.read_text()) if spans.is_file() else None
            if data is not None:
                tracer.merge(data["tracer"], tracer.current_span(), tracer.op)
                stats["spawn_s"].append((data["started"] - spawned) + (reaped - data["finished"]))
            own, scipy = parse_importtime(stderr)
            stats["import_s"].append(own)
            stats["import_scipy_s"].append(scipy)
            stats["bytes_written"] += sum(len(b) for b in files.values())
            checks.append(equals("trace_spans_written", data is not None, True))
        if self.paired:  # compare the plain and the traced call's files
            twin = self._pending.pop(inp["index"], None)
            if twin is None:
                self._pending[inp["index"]] = files
            else:
                differ = sorted(k for k in set(twin) | set(files) if twin.get(k) != files.get(k))
                unstable = inp["kind"] == "gates_verify" and set(differ) <= {"gates.json", "gates_verify.json"}
                known = _GATES_OUTPUT_DEFECT if unstable else ""
                checks.append(Check("traced_output_identical", differ, "no differing file", not differ, known))
        shutil.rmtree(op_dir)
        return elapsed, checks


WORKLOADS = {w.name: w for w in (GateCertify, WalkEvolve, ChartBoost, CliCold)}
