"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the repository root."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

from causalqca import cli, gates, observers, recipes, walk  # noqa: E402

# small runs of every recipe, with and without diagrams
RECIPE_RUNS = (
    ("fig1", {}, True),
    ("lorentz_fit", {"t_radius": "8", "x_radius": "8"}, True),
    ("zitter", {"steps": "128", "n_sites": "256", "width": "6"}, False),
    ("front_speed", {"steps": "50", "n_sites": "128"}, False),
    ("dispersion", {"n_sites": "16"}, False),
    ("eff_hamiltonian", {"n_sites": "16"}, False),
    ("bound_scan", {"count": "5"}, False),
    ("units_table", {}, False),
)


def _files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name,overrides,svg", RECIPE_RUNS)
def test_traced_recipe_outputs_are_byte_identical(name, overrides, svg, tmp_path):
    recipes.run_recipe(name, overrides, tmp_path / "plain", svg=svg)
    tracer = Tracer()
    tracer.install()
    try:
        recipes.run_recipe(name, overrides, tmp_path / "traced", svg=svg)
    finally:
        tracer.uninstall()
    plain, traced = _files(tmp_path / "plain"), _files(tmp_path / "traced")
    assert plain and plain == traced
    assert tracer.calls["recipes.run_recipe"] == 1


def test_traced_cli_child_matches_the_plain_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    args = ["run", "--recipe", "lorentz_fit", "--set", "t_radius=12", "--set", "x_radius=12", "--svg"]
    plain = subprocess.run([sys.executable, "-m", "causalqca.cli", *args, "--out", str(tmp_path / "plain")],
                           env=env, capture_output=True, text=True, timeout=120)
    traced = subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(tmp_path / "spans.json"), "--",
                             *args, "--out", str(tmp_path / "traced")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert set(_files(tmp_path / "plain")) == {"lorentz_fit.json", "mapping.csv", "foliations.svg"}
    assert _files(tmp_path / "plain") == _files(tmp_path / "traced")
    data = json.loads((tmp_path / "spans.json").read_text())
    assert data["started"] < data["finished"]
    calls = data["tracer"]["calls"]
    assert calls["cli.main"] == calls["recipes.run_recipe"] == calls["diagrams.spacetime_svg"] == 1


def test_wrappers_pass_arguments_and_results_through():
    # gates_verify is left out of the byte comparisons above: two untraced runs
    # already write different solver noise to gates.json (ROADMAP item 1)
    def residual(x):
        return x - 1.0

    reference = gates.least_squares(residual, [0.0], method="lm")
    tracer = Tracer()
    tracer.install()
    try:
        traced = gates.least_squares(residual, [0.0], method="lm")
        bound = gates.refraction_bound(0.6)
    finally:
        tracer.uninstall()
    assert traced.x.tolist() == reference.x.tolist() and traced.nfev == reference.nfev
    assert bound == gates.refraction_bound(0.6)
    (span,) = tracer.spans
    assert span[0] == "gates.least_squares" and span[5] == {"nfev": reference.nfev, "converged": True}


def test_uninstall_restores_every_attribute():
    before = {m: dict(vars(m)) for m in (cli, gates, observers, recipes, walk)}
    tracer = Tracer()
    tracer.install()
    assert gates.least_squares is not before[gates]["least_squares"]
    assert recipes.boost_map is observers.boost_map  # re-exported names are wrapped too
    tracer.uninstall()
    for module, attrs in before.items():
        for attr, value in attrs.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr} not restored"


def test_every_target_exists():
    for _, _, module, attribute, *_ in TARGETS:
        assert hasattr(sys.modules[module], attribute), f"{module}.{attribute}"


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            walk.front_speed(walk.WalkParams(128, 0.6), 20, 1e-6)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "walk.front_speed", "walk.evolve_fourier"]
    op, front, fourier = tracer.spans
    assert front[3] == 0 and fourier[3] == 1  # parent indices
    assert tracer.self_time["walk"] == pytest.approx(front[2] - front[1], rel=1e-9)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_op_tail():
    assert bench_run.op_tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 90.0, 1)
    value, pct, beyond = bench_run.op_tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       200 |        250 |     scipy",
        "import time:       300 |        550 |   numpy",
        "import time:       400 |        950 | causalqca",
        "import time:        10 |         10 | causalqca.cli",
    ])
    own, scipy = workloads.parse_importtime(text)
    assert own == pytest.approx(960e-6)
    assert scipy == pytest.approx(250e-6)


def test_cli_cases_exit_as_expected_apart_from_known_defects(tmp_path, capsys):
    import random

    for case in workloads._cli_cases(random.Random("cases")):
        code = cli.main(["run", *case["args"], "--out", str(tmp_path / case["kind"])])
        if case["defect"] and code == case["defect_value"]:
            continue
        assert code == case["expect"], case
