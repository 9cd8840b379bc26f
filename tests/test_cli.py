import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from causalqca import recipes
from causalqca.cli import main
from causalqca.lattice import Event
from causalqca.observers import ObserverSpec
from causalqca.recipes import CONSTANTS_ENV, RECIPES, run_recipe

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = str(Path(__file__).parent.parent / "src")

# parameters the committed golden outputs were frozen with
GOLDEN_PARAMS = {
    "fig1": {},
    "bound_scan": {"count": "6"},
    "units_table": {},
    "dispersion": {"n_sites": "16"},
    "lorentz_fit": {"t_radius": "12", "x_radius": "12"},
    "front_speed": {},
    "zitter": {"steps": "128", "n_sites": "256", "width": "6"},
    "eff_hamiltonian": {"n_sites": "16"},
    "gates_verify": {"restarts": "3", "n_sites": "3"},
}


def test_every_recipe_has_a_golden():
    assert set(GOLDEN_PARAMS) == set(RECIPES)
    for name in RECIPES:
        assert (GOLDEN_DIR / name / f"{name}.json").is_file()


def test_list_prints_all_recipes(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == sorted(RECIPES)
    assert len(names) == 9
    for line in out.splitlines():  # each line is the recipe's one-line docstring
        name, doc = line.split(maxsplit=1)
        assert doc == RECIPES[name].__doc__


def test_unknown_recipe_is_usage_error(capsys):
    assert main(["run", "--recipe", "nope", "--out", "/tmp/x"]) == 2
    err = capsys.readouterr().err
    for name in RECIPES:
        assert name in err  # error message lists the valid recipes


def test_unknown_parameter_is_usage_error(tmp_path, capsys):
    assert main(["run", "--recipe", "fig1", "--set", "bogus=1", "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_malformed_set_is_usage_error(tmp_path, capsys):
    assert main(["run", "--recipe", "fig1", "--set", "bogus", "--out", str(tmp_path)]) == 2


def test_empty_bound_scan_is_usage_error(tmp_path, capsys):
    assert main(["run", "--recipe", "bound_scan", "--set", "count=0", "--out", str(tmp_path)]) == 2
    assert "count" in capsys.readouterr().err
    assert not (tmp_path / "bound_scan.csv").exists()


# cases that once hung run in a child process, so a regression fails on the
# timeout instead of stalling the suite
_ONCE_HUNG = {("lorentz_fit", "coarse=1e308")}


def _child_env() -> dict:
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _scipy_after_each(steps: list[str]) -> dict[str, list[str]]:
    """The scipy modules a fresh interpreter has loaded after each of ``steps``, run in order.

    A child process, because pytest's warning filters import scipy.sparse here.
    """
    probe = "; print('SCIPY', json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    code = "import json, sys\n" + "\n".join(step + probe for step in steps)
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env=_child_env())
    loaded = [json.loads(line[len("SCIPY "):]) for line in proc.stdout.splitlines() if line.startswith("SCIPY ")]
    return dict(zip(steps, loaded, strict=True))


def test_numpy_only_modules_do_not_import_scipy(tmp_path):
    # gates imports walk, never the reverse: the numpy-only layers start without
    # scipy, and so do the CLI and every recipe that neither solves nor calls the oracle
    steps = ["import causalqca.walk, causalqca.observers, causalqca.lattice, causalqca.units, causalqca.diagrams",
             "import causalqca.cli", "causalqca.cli.main(['list'])"]
    steps += [f"causalqca.recipes.run_recipe({name!r}, out_dir={str(tmp_path / name)!r})"
              for name in ("fig1", "units_table", "bound_scan")]
    assert _scipy_after_each(steps) == {step: [] for step in steps}


def test_gates_verify_loads_scipy_on_demand(tmp_path):
    # a request at or below the bound is granted in closed form and the Fock oracle
    # runs on numpy index maps, so no scipy module loads; a request past the
    # bound runs the fits, and scipy.optimize with them
    feasible = [f"causalqca.recipes.run_recipe('gates_verify', {overrides}, out_dir={str(tmp_path / name)!r})"
                for name, overrides in (("default", {}), ("five", {"n_sites": "5"}))]
    past = (f"causalqca.recipes.run_recipe('gates_verify', {{'zeta': '0.9', 'restarts': '0', 'n_sites': '2'}}, "
            f"out_dir={str(tmp_path / 'past')!r})")
    loaded = _scipy_after_each(["import causalqca.cli", *feasible, past])
    assert loaded["import causalqca.cli"] == []
    for step in feasible:
        assert loaded[step] == []
    assert "scipy.optimize" in loaded[past]


def test_every_golden_run_needs_no_scipy(tmp_path):
    # one child in which importing scipy fails runs each recipe through the CLI at its golden parameters;
    # np.polyfit and np.linalg.lstsq raise there too, so no golden rests on a LAPACK line fit
    code = ("import json, sys\nsys.modules['scipy'] = None\nimport numpy\n"
            "def no_fit(*args, **kwargs):\n    raise AssertionError('a golden run fits through LAPACK')\n"
            "numpy.polyfit = numpy.linalg.lstsq = no_fit\nfrom causalqca.cli import main\n"
            "for name, params in json.loads(sys.argv[1]).items():\n"
            "    sets = [arg for key, value in params.items() for arg in ('--set', f'{key}={value}')]\n"
            "    code = main(['run', '--recipe', name, *sets, '--out', f'{sys.argv[2]}/{name}'])\n"
            "    if code:\n        sys.exit(f'{name} exited {code}')\n")
    subprocess.run([sys.executable, "-c", code, json.dumps(GOLDEN_PARAMS), str(tmp_path)],
                   check=True, capture_output=True, env=_child_env())
    drifted = [f"{name}/{frozen.name}" for name in GOLDEN_PARAMS for frozen in sorted((GOLDEN_DIR / name).iterdir())
               if (tmp_path / name / frozen.name).read_bytes() != frozen.read_bytes()]
    assert drifted == []


def test_a_solve_without_scipy_is_a_usage_error(tmp_path):
    # a request past the bound runs the fits, which import scipy.optimize on first use;
    # where scipy cannot be imported the run ends in a message naming it, not a traceback
    out = tmp_path / "out"
    code = ("import sys\nsys.modules['scipy'] = None\nfrom causalqca.cli import main\n"
            "sys.exit(main(['run', '--recipe', 'gates_verify', '--set', 'zeta=0.9', '--out', sys.argv[1]]))")
    proc = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True, text=True,
                          timeout=60, env=_child_env())
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: this run needs scipy")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("recipe, setting, message", [
    ("gates_verify", "restarts=-1", "restarts must be at least 0, got -1"),
    ("zitter", "steps=0", "steps must be at least 2, got 0"),
    ("zitter", "width=0", "width must be positive"),
    ("zitter", "width=nan", "width must be positive, got nan"),
    ("zitter", "p0=nan", "p0 must lie in [-pi, pi], got nan"),
    ("zitter", "p0=inf", "p0 must lie in [-pi, pi], got inf"),
    # 4 is the momentum 4 - 2*pi, but the wrap guard reads the band on [-pi, pi)
    ("zitter", "p0=4", "p0 must lie in [-pi, pi], got 4.0"),
    ("zitter", "p0=1e308", "p0 must lie in [-pi, pi], got 1e+308"),
    ("zitter", "mu=1e-9", "mu=1e-09 has a band gap at p0=0.0 that rounds to zero"),
    ("zitter", "mu=1e-9 p0=3.141592653589793",
     "mu=1e-09 has a band gap at p0=3.141592653589793 that aliases to zero"),
    # zeta = 0: the step swaps chiralities in place, so there is no oscillation to find
    ("zitter", "mu=1", "mu=1.0 has zeta = 0"),
    # 2**49: the brackets of the period-4 clock reach 4 * 4 * 2**49 = 2**53, where floats stop counting
    ("fig1", "separation=562949953421312",
     "mirror_separation must be at most 562949953421311 for the period-4 pattern RRRL, got 562949953421312"),
    ("gates_verify", "seed=-1", "seed must be at least 0, got -1"),
    ("bound_scan", "count=abc", "count must be an int, got 'abc'"),
    ("bound_scan", "mu_max=x", "mu_max must be a float, got 'x'"),
    ("bound_scan", "mu_max=inf", "mu_max must lie in [0, 1], got inf"),
    ("bound_scan", "mu_min=-0.5", "mu_min must lie in [0, 1], got -0.5"),
    ("gates_verify", "zeta=inf", "zeta must be finite and positive, got inf"),
    ("gates_verify", "zeta=4e307", "zeta must be at most 1.1850939885136468e+153 to keep the fit finite, got 4e+307"),
    # 10**15 rows are 7.1 PiB, which no address space holds even where memory is overcommitted
    ("bound_scan", f"count={10**15}", "Unable to allocate"),
    ("gates_verify", "n_sites=0", "n_sites must lie in [1, 5], got 0"),
    ("gates_verify", "n_sites=6", "n_sites must lie in [1, 5], got 6"),
    ("lorentz_fit", "coarse=inf", "scales must be finite and positive, got inf and inf"),
    ("lorentz_fit", "coarse=1e308", "mapping must be finite"),
    # a massless packet's reach does not divide by the width, so the packet itself rejects it
    ("zitter", "mu=0 width=1e-200 steps=64 n_sites=256",
     "width must be positive with a finite envelope exponent, got 1e-200"),
])
def test_rejected_value_is_usage_error(recipe, setting, message, tmp_path, capsys):
    out = tmp_path / "out"
    sets = [arg for item in setting.split() for arg in ("--set", item)]
    args = ["run", "--recipe", recipe, *sets, "--out", str(out)]
    if (recipe, setting) in _ONCE_HUNG:
        proc = subprocess.run([sys.executable, "-W", "always", "-m", "causalqca.cli", *args],
                              capture_output=True, text=True, timeout=30, env=_child_env())
        code, err = proc.returncode, proc.stderr
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a rejected value prints no warning
            code = main(args)
        err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Warning" not in err
    assert not out.exists()


def test_gates_verify_reaches_five_sites(tmp_path):
    # the largest chain the Fock oracle accepts
    assert main(["run", "--recipe", "gates_verify", "--set", "n_sites=5", "--out", str(tmp_path)]) == 0


def test_gates_verify_rejects_n_sites_before_solving(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("solve_gates ran before n_sites was checked")

    monkeypatch.setattr("causalqca.recipes.gates_mod.solve_gates", unreachable)
    assert main(["run", "--recipe", "gates_verify", "--set", "n_sites=0", "--out", str(tmp_path)]) == 2
    assert "n_sites must lie in [1, 5], got 0" in capsys.readouterr().err


def test_gates_verify_fails_its_check_when_the_solve_is_undetermined(tmp_path, monkeypatch):
    # 'undetermined' marks a restart below the proved floor, a bug no request
    # reaches, so the real solution is relabelled
    real = recipes.gates_mod.solve_gates
    monkeypatch.setattr("causalqca.recipes.gates_mod.solve_gates",
                        lambda *args, **kwargs: real(*args, **kwargs)._replace(status="undetermined"))
    assert main(["run", "--recipe", "gates_verify", "--set", "restarts=3", "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "gates_verify.json").read_text())["summary"]["status"] == "undetermined"


def test_key_error_inside_a_recipe_is_not_a_usage_error(tmp_path, monkeypatch):
    def broken(svg):
        return {}["missing"]

    monkeypatch.setitem(RECIPES, "fig1", broken)
    # a bug surfaces as an exception, not as exit 2
    with pytest.raises(KeyError):
        main(["run", "--recipe", "fig1", "--out", str(tmp_path)])


def test_fig1_run_and_values(tmp_path, capsys):
    assert main(["run", "--recipe", "fig1", "--out", str(tmp_path), "--svg"]) == 0
    payload = json.loads((tmp_path / "fig1.json").read_text())
    assert payload["summary"]["rest_ticktac"] == 8
    assert payload["summary"]["boosted_ticktac"] == 16
    assert payload["summary"]["rest_sep"] == 2
    assert payload["summary"]["boosted_sep"] == 1
    assert (tmp_path / "fig1.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("settings", [{}, {"rest_pattern": "RRL", "separation": "2"},
                                      {"boosted_pattern": "LLLR", "separation": "3"}])
def test_fig1_draws_each_mirror_where_the_clock_counts_it(settings, tmp_path, monkeypatch):
    drawn = {}
    real = recipes.spacetime_svg

    def capture(window, worldlines, **kwargs):
        drawn.update(worldlines)
        return real(window, worldlines, **kwargs)

    monkeypatch.setattr(recipes, "spacetime_svg", capture)
    run_recipe("fig1", settings, tmp_path, svg=True)
    params = json.loads((tmp_path / "fig1.json").read_text())["params"]
    sep = params["separation"]
    for label in ("rest", "boosted"):
        spec = ObserverSpec(params[f"{label}_pattern"])
        # einstein_clock counts the far mirror sep leaf steps (nR, -nL) from the origin
        far_origin = Event(sep * spec.n_right, -sep * spec.n_left)
        assert far_origin in drawn[f"{label} mirror"]


def test_fig1_counts_just_below_the_float_bound(tmp_path):
    # the RRRL clock's brackets stay below 2**53, one separation short of the rejected value
    assert main(["run", "--recipe", "fig1", "--set", f"separation={2**49 - 1}", "--out", str(tmp_path)]) == 0


def test_zitter_passes_with_a_gap_above_pi(tmp_path):
    # the gap 4.53 rad/step is seen at its alias 1.75
    assert main(["run", "--recipe", "zitter", "--set", "p0=2.5", "--set", "steps=256",
                 "--set", "n_sites=512", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "zitter.json").read_text())["summary"]["expected_band_gap"] > math.pi


@pytest.mark.parametrize("pattern", ["LLLR", "LLR", "LLLLR"])
def test_fig1_mirrored_pattern_passes(pattern, tmp_path):
    assert main(["run", "--recipe", "fig1", "--set", f"boosted_pattern={pattern}",
                 "--out", str(tmp_path)]) == 0


patterns = st.text(alphabet="RL", min_size=2, max_size=8).filter(lambda p: "R" in p and "L" in p)


@given(patterns, patterns, st.integers(1, 50))
def test_fig1_check_holds_for_every_clock(rest, boosted, sep):
    params = {"rest_pattern": rest, "boosted_pattern": boosted, "separation": sep}
    _, ok, _ = RECIPES["fig1"](False, **params)
    assert ok


@pytest.mark.parametrize("coarse", ["0.25", "0.75", "1", "2", "1e-14", "1e-10", "0.5", "1e10", "1e13",
                                    "1e-300", "1e300"])
def test_lorentz_fit_passes_at_any_coarse_graining(coarse, tmp_path):
    # the fitted beta, gamma and determinant do not depend on the chart scale, and
    # the residual, in chart units, stays below 2 * coarse at every scale
    assert main(["run", "--recipe", "lorentz_fit", "--set", f"coarse={coarse}",
                 "--out", str(tmp_path)]) == 0


def test_lorentz_fit_svg_is_byte_identical_across_runs(tmp_path):
    for sub in ("a", "b"):
        run_recipe("lorentz_fit", {}, tmp_path / sub, svg=True)
    art = (tmp_path / "a" / "foliations.svg").read_bytes()
    assert art.startswith(b"<svg")
    assert art == (tmp_path / "b" / "foliations.svg").read_bytes()


def test_bound_scan_massless_row(tmp_path):
    assert main(["run", "--recipe", "bound_scan", "--set", "count=6", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bound_scan.csv").read_text().splitlines()
    assert lines[0] == "mu,zeta_max,n_min"
    assert lines[1] == "0,1,1"


def test_failed_check_exits_one(tmp_path, capsys):
    # an absurd probability threshold finds no front at all
    code = main([
        "run", "--recipe", "front_speed",
        "--set", "eps=0.99", "--set", "steps=50", "--set", "n_sites=128",
        "--out", str(tmp_path),
    ])
    assert code == 1
    payload = json.loads((tmp_path / "front_speed.json").read_text())
    assert payload["ok"] is False


def test_front_speed_check_holds_at_any_run_length(tmp_path):
    # the front's lead over zeta shrinks with the run length, so short runs must pass too
    for steps in (50, 100, 400):
        for mu in (0.3, 0.6, 0.9):
            out = tmp_path / f"{steps}_{mu}"
            code = main(["run", "--recipe", "front_speed", "--set", f"steps={steps}", "--set", f"mu={mu}",
                         "--out", str(out)])
            assert code == 0, json.loads((out / "front_speed.json").read_text())["summary"]


def test_reruns_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run_recipe("dispersion", {"n_sites": "16"}, tmp_path / sub)
        run_recipe("fig1", {}, tmp_path / sub)
        # separate processes: the solver once stopped at a different point of
        # its flat gauge direction in each one
        subprocess.run(
            [sys.executable, "-m", "causalqca.cli", "run", "--recipe", "gates_verify",
             "--set", "mu=0.6115", "--set", "zeta=0.791244", "--set", "restarts=3",
             "--set", "n_sites=3", "--set", "seed=5", "--out", str(tmp_path / sub / "gates")],
            check=True, capture_output=True, env=_child_env(),
        )
    for name in ("dispersion.json", "dispersion.csv", "fig1.json",
                 "gates/gates.json", "gates/gates_verify.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_PARAMS))
def test_golden_outputs(name, tmp_path):
    result = run_recipe(name, GOLDEN_PARAMS[name], tmp_path)
    assert result.ok
    for frozen in sorted((GOLDEN_DIR / name).iterdir()):
        fresh = tmp_path / frozen.name
        assert fresh.read_bytes() == frozen.read_bytes(), f"{name}/{frozen.name} drifted"


def _switch_value(switch: str) -> str | None:
    """The value of a per-process switch that moves numpy or OpenBLAS off this CPU's best kernels.

    numpy refuses to import with a baseline feature disabled and ignores names
    it does not know, so its switch names only the features it dispatches and
    finds here; OpenBLAS's Haswell kernels need AVX2.
    """
    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath  # numpy 2 renamed core
    found = umath.__cpu_features__
    if switch == "NPY_DISABLE_CPU_FEATURES":
        return ",".join(f for f in umath.__cpu_dispatch__ if found.get(f) and f not in umath.__cpu_baseline__)
    return "Haswell" if found.get("AVX2") else None


@pytest.mark.parametrize("switch", ["NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"])
def test_golden_outputs_hold_under_cpu_switches(switch, tmp_path):
    value = _switch_value(switch)
    env = _child_env() if value is None else {**_child_env(), switch: value}
    code = ("import json, sys\nfrom causalqca.recipes import run_recipe\n"
            "for name, p in json.loads(sys.argv[1]).items():\n    run_recipe(name, p, sys.argv[2] + '/' + name)\n")
    subprocess.run([sys.executable, "-c", code, json.dumps(GOLDEN_PARAMS), str(tmp_path)],
                   check=True, capture_output=True, env=env)
    drifted = [f"{name}/{frozen.name}" for name in GOLDEN_PARAMS for frozen in sorted((GOLDEN_DIR / name).iterdir())
               if (tmp_path / name / frozen.name).read_bytes() != frozen.read_bytes()]
    assert drifted == [], f"{switch}={value}"


def test_constants_file_override(tmp_path, monkeypatch):
    constants = tmp_path / "natural.txt"
    constants.write_text("hbar=1.0\nc=1.0\n")
    monkeypatch.setenv(CONSTANTS_ENV, str(constants))
    # natural units cannot reproduce SI particle masses: the check must fail
    assert main(["run", "--recipe", "units_table", "--out", str(tmp_path / "out")]) == 1
    payload = json.loads((tmp_path / "out" / "units_table.json").read_text())
    assert payload["summary"]["c"] == 1.0
    assert payload["ok"] is False


def test_units_table_checks_the_proton_mass(tmp_path, monkeypatch):
    monkeypatch.setattr(recipes, "_PROTON_MASS", recipes._PROTON_MASS * (1 + 1e-5))
    assert not run_recipe("units_table", out_dir=tmp_path).ok


@pytest.mark.parametrize("slope, ok", [(2.99, True), (3.01, True), (2.9, False), (3.5, False)])
def test_eff_hamiltonian_checks_the_slope_on_both_sides(tmp_path, monkeypatch, slope, ok):
    # the small-coupling remainder is cubic: a slope far from 3 either way fails
    monkeypatch.setattr(recipes, "generator_small_limit_slope", lambda: slope)
    assert run_recipe("eff_hamiltonian", {"n_sites": "16"}, out_dir=tmp_path).ok is ok


def test_conflicting_constants_file_is_usage_error(tmp_path, monkeypatch, capsys):
    constants = tmp_path / "clash.txt"
    constants.write_text("c=1\ntopon_a=2\n")
    monkeypatch.setenv(CONSTANTS_ENV, str(constants))
    assert main(["run", "--recipe", "units_table", "--out", str(tmp_path / "out")]) == 2
    assert f"{constants}:2: topon_a conflicts with c" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
