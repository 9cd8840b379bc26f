import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from causalqca.cli import main
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


def test_numpy_only_modules_do_not_import_scipy():
    # gates imports walk, never the reverse: the numpy-only layers start without scipy
    code = ("import sys; import causalqca.walk, causalqca.observers, causalqca.lattice, "
            "causalqca.units, causalqca.diagrams; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env=_child_env())
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("recipe, setting, message", [
    ("gates_verify", "restarts=-1", "restarts must be at least 0, got -1"),
    ("zitter", "steps=0", "steps must be at least 2, got 0"),
    ("zitter", "width=0", "width must be positive"),
    ("zitter", "width=nan", "width must be positive, got nan"),
    ("zitter", "p0=nan", "p0 must be finite, got nan"),
    ("zitter", "p0=inf", "p0 must be finite, got inf"),
    ("gates_verify", "seed=-1", "seed must be at least 0, got -1"),
    ("bound_scan", "count=abc", "count must be an int, got 'abc'"),
    ("bound_scan", "mu_max=x", "mu_max must be a float, got 'x'"),
    ("bound_scan", "mu_max=inf", "mu_max must lie in [0, 1], got inf"),
    ("bound_scan", "mu_min=-0.5", "mu_min must lie in [0, 1], got -0.5"),
    ("gates_verify", "zeta=inf", "zeta must be finite and positive, got inf"),
    ("gates_verify", "n_sites=0", "n_sites must lie in [1, 5], got 0"),
    ("gates_verify", "n_sites=6", "n_sites must lie in [1, 5], got 6"),
    ("lorentz_fit", "coarse=inf", "scales must be finite and positive, got inf and inf"),
    ("lorentz_fit", "coarse=1e308", "mapping must be finite"),
])
def test_rejected_value_is_usage_error(recipe, setting, message, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--recipe", recipe, "--set", setting, "--out", str(out)]
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


def test_key_error_inside_a_recipe_is_not_a_usage_error(tmp_path, monkeypatch):
    def broken(params, svg):
        return {}["missing"]

    monkeypatch.setitem(RECIPES, "fig1", replace(RECIPES["fig1"], run=broken))
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


@pytest.mark.parametrize("pattern", ["LLLR", "LLR", "LLLLR"])
def test_fig1_mirrored_pattern_passes(pattern, tmp_path):
    assert main(["run", "--recipe", "fig1", "--set", f"boosted_pattern={pattern}",
                 "--out", str(tmp_path)]) == 0


patterns = st.text(alphabet="RL", min_size=2, max_size=8).filter(lambda p: "R" in p and "L" in p)


@given(patterns, patterns, st.integers(1, 50))
def test_fig1_check_holds_for_every_clock(rest, boosted, sep):
    params = {"rest_pattern": rest, "boosted_pattern": boosted, "separation": sep}
    _, ok, _ = RECIPES["fig1"].run(params, False)
    assert ok


@pytest.mark.parametrize("coarse", ["0.25", "0.75", "1", "2"])
def test_lorentz_fit_passes_at_any_coarse_graining(coarse, tmp_path):
    # the fit residual is in chart units, which scale with coarse
    assert main(["run", "--recipe", "lorentz_fit", "--set", f"coarse={coarse}",
                 "--out", str(tmp_path)]) == 0


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


def test_constants_file_override(tmp_path, monkeypatch):
    constants = tmp_path / "natural.txt"
    constants.write_text("hbar=1.0\nc=1.0\n")
    monkeypatch.setenv(CONSTANTS_ENV, str(constants))
    # natural units cannot reproduce SI particle masses: the check must fail
    assert main(["run", "--recipe", "units_table", "--out", str(tmp_path / "out")]) == 1
    payload = json.loads((tmp_path / "out" / "units_table.json").read_text())
    assert payload["summary"]["c"] == 1.0
    assert payload["ok"] is False
