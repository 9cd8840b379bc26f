import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

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
])
def test_rejected_value_is_usage_error(recipe, setting, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--recipe", recipe, "--set", setting, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    for sub in ("a", "b"):
        run_recipe("dispersion", {"n_sites": "16"}, tmp_path / sub)
        run_recipe("fig1", {}, tmp_path / sub)
        # separate processes: the solver once stopped at a different point of
        # its flat gauge direction in each one
        subprocess.run(
            [sys.executable, "-m", "causalqca.cli", "run", "--recipe", "gates_verify",
             "--set", "mu=0.6115", "--set", "zeta=0.791244", "--set", "restarts=3",
             "--set", "n_sites=3", "--set", "seed=5", "--out", str(tmp_path / sub / "gates")],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
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
