import math
import re

import pytest
from hypothesis import given, strategies as st

from causalqca.units import (
    C_SI,
    HBAR_SI,
    PhysicalUnits,
    causal_speed,
    compton_from_omega,
    load_constants,
    mass_from_omega,
    omega_from_compton,
    omega_from_mass,
)

NATURAL = PhysicalUnits(topon_a=1.0, chronon_tau=1.0, hbar=1.0)
SI = PhysicalUnits()


def test_causal_speed_examples():
    assert causal_speed(NATURAL) == 1.0
    assert causal_speed(PhysicalUnits(topon_a=2.99792458e8, chronon_tau=1.0)) == 2.99792458e8
    assert causal_speed(PhysicalUnits(topon_a=3e-9, chronon_tau=1e-17)) == pytest.approx(3e8)


def test_invalid_units_rejected():
    for bad in (dict(topon_a=0.0), dict(chronon_tau=-1.0), dict(hbar=0.0)):
        with pytest.raises(ValueError):
            PhysicalUnits(**bad)
    for name in ("topon_a", "chronon_tau", "hbar"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                PhysicalUnits(**{name: value})


def test_mass_from_omega_trivial():
    assert mass_from_omega(0.0, SI) == 0.0
    assert mass_from_omega(1.0, NATURAL) == 1.0
    with pytest.raises(ValueError):
        mass_from_omega(-1.0, SI)


def test_electron_mass_from_compton_frequency():
    # oracle: direct evaluation of hbar * omega / c**2 with CODATA numbers
    omega = 7.7634e20
    expected = HBAR_SI * omega / C_SI**2
    assert mass_from_omega(omega, SI) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(9.109e-31, rel=1e-3)


def test_omega_from_compton_examples():
    assert omega_from_compton(1.0, NATURAL) == 1.0
    assert omega_from_compton(math.inf, SI) == 0.0
    assert omega_from_compton(3.8616e-13, SI) == pytest.approx(7.7634e20, rel=1e-4)
    for bad in (0.0, -2.0):
        with pytest.raises(ValueError):
            omega_from_compton(bad, SI)


@given(st.floats(min_value=1e-6, max_value=1e30))
def test_round_trip_through_compton(omega):
    assert omega_from_compton(compton_from_omega(omega, SI), SI) == pytest.approx(omega, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e30))
def test_round_trip_through_mass(omega):
    assert omega_from_mass(mass_from_omega(omega, SI), SI) == pytest.approx(omega, rel=1e-12)


@given(
    st.floats(min_value=1e-3, max_value=1e25),
    st.integers(min_value=-40, max_value=40),
)
def test_linearity_exact_for_binary_scales(omega, exponent):
    # scaling by a power of two commutes exactly with the conversion
    alpha = 2.0**exponent
    assert mass_from_omega(alpha * omega, SI) == alpha * mass_from_omega(omega, SI)


@given(st.floats(min_value=1e-20, max_value=1e20))
def test_planck_relation(compton_lambda):
    mass = mass_from_omega(omega_from_compton(compton_lambda, SI), SI)
    assert mass * causal_speed(SI) * compton_lambda == pytest.approx(HBAR_SI, rel=1e-12)


def test_load_constants(tmp_path):
    assert load_constants(None) == SI

    path = tmp_path / "constants.txt"
    path.write_text("# natural units\nhbar = 1.0\nc = 1.0\n")
    natural = load_constants(path)
    assert causal_speed(natural) == 1.0
    assert natural.hbar == 1.0

    path.write_text("topon_a = 2.0\nchronon_tau = 4.0\n")
    assert causal_speed(load_constants(path)) == 0.5

    path.write_text("planck_length = 1\n")
    with pytest.raises(ValueError):
        load_constants(path)
    path.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        load_constants(path)


def test_load_constants_names_the_bad_value(tmp_path):
    path = tmp_path / "constants.txt"
    path.write_text("c = 1.0\nhbar=abc\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: hbar must be a number, got 'abc'")):
        load_constants(path)
    path.write_text("hbar = inf\n")
    with pytest.raises(ValueError, match="hbar must be finite and positive, got inf"):
        load_constants(path)
    with pytest.raises(FileNotFoundError):
        load_constants(tmp_path / "missing.txt")


def test_load_constants_rejects_conflicting_and_repeated_keys(tmp_path):
    path = tmp_path / "constants.txt"
    path.write_text("c = 1\ntopon_a = 2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: topon_a conflicts with c")):
        load_constants(path)
    path.write_text("topon_a = 2\nchronon_tau = 4\nhbar = 1\nc = 1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: c conflicts with chronon_tau, topon_a")):
        load_constants(path)
    path.write_text("hbar = 1\n# again\nhbar = 2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: hbar is given twice")):
        load_constants(path)
