import math
import pickle

import numpy as np
import pytest

from dickelab.errors import AboveThresholdError
from dickelab.parameters import (
    BlochAngles,
    CavityParams,
    EffectiveParams,
    angles_from_mean_spin,
    bloch_angles,
    cavity_params_for_effective,
    critical_drive,
    map_cavity_to_effective,
    mean_field_steady_state,
    mean_spin_vector,
    rotation_matrix,
)


def test_mapping_arithmetic_oracle():
    # independent recomputation: gamma = 1*20/(100+100), Delta = -10/200,
    # Omega = -10/(20+20i)
    p = CavityParams(g=1.0, kappa=20.0, delta_c=10.0, Omega_L=5.0, N=10)
    e = map_cavity_to_effective(p)
    assert e.gamma == pytest.approx(0.1, abs=1e-15)
    assert e.Delta == pytest.approx(-0.05, abs=1e-15)
    assert e.Omega == pytest.approx(-10 / (20 + 20j), abs=1e-15)
    assert e.Omega == pytest.approx(-0.25 + 0.25j, abs=1e-15)
    assert e.N == 10


def test_mapping_resonant_cavity():
    p = CavityParams(g=0.7, kappa=3.0, delta_c=0.0, Omega_L=2.0, N=4)
    e = map_cavity_to_effective(p)
    assert e.gamma == pytest.approx(4 * 0.49 / 3.0, rel=1e-14)
    assert e.Delta == 0.0
    assert e.Omega == pytest.approx(2j * 0.7 * 2.0 / 3.0, rel=1e-14)


def test_mapping_detuning_parity():
    kw = dict(g=0.4, kappa=2.0, Omega_L=1.0, N=3)
    plus = map_cavity_to_effective(CavityParams(delta_c=0.8, **kw))
    minus = map_cavity_to_effective(CavityParams(delta_c=-0.8, **kw))
    assert plus.gamma == pytest.approx(minus.gamma, rel=1e-15)
    assert plus.Delta == pytest.approx(-minus.Delta, rel=1e-15)


def test_inverse_mapping_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        e = EffectiveParams(
            gamma=float(rng.uniform(0.1, 3.0)),
            Delta=float(rng.uniform(-2.0, 2.0)),
            Omega=complex(rng.normal(), rng.normal()),
            N=int(rng.integers(1, 200)),
        )
        kappa = float(rng.uniform(0.5, 50.0))
        back = map_cavity_to_effective(cavity_params_for_effective(e, kappa))
        assert back.gamma == pytest.approx(e.gamma, rel=1e-12)
        assert back.Delta == pytest.approx(e.Delta, rel=1e-12, abs=1e-14)
        assert back.Omega == pytest.approx(e.Omega, rel=1e-12, abs=1e-14)


def test_critical_drive_values():
    e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=50)
    assert critical_drive(e) == pytest.approx(12.5, abs=1e-14)
    e2 = EffectiveParams(gamma=1.0, Delta=1.0, Omega=0.0, N=50)
    assert critical_drive(e2) == pytest.approx(12.5 * math.sqrt(5), rel=1e-14)
    e3 = EffectiveParams(gamma=1.0, Delta=1.0, Omega=0.0, N=100)
    assert critical_drive(e3) == pytest.approx(2 * critical_drive(e2), rel=1e-15)


def test_mean_field_dark_and_partial():
    e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=20)
    jz, jm = mean_field_steady_state(e)
    assert jz == -10.0
    assert jm == 0.0

    e = e.with_drive_ratio(1 / math.sqrt(2))
    jz, _ = mean_field_steady_state(e)
    assert jz == pytest.approx(-10 / math.sqrt(2), rel=1e-12)

    e = EffectiveParams(gamma=2.0, Delta=0.0, Omega=0.5, N=20)
    _, jm = mean_field_steady_state(e)
    assert jm == pytest.approx(2j * 0.5 / 2.0, rel=1e-14)


def test_mean_field_above_threshold():
    e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=10).with_drive_ratio(1.1)
    with pytest.raises(AboveThresholdError):
        mean_field_steady_state(e)
    # the guard also refuses the near-critical sliver where moments diverge
    e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.0, N=10).with_drive_ratio(0.9995)
    with pytest.raises(AboveThresholdError):
        bloch_angles(e)


@pytest.mark.parametrize("args", [(1.2,), (float("nan"), "msg")], ids=["default", "message"])
def test_above_threshold_error_survives_pickling(args):
    # a worker process sends its exceptions back pickled
    exc = AboveThresholdError(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is AboveThresholdError
    assert str(back) == str(exc)
    assert back.ratio == exc.ratio or (math.isnan(back.ratio) and math.isnan(exc.ratio))


def test_mean_field_requires_resonance():
    e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=0.1, N=10, delta=0.5)
    with pytest.raises(ValueError):
        mean_field_steady_state(e)


def test_bloch_angles_weak_drive_phase():
    e = EffectiveParams(gamma=1.0, Delta=0.0, Omega=1e-9, N=10)
    a = bloch_angles(e)
    assert a.theta == pytest.approx(0.0, abs=1e-8)
    assert a.phi == pytest.approx(math.pi / 2, rel=1e-12)


def test_bloch_angles_half_critical():
    e = EffectiveParams(gamma=1.0, Delta=0.3, Omega=0.0, N=30).with_drive_ratio(0.5)
    assert bloch_angles(e).theta == pytest.approx(math.pi / 6, rel=1e-12)


def test_mean_spin_vector_consistency():
    # spherical form against the direct fixed-point formulas
    rng = np.random.default_rng(11)
    for _ in range(20):
        e = EffectiveParams(
            gamma=float(rng.uniform(0.2, 2.0)),
            Delta=float(rng.uniform(-1.5, 1.5)),
            Omega=0.0,
            N=int(rng.integers(2, 100)),
        ).with_drive_ratio(float(rng.uniform(0.01, 0.95)), float(rng.uniform(-3, 3)))
        vec = mean_spin_vector(e)
        jz, jm = mean_field_steady_state(e)
        assert vec[2] == pytest.approx(jz, rel=1e-12)
        assert vec[0] == pytest.approx(jm.real, rel=1e-10, abs=1e-12)
        assert vec[1] == pytest.approx(-jm.imag, rel=1e-10, abs=1e-12)


def test_rotation_matrix_identity_and_south_pole():
    assert np.allclose(rotation_matrix(BlochAngles(0.0, 0.0)), np.eye(3))
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = EffectiveParams(
            gamma=float(rng.uniform(0.2, 2.0)),
            Delta=float(rng.uniform(-1.0, 1.0)),
            Omega=0.0,
            N=int(rng.integers(2, 80)),
        ).with_drive_ratio(float(rng.uniform(0.0, 0.95)), float(rng.uniform(-3, 3)))
        rot = rotation_matrix(bloch_angles(e))
        south = rot.T @ mean_spin_vector(e)
        np.testing.assert_allclose(south, [0.0, 0.0, -e.N / 2], atol=1e-10 * e.N)


def test_rotation_matrix_orthogonality():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = BlochAngles(float(rng.uniform(0, math.pi / 2 - 1e-6)),
                        float(rng.uniform(-math.pi + 1e-9, math.pi)))
        r = rotation_matrix(a)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-14)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-13)


def test_jz_collapse_property():
    # <J_z> depends on the drive only through the ratio to the critical drive
    ratios = np.linspace(0.0, 0.95, 40)
    curves = []
    for Delta in (0.0, 0.5, 1.0):
        base = EffectiveParams(gamma=1.0, Delta=Delta, Omega=0.0, N=50)
        curves.append([mean_field_steady_state(base.with_drive_ratio(r))[0] for r in ratios])
    np.testing.assert_allclose(curves[0], curves[1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(curves[0], curves[2], rtol=0, atol=1e-12)


def test_mapping_delta_c_zero_gives_exactly_zero_shift():
    p = CavityParams(g=0.9 + 0.1j, kappa=7.0, delta_c=0.0, Omega_L=1.0 - 2j, N=12)
    assert map_cavity_to_effective(p).Delta == 0.0


def test_angles_from_mean_spin():
    a = angles_from_mean_spin(0.0, 0.0, -5.0)
    assert a.theta == 0.0
    e = EffectiveParams(gamma=1.0, Delta=0.4, Omega=0.0, N=40).with_drive_ratio(0.6, 1.0)
    vec = mean_spin_vector(e)
    b = angles_from_mean_spin(*vec)
    ref = bloch_angles(e)
    assert b.theta == pytest.approx(ref.theta, rel=1e-12)
    assert b.phi == pytest.approx(ref.phi, rel=1e-12)
    with pytest.raises(ValueError):
        angles_from_mean_spin(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        angles_from_mean_spin(0.0, 0.0, 5.0)  # upper hemisphere


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(g=1.0, kappa=0.0, delta_c=0.0, Omega_L=0.0, N=5)
    with pytest.raises(ValueError):
        CavityParams(g=1.0, kappa=1.0, delta_c=0.0, Omega_L=0.0, N=0)
    with pytest.raises(ValueError):
        EffectiveParams(gamma=-1.0, Delta=0.0, Omega=0.0, N=5)
