"""Correctness checks of the CLI's output rows.

Numbers are compared with the closed-form reference state (``reference``),
never with stored output. Besides the per-row comparison each workload
checks properties the physics must have: the mean-field window, the
collapse of the curves across Delta/gamma, the interior squeezing minimum
below the critical drive, the coherent-light sum rules and the behaviour of
the adiabatic elimination.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

import reference

DRIVE = "Omega_over_Omega_c"
EPS = np.finfo(float).eps


def _key(n, d_over_g, drive):
    return int(n), round(float(d_over_g), 9), round(float(drive), 9)


def grid_keys(config: dict) -> set:
    """Grid points a config asks for, as (N, Delta/gamma, drive) keys."""
    drives = config["sweep"]["drive"]["values"]
    if "cavity" in config["params"]:
        cav = config["params"]["cavity"]
        # Delta/gamma of the eliminated model is -delta_c/kappa
        return {_key(cav["N"], -cav["delta_c"] / cav["kappa"], x) for x in drives}
    sweep = config["sweep"]
    n_values = sweep.get("N", [config["params"]["effective"].get("N")])
    return {_key(n, d, x) for n in n_values for d in sweep["Delta_over_gamma"] for x in drives}


def group_points(rows: list) -> dict:
    points = defaultdict(list)
    for row in rows:
        points[_key(row["N"], row["Delta_over_gamma"], row[DRIVE])].append(row)
    return dict(points)


def _close(a, b, rtol=0.0, atol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


class Problems(list):
    def expect(self, ok: bool, message: str):
        if not ok:
            self.append(message)


def check_round(workload: str, invocations, outputs: dict):
    """(attempted, failed, problems) for one round.

    ``outputs`` maps an invocation name to (exit code, rows). A point fails
    when its row carries an error; only an invocation's named expected error
    is allowed, anything else is a problem.
    """
    problems = Problems()
    attempted = failed = 0
    good = {}
    for inv in invocations:
        code, rows = outputs[inv.name]
        expected = grid_keys(inv.config)
        points = group_points(rows)
        attempted += len(expected)
        problems.expect(set(points) == expected,
                        f"{inv.name}: rows cover {sorted(points)}, grid is {sorted(expected)}")
        ok_points = {}
        for key, grp in points.items():
            error = grp[0]["error"]
            if not error:
                ok_points[key] = grp
                continue
            failed += 1
            problems.expect(
                inv.expected_error is not None and error.startswith(inv.expected_error + ":"),
                f"{inv.name} {key}: unexpected failure {error}")
        problems.expect(code == (3 if len(ok_points) < len(points) else 0),
                        f"{inv.name}: exit code {code}")
        good[inv.name] = ok_points
    CHECKS[workload](good, {inv.name: inv.config for inv in invocations}, problems)
    return attempted, failed, problems


# -- effective-level sweeps --------------------------------------------------


def _state(key):
    n, d_over_g, drive = key
    return reference.moments(reference.resonant_state(n, drive, d_over_g))


def _sweep_values(points: dict, column: str, ref_name: str, problems, rtol, atol):
    """Numeric column per point, compared with the reference; the analytic
    column must be the mean-field value sqrt(1 - r^2) (times -1 for J_z)
    below threshold and empty above it."""
    values = {}
    analytic_col = column.replace("_numeric", "_analytic")
    sign = -1.0 if ref_name == "jz_over_halfN" else 1.0
    for key, (row,) in points.items():
        value = float(row[column])
        ref = _state(key)[ref_name]
        problems.expect(_close(value, ref, rtol, atol),
                        f"{column} at {key}: {value!r} vs closed form {ref!r}")
        drive = key[2]
        if drive < 1.0:
            mf = sign * math.sqrt(1.0 - drive * drive)
            problems.expect(_close(float(row[analytic_col]), mf, atol=1e-12),
                            f"{analytic_col} at {key}: {row[analytic_col]} vs {mf!r}")
        else:
            problems.expect(row[analytic_col] == "", f"{analytic_col} at {key} above threshold")
        values[key] = value
    return values


def _curve_properties(values: dict, name: str, problems, mean_field_sign: float,
                      interior_minimum: bool):
    """Mean-field window (drives <= 0.85 within 1/N of the mean-field
    curve), collapse across Delta/gamma (the state depends on Delta only
    through a phase of the dipole), and the interior minimum below the
    critical drive on every curve of three or more drives."""
    curves = defaultdict(dict)
    for (n, d_over_g, drive), value in values.items():
        curves[(n, d_over_g)][drive] = value
        if drive <= 0.85:
            mf = mean_field_sign * math.sqrt(1.0 - drive * drive)
            problems.expect(abs(value - mf) <= 1.0 / n,
                            f"{name} at N={n}, drive {drive}: {value} outside the mean-field window of {mf}")
    by_n = defaultdict(list)
    for (n, d_over_g), curve in curves.items():
        by_n[n].append(curve)
    for n, group in by_n.items():
        for curve in group[1:]:
            for drive, value in curve.items():
                problems.expect(_close(value, group[0][drive], rtol=1e-8, atol=1e-10),
                                f"{name} at N={n}, drive {drive}: no collapse across Delta")
    if interior_minimum:
        for (n, d_over_g), curve in curves.items():
            drives = sorted(curve)
            if len(drives) < 3:
                continue
            best = min(drives, key=curve.get)
            problems.expect(
                drives[0] < best < drives[-1] and best < 1.0 and curve[best] < 1.0,
                f"{name} at N={n}, Delta/gamma={d_over_g}: minimum at drive {best} is not interior")


def _check_figures(good, configs, problems):
    jz = _sweep_values(good["fig2"], "jz_over_halfN_numeric", "jz_over_halfN", problems,
                       rtol=0.0, atol=1e-9)
    _curve_properties(jz, "jz/(N/2)", problems, -1.0, interior_minimum=False)
    xi2 = _sweep_values(good["fig3"], "xi2_numeric", "xi2", problems, rtol=1e-7, atol=0.0)
    _curve_properties(xi2, "xi2", problems, 1.0, interior_minimum=True)


def _check_scaling(good, configs, problems):
    xi2 = {}
    for name in ("squeezing_n100", "squeezing_n200"):
        xi2.update(_sweep_values(good[name], "xi2_numeric", "xi2", problems, rtol=1e-7, atol=0.0))
    _curve_properties(xi2, "xi2", problems, 1.0, interior_minimum=True)


# -- radiated light ----------------------------------------------------------


def _embedding(n, d_over_g, drive, kappa, gamma=1.0):
    """Cavity that eliminates to (gamma, Delta, Omega): delta_c = -kappa Delta/gamma,
    |g|^2 = gamma (delta_c^2 + kappa^2/4)/kappa, real g, and
    Omega_L = -Omega (2 delta_c + i kappa)/(2 g). Returns (Omega_L, chi, G)
    with chi = kappa/(i delta_c - kappa/2) and G = -i conj(g) chi."""
    Delta = d_over_g * gamma
    delta_c = -kappa * Delta / gamma
    g = math.sqrt(gamma * (delta_c**2 + kappa**2 / 4) / kappa)
    omega = drive * reference.critical_drive(n, gamma, Delta)
    omega_l = -omega * (2 * delta_c + 1j * kappa) / (2 * g)
    chi = kappa / (1j * delta_c - kappa / 2)
    return omega_l, chi, -1j * g * chi


def _check_spectrum(good, configs, problems):
    for name, points in good.items():
        kappa = configs[name]["spectrum"]["kappa_embed_over_gamma"]
        for key, rows in points.items():
            n, d_over_g, drive = key
            row = rows[0]
            mom = _state(key)
            omega_l, chi, G = _embedding(n, d_over_g, drive, kappa)
            field = -1j * omega_l * (1 + chi) + G * mom["jminus"]
            coherent = float(row["coherent_weight"])
            problems.expect(_close(coherent, abs(field) ** 2, rtol=1e-9),
                            f"{name} {key}: coherent weight {coherent} vs {abs(field) ** 2}")
            problems.expect(abs(coherent / abs(omega_l) ** 2 - 1.0) <= 1.0 / n,
                            f"{name} {key}: coherent output {coherent} not within 1/N of the "
                            f"incident {abs(omega_l) ** 2}")
            ratio = abs(mom["jminus"]) ** 2 / mom["jpjm"]
            problems.expect(_close(float(row["coherence_ratio"]), ratio, rtol=1e-9),
                            f"{name} {key}: coherence ratio {row['coherence_ratio']} vs {ratio}")
            # sum rule: the broadband weight is |G|^2 var(J_-)
            incoherent = float(row["incoherent_weight"])
            expected = abs(G) ** 2 * mom["var_jm"]
            floor = EPS * (n + 1) * abs(G * mom["jminus"]) ** 2
            if expected > floor:
                problems.expect(_close(incoherent, expected, rtol=1e-4),
                                f"{name} {key}: incoherent weight {incoherent} vs {expected}")
            else:
                problems.expect(abs(incoherent) < floor,
                                f"{name} {key}: incoherent weight {incoherent} above the "
                                f"round-off floor {floor} of a coherent state")


# -- adiabatic elimination ---------------------------------------------------


def _eliminated_moments(cavity: dict, drive: float) -> dict:
    """Closed-form moments of the eliminated model: gamma = |g|^2 kappa / den,
    Delta = -|g|^2 delta_c / den, den = delta_c^2 + kappa^2/4, and a real
    positive drive of ``drive`` times the critical drive."""
    g2, kappa, delta_c, n = abs(complex(cavity["g"])) ** 2, cavity["kappa"], cavity["delta_c"], cavity["N"]
    den = delta_c**2 + kappa**2 / 4
    gamma, Delta = g2 * kappa / den, -g2 * delta_c / den
    omega = drive * reference.critical_drive(n, gamma, Delta)
    return reference.moments(reference.steady_state(n, reference.mean_dipole(omega, gamma, Delta)))


def _check_elimination(good, configs, problems):
    (name, points), = good.items()
    cavity = configs[name]["params"]["cavity"]
    n = cavity["N"]
    deviations = []
    for key, rows in sorted(points.items(), key=lambda kv: kv[0][2]):
        mom = _eliminated_moments(cavity, key[2])
        expected = {"Jz": mom["jz"], "Jminus": mom["jminus"], "JpJm": mom["jpjm"]}
        by_obs = {row["observable"]: row for row in rows}
        problems.expect(set(by_obs) == set(expected), f"{name} {key}: observables {sorted(by_obs)}")
        for obs, row in by_obs.items():
            eff = complex(float(row["effective_re"]), float(row["effective_im"]))
            problems.expect(_close(eff, expected[obs], atol=1e-10 * n * n),
                            f"{name} {key}: effective {obs} {eff} vs closed form {expected[obs]}")
            problems.expect(row["passed"] == "true" and row["cutoff_converged"] == "true",
                            f"{name} {key}: {obs} not passed/converged")
        full = {obs: complex(float(r["full_re"]), float(r["full_im"])) for obs, r in by_obs.items()}
        problems.expect(abs(full["Jminus"]) ** 2 <= full["JpJm"].real * (1 + 1e-9),
                        f"{name} {key}: |<J_->|^2 > <J_+J_->")
        problems.expect(abs(full["Jz"].real) <= n / 2 * (1 + 1e-12), f"{name} {key}: |<J_z>| > N/2")
        deviations.append(float(by_obs["Jz"]["deviation_abs"]))
    problems.expect(all(a < b for a, b in zip(deviations, deviations[1:])),
                    f"{name}: J_z deviation {deviations} does not grow with drive")


CHECKS = {
    "figures": _check_figures,
    "scaling": _check_scaling,
    "spectrum": _check_spectrum,
    "elimination": _check_elimination,
}
