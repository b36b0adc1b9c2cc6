"""Parameter sweeps, figure-data reproduction, and tabular output.

A run resolves its configuration into a flat list of grid points, computes
one row (or row block) per point, and writes CSV and optionally JSON.
Rows are computed independently, so grids parallelize across worker
processes; results are gathered in grid order, which makes parallel and
serial runs emit identical bytes.

Column conventions: rates are reported in units of gamma, drives in units
of the critical drive unless the absolute-drive flag is set, and complex
quantities are split into _re/_im columns. Analytic cells above the
critical drive stay empty. The wall-time column and the timestamp header
line are suppressed together by the no-timestamp flag, since both break
byte-level reproducibility.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AboveThresholdError,
    ConfigError,
    DickeLabError,
    SolverError,
)
from .lindblad import SteadyStateOptions, expect, steady_state
from .models import build_dicke_model, validate_elimination
from .observables import (
    dipole_fluctuation_moments,
    field_composition,
    g2_zero,
    hp_moments,
    hp_moments_numeric,
    output_spectrum,
    spin_squeezing_numeric,
)
from .parameters import (
    CavityParams,
    EffectiveParams,
    bloch_angles,
    cavity_params_for_effective,
    critical_drive,
    map_cavity_to_effective,
    mean_field_steady_state,
)

MODES = (
    "sweep-jz",
    "sweep-squeezing",
    "spectrum",
    "validate-elimination",
    "mean-field",
    "moments",
    "g2",
)

# modes that never touch the numerical solver
ANALYTIC_ONLY_MODES = ("mean-field",)


def _as_complex(value, name: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{name}: complex values are [re, im] pairs")
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, (int, float)):
        return complex(value)
    raise ConfigError(f"{name}: expected number or [re, im] pair, got {value!r}")


def _drive_list(spec) -> list[float]:
    if isinstance(spec, dict):
        try:
            start, stop, num = float(spec["start"]), float(spec["stop"]), int(spec["num"])
        except KeyError as exc:
            raise ConfigError(f"drive grid needs start/stop/num, missing {exc}") from exc
        if num < 1:
            raise ConfigError("drive grid needs num >= 1")
        return [float(x) for x in np.linspace(start, stop, num)]
    if isinstance(spec, (list, tuple)) and spec:
        return [float(x) for x in spec]
    raise ConfigError("drive values must be a non-empty list or {start, stop, num}")


@dataclass
class RunConfig:
    """Resolved run request: mode, parameter level, grids, solver and
    output options. ``drive_values`` are ratios to the critical drive
    unless ``drive_absolute`` is set."""

    mode: str
    level: str
    gamma: float = 1.0
    delta: float = 0.0
    cavity: CavityParams | None = None
    drive_values: list = field(default_factory=lambda: [None])
    drive_absolute: bool = False
    drive_phase: float = 0.0
    n_values: list = field(default_factory=list)
    delta_over_gamma_values: list = field(default_factory=lambda: [0.0])
    solver_tol: float | None = None
    solver_method: str | None = None
    threads: int | None = None
    out_path: str | None = None
    json_mirror: bool = False
    timestamp: bool = True
    # spectrum knobs
    tau_max_gamma: float | None = None
    n_tau: int = 512
    kappa_embed_over_gamma: float = 1000.0
    # elimination knobs
    fock_cutoff: int | None = None
    min_adiabaticity: float = 5.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.level not in ("effective", "cavity"):
            raise ConfigError("params.level must be 'effective' or 'cavity'")
        if self.level == "effective":
            if self.gamma <= 0:
                raise ConfigError("gamma must be positive")
            if not self.n_values:
                raise ConfigError("effective-level runs need a non-empty N list")
            if any(int(n) < 1 for n in self.n_values):
                raise ConfigError("all N values must be >= 1")
            if not self.delta_over_gamma_values:
                raise ConfigError("Delta_over_gamma list must be non-empty")
        else:
            if self.cavity is None:
                raise ConfigError("cavity-level runs need the cavity parameter block")
        if not self.drive_values:
            raise ConfigError("drive grid must be non-empty")
        if self.mode == "validate-elimination" and self.level != "cavity":
            raise ConfigError("validate-elimination needs cavity-level parameters")
        if self.n_tau < 16:
            raise ConfigError("n_tau must be at least 16")

    @classmethod
    def from_dict(cls, raw: dict, mode: str | None = None) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        cfg_mode = raw.get("mode", mode)
        if cfg_mode is None:
            raise ConfigError("mode missing from config and command line")
        if mode is not None and cfg_mode != mode:
            raise ConfigError(
                f"config mode {cfg_mode!r} conflicts with requested mode {mode!r}"
            )

        params = raw.get("params")
        if not isinstance(params, dict):
            raise ConfigError("config needs a params block")
        levels = [k for k in ("effective", "cavity") if k in params]
        if len(levels) != 1:
            raise ConfigError(
                "supply exactly one parameter level: params.effective or params.cavity"
            )
        level = levels[0]
        block = params[level]
        if not isinstance(block, dict):
            raise ConfigError(f"params.{level} must be an object")

        kwargs: dict = {"mode": cfg_mode, "level": level}
        sweep = raw.get("sweep", {})
        if not isinstance(sweep, dict):
            raise ConfigError("sweep block must be an object")

        if level == "effective":
            kwargs["gamma"] = float(block.get("gamma", 1.0))
            kwargs["delta"] = float(block.get("delta", 0.0))
            n_vals = sweep.get("N", block.get("N"))
            if n_vals is None:
                raise ConfigError("effective-level config needs N (in params or sweep)")
            if not isinstance(n_vals, (list, tuple)):
                n_vals = [n_vals]
            kwargs["n_values"] = [int(n) for n in n_vals]
            d_vals = sweep.get("Delta_over_gamma", block.get("Delta_over_gamma", [0.0]))
            if not isinstance(d_vals, (list, tuple)):
                d_vals = [d_vals]
            kwargs["delta_over_gamma_values"] = [float(d) for d in d_vals]
        else:
            try:
                kwargs["cavity"] = CavityParams(
                    g=_as_complex(block["g"], "g"),
                    kappa=float(block["kappa"]),
                    delta_c=float(block.get("delta_c", 0.0)),
                    Omega_L=_as_complex(block.get("Omega_L", 0.0), "Omega_L"),
                    N=int(block["N"]),
                    delta=float(block.get("delta", 0.0)),
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ConfigError(f"bad cavity parameter block: {exc}") from exc
            if "N" in sweep or "Delta_over_gamma" in sweep:
                raise ConfigError(
                    "cavity-level runs take N and Delta from the cavity block, "
                    "not from the sweep grid"
                )

        if "drive" in sweep:
            drive = sweep["drive"]
            if not isinstance(drive, dict) or "values" not in drive:
                raise ConfigError("sweep.drive needs a 'values' entry")
            kwargs["drive_values"] = _drive_list(drive["values"])
            units = drive.get("units", "critical")
            if units not in ("critical", "absolute"):
                raise ConfigError("drive units must be 'critical' or 'absolute'")
            kwargs["drive_absolute"] = units == "absolute"
            kwargs["drive_phase"] = float(drive.get("phase", 0.0))
        elif level == "cavity":
            kwargs["drive_values"] = [None]  # use Omega_L as given
        else:
            raise ConfigError("effective-level runs need a sweep.drive block")

        solver = raw.get("solver", {})
        if solver:
            if "tol" in solver:
                kwargs["solver_tol"] = float(solver["tol"])
            if solver.get("method") is not None:
                kwargs["solver_method"] = str(solver["method"])
            if "threads" in solver:
                kwargs["threads"] = int(solver["threads"])

        output = raw.get("output", {})
        if output:
            if "path" in output:
                kwargs["out_path"] = str(output["path"])
            kwargs["json_mirror"] = bool(output.get("json_mirror", False))
            kwargs["timestamp"] = bool(output.get("timestamp", True))

        spectrum = raw.get("spectrum", {})
        if spectrum:
            if "tau_max_gamma" in spectrum:
                kwargs["tau_max_gamma"] = float(spectrum["tau_max_gamma"])
            if "n_tau" in spectrum:
                kwargs["n_tau"] = int(spectrum["n_tau"])
            if "kappa_embed_over_gamma" in spectrum:
                kwargs["kappa_embed_over_gamma"] = float(spectrum["kappa_embed_over_gamma"])

        elim = raw.get("elimination", {})
        if elim:
            if "fock_cutoff" in elim:
                kwargs["fock_cutoff"] = int(elim["fock_cutoff"])
            if "min_adiabaticity" in elim:
                kwargs["min_adiabaticity"] = float(elim["min_adiabaticity"])

        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str, mode: str | None = None) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw, mode=mode)


@dataclass
class SweepResult:
    mode: str
    columns: list
    rows: list
    meta: dict
    n_failures: int = 0

    def write_csv(self, path: str, timestamp: bool = True):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if timestamp and "generated" in self.meta:
                fh.write(f"# generated {self.meta['generated']}\r\n")
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_format_cell(row.get(c)) for c in self.columns])

    def write_json(self, path: str, timestamp: bool = True):
        meta = dict(self.meta)
        if not timestamp:
            meta.pop("generated", None)
        payload = {
            "mode": self.mode,
            "meta": meta,
            "columns": self.columns,
            "rows": [
                {c: _json_cell(row.get(c)) for c in self.columns} for row in self.rows
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value) + 0.0)  # folds -0.0 into 0.0
    return str(value)


def _json_cell(value):
    if value is None:
        return None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) + 0.0
    return value


# --------------------------------------------------------------------------
# grid resolution
# --------------------------------------------------------------------------


def _solver_options(payload) -> SteadyStateOptions:
    return SteadyStateOptions(tol=payload.get("tol"), method=payload.get("method"))


def _grid_payloads(cfg: RunConfig) -> list:
    """Flatten the configured grids into per-point payload dicts."""
    payloads = []
    base = {
        "mode": cfg.mode,
        "tol": cfg.solver_tol,
        "method": cfg.solver_method,
        "timestamp": cfg.timestamp,
        "drive_absolute": cfg.drive_absolute,
        "tau_max_gamma": cfg.tau_max_gamma,
        "n_tau": cfg.n_tau,
        "kappa_embed_over_gamma": cfg.kappa_embed_over_gamma,
        "fock_cutoff": cfg.fock_cutoff,
        "min_adiabaticity": cfg.min_adiabaticity,
    }
    if cfg.level == "effective":
        for n in cfg.n_values:
            for d_over_g in cfg.delta_over_gamma_values:
                for drive in cfg.drive_values:
                    if drive is None:
                        raise ConfigError("effective-level runs need drive values")
                    payloads.append(
                        base
                        | {
                            "level": "effective",
                            "gamma": cfg.gamma,
                            "Delta": d_over_g * cfg.gamma,
                            "delta": cfg.delta,
                            "N": int(n),
                            "drive": float(drive),
                            "drive_phase": cfg.drive_phase,
                        }
                    )
    else:
        p = cfg.cavity
        for drive in cfg.drive_values:
            payloads.append(
                base
                | {
                    "level": "cavity",
                    "g": [p.g.real, p.g.imag],
                    "kappa": p.kappa,
                    "delta_c": p.delta_c,
                    "Omega_L": [p.Omega_L.real, p.Omega_L.imag],
                    "N": p.N,
                    "delta": p.delta,
                    "drive": drive,
                    "drive_phase": cfg.drive_phase,
                }
            )
    return payloads


def _payload_params(payload):
    """EffectiveParams (and CavityParams when available) for one payload."""
    if payload["level"] == "effective":
        e0 = EffectiveParams(
            gamma=payload["gamma"],
            Delta=payload["Delta"],
            Omega=0.0,
            N=payload["N"],
            delta=payload["delta"],
        )
        drive = payload["drive"]
        phase = payload.get("drive_phase", 0.0)
        if payload["drive_absolute"]:
            omega = drive * complex(math.cos(phase), math.sin(phase))
            e = EffectiveParams(e0.gamma, e0.Delta, omega, e0.N, e0.delta)
        else:
            e = e0.with_drive_ratio(drive, phase)
        return e, None
    p = CavityParams(
        g=complex(*payload["g"]),
        kappa=payload["kappa"],
        delta_c=payload["delta_c"],
        Omega_L=complex(*payload["Omega_L"]),
        N=payload["N"],
        delta=payload["delta"],
    )
    e = map_cavity_to_effective(p)
    drive = payload.get("drive")
    if drive is not None:
        oc = critical_drive(e)
        target = drive * oc if not payload["drive_absolute"] else drive
        scaled = cavity_params_for_effective(
            EffectiveParams(e.gamma, e.Delta, target, e.N, e.delta), p.kappa
        )
        p = scaled
        e = map_cavity_to_effective(p)
    return e, p


def _coordinate_cells(e: EffectiveParams, payload) -> dict:
    oc = critical_drive(e)
    cells = {
        "N": e.N,
        "Delta_over_gamma": e.Delta / e.gamma,
    }
    if payload["drive_absolute"]:
        cells["Omega_abs"] = abs(e.Omega)
    else:
        cells["Omega_over_Omega_c"] = abs(e.Omega) / oc
    return cells


def _drive_column(payload) -> str:
    return "Omega_abs" if payload["drive_absolute"] else "Omega_over_Omega_c"


# --------------------------------------------------------------------------
# per-mode row computation (run in worker processes)
# --------------------------------------------------------------------------


def _numeric_state(e: EffectiveParams, payload):
    model = build_dicke_model(e)
    rho, report = steady_state(model.liouvillian, _solver_options(payload))
    return model, rho, report


def _analytic_or_none(e, func):
    """The closed form, or None where it does not apply: above threshold,
    or off resonance (delta != 0)."""
    if e.delta != 0.0:
        return None
    try:
        return func(e)
    except AboveThresholdError:
        return None


def compute_point(payload: dict) -> list:
    """Rows for one grid point. Solver failures become a row with the
    failure marker column set instead of killing the whole sweep."""
    t0 = time.perf_counter()
    e, p = _payload_params(payload)
    mode = payload["mode"]
    coords = _coordinate_cells(e, payload)
    try:
        if mode == "sweep-jz":
            rows = [_row_sweep_jz(e, payload)]
        elif mode == "sweep-squeezing":
            rows = [_row_sweep_squeezing(e, payload)]
        elif mode == "mean-field":
            rows = [_row_mean_field(e)]
        elif mode == "moments":
            rows = [_row_moments(e, payload)]
        elif mode == "g2":
            rows = [_row_g2(e, payload)]
        elif mode == "spectrum":
            rows = _rows_spectrum(e, p, payload)
        elif mode == "validate-elimination":
            rows = _rows_elimination(p, payload)
        else:  # pragma: no cover - guarded by RunConfig
            raise ConfigError(f"unhandled mode {mode}")
        error = None
    except AboveThresholdError:
        # analytic-dependent modes cannot degrade gracefully; let the
        # caller map this onto its own exit code
        raise
    except (SolverError, DickeLabError, ValueError) as exc:
        rows = [{}]
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    out = []
    for row in rows:
        merged = dict(coords)
        merged.update(row)
        merged["error"] = error
        merged["wall_time_s"] = wall / len(rows) if payload["timestamp"] else None
        out.append(merged)
    return out


def _row_sweep_jz(e, payload):
    model, rho, report = _numeric_state(e, payload)
    half_n = e.N / 2
    jz = expect(rho, model.ops["J_z"]).real / half_n
    analytic = _analytic_or_none(e, lambda q: mean_field_steady_state(q)[0] / half_n)
    return {
        "jz_over_halfN_numeric": jz,
        "jz_over_halfN_analytic": analytic,
        "jz_over_halfN_residual": None if analytic is None else jz - analytic,
        "solver_residual": report.residual,
        "solver_method": report.method,
    }


def _row_sweep_squeezing(e, payload):
    model, rho, report = _numeric_state(e, payload)
    xi2 = spin_squeezing_numeric(rho, model.rep, model.ops)
    analytic = _analytic_or_none(e, lambda q: bloch_angles(q).cos_theta)
    return {
        "xi2_numeric": xi2,
        "xi2_analytic": analytic,
        "xi2_residual": None if analytic is None else xi2 - analytic,
        "solver_residual": report.residual,
        "solver_method": report.method,
    }


def _row_mean_field(e):
    half_n = e.N / 2
    try:
        jz, jm = mean_field_steady_state(e)
        angles = bloch_angles(e)
    except AboveThresholdError:
        return {}
    return {
        "jz_over_halfN_analytic": jz / half_n,
        "jminus_re": jm.real,
        "jminus_im": jm.imag,
        "theta": angles.theta,
        "phi": angles.phi,
    }


def _row_moments(e, payload):
    model, rho, report = _numeric_state(e, payload)
    mom = dipole_fluctuation_moments(rho, model.rep, model.ops)
    row = {
        "jminus_re": mom.jminus_mean.real,
        "jminus_im": mom.jminus_mean.imag,
        "jpjm": mom.jpjm,
        "var_jm": mom.var_jm,
        "anom_jm_re": mom.anom_jm.real,
        "anom_jm_im": mom.anom_jm.imag,
        "coherence_ratio": mom.coherence_ratio,
        "solver_residual": report.residual,
        "solver_method": report.method,
    }
    try:
        occ_num, anom_num = hp_moments_numeric(rho, model.rep, model.ops)
        row["hp_occupation_numeric"] = occ_num
        row["hp_anomalous_numeric"] = anom_num
    except ValueError:
        row["hp_occupation_numeric"] = None
        row["hp_anomalous_numeric"] = None
    sol = _analytic_or_none(e, lambda q: hp_moments(bloch_angles(q), q))
    row["hp_occupation_analytic"] = None if sol is None else sol.occupation
    row["hp_anomalous_analytic"] = None if sol is None else sol.anomalous_magnitude
    return row


def _row_g2(e, payload):
    model, rho, report = _numeric_state(e, payload)
    return {
        "g2_numeric": g2_zero(rho, model.rep, model.ops),
        "solver_residual": report.residual,
        "solver_method": report.method,
    }


def _rows_spectrum(e, p, payload):
    angles = bloch_angles(e)  # raises above threshold -> exit 4 at CLI level
    if p is None:
        p = cavity_params_for_effective(e, payload["kappa_embed_over_gamma"] * e.gamma)
    model, rho, report = _numeric_state(e, payload)
    jm = expect(rho, model.ops["J_minus"])
    fc = field_composition(p, jm, angles)
    tau_max = payload["tau_max_gamma"]
    if tau_max is not None:
        tau_max = tau_max / e.gamma
    spec = output_spectrum(
        model, fc, tau_max=tau_max, n_tau=payload["n_tau"], rho_ss=rho
    )
    rows = []
    for w, s in zip(spec.omega, spec.incoherent_spectrum):
        rows.append(
            {
                "omega_over_gamma": w / e.gamma,
                "incoherent_spectrum": s,
                "coherent_weight": spec.coherent_weight,
                "incoherent_weight": spec.incoherent_weight,
                "coherence_ratio": spec.coherence_ratio,
                "correlator_decayed": spec.correlator_decayed,
                "solver_residual": report.residual,
                "solver_method": report.method,
            }
        )
    return rows


def _rows_elimination(p, payload):
    report = validate_elimination(
        p,
        payload["fock_cutoff"],
        min_adiabaticity=payload["min_adiabaticity"],
        solve_opts=_solver_options(payload),
    )
    rows = []
    for name in ("Jz", "Jminus", "JpJm"):
        full = report.full[name]
        eff = report.effective[name]
        rows.append(
            {
                "observable": name,
                "full_re": complex(full).real,
                "full_im": complex(full).imag,
                "effective_re": complex(eff).real,
                "effective_im": complex(eff).imag,
                "deviation_abs": report.deviation_abs[name],
                "deviation_rel": report.deviation_rel[name],
                "fock_cutoff": report.fock_cutoff,
                "adiabaticity_ratio": report.adiabaticity_ratio,
                "cutoff_converged": report.cutoff_converged,
                "passed": report.passed,
            }
        )
    return rows


# --------------------------------------------------------------------------
# drivers
# --------------------------------------------------------------------------

_MODE_COLUMNS = {
    "sweep-jz": [
        "jz_over_halfN_numeric",
        "jz_over_halfN_analytic",
        "jz_over_halfN_residual",
        "solver_residual",
        "solver_method",
    ],
    "sweep-squeezing": [
        "xi2_numeric",
        "xi2_analytic",
        "xi2_residual",
        "solver_residual",
        "solver_method",
    ],
    "mean-field": [
        "jz_over_halfN_analytic",
        "jminus_re",
        "jminus_im",
        "theta",
        "phi",
    ],
    "moments": [
        "jminus_re",
        "jminus_im",
        "jpjm",
        "var_jm",
        "anom_jm_re",
        "anom_jm_im",
        "coherence_ratio",
        "hp_occupation_numeric",
        "hp_anomalous_numeric",
        "hp_occupation_analytic",
        "hp_anomalous_analytic",
        "solver_residual",
        "solver_method",
    ],
    "g2": ["g2_numeric", "solver_residual", "solver_method"],
    "spectrum": [
        "omega_over_gamma",
        "incoherent_spectrum",
        "coherent_weight",
        "incoherent_weight",
        "coherence_ratio",
        "correlator_decayed",
        "solver_residual",
        "solver_method",
    ],
    "validate-elimination": [
        "observable",
        "full_re",
        "full_im",
        "effective_re",
        "effective_im",
        "deviation_abs",
        "deviation_rel",
        "fock_cutoff",
        "adiabaticity_ratio",
        "cutoff_converged",
        "passed",
    ],
}


def run(cfg: RunConfig) -> SweepResult:
    """Execute the configured sweep and return the tabular result.

    Raises AboveThresholdError when an analytic-dependent mode cannot
    produce a single row; per-point solver failures are recorded in the
    failure marker column instead.
    """
    payloads = _grid_payloads(cfg)
    threads = cfg.threads if cfg.threads is not None else (os.cpu_count() or 1)

    if threads <= 1 or len(payloads) == 1:
        blocks = [compute_point(pl) for pl in payloads]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(compute_point, payloads))

    rows = [row for block in blocks for row in block]
    n_failures = sum(1 for row in rows if row.get("error"))

    drive_col = "Omega_abs" if cfg.drive_absolute else "Omega_over_Omega_c"
    columns = ["N", "Delta_over_gamma", drive_col]
    columns += _MODE_COLUMNS[cfg.mode]
    columns += ["wall_time_s", "error"]

    meta = {
        "mode": cfg.mode,
        "units": "rates in units of gamma; drive "
        + ("absolute" if cfg.drive_absolute else "in units of Omega_c"),
        "n_points": len(payloads),
    }
    if cfg.timestamp:
        meta["generated"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    if cfg.mode in ANALYTIC_ONLY_MODES:
        produced = sum(
            1
            for row in rows
            if any(row.get(c) is not None for c in _MODE_COLUMNS[cfg.mode])
        )
        if produced == 0:
            raise AboveThresholdError(
                float("nan"),
                "no grid point lies below the critical drive; nothing to report",
            )

    return SweepResult(
        mode=cfg.mode, columns=columns, rows=rows, meta=meta, n_failures=n_failures
    )


def run_and_write(cfg: RunConfig) -> SweepResult:
    result = run(cfg)
    if cfg.out_path:
        result.write_csv(cfg.out_path, timestamp=cfg.timestamp)
        if cfg.json_mirror:
            base, _ = os.path.splitext(cfg.out_path)
            result.write_json(base + ".json", timestamp=cfg.timestamp)
    return result


def reproduce_figures(outdir: str = ".", threads: int | None = None,
                      timestamp: bool = True) -> dict:
    """Emit fig2.csv (population inversion) and fig3.csv (spin squeezing):
    N = 50, dipole shifts 2 Delta/gamma in {0, 1, 2}, thirty drive points
    between 0.05 and 1.2 of the critical drive, numeric and analytic
    columns plus their residual."""
    os.makedirs(outdir, exist_ok=True)
    common = dict(
        level="effective",
        gamma=1.0,
        n_values=[50],
        delta_over_gamma_values=[0.0, 0.5, 1.0],
        drive_values=[float(x) for x in np.linspace(0.05, 1.2, 30)],
        threads=threads,
        timestamp=timestamp,
    )
    paths = {}
    for mode, fname in (("sweep-jz", "fig2.csv"), ("sweep-squeezing", "fig3.csv")):
        cfg = RunConfig(mode=mode, out_path=os.path.join(outdir, fname), **common)
        result = run_and_write(cfg)
        if result.n_failures:
            raise SolverError(f"{result.n_failures} grid points failed in {mode}")
        paths[mode] = cfg.out_path
    return paths
