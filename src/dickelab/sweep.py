"""Parameter sweeps, figure-data reproduction, and tabular output.

Every mode is one entry of the ``MODES`` registry: its result columns and
the function that computes the rows of one grid point. A run resolves its
configuration once, in the calling process, into frozen ``GridPoint``
records (run settings plus the effective and, where given, cavity
parameters of the point); bad parameter combinations are rejected there,
before any solve. Rows are computed independently, so grids parallelize
across worker processes; results are gathered in grid order, which makes
parallel and serial runs emit identical bytes. The dense kernels of
``lindblad`` each hold one BLAS thread while they run, in a worker as in a
serial run, so the workers do not oversubscribe the cores.

The numeric modes share one row path, ``_numeric``: it takes the steady
state of a point from ``models.dicke_steady_state``, the closed form (O(D),
no Liouvillian) when the drive is resonant (delta = 0) and the LU of the
Dicke model otherwise, and adds the solver columns to the cells each mode
computes from that state. The Dicke model, and with it scipy, is built
only where its Liouvillian is needed: for that LU and for a resolved
spectrum (``observables.output_spectrum``). Cavity models always use the
LU.

Column conventions: rates are reported in units of gamma, drives in units
of the critical drive unless the absolute-drive flag is set, and complex
quantities are split into _re/_im columns. Analytic cells above the
critical drive stay empty, and so do the spectrum and mean-field cells of
a point above it. The wall-time column and the timestamp header
line are suppressed together by the no-timestamp flag, since both break
byte-level reproducibility.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import time
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import AboveThresholdError, ConfigError, DickeLabError, SolverError
# not used here; the benchmark's tracer wraps both at these names
from .lindblad import steady_state  # noqa: F401
from .models import build_dicke_model  # noqa: F401
from .models import dicke_steady_state, validate_elimination
from .observables import (
    g2_zero,
    hp_moments,
    hp_moments_numeric,
    output_spectrum,
    spin_moments,
    spin_squeezing_analytic,
    spin_squeezing_numeric,
)
from .parameters import (
    CavityParams,
    EffectiveParams,
    bloch_angles,
    cavity_params_for_effective,
    map_cavity_to_effective,
    mean_field_steady_state,
)
from .operators import SpinRep


# the default of a config key that must be given
_REQUIRED = object()


def _block(value, where: str, keys) -> dict:
    """A config block: an object whose keys all lie in ``keys``. An absent
    (None) block is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}; expected one of {tuple(keys)}")
    return value


def _read(block: dict, key: str, convert, where: str, default=None):
    """``convert(block[key])``, or ``default`` when the key is absent or
    null (``_REQUIRED`` makes that an error). A value that does not convert
    is a ConfigError naming the key."""
    value = block.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where} needs {key}")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.{key}: bad value {value!r} ({exc})") from exc


def _given(block: dict, where: str, fields) -> dict:
    """The keys of ``block`` that are given (present and not null), each
    converted and under its field name; ``fields`` holds (key, field,
    conversion). An absent key leaves its field at its default."""
    return {attr: value for key, attr, convert in fields
            if (value := _read(block, key, convert, where)) is not None}


def _list_of(convert):
    """Converter of one value or a list of values to a list."""
    def to_list(value):
        return [convert(x) for x in (value if isinstance(value, (list, tuple)) else [value])]
    return to_list


def _as_real(value) -> float:
    """A finite JSON number; ``float()`` would take "nan", NaN, Infinity
    and true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("expected a number")
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return float(value)


def _as_int(value) -> int:
    """A JSON number with an integral value; ``int()`` would truncate 2.7."""
    if not _as_real(value).is_integer():
        raise ValueError("expected an integer, not a fraction")
    return int(value)


def _as_flag(value) -> bool:
    """A JSON boolean; ``bool()`` would turn the string "false" on."""
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


def _as_units(value) -> bool:
    """Drive units as ``drive_absolute``: "absolute" or "critical"."""
    if value not in ("critical", "absolute"):
        raise ValueError("drive units must be 'critical' or 'absolute'")
    return value == "absolute"


def _as_complex(value) -> complex:
    """A real number or an [re, im] pair of them."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_real(value[0]), _as_real(value[1]))
    return complex(_as_real(value))


def _drive_list(spec) -> list[float]:
    if isinstance(spec, dict):
        where = "sweep.drive.values"
        grid = _block(spec, where, ("start", "stop", "num"))
        start = _read(grid, "start", _as_real, where, _REQUIRED)
        stop = _read(grid, "stop", _as_real, where, _REQUIRED)
        num = _read(grid, "num", _as_int, where, _REQUIRED)
        if num < 1:
            raise ConfigError("drive grid needs num >= 1")
        return [float(x) for x in np.linspace(start, stop, num)]
    if isinstance(spec, (list, tuple)) and spec:
        return [_as_real(x) for x in spec]
    raise ConfigError("drive values must be a non-empty list or {start, stop, num}")


# the scalar options of each run-knob block: (key, RunConfig field, conversion)
_OPTIONS = {
    "solver": (("threads", "threads", _as_int),),
    "output": (("path", "out_path", str), ("json_mirror", "json_mirror", _as_flag),
               ("timestamp", "timestamp", _as_flag)),
    "spectrum": (("tau_max_gamma", "tau_max_gamma", _as_real), ("n_tau", "n_tau", _as_int),
                 ("kappa_embed_over_gamma", "kappa_embed_over_gamma", _as_real)),
    "elimination": (("fock_cutoff", "fock_cutoff", _as_int),
                    ("min_adiabaticity", "min_adiabaticity", _as_real)),
}


class RunConfig:
    """Resolved run request: mode, parameter level, grids, solver and
    output options. ``drive_values`` are ratios to the critical drive
    unless ``drive_absolute`` is set; the three grids are sequences.

    The constructor checks the fields, and so does :meth:`replace`, which
    gives a copy with some of them changed. A field may also be assigned,
    unchecked (the benchmark's traced replay sets ``threads`` and
    ``out_path`` that way)."""

    def __init__(self, mode: str, level: str, gamma: float = 1.0, delta: float = 0.0,
                 cavity: CavityParams | None = None, drive_values=(None,),
                 drive_absolute: bool = False, drive_phase: float = 0.0, n_values=(),
                 delta_over_gamma_values=(0.0,), threads: int | None = None,
                 out_path: str | None = None, json_mirror: bool = False,
                 timestamp: bool = True,
                 # spectrum knobs
                 tau_max_gamma: float | None = None, n_tau: int = 512,
                 kappa_embed_over_gamma: float = 1000.0,
                 # elimination knobs
                 fock_cutoff: int | None = None, min_adiabaticity: float = 5.0):
        self.mode = mode
        self.level = level
        self.gamma = gamma
        self.delta = delta
        self.cavity = cavity
        self.drive_values = drive_values
        self.drive_absolute = drive_absolute
        self.drive_phase = drive_phase
        self.n_values = n_values
        self.delta_over_gamma_values = delta_over_gamma_values
        self.threads = threads
        self.out_path = out_path
        self.json_mirror = json_mirror
        self.timestamp = timestamp
        self.tau_max_gamma = tau_max_gamma
        self.n_tau = n_tau
        self.kappa_embed_over_gamma = kappa_embed_over_gamma
        self.fock_cutoff = fock_cutoff
        self.min_adiabaticity = min_adiabaticity

        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {tuple(MODES)}")
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
        delta = self.delta if self.level == "effective" else self.cavity.delta
        if MODES[self.mode].resonant and delta != 0.0:
            raise ConfigError(
                f"{self.mode} rows use the resonant closed forms; they need "
                f"delta = 0, got delta = {delta}"
            )
        if any(d is not None and d < 0 for d in self.drive_values):
            raise ConfigError("drive values must be non-negative; set the drive phase instead")
        # each run knob must exceed its bound; None means its default
        for name, bound in (("threads", 0), ("n_tau", 15),
                            ("tau_max_gamma", 0), ("kappa_embed_over_gamma", 0),
                            ("fock_cutoff", 0)):
            value = getattr(self, name)
            if value is not None and value <= bound:
                raise ConfigError(f"{name} must exceed {bound}, got {value}")
        if self.out_path and self.json_mirror and self.written_paths[1] == self.out_path:
            raise ConfigError(f"the JSON mirror of output path {self.out_path} is the "
                              "output path itself; give the CSV another extension")

    def replace(self, **changes) -> "RunConfig":
        """A copy with the fields ``changes`` names set, checked again."""
        return RunConfig(**{**vars(self), **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"RunConfig({fields})"

    @classmethod
    def from_dict(cls, raw: dict, mode: str | None = None) -> "RunConfig":
        """Parse a config object. Every block must be an object holding only
        the keys read here; an unknown key or a value that does not convert
        is a ConfigError, and null means the default."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _block(raw, "config", ("mode", "params", "sweep", *_OPTIONS))
        cfg_mode = _read(raw, "mode", str, "config", mode)
        if cfg_mode is None:
            raise ConfigError("mode missing from config and command line")
        if mode is not None and cfg_mode != mode:
            raise ConfigError(
                f"config mode {cfg_mode!r} conflicts with requested mode {mode!r}"
            )

        params = _block(raw.get("params"), "params", ("effective", "cavity"))
        if len(params) != 1:
            raise ConfigError(
                "supply exactly one parameter level: params.effective or params.cavity"
            )
        [(level, block)] = params.items()
        where = f"params.{level}"

        kwargs: dict = {"mode": cfg_mode, "level": level}
        sweep = _block(raw.get("sweep"), "sweep", ("N", "Delta_over_gamma", "drive"))

        if level == "effective":
            block = _block(block, where, ("gamma", "delta", "N", "Delta_over_gamma"))
            kwargs.update(_given(block, where, (("gamma", "gamma", _as_real),
                                                ("delta", "delta", _as_real))))
            n_vals = _read(sweep, "N", _list_of(_as_int), "sweep")
            if n_vals is None:
                n_vals = _read(block, "N", _list_of(_as_int), where)
            if n_vals is None:
                raise ConfigError("effective-level config needs N (in params or sweep)")
            kwargs["n_values"] = n_vals
            d_vals = _read(sweep, "Delta_over_gamma", _list_of(_as_real), "sweep")
            if d_vals is None:
                d_vals = _read(block, "Delta_over_gamma", _list_of(_as_real), where)
            if d_vals is not None:
                kwargs["delta_over_gamma_values"] = d_vals
        else:
            block = _block(block, where, ("g", "kappa", "delta_c", "Omega_L", "N", "delta"))
            try:
                kwargs["cavity"] = CavityParams(
                    g=_read(block, "g", _as_complex, where, _REQUIRED),
                    kappa=_read(block, "kappa", _as_real, where, _REQUIRED),
                    delta_c=_read(block, "delta_c", _as_real, where, 0.0),
                    Omega_L=_read(block, "Omega_L", _as_complex, where, 0.0),
                    N=_read(block, "N", _as_int, where, _REQUIRED),
                    **_given(block, where, (("delta", "delta", _as_real),)),
                )
            except ValueError as exc:
                raise ConfigError(f"bad cavity parameter block: {exc}") from exc
            if "N" in sweep or "Delta_over_gamma" in sweep:
                raise ConfigError(
                    "cavity-level runs take N and Delta from the cavity block, "
                    "not from the sweep grid"
                )

        if "drive" in sweep:
            drive = _block(sweep["drive"], "sweep.drive", ("values", "units", "phase"))
            kwargs["drive_values"] = _read(drive, "values", _drive_list, "sweep.drive",
                                           _REQUIRED)
            kwargs.update(_given(drive, "sweep.drive", (("units", "drive_absolute", _as_units),
                                                        ("phase", "drive_phase", _as_real))))
        elif level == "cavity":
            kwargs["drive_values"] = [None]  # use Omega_L as given
        else:
            raise ConfigError("effective-level runs need a sweep.drive block")

        for name, options in _OPTIONS.items():
            knobs = _block(raw.get(name), name, [key for key, _, _ in options])
            kwargs.update(_given(knobs, name, options))

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

    @property
    def written_paths(self) -> list:
        """The files a run with an output path writes: the CSV, then its JSON
        mirror (the CSV path with the extension .json) if ``json_mirror``."""
        mirror = [os.path.splitext(self.out_path)[0] + ".json"] if self.json_mirror else []
        return [self.out_path, *mirror]


class SweepResult(NamedTuple):
    mode: str
    columns: list
    rows: list
    meta: dict
    n_failures: int

    def write_csv(self, path: str):
        """The rows as CSV. Each distinct cell, by type and value, is
        formatted once: most columns hold one value per grid point."""
        texts = {}
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if "generated" in self.meta:
                fh.write(f"# generated {self.meta['generated']}\r\n")
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(self.columns)
            for row in self.rows:
                cells = []
                for column in self.columns:
                    value = row.get(column)
                    key = (type(value), value)
                    text = texts.get(key)
                    if text is None:
                        text = texts[key] = _format_cell(value)
                    cells.append(text)
                writer.writerow(cells)

    def write_json(self, path: str):
        payload = {
            "mode": self.mode,
            "meta": self.meta,
            "columns": self.columns,
            "rows": [{c: _json_cell(row.get(c)) for c in self.columns} for row in self.rows],
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


class GridPoint(NamedTuple):
    """One grid point: the run settings and the resolved parameters.
    ``cavity`` is set for cavity-level runs only."""

    config: RunConfig
    effective: EffectiveParams
    cavity: CavityParams | None = None


def _driven(cfg: RunConfig, drive: float, e: EffectiveParams) -> EffectiveParams:
    """Parameters ``e`` at the configured drive value: an absolute rate or a
    ratio to the critical drive, at the drive phase."""
    if cfg.drive_absolute:
        return EffectiveParams(e.gamma, e.Delta, drive * cmath.exp(1j * cfg.drive_phase), e.N,
                               e.delta)
    return e.with_drive_ratio(drive, cfg.drive_phase)


def _grid_points(cfg: RunConfig) -> list:
    """The configured grids as GridPoints, in output order. A parameter
    combination the models reject is a ConfigError, raised before any
    solve."""
    points = []
    try:
        if cfg.level == "effective":
            for n in cfg.n_values:
                for d_over_g in cfg.delta_over_gamma_values:
                    e0 = EffectiveParams(cfg.gamma, d_over_g * cfg.gamma, 0.0, int(n), cfg.delta)
                    for drive in cfg.drive_values:
                        if drive is None:
                            raise ConfigError("effective-level runs need drive values")
                        points.append(GridPoint(cfg, _driven(cfg, drive, e0)))
        else:
            for drive in cfg.drive_values:
                p = cfg.cavity
                e = map_cavity_to_effective(p)
                if drive is not None:  # rescale Omega_L to hit the requested drive
                    p = cavity_params_for_effective(_driven(cfg, drive, e),
                                                    p.kappa, g_phase=cmath.phase(p.g))
                    e = map_cavity_to_effective(p)
                points.append(GridPoint(cfg, e, p))
    except ValueError as exc:
        raise ConfigError(f"bad parameters: {exc}") from exc
    return points


def _coordinate_cells(point: GridPoint) -> dict:
    e = point.effective
    cells = {"N": e.N, "Delta_over_gamma": e.Delta / e.gamma}
    if point.config.drive_absolute:
        cells["Omega_abs"] = abs(e.Omega)
    else:
        cells["Omega_over_Omega_c"] = e.drive_ratio
    return cells


# --------------------------------------------------------------------------
# per-mode rows (run in worker processes)
# --------------------------------------------------------------------------

_SOLVER_COLUMNS = ("solver_residual", "solver_method")


def _numeric(cells: Callable) -> Callable[[GridPoint], list]:
    """The row function of a numeric mode. It takes the steady state of a
    point from ``models.dicke_steady_state`` (no Dicke model is built at
    delta = 0), calls ``cells(point, rep, rho)`` for the mode's rows and
    adds the solver columns to each."""
    def rows(point: GridPoint) -> list:
        e = point.effective
        rho, report = dicke_steady_state(e)
        solver = dict(zip(_SOLVER_COLUMNS, (report.residual, report.method)))
        return [{**row, **solver} for row in cells(point, SpinRep.for_atoms(e.N), rho)]
    return rows


def _analytic_or_none(e, func):
    """The closed form, or None where it does not apply: above threshold,
    or off resonance (delta != 0)."""
    if e.delta != 0.0:
        return None
    try:
        return func(e)
    except AboveThresholdError:
        return None


def _compared(name: str, numeric, analytic) -> dict:
    """The numeric, analytic and residual cells of one quantity; the last
    two stay empty where the closed form does not apply."""
    return {
        f"{name}_numeric": numeric,
        f"{name}_analytic": analytic,
        f"{name}_residual": None if analytic is None else numeric - analytic,
    }


def _jz_cells(point: GridPoint, rep, rho) -> list:
    half_n = point.effective.N / 2
    jz = spin_moments(rho, rep).jz / half_n
    analytic = _analytic_or_none(point.effective,
                                 lambda q: mean_field_steady_state(q)[0] / half_n)
    return [_compared("jz_over_halfN", jz, analytic)]


def _squeezing_cells(point: GridPoint, rep, rho) -> list:
    analytic = _analytic_or_none(point.effective, spin_squeezing_analytic)
    return [_compared("xi2", spin_squeezing_numeric(rho, rep), analytic)]


def _rows_mean_field(point: GridPoint) -> list:
    e = point.effective
    angles = _analytic_or_none(e, bloch_angles)
    if angles is None:
        return [{}]
    jz, jm = mean_field_steady_state(e)
    return [{
        "jz_over_halfN_analytic": jz / (e.N / 2),
        "jminus_re": jm.real,
        "jminus_im": jm.imag,
        "theta": angles.theta,
        "phi": angles.phi,
    }]


def _moments_cells(point: GridPoint, rep, rho) -> list:
    mom = spin_moments(rho, rep)
    row = {
        "jminus_re": mom.jm.real,
        "jminus_im": mom.jm.imag,
        "jpjm": mom.jp_jm,
        "var_jm": mom.var_jm,
        "anom_jm_re": mom.anom_jm.real,
        "anom_jm_im": mom.anom_jm.imag,
        "coherence_ratio": mom.coherence_ratio,
    }
    try:
        hp = hp_moments_numeric(rho, rep)
    except ValueError:
        hp = (None, None)
    row["hp_occupation_numeric"], row["hp_anomalous_numeric"] = hp
    sol = _analytic_or_none(point.effective, lambda q: hp_moments(bloch_angles(q)))
    row["hp_occupation_analytic"] = None if sol is None else sol.occupation
    row["hp_anomalous_analytic"] = None if sol is None else sol.anomalous_magnitude
    return [row]


def _g2_cells(point: GridPoint, rep, rho) -> list:
    return [{"g2_numeric": g2_zero(rho, rep)}]


def _spectrum_cells(point: GridPoint, rep, rho) -> list:
    e, p, cfg = point.effective, point.cavity, point.config
    if _analytic_or_none(e, bloch_angles) is None:  # above threshold: no spectrum
        return [{}]
    if p is None:
        p = cavity_params_for_effective(e, cfg.kappa_embed_over_gamma * e.gamma)
    tau_max = None if cfg.tau_max_gamma is None else cfg.tau_max_gamma / e.gamma
    spec = output_spectrum(e, p, tau_max, cfg.n_tau, rho_ss=rho)
    shared = {
        "coherent_weight": spec.coherent_weight,
        "incoherent_weight": spec.incoherent_weight,
        "coherence_ratio": spec.coherence_ratio,
        "verdict": spec.verdict,
    }
    # a coherent point leaves the broadband cells empty
    values = spec.incoherent_spectrum if spec.verdict == "resolved" else [None] * len(spec.omega)
    return [
        {"omega_over_gamma": w / e.gamma, "incoherent_spectrum": s, **shared}
        for w, s in zip(spec.omega, values)
    ]


def _rows_elimination(point: GridPoint) -> list:
    cfg = point.config
    report = validate_elimination(
        point.cavity,
        cfg.fock_cutoff,
        min_adiabaticity=cfg.min_adiabaticity,
    )
    rows = []
    for name in ("Jz", "Jminus", "JpJm"):
        full = complex(report.full[name])
        eff = complex(report.effective[name])
        rows.append(
            {
                "observable": name,
                "full_re": full.real,
                "full_im": full.imag,
                "effective_re": eff.real,
                "effective_im": eff.imag,
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
# mode registry and drivers
# --------------------------------------------------------------------------


class Mode(NamedTuple):
    """A sweep mode: the columns it writes between the grid coordinates and
    the wall-time/error pair, and the function giving the rows of one grid
    point. ``resonant`` marks modes whose every row needs the delta = 0
    closed forms."""

    columns: tuple
    rows: Callable[[GridPoint], list]
    resonant: bool = False


MODES = {
    "sweep-jz": Mode(
        ("jz_over_halfN_numeric", "jz_over_halfN_analytic", "jz_over_halfN_residual",
         *_SOLVER_COLUMNS),
        _numeric(_jz_cells),
    ),
    "sweep-squeezing": Mode(
        ("xi2_numeric", "xi2_analytic", "xi2_residual", *_SOLVER_COLUMNS),
        _numeric(_squeezing_cells),
    ),
    "spectrum": Mode(
        ("omega_over_gamma", "incoherent_spectrum", "coherent_weight", "incoherent_weight",
         "coherence_ratio", "verdict", *_SOLVER_COLUMNS),
        _numeric(_spectrum_cells),
        resonant=True,
    ),
    "validate-elimination": Mode(
        ("observable", "full_re", "full_im", "effective_re", "effective_im",
         "deviation_abs", "deviation_rel", "fock_cutoff", "adiabaticity_ratio",
         "cutoff_converged", "passed"),
        _rows_elimination,
    ),
    "mean-field": Mode(
        ("jz_over_halfN_analytic", "jminus_re", "jminus_im", "theta", "phi"),
        _rows_mean_field,
        resonant=True,
    ),
    "moments": Mode(
        ("jminus_re", "jminus_im", "jpjm", "var_jm", "anom_jm_re", "anom_jm_im",
         "coherence_ratio", "hp_occupation_numeric", "hp_anomalous_numeric",
         "hp_occupation_analytic", "hp_anomalous_analytic", *_SOLVER_COLUMNS),
        _numeric(_moments_cells),
    ),
    "g2": Mode(("g2_numeric", *_SOLVER_COLUMNS), _numeric(_g2_cells)),
}


def compute_point(point: GridPoint) -> list:
    """Rows for one grid point. Solver failures become a row with the
    failure marker column set instead of killing the whole sweep."""
    t0 = time.perf_counter()
    coords = _coordinate_cells(point)
    try:
        rows = MODES[point.config.mode].rows(point)
        error = None
    except (DickeLabError, ValueError) as exc:
        rows = [{}]
        error = f"{type(exc).__name__}: {exc}"
    wall = (time.perf_counter() - t0) / len(rows) if point.config.timestamp else None
    return [{**coords, **row, "error": error, "wall_time_s": wall} for row in rows]


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The worker processes of a pooled run."""
    from concurrent.futures import ProcessPoolExecutor  # deferred: a serial run never needs it

    return ProcessPoolExecutor(max_workers=workers)


def run(cfg: RunConfig) -> SweepResult:
    """Execute the configured sweep and return the tabular result.

    Raises AboveThresholdError when no row has a value in any mode column
    other than the solver columns and none carries an error: every point
    lies above the critical drive, where the spectrum and mean-field rows
    are empty. Per-point solver failures are recorded in the failure
    marker column instead.
    """
    points = _grid_points(cfg)
    threads = cfg.threads if cfg.threads is not None else (os.cpu_count() or 1)
    # a fork pool starts all its workers at the first submit, so no more
    # than there are points
    workers = min(threads, len(points))

    if workers <= 1:
        blocks = [compute_point(pt) for pt in points]
    else:
        with _worker_pool(workers) as pool:
            blocks = list(pool.map(compute_point, points))

    rows = [row for block in blocks for row in block]
    n_failures = sum(1 for row in rows if row.get("error"))

    mode_columns = MODES[cfg.mode].columns
    drive_col = "Omega_abs" if cfg.drive_absolute else "Omega_over_Omega_c"
    columns = ["N", "Delta_over_gamma", drive_col, *mode_columns, "wall_time_s", "error"]

    meta = {
        "mode": cfg.mode,
        "units": "rates in units of gamma; drive "
        + ("absolute" if cfg.drive_absolute else "in units of Omega_c"),
        "n_points": len(points),
    }
    if cfg.timestamp:
        meta["generated"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    results = [c for c in mode_columns if c not in _SOLVER_COLUMNS]
    if n_failures == 0 and not any(row.get(c) is not None for row in rows for c in results):
        raise AboveThresholdError(
            float("nan"),
            "no grid point lies below the critical drive; nothing to report",
        )

    return SweepResult(
        mode=cfg.mode, columns=columns, rows=rows, meta=meta, n_failures=n_failures
    )


def run_and_write(cfg: RunConfig) -> SweepResult:
    """``run``, then the CSV (and its JSON mirror) at the output path. A
    missing output directory is a ConfigError before any solve; a write
    that fails after the run is one as well."""
    if cfg.out_path and not os.path.isdir(os.path.dirname(cfg.out_path) or "."):
        raise ConfigError(f"the directory of output path {cfg.out_path} does not exist")
    result = run(cfg)
    if cfg.out_path:
        try:
            result.write_csv(cfg.out_path)
            if cfg.json_mirror:
                result.write_json(cfg.written_paths[1])
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out_path}: {exc}") from exc
    return result


def reproduce_figures(outdir: str, threads: int | None, timestamp: bool) -> dict:
    """Emit fig2.csv (population inversion) and fig3.csv (spin squeezing):
    N = 50, dipole shifts 2 Delta/gamma in {0, 1, 2}, thirty drive points
    between 0.05 and 1.2 of the critical drive, numeric and analytic
    columns plus their residual. The arguments are checked before the
    directory is made; one that cannot be made is a ConfigError."""
    common = dict(
        level="effective",
        gamma=1.0,
        n_values=[50],
        delta_over_gamma_values=[0.0, 0.5, 1.0],
        drive_values=[float(x) for x in np.linspace(0.05, 1.2, 30)],
        threads=threads,
        timestamp=timestamp,
    )
    configs = [RunConfig(mode=mode, out_path=os.path.join(outdir, fname), **common)
               for mode, fname in (("sweep-jz", "fig2.csv"), ("sweep-squeezing", "fig3.csv"))]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {outdir}: {exc}") from exc
    for cfg in configs:
        result = run_and_write(cfg)
        if result.n_failures:
            raise SolverError(f"{result.n_failures} grid points failed in {cfg.mode}")
    return {cfg.mode: cfg.out_path for cfg in configs}
