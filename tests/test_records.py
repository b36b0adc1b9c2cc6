"""The package's records: the plain ones are ``typing.NamedTuple`` classes,
the ones that check their fields subclass ``records.Record``. Each keeps
its fields, defaults and construction, refuses attribute assignment and
survives the pickle that carries it to a pool worker. ``RunConfig`` is the
one mutable record."""

import importlib
import math
import pickle
import pkgutil

import pytest

import dickelab
from dickelab.errors import ConfigError
from dickelab.lindblad import (
    Liouvillian,
    PropagationReport,
    SteadyStateOptions,
    SteadyStateSolveReport,
)
from dickelab.models import CavityModel, DickeModel, EliminationReport
from dickelab.observables import (
    FieldComposition,
    HPFluctuationSolution,
    SpectrumResult,
    SpinMoments,
)
from dickelab.operators import FockRep, SpinRep
from dickelab.parameters import BlochAngles, CavityParams, EffectiveParams
from dickelab.records import Record
from dickelab.sweep import GridPoint, Mode, RunConfig, SweepResult

CONFIG = RunConfig(mode="sweep-jz", level="effective", n_values=[4], drive_values=[0.5])
EFFECTIVE = EffectiveParams(1.0, 0.5, 0.3 + 0.1j, 10, 0.2)
CAVITY = CavityParams(0.05, 1.0, 0.0, 0.1j, 4)

# one record of each type; fields that hold matrices or arrays hold
# stand-ins, which a record does not check
RECORDS = [
    SpinRep(2.5),
    FockRep(3),
    CAVITY,
    EFFECTIVE,
    BlochAngles(0.3, -0.2),
    Liouvillian(4, "superoperator"),
    SteadyStateOptions(False),
    SteadyStateSolveReport("sparse-direct", 1e-14, 0.5),
    PropagationReport(12, 345),
    DickeModel(EFFECTIVE, SpinRep(5.0), {"J_z": "J_z"}, "liouvillian"),
    CavityModel(CAVITY, SpinRep(2.0), FockRep(3), {"c": "c"}, "liouvillian"),
    EliminationReport({"Jz": -1.0}, {"Jz": -1.0}, {"Jz": 0.0}, {"Jz": 0.0}, 3, 20.0, True, True),
    SpinMoments(-1.0, 1.0, 0.5j, 0.1, 2.0, 0.2j, 3.0, 0.1, 0.0j),
    HPFluctuationSolution(0.1, 0.2),
    FieldComposition(1j, 2.0),
    SpectrumResult("omega", None, 1.0, 0.5, 0.9, "coherent"),
    SweepResult("sweep-jz", ["N"], [{"N": 4}], {"mode": "sweep-jz"}, 0),
    GridPoint(CONFIG, EFFECTIVE),
    Mode(("x",), math.sqrt, True),
]


def _record_types() -> set:
    types = set()
    for info in pkgutil.iter_modules(dickelab.__path__):
        module = importlib.import_module(f"dickelab.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and obj is not Record and (issubclass(obj, Record) or hasattr(obj, "_fields"))):
                types.add(obj)
    return types


def _fields(record) -> tuple:
    return getattr(record, "_fields", None) or type(record).__slots__


def test_every_record_type_is_covered():
    assert {type(record) for record in RECORDS} == _record_types()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_survives_a_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record
    assert repr(copy) == repr(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_refuses_attribute_assignment(record):
    name = _fields(record)[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert getattr(record, name) is value


def test_checked_records_keep_defaults_keywords_and_messages():
    assert EffectiveParams(1.0, 0.0, 0.0, 4) == EffectiveParams(
        gamma=1.0, Delta=0.0, Omega=0.0, N=4, delta=0.0)
    assert CavityParams(g=0.05, kappa=1.0, delta_c=0.0, Omega_L=0.0, N=4).delta == 0.0
    assert repr(SpinRep(1.5)) == "SpinRep(j=1.5)"
    assert hash(BlochAngles(0.3, 0.2)) == hash(BlochAngles(theta=0.3, phi=0.2))
    assert EffectiveParams(1.0, 0.0, 0.0, 4) != (1.0, 0.0, 0.0, 4, 0.0)
    for make, message in ((lambda: SpinRep(0.3), "non-negative half-integer"),
                          (lambda: FockRep(0), "Fock cutoff must be >= 1"),
                          (lambda: CavityParams(0.1, 0.0, 0.0, 0.0, 4), "kappa must be positive"),
                          (lambda: EffectiveParams(1.0, 0.0, 0.0, 0), "at least one atom"),
                          (lambda: BlochAngles(math.pi / 2, 0.0), r"theta must lie in")):
        with pytest.raises(ValueError, match=message):
            make()
    with pytest.raises(TypeError):
        SpinRep()


def test_run_config_replace_checks_again_and_pickles():
    changed = CONFIG.replace(threads=2, out_path="x.csv")
    assert (changed.threads, changed.out_path) == (2, "x.csv")
    assert changed.replace(threads=None, out_path=None) == CONFIG
    assert CONFIG.threads is None  # replace makes a copy
    with pytest.raises(ConfigError, match="threads must exceed 0"):
        CONFIG.replace(threads=0)
    # defaults of the grids, and a copy that crosses a pickle
    cavity = RunConfig(mode="validate-elimination", level="cavity", cavity=CAVITY)
    assert list(cavity.drive_values) == [None]
    assert list(cavity.delta_over_gamma_values) == [0.0]
    assert pickle.loads(pickle.dumps(changed)) == changed
    assert repr(CONFIG).startswith("RunConfig(mode='sweep-jz', level='effective', gamma=1.0")
    # the one mutable record: the benchmark's replay assigns its fields
    changed.threads = 1
    assert changed.threads == 1
