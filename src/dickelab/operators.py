"""Collective-spin and bosonic operators in explicit matrix form.

Conventions used throughout the package:

* Dicke basis |j, m> with m = -j ... +j ascending, so index 0 is the
  ground state |j, -j>.
* Fock basis |n> with n = 0 ... n_max ascending.
* Product spaces order the spin index slow and the Fock index fast,
  i.e. ``tensor(A_spin, B_fock)`` is the Kronecker product kron(A, B).

Every operator is a complex ``scipy.sparse.csr_array``. J_+- and c, c^dag
have one off-diagonal, J_x and J_y two and J_z only the main one, so each
is built from its diagonals in O(D). ``scipy.sparse`` is imported inside
the functions that build them, so importing this module (and the
closed-form resonant path, which needs only the ladder amplitudes) loads
no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError

# Guard for runaway Kronecker products.
TENSOR_CAP = 20_000


@dataclass(frozen=True)
class SpinRep:
    """SU(2) representation of a collective spin j = N/2.

    ``m_values`` runs m = -j ... +j so that index 0 is the collective
    ground state.
    """

    j: float

    def __post_init__(self):
        two_j = 2 * self.j
        if two_j < 0 or abs(two_j - round(two_j)) > 1e-12:
            raise ValueError(f"j must be a non-negative half-integer, got {self.j}")

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1

    @property
    def n_atoms(self) -> int:
        return int(round(2 * self.j))

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim) - self.j

    @classmethod
    def for_atoms(cls, n: int) -> "SpinRep":
        if n < 1:
            raise ValueError("need at least one atom")
        return cls(j=n / 2)


@dataclass(frozen=True)
class FockRep:
    """Truncated bosonic mode with photon numbers 0 ... cutoff."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"Fock cutoff must be >= 1, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def _banded(dim: int, diagonals, offsets) -> sp.csr_array:
    """Complex CSR matrix from its full-length diagonals, built in O(dim):
    the entries, order and int32 indices of ``scipy.sparse.diags_array``
    in CSR, with no zero stored, but without its DIA constructor, which
    calls ``np.unique`` and so loads ``numpy.ma`` (see the ``cli`` module
    docstring)."""
    import scipy.sparse as sp  # deferred: a closed-form run never loads it

    rows = [np.arange(max(0, -k), min(dim, dim - k), dtype=np.int32) for k in offsets]
    cols = np.concatenate([r + k for r, k in zip(rows, offsets)])
    rows = np.concatenate(rows)
    vals = np.concatenate(diagonals).astype(np.complex128)
    keep = vals != 0
    return sp.coo_array((vals[keep], (rows[keep], cols[keep])), shape=(dim, dim)).tocsr()


def ladder_amplitudes(rep: SpinRep) -> np.ndarray:
    """a_i = <i| J_- |i+1> = sqrt(j(j+1) - m(m-1)), m = -j + i + 1."""
    m = rep.m_values[1:]
    return np.sqrt(rep.j * (rep.j + 1) - m * (m - 1))


def build_spin_operators(rep: SpinRep) -> dict[str, sp.csr_array]:
    """Collective-spin matrices J_-, J_+, J_x, J_y, J_z on the Dicke basis.

    Lowering matrix elements <j,m-1| J_- |j,m> = sqrt(j(j+1) - m(m-1))
    (:func:`ladder_amplitudes`), J_+ is the exact adjoint, J_z is diagonal
    with entries m.
    """
    dim = rep.dim
    m = rep.m_values
    amp = ladder_amplitudes(rep)
    return {
        "J_minus": _banded(dim, [amp], [1]),
        "J_plus": _banded(dim, [amp], [-1]),
        "J_x": _banded(dim, [0.5 * amp, 0.5 * amp], [1, -1]),
        "J_y": _banded(dim, [0.5j * amp, -0.5j * amp], [1, -1]),
        "J_z": _banded(dim, [m], [0]),
    }


def build_fock_operators(rep: FockRep) -> dict[str, sp.csr_array]:
    """Boson lowering/raising matrices with <n-1| c |n> = sqrt(n).

    The commutator [c, c^dag] equals the identity except the last
    diagonal entry, the usual truncation artifact.
    """
    amp = np.sqrt(np.arange(1, rep.dim))
    return {
        "c": _banded(rep.dim, [amp], [1]),
        "c_dagger": _banded(rep.dim, [amp], [-1]),
    }


def tensor(a, b) -> sp.csr_array:
    """Kronecker product with the first factor's index slow.

    Row/column index of the result is ``i_a * dim_b + i_b``, matching the
    spin-slow / Fock-fast ordering of the atom+cavity space.
    """
    import scipy.sparse as sp  # deferred: a closed-form run never loads it

    total = a.shape[0] * b.shape[0]
    if total > TENSOR_CAP:
        raise DimensionCapError(
            f"tensor product dimension {a.shape[0]}*{b.shape[0]} = {total} exceeds cap {TENSOR_CAP}"
        )
    return sp.kron(a, b, format="csr")
