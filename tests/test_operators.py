import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import norm

from oracles import spin_xy

from dickelab.errors import DimensionCapError
from dickelab.operators import (
    FockRep,
    SpinRep,
    build_fock_operators,
    build_spin_operators,
    tensor,
)


def test_spin_rep_basics():
    rep = SpinRep.for_atoms(50)
    assert rep.j == 25
    assert rep.dim == 51
    assert rep.m_values[0] == -25
    assert rep.m_values[-1] == 25
    with pytest.raises(ValueError):
        SpinRep(j=0.3)
    with pytest.raises(ValueError):
        SpinRep(j=-1)


def test_pauli_case():
    ops = build_spin_operators(SpinRep(j=0.5))
    np.testing.assert_allclose(ops["J_z"].toarray(), np.diag([-0.5, 0.5]))
    # lowering has a single unit entry, excited -> ground
    jm = ops["J_minus"].toarray()
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    np.testing.assert_allclose(jm, expected)


def test_casimir_n50():
    ops = build_spin_operators(SpinRep(j=25))
    jx, jy = spin_xy(ops)
    j2 = jx @ jx + jy @ jy + ops["J_z"] @ ops["J_z"]
    target = 25 * 26 * np.eye(51)
    np.testing.assert_allclose(j2.toarray(), target, atol=1e-11)


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 7.5, 25, 100, 250])
def test_commutator_identities(j):
    ops = build_spin_operators(SpinRep(j=j))
    jp, jm, jz = ops["J_plus"], ops["J_minus"], ops["J_z"]
    scale = norm(jz)
    assert norm((jp @ jm - jm @ jp) - 2 * jz) <= 1e-12 * 2 * scale
    assert norm((jz @ jp - jp @ jz) - jp) <= 1e-12 * norm(jp)
    assert norm((jz @ jm - jm @ jz) - (-1) * jm) <= 1e-12 * norm(jm)


@pytest.mark.parametrize("j", [0.5, 1, 2.5, 25, 250])
def test_casimir_all_reps(j):
    ops = build_spin_operators(SpinRep(j=j))
    jx, jy = spin_xy(ops)
    j2 = jx @ jx + jy @ jy + ops["J_z"] @ ops["J_z"]
    dim = int(round(2 * j)) + 1
    eye = sp.eye_array(dim, dtype=complex, format="csr")
    assert norm(j2 - j * (j + 1) * eye) <= 1e-13 * j * (j + 1) * np.sqrt(dim)


def test_hermiticity_and_adjoint():
    ops = build_spin_operators(SpinRep(j=10))
    for op in (*spin_xy(ops), ops["J_z"]):
        assert norm(op - op.conj().T) <= 1e-15 * max(1.0, norm(op))
    assert norm(ops["J_plus"] - ops["J_minus"].conj().T) == 0.0


@pytest.mark.parametrize("j", [2, 40])
def test_sparse_dense_agreement(j):
    # every operator is CSR at any size (dims 5 and 81), and the sparse
    # build agrees with the ladder formula written out densely
    rep = SpinRep(j=j)
    ops = build_spin_operators(rep)
    for op in ops.values():
        assert isinstance(op, sp.csr_array)
        assert op.dtype == np.complex128
    m = rep.m_values
    dense = np.zeros((rep.dim, rep.dim), dtype=complex)
    for k in range(1, rep.dim):
        dense[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] - 1))
    np.testing.assert_allclose(ops["J_minus"].toarray(), dense, atol=1e-14)


@pytest.mark.parametrize("j", [0.5, 2, 2.5, 40])
def test_operators_store_what_diags_array_stores(j):
    # the O(dim) build stores the entries scipy's diags_array gives in CSR,
    # in its order and index type, with no zero stored (J_z's m = 0 at
    # integer j), so every product of the operators keeps its bytes
    rep = SpinRep(j=j)
    ops = build_spin_operators(rep)
    m = rep.m_values
    amp = np.sqrt(j * (j + 1) - m[1:] * (m[1:] - 1))
    reference = {
        "J_minus": ([amp], [1]), "J_plus": ([amp], [-1]), "J_z": ([m], [0]),
    }
    assert set(ops) == set(reference)
    for key, (diagonals, offsets) in reference.items():
        want = sp.diags_array(diagonals, offsets=offsets, shape=(rep.dim,) * 2,
                              format="csr", dtype=np.complex128)
        got = ops[key]
        assert got.indptr.dtype == want.indptr.dtype and got.indices.dtype == want.indices.dtype
        assert got.has_canonical_format and got.nnz == want.nnz
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (key, name)


def test_fock_minimal_cutoff():
    ops = build_fock_operators(FockRep(cutoff=1))
    np.testing.assert_allclose(ops["c"].toarray(), [[0, 1], [0, 0]])


def test_fock_number_and_truncation():
    rep = FockRep(cutoff=10)
    ops = build_fock_operators(rep)
    num = (ops["c_dagger"] @ ops["c"]).toarray()
    np.testing.assert_allclose(num, np.diag(np.arange(11.0)), atol=1e-14)
    comm = (ops["c"] @ ops["c_dagger"] - ops["c_dagger"] @ ops["c"]).toarray()
    dev = comm - np.eye(11)
    # truncation shows up only in the last diagonal entry
    assert abs(dev[10, 10] + 11.0) < 1e-12
    dev[10, 10] = 0.0
    assert np.abs(dev).max() < 1e-14
    with pytest.raises(ValueError):
        FockRep(cutoff=0)


def test_tensor_identity_and_ordering():
    eye2 = sp.eye_array(2, dtype=complex, format="csr")
    eye3 = sp.eye_array(3, dtype=complex, format="csr")
    np.testing.assert_allclose(tensor(eye2, eye3).toarray(), np.eye(6))
    # slow (first) index stride equals the fast dimension
    a = np.diag([1.0, 2.0])
    out = tensor(a, eye3).toarray()
    np.testing.assert_allclose(np.diag(out), [1, 1, 1, 2, 2, 2])


def test_tensor_mixed_product_and_trace():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    eye3 = sp.eye_array(3, dtype=complex, format="csr")
    lhs = tensor(a, eye3) @ tensor(eye3, b)
    rhs = tensor(a, b)
    assert norm(lhs - rhs) < 1e-13
    assert abs(rhs.trace() - a.trace() * b.trace()) < 1e-13


def test_tensor_cap():
    # 150 * 150 = 22,500 is over the cap of 20,000; the guard raises
    # before any product is formed
    big = sp.eye_array(150, dtype=complex, format="csr")
    with pytest.raises(DimensionCapError):
        tensor(big, big)
