"""Matrix primitives: tensor products, partial traces, eigensystems."""

import re

import numpy as np
import pytest

from inducedmaps import (
    HermiticityError,
    InducedMap,
    ShapeError,
    SizeError,
    ValidationError,
    dagger,
    hadamard,
    hermitian_eigen,
    is_cp,
    is_psd,
    partial_trace,
    tensor,
    validate_density_matrix,
)
from inducedmaps.linalg import check_count, check_hermitian, check_unitaries
from inducedmaps.presets import bell_density, random_density


def random_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_random_density_draws_real_then_imaginary_normals(dim):
    ours, reference = np.random.default_rng(dim), np.random.default_rng(dim)
    g = reference.normal(size=(dim, dim)) + 1j * reference.normal(size=(dim, dim))
    m = g @ g.conj().T
    assert random_density(dim, ours).tobytes() == (m / np.trace(m).real).tobytes()
    # the generator is left where the reference leaves it
    assert ours.bit_generator.state == reference.bit_generator.state


def test_dagger_is_conjugate_transpose():
    a = np.array([[1 + 2j, 3j], [4, 5 - 1j]])
    assert np.array_equal(dagger(a), a.conj().T)


def test_tensor_of_identities_is_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))


def test_tensor_matches_blockwise_expansion():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 2.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [3.0, 0.0, 4.0, 0.0],
        ]
    )
    assert np.abs(tensor(a, b) - expected).max() == 0.0


def test_tensor_eigenvalues_are_pairwise_products():
    rng = np.random.default_rng(11)
    a = random_density(3, rng)
    b = random_density(2, rng)
    products = np.sort(np.outer(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)).ravel())
    assert np.abs(np.linalg.eigvalsh(tensor(a, b)) - products).max() < 1e-12


def test_tensor_is_bilinear_and_associative():
    rng = np.random.default_rng(12)
    a, c = random_hermitian(2, rng), random_hermitian(2, rng)
    b, d = random_hermitian(3, rng), random_hermitian(2, rng)
    assert np.abs(tensor(a + c, b) - tensor(a, b) - tensor(c, b)).max() < 1e-12
    assert np.abs(tensor(a, 2.0 * b) - 2.0 * tensor(a, b)).max() < 1e-12
    left = tensor(tensor(a, b), d)
    right = tensor(a, tensor(b, d))
    assert np.abs(left - right).max() < 1e-12


def test_tensor_rejects_oversized_results():
    with pytest.raises(SizeError):
        tensor(np.zeros((70, 70)), np.zeros((70, 70)))


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(13)
    rho_a = random_density(2, rng)
    rho_e = random_density(3, rng)
    joint = tensor(rho_a, rho_e)
    assert np.abs(partial_trace(joint, 2, 3, side="E") - rho_a).max() < 1e-12
    assert np.abs(partial_trace(joint, 2, 3, side="A") - rho_e).max() < 1e-12


def test_partial_trace_of_bell_state_is_maximally_mixed():
    for side in ("E", "A"):
        reduced = partial_trace(bell_density(), 2, 2, side=side)
        assert np.abs(reduced - np.eye(2) / 2.0).max() < 1e-12


def test_partial_trace_preserves_total_trace():
    rng = np.random.default_rng(14)
    m = random_hermitian(6, rng)
    for dim_a, dim_e in ((2, 3), (3, 2), (1, 6), (6, 1)):
        for side in ("E", "A"):
            reduced = partial_trace(m, dim_a, dim_e, side=side)
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


def test_partial_trace_rejects_mismatched_dimensions():
    with pytest.raises(ShapeError):
        partial_trace(np.eye(5), 2, 2)


@pytest.mark.parametrize(
    "value,message",
    [
        (0, "n must be >= 1, got 0"),
        (1, None),
        (7, None),
        (8, "n must be at most 7, got 8"),
        (True, "n must be an integer, got True"),
        (1.5, "n must be an integer, got 1.5"),
    ],
)
def test_check_count_admits_integers_from_one_to_its_ceiling(value, message):
    if message is None:
        assert check_count(value, "n", 7) == value
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            check_count(value, "n", 7)


def test_hermitian_eigen_orders_known_spectrum():
    w, v = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.abs(w - [1.0, 2.0, 3.0]).max() < 1e-12
    assert np.abs(np.abs(v) - np.eye(3)[:, [1, 2, 0]]).max() < 1e-12


def test_hermitian_eigen_matches_characteristic_roots():
    m = 0.5 * np.array([[1.0, 1.0], [1.0, 0.0]])
    w, _ = hermitian_eigen(m)
    # roots of x^2 - tr(m) x + det(m)
    roots = np.sort(np.roots([1.0, -0.5, -0.25]).real)
    assert np.abs(w - roots).max() < 1e-12
    golden = np.array([(1.0 - np.sqrt(5.0)) / 4.0, (1.0 + np.sqrt(5.0)) / 4.0])
    assert np.abs(w - golden).max() < 1e-12


def test_hermitian_eigen_reconstructs_up_to_dim_64():
    rng = np.random.default_rng(15)
    for dim in (2, 5, 16, 64):
        m = random_hermitian(dim, rng)
        w, v = hermitian_eigen(m)
        assert np.abs((v * w) @ dagger(v) - m).max() < 1e-10
        assert np.abs(dagger(v) @ v - np.eye(dim)).max() < 1e-10


def test_hermitian_eigen_is_deterministic():
    rng = np.random.default_rng(16)
    m = random_hermitian(8, rng)
    first = hermitian_eigen(m)
    second = hermitian_eigen(m)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_hermitian_eigen_rejects_non_hermitian_input():
    with pytest.raises(HermiticityError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def choi_map_of(c):
    # the map whose Choi block (k, l) is images[k, l] = c[k, l] * I/2
    return InducedMap(2, np.einsum("kl,ab->klab", c, np.eye(2) / 2), np.zeros((2, 2)))


@pytest.mark.parametrize(
    "call",
    [validate_density_matrix, hermitian_eigen, is_psd, lambda c: is_cp(choi_map_of(c))],
    ids=["validate_density_matrix", "hermitian_eigen", "is_psd", "is_cp"],
)
def test_every_hermiticity_check_raises_hermiticity_error(call):
    with pytest.raises(HermiticityError):
        call(np.array([[0.5, 0.1], [0.0, 0.5]]))


def test_one_matrix_spectrum_matches_a_stack_of_one_bit_for_bit():
    rng = np.random.default_rng(19)
    for dim in (2, 4, 16):
        # slightly non-Hermitian, so the Hermitian part is taken for real
        m = random_hermitian(dim, rng) + 1e-12j * rng.normal(size=(dim, dim))
        one = hermitian_eigen(m)
        stacked = np.linalg.eigh(check_hermitian(m[None], 1e-9, "m"))
        assert one.eigenvalues.tobytes() == stacked[0][0].tobytes()
        assert one.eigenvectors.tobytes() == stacked[1][0].tobytes()
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        errors = []
        for a in (bad, bad[None]):
            with pytest.raises((HermiticityError, ValidationError)) as exc:
                check_hermitian(a, 1e-9, "m")
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]


def test_spectra_reject_a_non_finite_matrix_at_any_tolerance():
    # one asymmetric inf entry deviates by inf, which tol = inf used to accept
    bad = np.array([[1.0, np.inf], [0.0, 1.0]])
    for a in (bad, bad[None], np.stack([np.eye(2), bad])):
        with pytest.raises(ValidationError, match="non-finite"):
            check_hermitian(a, np.inf, "m")
    with pytest.raises(ValidationError, match="non-finite"):
        hermitian_eigen(bad, tol=np.inf)


def test_check_hermitian_floors_its_tolerance():
    # every Hermiticity check gates at max(DEFAULT_HERM_TOL, tol), so a
    # tighter tol never fails a matrix on rounding
    near = np.array([[0.5, 5e-10], [0.0, 0.5]])
    np.testing.assert_array_equal(check_hermitian(near, 0.0, "m"), (near + near.T) / 2)
    with pytest.raises(HermiticityError, match=r"by 2\.000e-09, above 1\.000e-09$"):
        check_hermitian(np.array([[0.5, 2e-9], [0.0, 0.5]]), 0.0, "m")


def test_hermitian_eigen_at_zero_tol_accepts_rounding_level_asymmetry():
    rng = np.random.default_rng(23)
    h = random_hermitian(4, rng)
    m = h + 1e-15 * rng.normal(size=(4, 4))
    assert np.abs(m - dagger(m)).max() > 0.0
    w, _ = hermitian_eigen(m, tol=0.0)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-12)


def test_is_psd_floors_only_its_hermiticity_check():
    # 5e-10 off Hermitian passes the floored check at tol = 1e-12, while
    # positivity is still judged at -1e-12
    ok, lam = is_psd(np.array([[1.0, 5e-10], [0.0, -1e-11]]), tol=1e-12)
    assert not ok and lam == pytest.approx(-1e-11, abs=1e-15)
    ok, lam = is_psd(np.array([[1.0, 5e-10], [0.0, -5e-13]]), tol=1e-12)
    assert ok and lam == pytest.approx(-5e-13, abs=1e-15)


def test_is_psd_on_reference_matrices():
    ok, lam = is_psd(np.eye(2))
    assert ok and abs(lam - 1.0) < 1e-12
    ok, lam = is_psd(np.zeros((2, 2)))
    assert ok and abs(lam) < 1e-12
    ok, lam = is_psd(0.5 * np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert not ok
    assert abs(lam - (1.0 - np.sqrt(5.0)) / 4.0) < 1e-12


def test_hadamard_known_products():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(hadamard(a, b), [[5.0, 12.0], [21.0, 32.0]])
    assert np.array_equal(hadamard(np.ones((2, 2)), a), a)
    assert np.array_equal(hadamard(np.eye(2), a), np.diag([1.0, 4.0]))


def test_hadamard_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        hadamard(np.eye(2), np.eye(3))


def test_entrywise_product_of_psd_pairs_stays_psd():
    rng = np.random.default_rng(17)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        a = random_density(dim, rng)
        b = random_density(dim, rng)
        ok, lam = is_psd(hadamard(a, b), tol=1e-10)
        assert ok, f"entrywise product lost positivity: min eig {lam}"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_unitaries_rejects_a_non_finite_matrix(bad):
    us = np.stack([np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
    us[1, 0, 1] = bad
    # inf * 0 in U†U is NaN: the deviation is NaN, which must fail
    with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="not unitary"):
        check_unitaries(us)
