import math

import numpy as np
import pytest
from scipy.linalg import expm

from symmflow import sphere
from symmflow.errors import DimensionMismatch, NonPositiveDefinite, NotOnManifold, NumericalFailure
from symmflow.linalg import (
    mat_exp,
    minkowski,
    minkowski_metric,
    spd_inv,
    spd_sqrt,
    sym_eig,
    symmetrize,
)
from symmflow.spd import SPD, sqrt_pair


class TestSymEig:
    def test_already_diagonal(self):
        w, v = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1.0, 3.0])
        assert np.max(np.abs(np.abs(v) - np.eye(2)[:, ::-1])) < 1e-14

    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.max(np.abs(v.T @ v - np.eye(3))) < 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(1)
        a = symmetrize(rng.standard_normal((5, 5)))
        w, v = sym_eig(a)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 12])
    def test_reconstruction_and_orthogonality_up_to_12(self, n):
        rng = np.random.default_rng(n)
        for scale in (1.0, 1e-3, 1e4):
            a = scale * symmetrize(rng.standard_normal((n, n)))
            w, v = sym_eig(a)
            norm = max(np.max(np.abs(a)), 1e-300)
            assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-12 * norm
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
            assert np.all(np.diff(w) >= 0)

    def test_lapack_failure_raises_numerical_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        a = symmetrize(np.random.default_rng(2).standard_normal((4, 4)))
        with pytest.raises(NumericalFailure, match="did not converge"):
            sym_eig(a)

    def test_non_finite_raises_numerical_failure(self):
        with pytest.raises(NumericalFailure):
            sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            sym_eig(np.zeros((2, 3)))


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = mat_exp(np.diag([1.0, 2.0]))
        assert np.max(np.abs(out - np.diag([math.e, math.e**2]))) < 1e-13

    def test_matches_rodrigues_closed_form(self):
        # Rotation generator of a sphere tangent: the closed form
        # I + sin(phi)/phi * H + (1/2) (sin(phi/2)/(phi/2))^2 * H^2
        # is an independent route to the same exponential.
        base = np.array([0.0, 0.0, 1.0])
        v = (math.pi / 3) * np.array([math.sqrt(0.4), math.sqrt(0.6), 0.0])
        hat = np.outer(v, base) - np.outer(base, v)
        phi = math.pi / 3
        half = math.sin(phi / 2) / (phi / 2)
        rodrigues = (
            np.eye(3) + (math.sin(phi) / phi) * hat + 0.5 * half**2 * (hat @ hat)
        )
        assert np.max(np.abs(mat_exp(hat) - rodrigues)) < 1e-13

    @pytest.mark.parametrize("norm", [0.1, 1.0, 5.0])
    def test_inverse_property(self, norm):
        rng = np.random.default_rng(int(norm * 10))
        a = rng.standard_normal((4, 4))
        a *= norm / np.max(np.abs(a))
        assert np.max(np.abs(mat_exp(-a) @ mat_exp(a) - np.eye(4))) <= 1e-12

    def test_moderate_norm_accuracy(self):
        # exp(A)^2 == exp(2A) exercises the squaring phase up to norm 10.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        a *= 5.0 / np.max(np.abs(a))
        e1 = mat_exp(a)
        e2 = mat_exp(2.0 * a)
        assert np.max(np.abs(e1 @ e1 - e2)) <= 1e-12 * np.max(np.abs(e2))

    def test_sphere_hat_matrices_match_expm(self):
        # Hat matrices of sphere tangents at n = 26..40 have entries below
        # 0.25 but spectral radius phi = 1.8: scaled by the largest entry
        # they take no squaring, and the Taylor sum is off by 7e-10.
        rng = np.random.default_rng(3)
        for n in range(26, 41):
            base = sphere.random_point(rng, n)
            hat = sphere.hat_matrix(base, sphere.random_tangent(rng, base, scale=1.8))
            want = expm(hat)
            assert np.max(np.abs(mat_exp(hat) - want)) <= 1e-13 * np.max(np.abs(want))


class TestSpdSqrt:
    def test_diagonal(self):
        assert np.allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.max(np.abs(spd_sqrt(np.eye(3)) - np.eye(3))) < 1e-14

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((4, 4))
        a = b @ b.T + np.eye(4)
        root = spd_sqrt(a)
        norm = np.max(np.abs(a))
        assert np.max(np.abs(root @ root - a)) <= 1e-11 * norm
        assert np.max(np.abs(root - root.T)) == 0.0
        assert np.max(np.abs(root @ a - a @ root)) <= 1e-11 * norm**2

    def test_rejects_indefinite(self):
        with pytest.raises(NonPositiveDefinite):
            spd_sqrt(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_one_positive_definiteness_floor(self, scale):
        # The smallest eigenvalue must exceed 1e-13 * max|a| for the square
        # root, the inverse, a step's sqrt_pair and integrate's y0 check.
        low = np.diag([scale, 0.5e-13 * scale])
        high = np.diag([scale, 2e-13 * scale])
        for fn in (spd_sqrt, spd_inv, sqrt_pair):
            with pytest.raises(NonPositiveDefinite):
                fn(low)
            fn(high)
        with pytest.raises(NotOnManifold):
            SPD.check_point(low)
        SPD.check_point(high)

    def test_inverse(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 3))
        a = b @ b.T + np.eye(3)
        assert np.max(np.abs(spd_inv(a) @ a - np.eye(3))) <= 1e-12
        with pytest.raises(NonPositiveDefinite):
            spd_inv(np.zeros((2, 2)))


class TestMinkowski:
    def test_reference_point_is_unit(self):
        y = np.array([0.0, 0.0, 1.0])
        assert minkowski(y, y) == 1.0

    def test_spacelike_axis(self):
        y = np.array([1.0, 0.0, 0.0])
        assert minkowski(y, y) == -1.0

    def test_hyperbola_point_is_unit(self):
        y = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
        assert abs(minkowski(y, y) - 1.0) < 1e-15

    def test_bilinear_and_symmetric(self):
        rng = np.random.default_rng(6)
        y, z, w = rng.standard_normal((3, 5))
        assert minkowski(y, z) == minkowski(z, y)
        assert abs(
            minkowski(2.0 * y + w, z) - (2.0 * minkowski(y, z) + minkowski(w, z))
        ) < 1e-12

    def test_metric_matrix_agrees(self):
        rng = np.random.default_rng(7)
        y, z = rng.standard_normal((2, 4))
        j = minkowski_metric(4)
        assert abs(minkowski(y, z) - float(y @ j @ z)) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            minkowski(np.zeros(3), np.zeros(4))
