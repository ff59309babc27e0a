import math

import numpy as np
import pytest
from cli_invoke import invoke

from svdshape.errors import DegenerateConfigurationError, DomainError
from svdshape.geometry import (LandmarkSet, Mode, angles_to_frame,
                               angles_to_unitvec, frame_to_angles,
                               helmert_submatrix, log_polar_jacobian,
                               polar_jacobian, preprocess, preshape_angles,
                               svd_shape, theta_inv_sqrt, unitvec_to_angles)
from svdshape.models import GeneratorSpec, IsotropicKind, ModelSpec
from svdshape.oracle import isotropic_shape_logdensity


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


class TestHelmert:
    def test_orthonormal_rows_annihilate_ones(self):
        for N in (3, 4, 6, 9):
            L = helmert_submatrix(N)
            assert L.shape == (N - 1, N)
            assert np.allclose(L @ L.T, np.eye(N - 1), atol=1e-13)
            assert np.allclose(L @ np.ones(N), 0.0, atol=1e-13)

    def test_translation_removed(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 2))
        L = helmert_submatrix(5)
        assert np.allclose(L @ X, L @ (X + 7.3), atol=1e-12)

    def test_too_small(self):
        with pytest.raises(DomainError):
            helmert_submatrix(1)


class TestThetaInvSqrt:
    def test_inverse_square_root(self):
        Theta = np.array([[2.0, 0.5], [0.5, 1.0]])
        M = theta_inv_sqrt(Theta)
        assert np.allclose(M @ Theta @ M, np.eye(2), atol=1e-12)
        assert np.allclose(M, M.T)

    def test_not_pd_raises(self):
        with pytest.raises(DomainError):
            theta_inv_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(DomainError):
            theta_inv_sqrt(np.array([[1.0, 0.5], [0.4, 1.0]]))


class TestLandmarkSet:
    def test_validation(self):
        with pytest.raises(DomainError):
            LandmarkSet("x", np.zeros((2, 2)))       # N < 3
        with pytest.raises(DomainError):
            LandmarkSet("x", np.zeros((3, 3)))       # N <= K
        with pytest.raises(DomainError):
            LandmarkSet("x", np.full((4, 2), np.nan))

    def test_properties(self):
        lm = LandmarkSet("a", np.arange(8.0).reshape(4, 2))
        assert (lm.N, lm.K) == (4, 2)


class TestSvdShape:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.Y = preprocess(LandmarkSet("a", rng.normal(size=(5, 2))))

    def test_reconstruction(self):
        sc = svd_shape(self.Y)
        assert np.allclose(sc.V.T @ np.diag(sc.D) @ sc.H, self.Y, atol=1e-10)
        assert abs(np.linalg.norm(sc.W) - 1.0) < 1e-12
        assert np.allclose(sc.r * sc.W, sc.V.T @ np.diag(sc.D), atol=1e-10)

    def test_rotation_invariance_of_shape(self):
        sc = svd_shape(self.Y)
        sc2 = svd_shape(self.Y @ rotation(0.9))
        assert np.allclose(sc.W, sc2.W, atol=1e-10)
        assert np.allclose(sc.u, sc2.u, atol=1e-10)
        assert sc.r == pytest.approx(sc2.r, rel=1e-12)

    def test_scale_invariance_of_angles(self):
        sc = svd_shape(self.Y)
        sc2 = svd_shape(3.7 * self.Y)
        assert np.allclose(sc.u, sc2.u, atol=1e-12)
        assert sc2.r == pytest.approx(3.7 * sc.r, rel=1e-12)

    def test_angle_ranges_and_roundtrip(self):
        sc = svd_shape(self.Y)
        assert sc.u.shape == (4 * 2 - 1,)
        assert np.all(sc.u[:-1] >= 0) and np.all(sc.u[:-1] <= math.pi)
        assert 0 <= sc.u[-1] < 2 * math.pi
        v = angles_to_unitvec(sc.u)
        assert np.allclose(v, sc.W.reshape(-1, order="F"), atol=1e-12)

    def test_no_reflection_determinant(self):
        Yflip = self.Y.copy()
        Yflip[:, 0] = -Yflip[:, 0]
        for Y in (self.Y, Yflip):
            sc = svd_shape(Y, Mode.NO_REFLECTION)
            assert np.linalg.det(sc.H) > 0
            assert np.allclose(sc.V.T @ np.diag(sc.D) @ sc.H, Y, atol=1e-10)

    def test_no_reflection_needs_enough_landmarks(self):
        # N-1 < K has no determinant convention, and no model or landmark
        # set takes it, in either mode
        Y = np.random.default_rng(2).normal(size=(2, 3))
        for mode in Mode:
            with pytest.raises(DomainError, match="N-1 >= K"):
                svd_shape(Y, mode)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateConfigurationError):
            svd_shape(np.zeros((4, 2)))

    def test_deterministic(self):
        a = svd_shape(self.Y)
        b = svd_shape(self.Y.copy())
        assert np.array_equal(a.W, b.W) and np.array_equal(a.u, b.u)


class TestAngleChart:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.normal(size=7)
            v /= np.linalg.norm(v)
            u = unitvec_to_angles(v)
            assert np.allclose(angles_to_unitvec(u), v, atol=1e-12)

    def test_pole_canonical(self):
        u = unitvec_to_angles(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(u, 0.0)
        u = unitvec_to_angles(np.array([-1.0, 0.0, 0.0]))
        assert u[0] == pytest.approx(math.pi)

    def test_zero_vector_raises(self):
        with pytest.raises(DomainError):
            unitvec_to_angles(np.zeros(4))

    def test_jacobian(self):
        u = np.array([math.pi / 2, math.pi / 3, 1.0])
        expect = math.sin(math.pi / 2) ** 2 * math.sin(math.pi / 3)
        assert polar_jacobian(u) == pytest.approx(expect, rel=1e-14)
        assert log_polar_jacobian(u) == pytest.approx(math.log(expect), rel=1e-12)

    def test_jacobian_pole(self):
        u = np.array([0.0, 1.0, 1.0])
        assert polar_jacobian(u) == 0.0
        assert log_polar_jacobian(u) == -math.inf

    def test_jacobian_normalizes_sphere_area(self):
        # int over the box of J(u) du = surface of S^m
        rng = np.random.default_rng(4)
        m = 3
        U = np.empty((200000, m))
        U[:, :-1] = rng.uniform(0, math.pi, size=(len(U), m - 1))
        U[:, -1] = rng.uniform(0, 2 * math.pi, size=len(U))
        vol = math.pi ** (m - 1) * 2 * math.pi
        est = vol * np.mean([polar_jacobian(u) for u in U])
        surf = 2 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)
        assert est == pytest.approx(surf, rel=0.01)


class TestBatchChart:
    """One code path serves a single point and a batch."""

    def setup_method(self):
        rng = np.random.default_rng(6)
        V = rng.normal(size=(40, 8))
        V[::5, 3:] = 0.0                    # zero tails: chart poles
        V[1::5, 1:] = 0.0
        V[2::5, 0] = -np.abs(V[2::5, 0])    # negative leading entry
        V[3] = 0.0
        V[3, 0] = -2.0                      # the opposite pole
        self.V = V
        self.U = unitvec_to_angles(V)

    def test_batch_equals_row_by_row(self):
        # numpy's vectorized transcendentals may round a strided batch and a
        # contiguous row differently in the last place
        assert self.U.shape == (40, 7)
        for v, u in zip(self.V, self.U):
            assert np.allclose(unitvec_to_angles(v), u, rtol=0, atol=1e-15)
        for u, v in zip(self.U, angles_to_unitvec(self.U)):
            assert np.allclose(angles_to_unitvec(u), v, rtol=0, atol=1e-15)
        logj = log_polar_jacobian(self.U)
        assert logj.shape == (40,)
        assert np.isneginf(logj[::5]).all() and np.isneginf(logj[1::5]).all()
        for u, lj in zip(self.U, logj):
            assert log_polar_jacobian(u) == pytest.approx(lj, rel=1e-14)
        assert self.U[3, 0] == math.pi and np.all(self.U[3, 1:] == 0.0)
        assert np.all(self.U[::5, 3:] == 0.0) and np.all(self.U[1::5, 1:] == 0.0)

    def test_frame_round_trip(self):
        U = self.U.reshape(4, 10, 7)
        W = angles_to_frame(U, 4, 2)
        assert W.shape == (4, 10, 4, 2)
        assert np.allclose(frame_to_angles(W), U, atol=1e-14)
        V = self.V / np.linalg.norm(self.V, axis=1, keepdims=True)
        assert np.allclose(W.reshape(40, 4, 2)[:, :, 0], V[:, :4], atol=1e-15)
        with pytest.raises(DomainError):
            angles_to_frame(U, 3, 2)

    def test_zero_vector_in_batch_raises(self):
        with pytest.raises(DomainError):
            unitvec_to_angles(np.vstack([self.V, np.zeros(8)]))


class TestPreshapeAngles:
    def test_matches_svd_chart_on_gram(self):
        # both charts carry the same W W' (shape information)
        rng = np.random.default_rng(5)
        Y = preprocess(LandmarkSet("a", rng.normal(size=(4, 2))))
        u_free = preshape_angles(Y)
        W_free = angles_to_unitvec(u_free).reshape(3, 2, order="F")
        sc = svd_shape(Y)
        assert np.allclose(W_free @ W_free.T, sc.W @ sc.W.T, atol=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateConfigurationError):
            preshape_angles(np.zeros((3, 2)))


@pytest.mark.parametrize("Nm1,K", [(3, 1), (1, 1), (2, 3), (3, 4)])
@pytest.mark.parametrize("entry", ["LandmarkSet", "svd_shape", "ModelSpec",
                                   "isotropic_shape_logdensity", "verify"])
def test_every_entry_refuses_a_size_without_a_shape(entry, Nm1, K):
    # one rule, K >= 2 and N-1 >= K, with one message, wherever a size enters
    Y = np.random.default_rng(3).normal(size=(Nm1, K))
    message = f"a shape needs K >= 2 and N-1 >= K, got N-1 = {Nm1}, K = {K}"
    if entry == "verify":
        res = invoke(["verify", "--landmarks", str(Nm1 + 1), "--dimension", str(K),
                      "--mc-samples", "200", "--sim-count", "1000"])
        assert (res.exit_code, res.stdout, res.stderr) == (3, "", f"domain error: {message}\n")
        return
    with pytest.raises(DomainError) as err:
        if entry == "LandmarkSet":
            LandmarkSet("s", np.vstack([Y, np.ones(K)]))
        elif entry == "svd_shape":
            svd_shape(Y)
        elif entry == "ModelSpec":
            ModelSpec(GeneratorSpec(M=Nm1 * K), np.eye(Nm1), np.eye(K), Y)
        else:
            isotropic_shape_logdensity(np.zeros(Nm1 * K - 1), Y, 1.0, IsotropicKind.GAUSSIAN)
    assert str(err.value) == message
