import math

import numpy as np
import pytest

from svdshape.densities import (IsotropicKind, batch_shape_logdensity,
                                central_shape_logdensity,
                                central_size_and_shape_logdensity,
                                gaussian_shape_logdensity,
                                isotropic_shape_logdensity, shape_logdensities,
                                shape_logdensity,
                                size_and_shape_logdensity)
from svdshape.errors import DomainError, SeriesTruncationError
from svdshape.geometry import (LandmarkSet, Mode, log_polar_jacobian,
                               preprocess, preshape_angles, svd_shape)
from svdshape.models import gaussian_model, kotz_model
from svdshape.zonal import SeriesControl

CTRL = SeriesControl(max_degree=80)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(10)
    Sigma = np.array([[1.0, 0.3, 0.0], [0.3, 0.7, 0.1], [0.0, 0.1, 1.2]])
    Theta = np.array([[1.0, 0.15], [0.15, 0.9]])
    mu = rng.normal(size=(3, 2)) * 0.7
    Y = rng.normal(size=(3, 2))
    sc = svd_shape(Y)
    return Sigma, Theta, mu, Y, sc


class TestCrossRouteIdentities:
    def test_generic_equals_gaussian_closed_form(self, setup):
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        a = shape_logdensity(sc.u, model, ctrl=CTRL).log_density
        b = gaussian_shape_logdensity(sc.u, model, ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-10)

    def test_gaussian_closed_form_equals_isotropic(self, setup):
        _, _, mu, Y, sc = setup
        sigma2 = 0.8
        model = gaussian_model(sigma2 * np.eye(3), np.eye(2), mu)
        a = gaussian_shape_logdensity(sc.u, model, ctrl=CTRL).log_density
        b = isotropic_shape_logdensity(sc.u, mu, sigma2,
                                       IsotropicKind.GAUSSIAN, ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("T,kind", [(2, IsotropicKind.KOTZ_T2),
                                        (3, IsotropicKind.KOTZ_T3)])
    def test_kotz_bracket_equals_generic(self, setup, T, kind):
        _, _, mu, Y, sc = setup
        sigma2 = 0.8
        model = kotz_model(sigma2 * np.eye(3), np.eye(2), mu, T=T)
        a = shape_logdensity(sc.u, model, ctrl=CTRL).log_density
        b = isotropic_shape_logdensity(sc.u, mu, sigma2, kind,
                                       ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-8)

    def test_central_collapse(self, setup):
        Sigma, Theta, _, Y, sc = setup
        model = gaussian_model(Sigma, Theta, np.zeros((3, 2)))
        a = central_shape_logdensity(sc.u, model).log_density
        b = shape_logdensity(sc.u, model, ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-12)

    def test_central_invariant_across_generators(self, setup):
        Sigma, Theta, _, Y, sc = setup
        vals = []
        for model in (gaussian_model(Sigma, Theta, np.zeros((3, 2))),
                      kotz_model(Sigma, Theta, np.zeros((3, 2)), T=2),
                      kotz_model(Sigma, Theta, np.zeros((3, 2)), T=3, R=0.8)):
            vals.append(shape_logdensity(sc.u, model, ctrl=CTRL).log_density)
        assert max(vals) - min(vals) < 1e-12

    def test_noncentrality_continuity_at_zero(self, setup):
        Sigma, Theta, _, Y, sc = setup
        tiny = 1e-6 * np.ones((3, 2))
        central = central_shape_logdensity(
            sc.u, gaussian_model(Sigma, Theta, np.zeros((3, 2)))).log_density
        near = shape_logdensity(
            sc.u, gaussian_model(Sigma, Theta, tiny), ctrl=CTRL).log_density
        assert near == pytest.approx(central, abs=1e-6)

    def test_central_size_and_shape_collapse(self, setup):
        Sigma, Theta, _, Y, sc = setup
        model = gaussian_model(Sigma, Theta, np.zeros((3, 2)))
        Rmat = sc.V.T @ np.diag(sc.D)
        a = central_size_and_shape_logdensity(Rmat, model).log_density
        b = size_and_shape_logdensity(Rmat, model, ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-12)


class TestModeFactor:
    def test_all_densities_halve(self, setup):
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        Rmat = sc.V.T @ np.diag(sc.D)
        pairs = [
            (shape_logdensity(sc.u, model, Mode.REFLECTION, CTRL),
             shape_logdensity(sc.u, model, Mode.NO_REFLECTION, CTRL)),
            (size_and_shape_logdensity(Rmat, model, Mode.REFLECTION, CTRL),
             size_and_shape_logdensity(Rmat, model, Mode.NO_REFLECTION, CTRL)),
            (central_shape_logdensity(
                sc.u, gaussian_model(Sigma, Theta, np.zeros((3, 2))), Mode.REFLECTION),
             central_shape_logdensity(
                sc.u, gaussian_model(Sigma, Theta, np.zeros((3, 2))),
                Mode.NO_REFLECTION)),
        ]
        for refl, norefl in pairs:
            assert refl.log_density - norefl.log_density == pytest.approx(
                math.log(2.0), abs=1e-12)


class TestOrbitInvariance:
    def test_density_constant_on_rotation_orbits(self, setup):
        # modulo the Jacobian, the density depends on u only through W W'
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        base = (shape_logdensity(sc.u, model, ctrl=CTRL).log_density
                - log_polar_jacobian(sc.u))
        for theta in (0.4, 1.9, 4.4):
            Q = np.array([[math.cos(theta), -math.sin(theta)],
                          [math.sin(theta), math.cos(theta)]])
            u2 = preshape_angles(Y @ Q)
            val = (shape_logdensity(u2, model, ctrl=CTRL).log_density
                   - log_polar_jacobian(u2))
            assert val == pytest.approx(base, abs=1e-10)

    def test_spectrum_route_invariance(self, setup):
        # reordering the matrix product inside the zonal argument changes
        # nothing because only eigenvalues enter
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        W = sc.W
        A = model.omega @ model.sigma_inv @ (W @ W.T)
        mw = model.mu_whitened
        B = mw.T @ model.sigma_inv @ (W @ W.T) @ model.sigma_inv @ mw
        ea = np.sort(np.real(np.linalg.eigvals(A)))[-2:]
        eb = np.sort(np.linalg.eigvalsh(B))
        assert np.allclose(ea, eb, atol=1e-12)


class TestBatchEvaluation:
    def test_batch_matches_scalar(self, setup):
        Sigma, Theta, mu, Y, sc = setup
        rng = np.random.default_rng(11)
        U = np.empty((12, 5))
        U[:, :-1] = rng.uniform(0, math.pi, size=(12, 4))
        U[:, -1] = rng.uniform(0, 2 * math.pi, size=12)
        for model in (gaussian_model(Sigma, Theta, mu),
                      kotz_model(Sigma, Theta, mu, T=3),
                      gaussian_model(Sigma, Theta, np.zeros((3, 2)))):
            batch = batch_shape_logdensity(U, model, ctrl=CTRL)
            scalar = [shape_logdensity(u, model, ctrl=CTRL) for u in U]
            assert np.allclose(batch, [dv.log_density for dv in scalar], atol=1e-10)
            _, used, _ = shape_logdensities(U, model, ctrl=CTRL)
            assert used.tolist() == [dv.degrees_used for dv in scalar]


class TestDiagnosticsAndErrors:
    def test_density_value_fields(self, setup):
        Sigma, Theta, mu, Y, sc = setup
        dv = shape_logdensity(sc.u, gaussian_model(Sigma, Theta, mu), ctrl=CTRL)
        assert dv.density == pytest.approx(math.exp(dv.log_density))
        assert dv.degrees_used > 0
        assert dv.tail_bound < 1e-11
        assert dv.mode is Mode.REFLECTION

    def test_angle_validation(self, setup):
        Sigma, Theta, mu, _, _ = setup
        model = gaussian_model(Sigma, Theta, mu)
        with pytest.raises(DomainError):
            shape_logdensity(np.zeros(4), model)          # wrong length
        bad = np.array([4.0, 1.0, 1.0, 1.0, 1.0])         # first angle > pi
        with pytest.raises(DomainError):
            shape_logdensity(bad, model)

    def test_truncation_failure_raises(self, setup):
        Sigma, Theta, _, Y, sc = setup
        model = gaussian_model(Sigma, Theta, np.ones((3, 2)) * 40.0)
        with pytest.raises(SeriesTruncationError):
            shape_logdensity(sc.u, model, ctrl=SeriesControl(max_degree=5))

    def test_isotropic_validation(self):
        with pytest.raises(DomainError):
            isotropic_shape_logdensity(np.zeros(5), np.zeros((3, 2)), -1.0,
                                       IsotropicKind.GAUSSIAN)

    def test_size_and_shape_shape_check(self, setup):
        Sigma, Theta, mu, _, _ = setup
        with pytest.raises(DomainError):
            size_and_shape_logdensity(np.zeros((2, 2)),
                                      gaussian_model(Sigma, Theta, mu))


class TestSizeAndShape:
    def test_positive_and_finite(self, setup):
        Sigma, Theta, mu, Y, sc = setup
        model = kotz_model(Sigma, Theta, mu, T=2)
        Rmat = sc.V.T @ np.diag(sc.D)
        dv = size_and_shape_logdensity(Rmat, model, ctrl=CTRL)
        assert math.isfinite(dv.log_density)

    def test_rotation_invariance(self, setup):
        # the size-and-shape density depends on Rmat through Rmat Rmat'
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        Rmat = sc.V.T @ np.diag(sc.D)
        theta = 0.8
        Q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        a = size_and_shape_logdensity(Rmat, model, ctrl=CTRL).log_density
        b = size_and_shape_logdensity(Rmat @ Q, model, ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-10)
