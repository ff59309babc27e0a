import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

import svdshape
from svdshape import oracle, zonal
from svdshape.densities import batch_shape_logdensity, shape_logdensity
from svdshape.errors import DomainError, NumericError, SeriesTruncationError
from svdshape.geometry import svd_shape
from svdshape.inference import SampleOfShapes, fit_location
from svdshape.models import IsotropicKind, gaussian_model, kotz_model
from svdshape.oracle import (Partition, ZonalSumTable, _isotropic_bracket, _polar_factor,
                             enumerate_partitions, exp_trace_integral_series,
                             gen_pochhammer, hypergeom_0F1, log_stiefel_volume,
                             power_trace_integral_series, stiefel_mc_integral, zonal_poly)
from svdshape.zonal import SeriesControl, degree_cap, log_partials, logsums, zonal_series_batch


def sum_identity_error(eigs, f):
    total = sum(zonal_poly(k, eigs) for k in enumerate_partitions(f, len(eigs)))
    target = sum(eigs) ** f
    return abs(total - target) / abs(target)


class TestZonalPoly:
    def test_hand_values_identity_2x2(self):
        # weight 2 at the 2x2 identity: C_(2) = 8/3, C_(1,1) = 4/3
        assert zonal_poly(Partition((2,)), [1.0, 1.0]) == pytest.approx(8 / 3, rel=1e-14)
        assert zonal_poly(Partition((1, 1)), [1.0, 1.0]) == pytest.approx(4 / 3, rel=1e-14)

    def test_weight_one(self):
        assert zonal_poly(Partition((1,)), [2.0, 3.0]) == pytest.approx(5.0)

    def test_sum_identity(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            eigs = rng.uniform(0.2, 2.0, size=d)
            for f in range(1, 9):
                assert sum_identity_error(tuple(eigs), f) < 1e-9

    def test_homogeneity(self):
        kappa = Partition((2, 1))
        eigs = (0.7, 1.3, 2.1)
        c = 2.5
        assert zonal_poly(kappa, [c * e for e in eigs]) == pytest.approx(
            c ** 3 * zonal_poly(kappa, eigs), rel=1e-12)

    def test_permutation_invariance(self):
        kappa = Partition((3, 1))
        a = zonal_poly(kappa, (0.3, 1.1, 2.2))
        b = zonal_poly(kappa, (2.2, 0.3, 1.1))
        assert a == pytest.approx(b, rel=1e-12)

    def test_structural_zero(self):
        # more parts than nonzero eigenvalues
        assert zonal_poly(Partition((1, 1, 1)), (1.0, 2.0)) == 0.0
        assert zonal_poly(Partition((2, 1)), (3.0, 0.0)) == 0.0

    def test_empty_eigs_raises(self):
        with pytest.raises(DomainError):
            zonal_poly(Partition((1,)), ())


class TestHypergeom0F1:
    def test_sinh_identity(self):
        # 0F1(3/2; X) = sinh(x) / x for a rank-one X of eigenvalue x^2/4
        for x in (0.3, 1.7, 4.0):
            assert hypergeom_0F1(1.5, [x * x / 4.0]) == pytest.approx(
                math.sinh(x) / x, rel=1e-12)

    def test_orthogonal_group_quadrature_oracle(self):
        # int over O(2) of etr(X H) dH = 0F1(1; X X'/4); the left side is a
        # plain 1-D integral over rotations plus reflections
        rng = np.random.default_rng(1)
        for _ in range(5):
            X = rng.normal(size=(2, 2))
            def rot(th):
                return np.array([[math.cos(th), -math.sin(th)],
                                 [math.sin(th), math.cos(th)]])
            refl = np.array([[1.0, 0.0], [0.0, -1.0]])
            f_rot = integrate.quad(
                lambda th: math.exp(np.trace(X @ rot(th))), 0, 2 * math.pi,
                limit=200)[0]
            f_ref = integrate.quad(
                lambda th: math.exp(np.trace(X @ (rot(th) @ refl))), 0,
                2 * math.pi, limit=200)[0]
            oracle = (f_rot + f_ref) / (4 * math.pi)
            eigs = np.linalg.eigvalsh(X @ X.T / 4.0)
            assert hypergeom_0F1(1.0, eigs) == pytest.approx(oracle, rel=1e-9)


# the coefficients c_t = 1 of a 0F1 series
ONES = (0.0, 1.0)


class TestZonalSeries:
    def test_truncation_error_carries_partial(self):
        ctrl = SeriesControl(max_degree=3)
        with pytest.raises(SeriesTruncationError) as err:
            zonal_series_batch(ONES, [[50.0, 80.0]], ctrl)
        assert err.value.partial_log is not None
        assert err.value.tail_estimate is not None

    def test_tail_diagnostic_shrinks_with_degree(self):
        # with an unreachable rel_tol the truncation report exposes the tail,
        # which must shrink as the degree budget grows
        eigs = [2.0, 3.5]
        tails = []
        for deg in (20, 30, 40):
            with pytest.raises(SeriesTruncationError) as err:
                zonal_series_batch(ONES, [eigs], SeriesControl(max_degree=deg, rel_tol=1e-300))
            tails.append(err.value.tail_estimate)
        assert tails[0] > tails[1] > tails[2]

    def test_tail_bound_reported_on_convergent_instance(self):
        _, _, used, tail = zonal_series_batch(ONES, [[2.0, 3.5]], SeriesControl(max_degree=60))
        assert 0 <= tail[0] < 1e-11
        assert used[0] < 60

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-12, math.nan, math.inf])
    def test_rel_tol_must_be_positive_and_finite(self, rel_tol):
        with pytest.raises(DomainError, match="rel_tol"):
            SeriesControl(rel_tol=rel_tol)

    def test_zero_spectrum_sums_to_exactly_zero(self):
        log, sign, used, _ = zonal_series_batch(
            (0.0, (np.arange(61) > 0) * 1.0), [[0.0, 0.0]])
        assert (sign[0], log[0], used[0]) == (0.0, -math.inf, 3)

    def test_negative_eigenvalue_raises(self):
        with pytest.raises(DomainError):
            zonal_series_batch(ONES, [[1.0, -0.5]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("K", [2, 3])
    def test_non_finite_eigenvalue_is_a_domain_error(self, K, bad):
        # no degree cap could make such a series converge
        with pytest.raises(DomainError, match="finite and non-negative"):
            zonal_series_batch(ONES, [[bad] + [1.0] * (K - 1)])

    def test_sign_changing_coefficient_matches_zonal_poly_oracle(self):
        # the Kotz T=3 bracket c_t = Gamma(M/2 + t) [(M/2 + x - t)^2 + M/2 - t]
        # is negative on a few degrees (7-15% of the sum here); the oracle
        # sums every kappa explicitly
        x = 1.0
        for K, eigs in ((2, [0.4, 0.9]), (3, [0.2, 0.5, 0.8])):
            M = 3 * K
            _, log_b, sign_b = _isotropic_bracket(IsotropicKind.KOTZ_T3, M, x, 60)
            assert -1.0 in sign_b[:10]
            log, sign, used, _ = zonal_series_batch((log_b, sign_b), [eigs])
            oracle = math.fsum(
                sign_b[t] * math.exp(log_b[t] - math.lgamma(t + 1))
                * zonal_poly(kappa, eigs) / gen_pochhammer(K / 2.0, kappa)
                for t in range(used[0] + 1)
                for kappa in enumerate_partitions(t, K))
            assert sign[0] * math.exp(log[0]) == pytest.approx(oracle, rel=1e-12)


class TestBlockEvaluator:
    def test_k3_series_makes_one_kernel_call_per_block(self, monkeypatch):
        calls = []
        kernel = zonal.logsums

        def counted(*args):
            calls.append(args)
            return kernel(*args)
        monkeypatch.setattr(zonal, "logsums", counted)
        _, _, used, _ = zonal_series_batch(ONES, [[20.0, 10.0, 5.0]])
        assert used[0] == 31
        assert len(calls) <= 4

    def test_k3_density_does_not_ask_past_convergence(self):
        # the K = 3 kernel serves 300 degrees; a block must not ask for more
        # before the series has converged
        rng = np.random.default_rng(14)
        mu = rng.normal(size=(3, 3))
        model = kotz_model(0.8 * np.eye(3), np.eye(3), mu, T=2)
        U = np.array([svd_shape(mu + rng.normal(size=(3, 3))).u for _ in range(3)])
        wide = SeriesControl(max_degree=400)
        for u in U:
            assert shape_logdensity(u, model, ctrl=wide) == shape_logdensity(u, model)
        assert np.array_equal(batch_shape_logdensity(U, model, ctrl=wide),
                              batch_shape_logdensity(U, model))

    def test_rows_stop_as_batches_of_one(self):
        spectra = np.array([[0.1, 0.05], [20.0, 9.0], [0.0, 0.0], [3.0, 1.0]])
        log, sign, used, tail = zonal_series_batch(ONES, spectra)
        for i, eigs in enumerate(spectra):
            one = zonal_series_batch(ONES, eigs[None])
            assert (log[i], sign[i], used[i], tail[i]) == tuple(x[0] for x in one)
        assert len(set(used)) == 4

    @pytest.mark.parametrize("K", [2, 3])
    def test_kernels_are_homogeneous(self, K):
        # log S_t(c lambda) = t log c + log S_t(lambda): a row's factor c^t
        # can ride in its spectrum instead of its coefficients
        rng = np.random.default_rng(20 + K)
        spectra = np.abs(rng.normal(size=(6, K))) * 2
        spectra[1, 0] = 0.0
        t = np.arange(31)
        ref = ZonalSumTable(K, 30).logsums(spectra)
        finite = np.isfinite(ref)
        for c in (0.05, 0.7, 3.0, 40.0):
            got = logsums(c * spectra, 30)
            assert np.array_equal(np.isneginf(got), ~finite)
            err = np.abs(got[finite] - (t * math.log(c) + ref)[finite])
            assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(ref[finite])))

    def test_truncation_error_names_the_first_unconverged_row(self):
        spectra = np.array([[0.01, 0.02], [50.0, 80.0], [60.0, 90.0]])
        with pytest.raises(SeriesTruncationError) as err:
            zonal_series_batch(ONES, spectra, SeriesControl(max_degree=10))
        assert err.value.row == 1
        assert err.value.partial_log is not None and err.value.partial_sign == 1.0

    def test_magnitudes_report_the_cancellation_and_its_row(self):
        # c_t = (-1)^t at K = 2 on the spectrum (lambda, 0) sums
        # 0F1(1; -lambda) = J_0(2 sqrt(lambda)), and the same series over
        # |c_t| is I_0(2 sqrt(lambda)): at lambda = 100 that loses 8.4 digits
        def alternating(tmax):
            return 0.0, (-1.0) ** np.arange(tmax + 1), 0.0

        spectra = np.array([[0.5, 0.0], [2.0, 0.0], [1.0, 0.0]])
        log, sign, used, tail = zonal_series_batch(alternating(60), spectra)
        assert np.allclose(sign * np.exp(log), special.j0(2.0 * np.sqrt(spectra[:, 0])),
                           rtol=1e-12, atol=0.0)
        plain = zonal_series_batch(alternating(60)[:2], spectra)
        assert all(np.array_equal(x, y) for x, y in zip((log, sign, used, tail), plain))
        spectra[1, 0] = 100.0
        with pytest.raises(NumericError) as err:
            zonal_series_batch(alternating(200), spectra, SeriesControl(max_degree=200))
        assert err.value.row == 1 and "lost 8.4 digits" in str(err.value)

    def test_empty_batch(self):
        log, _, used, _ = zonal_series_batch(ONES, np.empty((0, 2)))
        assert log.shape == used.shape == (0,)


class TestZonalSumTable:
    def test_matches_direct_sums(self):
        rng = np.random.default_rng(3)
        for K in (2, 3):
            tab = ZonalSumTable(K, 6)
            spectra = np.abs(rng.normal(size=(4, K))) * 2
            spectra[1, -1] = 0.0
            ls = tab.logsums(spectra)
            for i, s in enumerate(spectra):
                for t in range(7):
                    direct = sum(
                        zonal_poly(k, s) / gen_pochhammer(K / 2.0, k)
                        for k in enumerate_partitions(t, K))
                    assert math.exp(ls[i, t]) == pytest.approx(direct, rel=1e-10)

    def test_logsums_memory_is_bounded_and_chunking_is_exact(self, monkeypatch):
        tab = ZonalSumTable(2, 60)
        spectra = np.abs(np.random.default_rng(4).normal(size=(5000, 2))) * 3
        tracemalloc.start()
        try:
            chunked = tab.logsums(spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        monkeypatch.setattr(oracle, "_LOGSUMS_CHUNK_BYTES", 2 ** 40)
        assert np.array_equal(chunked, tab.logsums(spectra))

    @pytest.mark.parametrize("K", [3])
    def test_partials_match_differences(self, K):
        spectra = np.abs(np.random.default_rng(K).normal(size=(4, K))) * 2 + 0.1
        log_ds = log_partials(spectra, 20)
        assert log_ds.shape == (4, 21, K)
        h = 1e-6
        for k in range(K):
            step = np.zeros(K)
            step[k] = h
            central = (np.exp(logsums(spectra + step, 20))
                       - np.exp(logsums(spectra - step, 20))) / (2 * h)
            assert np.exp(log_ds[:, 1:, k]) == pytest.approx(central[:, 1:], rel=1e-7)
        assert np.all(log_ds[:, 0] == -np.inf)          # S_0 = 1

    @pytest.mark.parametrize("K", [3])
    def test_partials_at_zero_eigenvalues(self, K):
        spectra = np.array([[0.0] + [1.3, 0.7][:K - 1], [0.0] * K])
        log_ds = log_partials(spectra, 20)
        assert np.all(np.isfinite(log_ds[0, 1:]))
        # one-sided second-order difference in the zero eigenvalue
        h = 1e-5
        step = np.zeros(K)
        step[0] = h
        S = lambda s: np.exp(logsums(s[None, :], 20))[0]
        onesided = (-3 * S(spectra[0]) + 4 * S(spectra[0] + step)
                    - S(spectra[0] + 2 * step)) / (2 * h)
        assert np.exp(log_ds[0, 1:, 0]) == pytest.approx(onesided[1:], rel=1e-5)
        # at the zero spectrum S_1 = tr X / a, the only degree with a slope
        assert np.exp(log_ds[1, 1]) == pytest.approx(np.full(K, 2.0 / K), rel=1e-15)
        assert np.all(np.exp(log_ds[1, 2:]) == 0.0)

    def test_input_validation(self):
        tab = ZonalSumTable(2, 3)
        with pytest.raises(DomainError):
            tab.logsums(np.array([[1.0, -0.5]]))
        with pytest.raises(DomainError):
            tab.logsums(np.ones((3, 3)))


def planar_spectra() -> np.ndarray:
    """240 seeded K=2 spectra over six decades, with exact zeros, ties,
    all-zero rows, a 1e-12 eigenvalue ratio and eigenvalues up to 1e3."""
    rng = np.random.default_rng(6)
    spectra = rng.uniform(0.0, 1.0, size=(240, 2)) * 10.0 ** rng.uniform(-3, 3, size=(240, 1))
    spectra[:20, 0] = 0.0
    spectra[20:40, 1] = 0.0
    spectra[40:60, 1] = spectra[40:60, 0]
    spectra[60:65] = 0.0
    spectra[65:85, 1] = spectra[65:85, 0] * 1e-12
    spectra[85:105, 0] = 1e3
    spectra[105:110] = [[1e3, 1e3], [1e3, 0.0], [0.0, 1e3], [1e3, 1e-9], [1e-12, 1e-12]]
    return spectra


class TestPlanarKernel:
    def test_serves_sums_through_tmax_and_no_partials(self):
        assert logsums(planar_spectra()[:5], 10).shape == (5, 11)
        with pytest.raises(DomainError, match="no partials"):
            log_partials(planar_spectra()[:5], 10)

    def test_matches_the_table_to_degree_60(self):
        spectra = planar_spectra()
        got = logsums(spectra, 60)
        ref = ZonalSumTable(2, 60).logsums(spectra)
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        assert np.all(np.isfinite(got[~np.isneginf(got)]))
        finite = np.isfinite(ref)
        err = np.abs(got[finite] - ref[finite])
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))

    def test_matches_zonal_poly_sums(self):
        spectra = planar_spectra()[::6]
        log_s = logsums(spectra, 8)
        for i, s in enumerate(spectra):
            for t in range(9):
                direct = sum(zonal_poly(k, s) / gen_pochhammer(1.0, k)
                             for k in enumerate_partitions(t, 2))
                assert math.exp(log_s[i, t]) == pytest.approx(direct, rel=1e-10, abs=0.0)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            logsums(np.ones((3, 2)), -1)
        with pytest.raises(DomainError):
            logsums(np.array([[1.0, -0.5]]), 3)
        with pytest.raises(DomainError):
            logsums(np.ones((3, 2, 1)), 3)

    def test_planar_routes_build_no_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a K=2 route built a monomial table")
        monkeypatch.setattr(ZonalSumTable, "__init__", refuse)
        monkeypatch.setattr(oracle, "_zonal_table", refuse)
        rng = np.random.default_rng(12)
        mu = rng.normal(size=(3, 2))
        model = gaussian_model(0.8 * np.eye(3), np.eye(2), mu)
        U = np.array([svd_shape(mu + rng.normal(size=(3, 2))).u for _ in range(4)])
        assert np.all(np.isfinite(batch_shape_logdensity(U, model)))
        assert math.isfinite(shape_logdensity(U[0], model).log_density)
        sample = SampleOfShapes("g", tuple(
            (f"s{i}", svd_shape(mu + rng.normal(size=(3, 2)))) for i in range(6)))
        fit = fit_location(sample, IsotropicKind.GAUSSIAN.generator(sample.Nm1 * sample.K),
                           1.0)
        assert math.isfinite(fit.loglik)


def spatial_spectra() -> np.ndarray:
    """240 seeded K=3 spectra over six decades, with exact zeros in each
    position, ties, all-zero rows, a 1e-12 eigenvalue ratio and eigenvalues
    up to 1e3."""
    rng = np.random.default_rng(7)
    spectra = rng.uniform(0.0, 1.0, size=(240, 3)) * 10.0 ** rng.uniform(-3, 3, size=(240, 1))
    for k in range(3):
        spectra[15 * k:15 * (k + 1), k] = 0.0
    spectra[45:60, 1:] = 0.0
    spectra[60:75, 1] = spectra[60:75, 0]
    spectra[75:90, 2] = spectra[75:90, 0]
    spectra[90:95] = spectra[90:95, :1]
    spectra[95:100] = 0.0
    spectra[100:115, 2] = spectra[100:115, 0] * 1e-12
    spectra[115:130, 0] = 1e3
    spectra[130:136] = [[1e3, 1e3, 1e3], [1e3, 0.0, 0.0], [0.0, 0.0, 1e3],
                        [1e3, 1e-9, 0.0], [1e-12, 1e-12, 1e-12], [0.0, 1e3, 1e3]]
    return spectra


class TestSpatialKernel:
    def test_serves_sums_and_partials_through_tmax(self):
        spectra = spatial_spectra()[:5]
        assert logsums(spectra, 10).shape == (5, 11)
        assert log_partials(spectra, 10).shape == (5, 11, 3)

    def test_matches_the_table_to_degree_40(self):
        spectra = spatial_spectra()
        log_s, log_ds = logsums(spectra, 40), log_partials(spectra, 40)
        ref_s, ref_ds = ZonalSumTable(3, 40).logsums_and_partials(spectra)
        for got, ref in ((log_s, ref_s), (log_ds, ref_ds)):
            assert np.array_equal(np.isneginf(got), np.isneginf(ref))
            assert np.all(np.isfinite(got[~np.isneginf(got)]))
            finite = np.isfinite(ref)
            err = np.abs(got[finite] - ref[finite])
            assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))

    def test_finite_and_consistent_to_the_maximum_degree(self):
        spectra = spatial_spectra()[::10]
        top = zonal._SPATIAL_MAX_DEGREE
        log_s, log_ds = logsums(spectra, top), log_partials(spectra, top)
        empty = ~np.any(spectra > 0, axis=1)
        assert np.all(np.isfinite(log_s[~empty])) and np.all(np.isfinite(log_ds[~empty, 1:]))
        # more nodes and another tilt leave the low degrees unchanged
        low_s, low_ds = logsums(spectra, 40), log_partials(spectra, 40)
        for got, ref in ((log_s[:, :41], low_s), (log_ds[:, :41], low_ds)):
            assert np.array_equal(np.isneginf(got), np.isneginf(ref))
            finite = np.isfinite(ref)
            assert np.all(np.abs(got[finite] - ref[finite])
                          <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))

    def test_matches_zonal_poly_sums(self):
        spectra = spatial_spectra()[::8]
        log_s = logsums(spectra, 8)
        for i, s in enumerate(spectra):
            for t in range(9):
                direct = sum(zonal_poly(k, s) / gen_pochhammer(1.5, k)
                             for k in enumerate_partitions(t, 3))
                assert math.exp(log_s[i, t]) == pytest.approx(direct, rel=1e-10, abs=0.0)

    def test_memory_is_bounded_and_chunking_is_exact(self, monkeypatch):
        spectra = np.abs(np.random.default_rng(5).normal(size=(5000, 3))) * 3
        spectra[:50, 2] = 0.0
        tracemalloc.start()
        try:
            chunked = logsums(spectra, 60)
            chunked_ds = log_partials(spectra, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        # one chunk of the first 300 rows, where the default takes three
        monkeypatch.setattr(zonal, "_LOGSUMS_CHUNK_BYTES", 2 ** 40)
        assert np.array_equal(chunked[:300], logsums(spectra[:300], 60))
        assert np.array_equal(chunked_ds[:300], log_partials(spectra[:300], 60))

    def test_input_validation(self):
        spectra = np.ones((3, 3))
        with pytest.raises(DomainError):
            logsums(spectra, -1)
        with pytest.raises(DomainError):
            log_partials(spectra, zonal._SPATIAL_MAX_DEGREE + 1)
        with pytest.raises(DomainError):
            logsums(np.array([[1.0, -0.5, 2.0]]), 3)
        with pytest.raises(DomainError):
            log_partials(np.ones((3, 2)), 3)

    def test_spatial_routes_build_no_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a K=3 route built a monomial table")
        monkeypatch.setattr(ZonalSumTable, "__init__", refuse)
        monkeypatch.setattr(oracle, "_zonal_table", refuse)
        rng = np.random.default_rng(13)
        mu = rng.normal(size=(3, 3))
        model = gaussian_model(0.8 * np.eye(3), np.eye(3), mu)
        U = np.array([svd_shape(mu + rng.normal(size=(3, 3))).u for _ in range(4)])
        assert np.all(np.isfinite(batch_shape_logdensity(U, model)))
        assert math.isfinite(shape_logdensity(U[0], model).log_density)
        sample = SampleOfShapes("g", tuple(
            (f"s{i}", svd_shape(mu + rng.normal(size=(3, 3)))) for i in range(6)))
        fit = fit_location(sample, IsotropicKind.GAUSSIAN.generator(sample.Nm1 * sample.K),
                           1.0)
        assert math.isfinite(fit.loglik)


class TestKernelDomain:
    @pytest.mark.parametrize("K", [0, 1, 4, 5])
    def test_K_outside_2_and_3_raises(self, K):
        # K is the width of the spectra: padding is the caller's
        with pytest.raises(DomainError, match=r"K in \{2, 3\}"):
            degree_cap(K)
        for kernel in (logsums, log_partials):
            with pytest.raises(DomainError, match=r"K in \{2, 3\}"):
                kernel(np.ones((2, K)), 7)
        with pytest.raises(DomainError, match=r"K in \{2, 3\}"):
            zonal_series_batch(ONES, np.ones((2, K)))

    def test_other_a_or_a_wider_spectrum_raises(self):
        for b, eigs in ((2.0, [0.1, 0.2, 0.3, 0.4]), (2.0, [0.1]), (1.25, [0.1, 0.2]),
                        (0.5, [0.1])):
            with pytest.raises(DomainError, match=r"K in \{2, 3\}"):
                hypergeom_0F1(b, eigs)
        with pytest.raises(DomainError, match="3 eigenvalues is wider than K = 2"):
            hypergeom_0F1(1.0, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("n,K", [(1, 2), (1, 3), (2, 3)])
    def test_short_spectra_are_zero_padded_exactly(self, n, K):
        # C_kappa vanishes for kappa of more parts than nonzero eigenvalues,
        # so the K-column kernel on zero-padded spectra sums what the n-column
        # table sums at a = K/2
        table = ZonalSumTable(n, 30, K / 2.0)
        rng = np.random.default_rng(10 * n + K)
        spectra = np.concatenate([np.zeros((1, n)), np.abs(rng.normal(size=(6, n))) * 3])
        log_s = table.logsums(spectra)
        for eigs, ref in zip(spectra, log_s):
            log, sign, used, _ = zonal_series_batch(ONES, [np.pad(eigs, (0, K - n))],
                                                    SeriesControl(max_degree=30))
            oracle_sum = math.fsum(math.exp(ref[t] - math.lgamma(t + 1))
                                   for t in range(used[0] + 1))
            assert sign[0] * math.exp(log[0]) == pytest.approx(oracle_sum, rel=1e-12)


# every name that left the runtime for svdshape.oracle
_ORACLE_NAMES = ("ZonalSumTable", "_monomial_block", "_block_logsumexp", "_zonal_table",
                 "_table_lock", "_table_cache", "_dominates", "_rho", "_leading_coefficient",
                 "_monomial", "zonal_poly", "Partition", "enumerate_partitions",
                 "gen_pochhammer", "gen_pochhammer_log", "gaussian_shape_logdensity",
                 "stiefel_mc_integral", "_polar_factor", "_STIEFEL_MC_CHUNK", "_FRAME_TOL",
                 "hypergeom_0F1", "log_stiefel_volume", "power_trace_integral_series",
                 "exp_trace_integral_series", "multivariate_gamma", "LogSign")
# every module of the runtime
_RUNTIME_MODULES = ("cli", "densities", "geometry", "inference", "io", "models", "special",
                    "verify", "zonal")


def test_the_runtime_never_imports_the_oracle():
    # the package itself is left out: its lazy exports resolve the moved names
    # by importing the oracle
    code = ("import importlib, json, sys\n"
            f"for name in {_RUNTIME_MODULES!r}:\n"
            "    importlib.import_module('svdshape.' + name)\n"
            "mods = {k: m for k, m in sys.modules.items() if k.startswith('svdshape.')}\n"
            f"print(json.dumps(['svdshape.oracle' in mods, sorted(k + '.' + name "
            f"for k, m in mods.items() for name in {_ORACLE_NAMES!r} if hasattr(m, name))]))")
    src = os.path.dirname(os.path.dirname(svdshape.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == [False, []]


@pytest.mark.parametrize("name", ["hypergeom_0F1", "LogSign"])
def test_moved_names_still_export_from_the_oracle(name):
    # the guard above finds them, like every moved name, in no runtime module
    assert getattr(svdshape, name) is getattr(oracle, name)


def test_every_exported_name_resolves():
    # the lazy exports must follow every name that moves between modules,
    # and drop every name that is removed
    for name in svdshape.__all__:
        getattr(svdshape, name)
    for name in ("central_shape_logdensity", "central_size_and_shape_logdensity",
                 "GeneratorKind", "OptimizerConfig"):
        assert name not in svdshape.__all__
        with pytest.raises(AttributeError):
            getattr(svdshape, name)


class TestFrameIntegrals:
    def test_power_trace_vs_mc(self):
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(2, 2))
        X = rng.normal(size=(2, 2))
        x_eigs = np.linalg.eigvalsh(X @ X.T)
        for p in (1, 2, 3):
            series = power_trace_integral_series(p, float(np.trace(Y)), x_eigs, 2, 2)
            mc, se = stiefel_mc_integral(
                lambda H: np.trace(Y[None] + np.einsum("ij,sjk->sik", X, H),
                                   axis1=1, axis2=2) ** p,
                2, 2, samples=200000, seed=p)
            assert abs(series - mc) < 4 * se

    def test_exp_trace_vs_mc(self):
        rng = np.random.default_rng(8)
        Y = rng.normal(size=(2, 2))
        X = rng.normal(size=(2, 2)) * 0.7
        r = 0.6
        series = exp_trace_integral_series(
            float(np.trace(Y)), np.linalg.eigvalsh(X @ X.T), 2, 2, r)

        def integrand(H):
            tr = np.trace(Y[None] + np.einsum("ij,sjk->sik", X, H),
                          axis1=1, axis2=2)
            return tr * np.exp(r * tr)
        mc, se = stiefel_mc_integral(integrand, 2, 2, samples=200000, seed=17)
        assert abs(series - mc) < 4 * se

    def test_stiefel_volume_known(self):
        # n=1: surface of the (K-1)-sphere
        for K in (2, 3, 4):
            surf = 2 * math.pi ** (K / 2.0) / math.gamma(K / 2.0)
            assert math.exp(log_stiefel_volume(1, K)) == pytest.approx(surf, rel=1e-12)

    def test_mc_determinism(self):
        f = lambda H: np.trace(H, axis1=1, axis2=2) ** 2
        a = stiefel_mc_integral(f, 2, 2, samples=5000, seed=5)
        b = stiefel_mc_integral(f, 2, 2, samples=5000, seed=5)
        assert a == b

    @pytest.mark.parametrize("n,K", [(2, 2), (3, 3), (2, 3), (1, 3)])
    def test_frames_are_orthonormal_polar_factors_of_the_draws(self, n, K):
        # the frames come from eigh of the Gram matrix, not the SVD; every one
        # keeps orthonormal rows to 1e-12, ill-conditioned draws included, and
        # is the polar factor of its Philox draw
        seen = []

        def record(F):
            seen.append(F.copy())
            return np.zeros(len(F))

        stiefel_mc_integral(record, n, K, samples=200000, seed=11)
        F = np.concatenate(seen)
        rng = np.random.Generator(np.random.Philox(11))
        g = np.concatenate([rng.standard_normal((b, n, K)) for b in (65536,) * 3 + (3392,)])
        u, sv, vt = np.linalg.svd(g, full_matrices=False)
        assert n == 1 or np.max(sv[:, 0] / sv[:, -1]) > 1e3   # some draws are ill-conditioned
        assert np.max(np.abs(F @ F.transpose(0, 2, 1) - np.eye(n))) <= 1e-12
        assert np.max(np.abs(F - u @ vt)) <= 1e-9

    def test_singular_draw_takes_the_svd(self):
        g = np.array([[[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]], [[0.3, -1.0, 2.0], [1.0, 0.4, 0.2]]])
        F = _polar_factor(g)
        assert np.all(np.isfinite(F))
        assert np.max(np.abs(F @ F.transpose(0, 2, 1) - np.eye(2))) <= 1e-12
