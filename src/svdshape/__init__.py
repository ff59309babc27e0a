"""Exact size-and-shape and shape densities for landmark data under
non-isotropic, non-central elliptical models, with likelihood inference.

Core pipeline: landmark files -> Helmertized, whitened configurations ->
SVD shape coordinates -> shape densities (closed form at K = 2, zonal
series otherwise) -> ML fits, modified-BIC model comparison, two-group
likelihood-ratio test.

The names below load their module on first use (PEP 562), so a command
imports only the modules it runs.
"""

import importlib

_EXPORTS = {
    "densities": ("DensityValue", "batch_shape_logdensity", "shape_logdensity",
                  "size_and_shape_logdensity"),
    "errors": ("DegenerateConfigurationError", "DomainError", "NumericError",
               "ParseError", "SeriesTruncationError", "SvdShapeError"),
    "geometry": ("LandmarkSet", "Mode", "SampleOfShapes", "ShapeCoords",
                 "angles_to_unitvec", "helmert_submatrix", "polar_jacobian",
                 "preprocess", "preshape_angles", "svd_shape", "unitvec_to_angles"),
    "inference": ("EvidenceGrade", "FitResult", "LrTestResult", "OptimizerConfig",
                  "ShapeLikelihood", "bic_star", "evidence_grade", "fit_location",
                  "log_likelihood", "lr_test_equal_means"),
    "io": ("emit_landmarks", "ingest_landmarks", "read_matrix"),
    "models": ("GeneratorKind", "GeneratorSpec", "IsotropicKind", "ModelSpec",
               "gaussian_model", "h_value", "kotz_model"),
    "oracle": ("gaussian_shape_logdensity", "h_derivative", "isotropic_shape_logdensity",
               "radial_integral", "stiefel_mc_integral"),
    "special": ("LogSign", "chi_square_sf"),
    "verify": ("mc_normalization", "sample_landmarks", "simulation_vs_density"),
    "zonal": ("SeriesControl", "hypergeom_0F1"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
