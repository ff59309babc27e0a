"""Exact size-and-shape and shape densities for landmark data under
non-isotropic, non-central elliptical models, with likelihood inference.

Core pipeline: landmark files -> Helmertized, whitened configurations ->
SVD shape coordinates -> truncated zonal-polynomial densities -> ML fits,
modified-BIC model comparison, two-group likelihood-ratio test.
"""

from .densities import (DensityValue, IsotropicKind, batch_shape_logdensity,
                        central_shape_logdensity,
                        central_size_and_shape_logdensity,
                        gaussian_shape_logdensity, isotropic_shape_logdensity,
                        shape_logdensity, size_and_shape_logdensity)
from .errors import (DegenerateConfigurationError, DomainError, NumericError,
                     ParseError, SeriesTruncationError, SvdShapeError)
from .geometry import (LandmarkSet, Mode, ShapeCoords, angles_to_unitvec,
                       helmert_submatrix, polar_jacobian, preprocess,
                       preshape_angles, svd_shape, unitvec_to_angles)
from .inference import (EvidenceGrade, FitResult, IsotropicLikelihood,
                        LrTestResult, OptimizerConfig, SampleOfShapes,
                        bic_star, evidence_grade, fit_location,
                        log_likelihood, lr_test_equal_means)
from .io import emit_landmarks, ingest_landmarks, read_matrix
from .models import (GeneratorKind, GeneratorSpec, ModelSpec, gaussian_model,
                     h_derivative, h_value, kotz_model, radial_integral)
from .special import LogSign, chi_square_sf
from .verify import mc_normalization, sample_landmarks, simulation_vs_density
from .zonal import (SeriesControl, SeriesResult, hypergeom_0F1,
                    stiefel_mc_integral, zonal_series)

__version__ = "0.1.0"
