"""Certified density criteria for Gabor frames, and the odd-window barrier.

The package computes rigorous enclosures of the frame criterion
delta_g(omega) = (1/2)*sqrt(S_0/S_1) built from weighted lattice sums
of |ghat|^2, certifies rectangular-lattice frames from it, exhibits the
structural ceiling at 1/2 for windows whose Fourier transform vanishes
at the origin, and reduces arbitrary planar lattices to the square case
through Iwasawa-factored metaplectic operators.  A finite-dimensional
frame-operator oracle supplies independent desk-scale evidence.
"""

from .barrier import (
    delta_at_zero,
    h1_barrier_scan,
    odd_barrier_suite,
)
from .certify_gaussian import gaussian_certificate, geometric_tail
from .criterion import (
    DensityProfile,
    certify,
    certify_rect,
    delta_g,
    lattice_sum,
    min_delta,
)
from .errors import (
    DegenerateAngleError,
    DegenerateError,
    DivergentSeriesError,
    GaborcertError,
    NumericalError,
    ParameterNotRepresentable,
    PreconditionError,
    TruncationRiskWarning,
    ZeroSumError,
)
from .lattice import (
    IwasawaFactors,
    Lattice2D,
    iwasawa,
    rect,
    reduce_general,
    rotation_matrix,
)
from .metaplectic import sample_window
from .oracle import (
    build_model,
    equivalence_check,
    finite_frame_bounds,
    model_for,
    snap_lattice,
)
from .window import (
    Envelope,
    Parity,
    Window,
    chirp_window,
    combine,
    dilate,
    gaussian,
    hermite,
    read_sampled_csv,
    sample_grid,
    sampled_window,
    window_from_csv,
    write_sampled_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateAngleError",
    "DegenerateError",
    "DensityProfile",
    "DivergentSeriesError",
    "Envelope",
    "GaborcertError",
    "IwasawaFactors",
    "Lattice2D",
    "NumericalError",
    "ParameterNotRepresentable",
    "Parity",
    "PreconditionError",
    "TruncationRiskWarning",
    "Window",
    "ZeroSumError",
    "build_model",
    "certify",
    "certify_rect",
    "chirp_window",
    "combine",
    "delta_at_zero",
    "delta_g",
    "dilate",
    "equivalence_check",
    "finite_frame_bounds",
    "gaussian",
    "gaussian_certificate",
    "geometric_tail",
    "h1_barrier_scan",
    "hermite",
    "iwasawa",
    "lattice_sum",
    "min_delta",
    "model_for",
    "odd_barrier_suite",
    "read_sampled_csv",
    "rect",
    "reduce_general",
    "rotation_matrix",
    "sample_grid",
    "sample_window",
    "sampled_window",
    "snap_lattice",
    "window_from_csv",
    "write_sampled_csv",
]
