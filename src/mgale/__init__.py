"""mgale: a numerical laboratory for almost-everywhere convergence of
function series, built on dyadic martingale analysis.

Subpackages by theme:

  torus       grid / Fourier carriers on R/Z
  martingale  dyadic filtration, details, inequality audits
  modulus     L^p modulus of continuity, dyadic approximation audit
  dilated     series sum a_k f(n_k x), diagnostics, sharpness examples
  davenport   sum sin(2 pi m x)/m^lambda, Gram matrices, frame bounds
  transfer    doubling-map transfer operator and ergodic series
  riesz       Riesz products on the torus
  symbolic    non-homogeneous symbolic spaces and equilibrium states
  cli         batch experiment front door (``mgale`` entry point)
"""

__version__ = "0.1.0"
