"""The package's numeric tolerances, each defined once."""

# A probability vector must sum to 1 within this.
PROB_SUM_TOL = 1e-12
# Swap-projection probabilities below this are treated as exact zeros so
# support sizes are crisp; every true value there is a multiple of 1/4.
PROB_CLAMP = 1e-12
# Absolute slack when comparing derived floats: bits of information,
# rates and posterior probabilities.
FLOAT_TOL = 1e-9
