"""The package's numeric tolerances, each defined once."""

# A probability vector must sum to 1 within this.
PROB_SUM_TOL = 1e-12
# Absolute slack when comparing derived floats: bits of information,
# state norms, rates and posterior probabilities.
FLOAT_TOL = 1e-9
