"""otplab: simulation and cryptanalysis of fake one-time-pad schemes.

Two quantum-communication efficiency tricks that masquerade as one-time
pads are simulated here and attacked exactly: keying a broadcast with
message bits (the xor-chain scheme) and keying it with correlated
entanglement-swapping outcomes (the es-qkd scheme).  A correct pad serves
as the baseline.  Leakage is exact: full enumeration for xor-chain, one
stored plaintext slice shared by every ciphertext for the baseline, and the
swap-outcome support (key blocks allowed per swap) for es-qkd.
Import each name from its module, e.g. `from otplab.infotheory import Distribution`.
"""

__version__ = "0.1.0"
