"""Box-ball systems through crystal combinatorics.

Exact integer machinery for soliton cellular automata: single-row
crystals and their tensor products, the combinatorial R-matrix with its
energy function, carrier time evolutions with conserved quantities, and
the factorized soliton scattering rule.
"""

from . import crystal, dynamics, rmatrix, solitons, tensor
from .crystal import apply_e, apply_f, elements, epsilon, phi
from .dynamics import CarrierTrace, EnergySpectrum, State, carrier_pass, evolve, evolve_inverse, spectrum
from .rmatrix import Affine, Pairing, apply_r, iso_oracle, iso_single, pair, yang_baxter_check
from .solitons import (
    ScatteringReport,
    Soliton,
    bump_tableau,
    detect,
    label,
    predict_m_body,
    predict_two_body,
    run_scattering,
    state_with_solitons,
)
from .tensor import reduce_signature, signature, tensor_e, tensor_f

__version__ = "0.1.0"
