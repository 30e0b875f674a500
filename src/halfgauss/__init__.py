"""Exact evaluation of quadratic exponential sums over Z_d, with qudit
Clifford strong/weak simulation and Holant evaluators built on top of one
certified evaluator.  All arithmetic is exact (cyclotomic field elements
with rational coefficients); the brute-force oracles in `oracle` are the
ground truth for every fast path.
"""

from .cyclotomic import (
    CyclotomicNumber,
    SignConvention,
    from_omega_counts,
    from_xi_counts,
    pretty,
    root_of_unity,
    sqrt_int,
    to_json_dict,
    xi_pow,
)
from .errors import (
    AperiodicPolynomialError,
    BudgetExceededError,
    InternalConsistencyError,
)
from .expsum import (
    SumValue,
    check_periodicity,
    eval_gauss_quadratic,
    eval_half_gauss,
    eval_half_gauss_with_convention,
    gap2,
    random_periodic_form,
)
from .gauss import gauss_sum, half_gauss_sum, q_constant
from .numtheory import CrtSplit, crt_split, extended_gcd, factorize, jacobi_symbol
from .oracle import (
    SumDescriptor,
    brute_half_gauss,
    brute_sum,
    count_solutions,
    fourier_zero_identity_check,
)
from .polynomials import IntPolynomial, QuadraticForm, format_polynomial, parse_polynomial
from .clifford import (
    Circuit,
    Gate,
    Labeling,
    NormalizedCircuit,
    amplitude,
    circuit_from_polynomial,
    normalize,
    parse_circuit_text,
    phase_polynomial,
    probability_marginal,
    sample,
    sample_many,
    statevector,
    verify_gate_relations,
)
from .holant import (
    AffineSignature,
    ProductSignature,
    SignatureGrid,
    TableSignature,
    Vertex,
    degenerate,
    grid_from_json,
    holant_affine,
    holant_brute,
    holant_product,
)
from .hardness import (
    TwoPowerResult,
    TwoPowerSum,
    check_periodicity_2k,
    classification_evidence,
    degree3_zero_count_demo,
    eval_two_power,
    verify_gadgets,
)

__all__ = [name for name in dir() if not name.startswith("_")]
