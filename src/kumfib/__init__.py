"""kumfib: K3 fibrations with a fibrewise Nikulin involution, computationally.

Exact modular-parameter arithmetic, the explicit one-parameter family with
its eightfold cover tower and dihedral deck action, Kodaira classification
of the attached elliptic surfaces, numerical monodromy of the six fiber
locations, branched-cover combinatorics of the fixed curve, and the
Calabi-Yau admissibility and Hodge-number formulas for the Kummer-fibred
threefolds built from covers of the modular base.
"""

from .exact import (
    ExactAlgebraError,
    Place,
    PoleError,
    Polynomial,
    RationalFunction,
    compose,
    divisor_of,
    irreducible_factors,
    order_at,
)
from .family import (
    LAMBDA_FAMILY,
    CoverTower,
    DeckElement,
    KummerPoint,
    LambdaFamily,
    all_deck_elements,
    apply_involution,
    cover_tower,
    deck_element,
    e1_model,
    e2_model,
    lambda_of_nu,
    params_of_lambda,
)
from .hodge import (
    BranchData,
    CYReport,
    FiberInventory,
    UnsupportedError,
    analyze_branch_data,
    analyze_cover,
    cy_condition,
    fiber_inventory,
    fixed_curve,
    h11,
    h21,
    reference_constants,
    smoothness,
)
from .hurwitz import (
    C2_COMPONENTS,
    HurwitzCover,
    HurwitzError,
    SearchResult,
    branch_data_of,
    genus,
    pullback,
    regular_deck_cover,
    search_tuples,
    validate,
)
from .kodaira import KodairaFiber, WeierstrassFamily, c_invariants, classify, j_function
from .monodromy import (
    REFERENCE_TABLE,
    DeckParity,
    LoopSpec,
    MonodromyError,
    PunctureTable,
    deck_parity,
    puncture_table,
    track_loop,
)
from .mpolar import (
    CuspError,
    ModularParams,
    QuadraticSurd,
    SigmaPi,
    discriminant_delta,
    fiber_locus,
    j_pair,
    normalize,
    sigma_pi,
)
from .permutations import Permutation

__version__ = "0.1.0"
