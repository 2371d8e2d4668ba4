"""kumfib: K3 fibrations with a fibrewise Nikulin involution, computationally.

Exact modular-parameter arithmetic, the explicit one-parameter family with
its eightfold cover tower and dihedral deck action, Kodaira classification
of the attached elliptic surfaces, numerical monodromy of the six fiber
locations, branched-cover combinatorics of the fixed curve, and the
Calabi-Yau admissibility and Hodge-number formulas for the Kummer-fibred
threefolds built from covers of the modular base.

The package re-exports only the names of the README's library quick tour;
everything else is imported from its module, such as kumfib.exact or
kumfib.hurwitz.
"""

from .family import LAMBDA_OF_NU, e1_model
from .hodge import analyze_branch_data, analyze_cover
from .hurwitz import BranchData, regular_deck_cover
from .kodaira import classify
from .monodromy import puncture_table

__version__ = "0.1.0"
