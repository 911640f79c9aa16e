"""Numerical semigroups with a focus on irreducible decompositions.

The central objects are numerical semigroups in Kunz coordinates
(multiplicity plus Apery vector), their irreducible oversemigroups, and the
set of lengths of their irredundant decompositions into irreducibles.
"""

from .classify import (PSEUDOSYMMETRIC, REDUCIBLE, SYMMETRIC, IrreducibilityReport,
                       add_special_gap, classify, is_irreducible, pseudo_frobenius,
                       special_gaps)
from .constructions import M6CoverPair, m4_cover, m6_covers, m6_shorten
from .core import (N, AperySet, NumericalSemigroup, from_gaps, from_generators,
                   intersect_all)
from .decompose import (DEFAULT_BUDGET, Budget, Decomposition, DecompositionCheck,
                        INVALID, LengthSpectrum, VALID_IRREDUNDANT, VALID_REDUNDANT,
                        check_interval, check_msbound, irreducible_oversemigroups,
                        irreducibles_with_frobenius, is_decomposition,
                        kunz_semigroups, length_spectrum, minimum_cover,
                        miss_set, m_set, semigroups_up_to_genus)
from .errors import (BudgetExceeded, FullSemigroup, InternalAssertion, LimitExceeded,
                     NotApplicable, NotClosed, NotCofinite, NotElement,
                     NotOversemigroup, NotSpecialGap, NsgError, OutOfRange,
                     SearchFailed, UndefinedValue, WrongMultiplicity)
from .ordinary import (D, DFamily, H, I_irr, T_irr, TwoAdicForm, d_family_lengths,
                       min_ordinary_length, n_min, special_gaps_of_ordinary,
                       two_adic)

__version__ = "0.1.0"

__all__ = [
    "AperySet", "Budget", "BudgetExceeded", "D", "DEFAULT_BUDGET",
    "DFamily", "Decomposition", "DecompositionCheck", "FullSemigroup", "H",
    "INVALID", "I_irr", "InternalAssertion", "IrreducibilityReport",
    "LengthSpectrum", "LimitExceeded", "M6CoverPair", "N", "NotApplicable",
    "NotClosed", "NotCofinite", "NotElement", "NotOversemigroup",
    "NotSpecialGap", "NsgError", "NumericalSemigroup", "OutOfRange",
    "PSEUDOSYMMETRIC", "REDUCIBLE", "SYMMETRIC", "SearchFailed", "T_irr",
    "TwoAdicForm", "UndefinedValue", "VALID_IRREDUNDANT", "VALID_REDUNDANT",
    "WrongMultiplicity", "add_special_gap", "check_interval", "check_msbound",
    "classify", "d_family_lengths", "from_gaps", "from_generators",
    "intersect_all", "irreducible_oversemigroups",
    "irreducibles_with_frobenius", "is_decomposition", "is_irreducible",
    "kunz_semigroups", "length_spectrum", "m4_cover", "m6_covers",
    "m6_shorten", "m_set", "min_ordinary_length", "minimum_cover", "miss_set",
    "n_min", "pseudo_frobenius", "semigroups_up_to_genus",
    "special_gaps", "special_gaps_of_ordinary", "two_adic",
]
