"""Checked-in expectation tables for the `verify` command.

Each table lists known ground truth: semigroups by generators together with
their full set of irredundant decomposition lengths, the displayed
decompositions of the ordinary semigroups H_28 and H_56, and the minimum
decomposition length of H_m for m = 4..80.  Component specs use the same
grammar as the CLI: "T:20" and "I:20" for the tail and pruned irreducible
families, otherwise a generator list.
"""

# multiplicity 5: every interval subset of {2,3,4} occurs
M5_SPECTRA = [
    ((5, 6, 7), (2,)),
    ((5, 6, 13, 14), (3,)),
    ((5, 11, 12, 13, 14), (4,)),
    ((5, 11, 13, 19), (2, 3)),
    ((5, 12, 13, 14, 16), (3, 4)),
    ((5, 21, 22, 33, 34), (2, 3, 4)),
]

# multiplicity 6: every interval subset of {2,3,4,5} except the three ruled
# out by the shortening moves (a length-5 decomposition forces a length-4 one
# and a length-4 forces a length-3), i.e. except {5}, {4} and {4,5}
M6_SPECTRA = [
    ((6, 7, 10), (2,)),
    ((6, 7, 8, 17), (3,)),
    ((6, 7, 9, 17), (2, 3)),
    ((6, 7, 15, 16, 17), (3, 4)),
    ((6, 8, 13, 15, 17), (2, 3, 4)),
    ((6, 13, 14, 15, 16, 17), (3, 4, 5)),
    ((6, 16, 14, 19, 21, 23), (2, 3, 4, 5)),
]

# multiplicity 7: every interval subset of {2,...,6}
M7_SPECTRA = [
    ((7, 8, 9), (2,)),
    ((7, 8, 9, 10), (3,)),
    ((7, 8, 10, 11), (2, 3)),
    ((7, 15, 17, 33), (4,)),
    ((7, 8, 10, 19), (3, 4)),
    ((7, 15, 17, 18, 26), (2, 3, 4)),
    ((7, 15, 26, 27, 31, 32), (5,)),
    ((7, 8, 17, 18, 19, 20), (4, 5)),
    ((7, 10, 15, 16, 18, 19), (3, 4, 5)),
    ((7, 15, 18, 24, 26, 34), (2, 3, 4, 5)),
    ((7, 22, 23, 24, 25, 26, 27), (6,)),
    ((7, 16, 17, 18, 19, 20, 22), (5, 6)),
    ((7, 15, 16, 17, 18, 19, 20), (4, 5, 6)),
    ((7, 16, 18, 20, 22, 24, 26), (3, 4, 5, 6)),
    ((7, 24, 25, 27, 30, 36, 40), (2, 3, 4, 5, 6)),
]

# the five displayed decompositions of H_28, with their lengths;
# lines 1..4 coincide (as sets) with D(28, 0..3)
H28_DECOMPOSITIONS = [
    (("I:16", "I:24", "I:20", "I:26", "I:27"), 5),
    (("I:16", "I:24", "I:20", "I:26", "I:25", "T:27"), 6),
    (("I:16", "I:24", "I:20", "I:22", "I:25", "T:27", "T:26"), 7),
    (("I:16", "I:24", "I:20", "I:22", "I:23", "T:27", "T:26", "T:25"), 8),
    (("I:16", "I:20", "I:22", "I:23", "T:27", "T:26", "T:25", "T:24"), 8),
]

# shorter-than-the-family decompositions: both have length 4, below the
# family minimum (5 for H_28, 6 for H_56)
SHORT_ORDINARY_DECOMPOSITIONS = [
    ("H:28", ("I:27", "I:26", "7,11,12,17", "9,10,13,16,17,21")),
    ("H:56", ("I:55", "I:54", "8,15,19,41", "7,15,23,31,39,47")),
]

# min(m), the least length of an irredundant decomposition of the ordinary
# semigroup H(m), for m = 4..80: exact minimum covers from
# `ordinary.min_ordinary_length`, whose witnesses all passed
# `is_decomposition`.  It is n_min(m) - 1 or n_min(m) everywhere except at
# m = 56 (4 against 6), and 6 only at m = 65.
ORDINARY_MIN_LENGTH = {
    4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 3, 10: 3, 11: 3, 12: 3, 13: 4,
    14: 4, 15: 4, 16: 4, 17: 4, 18: 4, 19: 4, 20: 4, 21: 4, 22: 4, 23: 4,
    24: 4, 25: 5, 26: 5, 27: 5, 28: 4, 29: 5, 30: 4, 31: 4, 32: 4, 33: 5,
    34: 5, 35: 5, 36: 5, 37: 5, 38: 4, 39: 4, 40: 4, 41: 5, 42: 5, 43: 5,
    44: 5, 45: 5, 46: 5, 47: 5, 48: 4, 49: 5, 50: 5, 51: 5, 52: 5, 53: 5,
    54: 5, 55: 5, 56: 4, 57: 5, 58: 5, 59: 5, 60: 5, 61: 5, 62: 5, 63: 5,
    64: 5, 65: 6, 66: 5, 67: 5, 68: 5, 69: 5, 70: 5, 71: 5, 72: 5, 73: 5,
    74: 5, 75: 5, 76: 5, 77: 5, 78: 5, 79: 5, 80: 5,
}
