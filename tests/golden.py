"""Expected clone analysis for every standard-table base (hand-derived).

Each row: base connective names -> (subset flags, contains flags,
(ext_case, cred_case, skep_case), (ext_engine, cred_engine, skep_engine)).

The R0/R1 rows use the textbook bases {and, xor} and {or, eq}: every
{and, nimp}-term is bounded above by one of its variables (and dually
every {or, imp}-term is bounded below by one), so those sets generate
only S1 resp. S0 and cannot be bases of R0/R1.
"""

GOLDEN_ROWS = {
    "BF": (
        ("and", "not"),
        set(),
        {"S1", "D", "S11", "S00", "S10", "D2", "N2", "L0", "L2", "V2", "E2", "I2"},
        ("SigmaP2", "SigmaP2", "PiP2"),
        ("generic", "generic", "generic"),
    ),
    "R0": (
        ("and", "xor"),
        set(),
        {"S1", "S11", "S00", "S10", "D2", "L0", "L2", "V2", "E2", "I2"},
        ("SigmaP2", "SigmaP2", "PiP2"),
        ("generic", "generic", "generic"),
    ),
    "R1": (
        ("or", "eq"),
        {"R1"},
        {"S00", "S10", "D2", "L2", "V2", "E2", "I2"},
        ("trivial", "coNP", "coNP"),
        ("trivial_yes", "r1_unique", "r1_unique"),
    ),
    "M": (
        ("or", "and", "bot", "top"),
        {"M"},
        {"S11", "S00", "S10", "D2", "V2", "E2", "I2"},
        ("DeltaP2", "DeltaP2", "DeltaP2"),
        ("monotone_iterative", "monotone_iterative", "monotone_iterative"),
    ),
    "S0": (
        ("imp",),
        {"R1"},
        {"S00", "V2", "I2"},
        ("trivial", "coNP", "coNP"),
        ("trivial_yes", "r1_unique", "r1_unique"),
    ),
    "S1": (
        ("nimp",),
        set(),
        {"S1", "S11", "S10", "E2", "I2"},
        ("SigmaP2", "SigmaP2", "PiP2"),
        ("generic", "generic", "generic"),
    ),
    "S00": (
        ("s00",),
        {"R1", "M"},
        {"S00", "V2", "I2"},
        ("trivial", "coNP", "coNP"),
        ("trivial_yes", "r1_unique", "r1_unique"),
    ),
    "S10": (
        ("s10",),
        {"R1", "M"},
        {"S10", "E2", "I2"},
        ("trivial", "coNP", "coNP"),
        ("trivial_yes", "r1_unique", "r1_unique"),
    ),
    "S11": (
        ("s10", "bot"),
        {"M"},
        {"S11", "S10", "E2", "I2"},
        ("DeltaP2", "DeltaP2", "DeltaP2"),
        ("monotone_iterative", "monotone_iterative", "monotone_iterative"),
    ),
    "D": (
        ("dbase",),
        set(),
        {"D", "D2", "N2", "L2", "I2"},
        ("SigmaP2", "SigmaP2", "PiP2"),
        ("generic", "generic", "generic"),
    ),
    "D2": (
        ("maj",),
        {"R1", "M"},
        {"D2", "I2"},
        ("trivial", "coNP", "coNP"),
        ("trivial_yes", "r1_unique", "r1_unique"),
    ),
    "L": (
        ("xor", "top"),
        {"L"},
        {"N2", "L0", "L2", "I2"},
        ("NP", "NP", "coNP"),
        ("affine_guess", "affine_guess", "affine_guess"),
    ),
    "L0": (
        ("xor",),
        {"L"},
        {"L0", "L2", "I2"},
        ("NP", "NP", "coNP"),
        ("affine_guess", "affine_guess", "affine_guess"),
    ),
    "L1": (
        ("eq",),
        {"R1", "L", "L1"},
        {"L2", "I2"},
        ("trivial", "P", "P"),
        ("trivial_yes", "poly_fragment", "poly_fragment"),
    ),
    "L2": (
        ("xor3",),
        {"R1", "L", "L1"},
        {"L2", "I2"},
        ("trivial", "P", "P"),
        ("trivial_yes", "poly_fragment", "poly_fragment"),
    ),
    "L3": (
        ("xor3", "not"),
        {"L"},
        {"N2", "L2", "I2"},
        ("NP", "NP", "coNP"),
        ("affine_guess", "affine_guess", "affine_guess"),
    ),
    "V": (
        ("or", "bot", "top"),
        {"M", "V"},
        {"V2", "I2"},
        ("P", "P", "P"),
        ("poly_fragment", "poly_fragment", "poly_fragment"),
    ),
    "V2": (
        ("or",),
        {"R1", "M", "V"},
        {"V2", "I2"},
        ("trivial", "P", "P"),
        ("trivial_yes", "poly_fragment", "poly_fragment"),
    ),
    "E": (
        ("and", "bot", "top"),
        {"M", "E"},
        {"E2", "I2"},
        ("P", "P", "P"),
        ("poly_fragment", "poly_fragment", "poly_fragment"),
    ),
    "E2": (
        ("and",),
        {"R1", "M", "E"},
        {"E2", "I2"},
        ("trivial", "P", "P"),
        ("trivial_yes", "poly_fragment", "poly_fragment"),
    ),
    "N": (
        ("not", "bot", "top"),
        {"L", "N"},
        {"N2", "I2"},
        ("NP", "NP", "coNP"),
        ("affine_guess", "affine_guess", "affine_guess"),
    ),
    "N2": (
        ("not",),
        {"L", "N"},
        {"N2", "I2"},
        ("NP", "NP", "coNP"),
        ("affine_guess", "affine_guess", "affine_guess"),
    ),
    "I": (
        ("id", "bot", "top"),
        {"M", "L", "V", "E", "N", "I"},
        {"I2"},
        ("NL", "NL", "NL"),
        ("reachability", "reachability", "reachability"),
    ),
    "I2": (
        ("id",),
        {"R1", "M", "L", "L1", "V", "E", "N", "I"},
        {"I2"},
        ("trivial", "NL", "NL"),
        ("trivial_yes", "reachability", "reachability"),
    ),
}

# Arity-4 bases: row -> (base, expected), where a base entry is a builtin
# name or a (name, arity, table) connective and expected has the shape of
# a GOLDEN_ROWS value without its base.  With Tk = "at least k of 4",
# S1^3 = [nimp, T3] and S0^3 = [imp, T2] lie strictly between S1 and S1^2
# (S0 and S0^2): they miss maj, which S1^2 and S0^2 contain, so the named
# clones inside them are those inside S1 (S0) and the rows are the S1 and
# S0 rows.  G4 lies in none of the property clones, so it generates BF.
T3_OF_4 = ("t3of4", 4, "0000000100010111")
T2_OF_4 = ("t2of4", 4, "0001011101111111")
G4 = ("g4", 4, "1101001110010100")

GOLDEN_ROWS_ARITY4 = {
    "S1^3": (("nimp", T3_OF_4), GOLDEN_ROWS["S1"][1:]),
    "S0^3": (("imp", T2_OF_4), GOLDEN_ROWS["S0"][1:]),
    "BF4": ((G4,), GOLDEN_ROWS["BF"][1:]),
}

# One generating set of ternary connectives (8-bit table codes, bit i the
# value at assignment i) for each of the 46 clones that have a ternary
# base, in order of slice size.  Found once, offline: the slices of the
# 256 single ternary connectives, closed under pairwise joins of their
# generating sets until no new arity-3 slice appeared (about 20 s).
TERNARY_CLONE_BASES = (
    (0xAA,), (0x00,), (0x96,), (0xE8,), (0xFF,), (0x00, 0xFF), (0x0F,), (0x80,),
    (0xEE,), (0x00, 0x0F), (0x00, 0x80), (0x00, 0xEE), (0x3C,), (0x69,), (0x80, 0xFF),
    (0x8E,), (0x99,), (0xEE, 0xFF), (0x00, 0x80, 0xFF), (0x00, 0xEE, 0xFF), (0xA8,),
    (0xEA,), (0x00, 0xA8), (0x80, 0xE8), (0xE8, 0xEA), (0xEA, 0xFF), (0x00, 0xE8),
    (0xE8, 0xFF), (0x00, 0x69), (0x17,), (0x80, 0xEA), (0x00, 0xEA), (0x82,),
    (0xA8, 0xFF), (0xAE,), (0x00, 0xA8, 0xFF), (0x82, 0xE8), (0xAE, 0xE8), (0x02,),
    (0xAB,), (0x68,), (0xE9,), (0x86,), (0x06,), (0x81,), (0x01,),
)
