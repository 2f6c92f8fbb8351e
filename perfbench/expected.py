"""Recorded expected answers for the jobs whose inputs do not depend on the seed.

Word lists are recorded as `workloads.digest` values (the first 16 hex
digits of the SHA-256 of the words joined by newlines).  Every count and
digest below was produced by revfree 0.1.0 and agrees with the independent
enumerator in `reference.py`; `test_perfbench.py` re-derives the cheap ones.
"""

# Claim id -> evidence items `verify-paper --json` must report.  Other
# evidence keys may be added by later versions without failing the check.
PAPER_EVIDENCE = {
    "T1": {
        "factors": ["01", "12", "20"],
        "extensions": {
            "01": "01201201201201201201201201201201",
            "02": "02102102102102102102102102102102",
            "10": "10210210210210210210210210210210",
            "12": "12012012012012012012012012012012",
            "20": "20120120120120120120120120120120",
            "21": "21021021021021021021021021021021",
        },
    },
    "T2": {
        "factors": ["001", "011", "012", "112", "120", "200", "201"],
        "marker_occurrences": 4,
        "synchronized": True,
    },
    "T3": {
        "maxima": {"2": 2, "3": 4, "4": 8},
        "witness_counts": {"2": 2, "3": 2, "4": 2},
    },
    "T4": {
        "factors": ["00101", "01011", "01100", "10010", "10110", "11001"],
        "prefixes_checked": 121,
    },
    "T5": {
        "family_size": 12,
        "fact1": True,
        "fact2": True,
        "valid_count_len9": 32,
        "exceptions": [],
    },
    "T6": {
        "factors": [
            "000101", "001011", "010110", "010111", "011000", "011001", "011100",
            "100010", "100101", "101100", "101110", "110001", "110010", "111000",
            "111001",
        ],
        "factor_count": 15,
        "synchronized": True,
        "decode_ok": True,
    },
    "T7": {
        "max_length": 20,
        "witness_count": 24,
        "first_witness": "01201320120320132032",
        "nodes_explored": 2945,
    },
    "T8": {
        "squarefree_preimages": 12,
        "factors": ["01", "12", "13", "14", "20", "30", "40"],
        "prefix_ok": True,
    },
}

# (alphabet, k, squarefree, length) -> (count, digest of the word list)
ENUMERATE = {
    (2, 6, False, 20): (4112, "282dcc67fae03a54"),
    (2, 6, False, 21): (5316, "e5f444580da36bc3"),
    (2, 6, False, 22): (6850, "7af4be679a65556d"),
    (2, 6, False, 23): (8812, "a007a2c5860ce359"),
    (2, 6, False, 24): (11342, "1b2644b614728141"),
    (2, 6, False, 25): (14596, "5cd0bc3e6f097794"),
    (2, 6, False, 26): (18782, "30bce649c14ef18b"),
    (2, 6, False, 27): (24192, "6617cd0223af38d5"),
    (2, 6, False, 28): (31144, "b5d56b73a0886fef"),
    (2, 6, False, 29): (40068, "185954d22e173e6b"),
    (2, 6, False, 30): (51574, "77fde039bae16f47"),
    (2, 6, False, 31): (66428, "30c616248a2bd53b"),
    (2, 6, False, 32): (85814, "f7a2d6ededae7691"),
    (2, 6, False, 33): (110956, "ec8a58a697431b7a"),
    (2, 6, False, 34): (143576, "844f8ad0dca1a316"),
    (3, 3, False, 18): (25086, "91e052a43ed6ad54"),
    (5, 2, True, 10): (43560, "0c6f2a0628f0d181"),
}

ENUM_WIDE_JOBS = ((2, 6, False, 28), (3, 3, False, 18), (5, 2, True, 10))

# (alphabet, k, squarefree, cap, fix_first) ->
#     (outcome, max length, witness count, nodes explored, digest of witnesses)
# An exceeds-cap outcome has one witness, the sample survivor of length cap.
SEARCH = {
    (4, 3, True, 800, False): ("exceeds-cap", 800, 1, 1367, "792a9425f0f10fd3"),
    (5, 2, True, 800, False): ("exceeds-cap", 800, 1, 842, "e246d5a022dd3e4e"),
    (4, 2, True, 64, False): ("finite", 20, 24, 2945, "0b4760d6f199f162"),
    (4, 2, True, 64, True): ("finite", 20, 6, 737, "6ee320bdd4e991d1"),
    (2, 5, False, 512, False): ("exceeds-cap", 512, 1, 597, "8248e24812e307d9"),
    (4, 3, True, 100, False): ("exceeds-cap", 100, 1, 152, "e23e645812ecfd51"),
    (4, 3, True, 150, False): ("exceeds-cap", 150, 1, 233, "4e8de81f5ece4602"),
    (4, 3, True, 200, False): ("exceeds-cap", 200, 1, 330, "e75fac64db0f20a5"),
    (4, 3, True, 250, False): ("exceeds-cap", 250, 1, 407, "6105bd06d67be6c2"),
    (4, 3, True, 300, False): ("exceeds-cap", 300, 1, 487, "11e169da345e694e"),
    (4, 3, True, 350, False): ("exceeds-cap", 350, 1, 585, "b00c32b23ec6f9d3"),
    (4, 3, True, 400, False): ("exceeds-cap", 400, 1, 674, "0a705279786b5ec8"),
    (4, 3, True, 450, False): ("exceeds-cap", 450, 1, 754, "6dd2b05101fecc02"),
    (4, 3, True, 500, False): ("exceeds-cap", 500, 1, 852, "ad52e469af347aef"),
    (4, 3, True, 550, False): ("exceeds-cap", 550, 1, 941, "da1faf26dcf05a19"),
    (4, 3, True, 600, False): ("exceeds-cap", 600, 1, 1023, "f1655cb9381687fb"),
    (4, 3, True, 650, False): ("exceeds-cap", 650, 1, 1100, "2f74d80ad5fb55b3"),
    (4, 3, True, 700, False): ("exceeds-cap", 700, 1, 1207, "b2483fe3b6f08b8f"),
    (4, 3, True, 750, False): ("exceeds-cap", 750, 1, 1287, "f087e6b9fceda4eb"),
    (4, 3, True, 850, False): ("exceeds-cap", 850, 1, 1470, "db089b3878d70639"),
    (4, 3, True, 900, False): ("exceeds-cap", 900, 1, 1552, "9d8a9372b9c644fa"),
}

SEARCH_DEEP_JOBS = (
    (4, 3, True, 800, False),
    (5, 2, True, 800, False),
    (4, 2, True, 64, False),
    (4, 2, True, 64, True),
    (2, 5, False, 512, False),
)
