"""Check a ``sweep --format json`` document against the pinned figures.

    python .github/check_sweep.py [--heavy] FILE

The figures are looked up by the document's ``bound``.  At bound 3 they
are the counts that tests/test_acceptance.py pins (fans, admitting, wide,
d) and the class counts they imply; at every bound the class-"0" count is
the fans counted by length less the admitting fans generated from their
admissible basis pairs, and the wide count, the class counts and the
d-histogram pin which pairs the generator finds per fan.  --heavy also
checks how many admitting and non-admitting fans the heavy phase verified
(a stride-1 heavy sweep with the default non-admitting stride).  Exits
non-zero on the first figure that differs, or on any violation.
"""

import argparse
import json
import sys

PINS = {
    3: {"total_fans": 928712, "admitting": 121049, "wide": 39201,
        "num_classes_counts": {"0": 807663, "1": 39201, "2": 81848},
        "d_histogram": {"0": 39201, "1": 61888, "2": 17448, "3": 2224,
                        "4": 240, "5": 40, "6": 8}},
    4: {"total_fans": 11535052, "admitting": 986501, "wide": 255413,
        "num_classes_counts": {"0": 10548551, "1": 255413, "2": 731088},
        "d_histogram": {"0": 255413, "1": 494352, "2": 145832, "3": 80472,
                        "4": 9432, "5": 832, "6": 120, "7": 40, "8": 8}},
    5: {"total_fans": 265399316, "admitting": 13837645, "wide": 2494429,
        "num_classes_counts": {"0": 251561671, "1": 2494429,
                               "2": 11343216},
        "d_histogram": {"0": 2494429, "1": 7226288, "2": 2395304,
                        "3": 1068104, "4": 583240, "5": 64768, "6": 4848,
                        "7": 496, "8": 120, "9": 40, "10": 8}},
}
# (heavy_checked, nonadmitting_sampled) of a heavy sweep
HEAVY = {3: (121049, 811)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file")
    parser.add_argument("--heavy", action="store_true")
    args = parser.parse_args()
    with open(args.file) as f:
        doc = json.load(f)
    bound = doc["bound"]
    # explicit checks, not asserts, so that python -O checks them too
    for name, want in PINS[bound].items():
        if doc[name] != want:
            sys.exit(f"{args.file}: {name} is {doc[name]}, want {want}")
    if args.heavy:
        checked = (doc["heavy_checked"], doc["nonadmitting_sampled"])
        if checked != HEAVY[bound]:
            sys.exit(f"{args.file}: (heavy_checked, nonadmitting_sampled) "
                     f"is {checked}, want {HEAVY[bound]}")
    if not doc["all_clean"]:
        sys.exit(f"{args.file}: violations {doc['violation_counts']}")
    print(f"{args.file}: the bound-{bound} figures hold")


if __name__ == "__main__":
    main()
