#!/usr/bin/env python3
"""Rewrite golden.json, the digests the benchmark's answer gate expects.

    python3 benchmarks/make_golden.py

Digests cover the CLI ``verify --format json`` output of each catalog fan
and the emitted action formulas of every verify_high_d and
verify_big_coords fan.  Rerun only for a reviewed, intended change of the
formulas or of the CLI output; a speed-up must leave the file unchanged.
"""

import json
import random

import run


def main() -> None:
    ta = run.load_package()
    doc = {"cli": {}, "actions": {}}
    for name in run.CATALOG:
        code, text = run.execute(ta, ("cli", name))
        assert code == 0, name
        doc["cli"][name] = run.sha(text)
    rng = random.Random(0)
    for case in (run.high_d_round(rng, run.FULL)
                 + run.big_round(rng, run.FULL)):
        c, rep = run.execute(ta, case)
        assert rep["all_pass"], case
        doc["actions"][run.fan_key(case[1])] = run.action_digest(c)
    doc["actions"] = dict(sorted(doc["actions"].items()))
    run.GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
