#!/usr/bin/env python3
"""Exhaustively verify every complete fan with ray coordinates in [-2, 2].

The light pass classifies all of them through the closed forms; every
admitting fan then gets the full symbolic treatment (emit both actions,
check the group law, open orbit, grading, distinguisher...).  Takes about
ten seconds.
"""

import sys

from toric_additive import run_sweep

report = run_sweep(bound=2, heavy=True, heavy_stride=1,
                   nonadmitting_stride=5,
                   progress=lambda stage, n: print(f".. {stage}: {n}",
                                                   file=sys.stderr))

print("complete fans:", report.total_fans)
print("admitting:", report.admitting, " of which wide:", report.wide)
print("d histogram:", dict(sorted(report.d_histogram.items())))
print("class counts:", dict(sorted(report.num_classes_counts.items())))
print(f"light pass: {report.t_enumerate_light:.1f}s, "
      f"heavy pass: {report.t_heavy:.1f}s "
      f"({report.heavy_checked} fans, {report.nonadmitting_sampled} "
      "non-admitting samples)")
print("clean:", report.all_clean)
if not report.all_clean:
    print("violations:", report.violation_counts)
    sys.exit(1)
