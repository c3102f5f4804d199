#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the toric_additive pipeline.

Run from the repository root (standard library only, one process, no
threads; the package is imported from ``src/``):

    python3 benchmarks/run.py --workload verify_small --seed 1 \\
        --seconds 30 --trace 0

Workloads are closed loops: one fan (or one sweep) is submitted, and the
next only after the previous one returned.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs a fixed round of the workload once
untraced and once with every public layer function wrapped (see tracer.py)
and reports per-layer calls, self times and counters.  Every answer is
checked; a wrong one exits with status 3 and records nothing.  The last
line of stdout is the JSON result; the lines before it give each metric by
name and unit, and the environment.  NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import tracer
from ruler import Ruler, reference_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACE_DIR = HERE / "out"

END_TO_END = {  # name -> unit
    "fans_per_s": "1/s",
    "fan_p50_ms": "ms",
    "fan_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
IMPORT_REPS = 9

# Rays of the catalog, restated here so the expected answers do not come
# from the package under test.
CATALOG = {
    "p2": ((1, 0), (0, 1), (-1, -1)),
    "p1xp1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "f1": ((1, 0), (0, 1), (-1, -1), (0, -1)),
    "p112": ((1, 0), (0, 1), (-1, -2)),
    "p113": ((1, 0), (0, 1), (-1, -3)),
    "wide": ((1, 0), (0, 1), (-1, -2), (-2, -1)),
}

# Light sweep answers: bound 3 is the paper's sweep; bound 2 is the smoke
# test's tiny size.
SWEEP_EXPECTED = {
    3: {"total_fans": 928712, "admitting": 121049, "wide": 39201,
        "d_histogram": {0: 39201, 1: 61888, 2: 17448, 3: 2224, 4: 240,
                        5: 40, 6: 8}},
    2: {"total_fans": 11396, "admitting": 3325, "wide": 1549,
        "d_histogram": {0: 1549, 1: 1488, 2: 240, 3: 40, 4: 8}},
}

# (1,0),(0,1),(-N-3,-N) is a complete fan with d = 1 whenever 3 does not
# divide N; the multiples of 3000 are moved up by one.
BIG_NS = (1000, 2000, 3001, 4000, 5000, 6001, 7000, 8000, 9001)

FULL = {"sweep_bound": 3, "max_a": 32, "big_ns": BIG_NS, "trace_sample": 200}
TINY = {"sweep_bound": 2, "max_a": 3, "big_ns": BIG_NS[:1], "trace_sample": 4}


class AnswerMismatch(Exception):
    """The program returned a wrong answer, so no number may be recorded."""


# -- inputs ---------------------------------------------------------------

def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def expected_answer(rays) -> tuple[bool, int | None]:
    """(admits an action, d) by the 2x2 determinant test.

    A surface admits an additive action iff some ray pair with determinant
    +-1 has every other ray in the closed negative octant it spans.  The
    octant coordinates then give the root counts |R_1|, |R_2| of the pair
    and d = max(|R_1|, |R_2|) - 1.
    """
    for i, p in enumerate(rays):
        for j, q in enumerate(rays):
            det = _cross(p, q)
            if i == j or det not in (1, -1):
                continue
            rows = []
            for k, v in enumerate(rays):
                if k in (i, j):
                    continue
                a1, a2 = -_cross(v, q) * det, -_cross(p, v) * det
                if a1 < 0 or a2 < 0:
                    break
                rows.append((a1, a2))
            else:
                n1 = 1 + min(a1 // a2 for a1, a2 in rows if a2)
                n2 = 1 + min(a2 // a1 for a1, a2 in rows if a1)
                return True, max(n1, n2) - 1
    return False, None


def num_classes(admits: bool, d: int | None) -> int:
    """No action: 0 classes; wide fans (d = 0): 1; otherwise 2."""
    return 0 if not admits else 1 if d == 0 else 2


def _complete(rays) -> bool:
    ordered = sorted(rays, key=lambda v: math.atan2(v[1], v[0]))
    return all(_cross(ordered[k], ordered[(k + 1) % len(ordered)]) > 0
               for k in range(len(ordered)))


_SMALL_POOL = tuple((x, y) for x in range(-3, 4) for y in range(-3, 4)
                    if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1)


def small_fans(rng: random.Random):
    """Endless fans with 3-6 rays in [-3,3]^2, alternately admitting or not."""
    want = True
    while True:
        k = rng.randint(3, 6)
        rays = tuple(rng.sample(_SMALL_POOL, k))
        if not _complete(rays):
            continue
        expect = expected_answer(rays)
        if expect[0] != want:
            continue
        yield ("fan", rays, 10, expect)
        want = not want


def high_d_round(rng: random.Random, size: dict) -> list:
    cases = []
    for a in range(1, size["max_a"] + 1):
        for rays in (((1, 0), (0, 1), (-1, -a), (0, -1)),  # Hirzebruch f:a
                     ((1, 0), (0, 1), (-1, -a))):  # weighted plane P(1,1,a)
            # the default box of 10 misses roots of f:a for a >= 11
            cases.append(("fan", rays, a, (True, a)))
    rng.shuffle(cases)
    return cases


def big_round(rng: random.Random, size: dict) -> list:
    cases = [("fan", ((1, 0), (0, 1), (-n - 3, -n)), 10, (True, 1))
             for n in size["big_ns"]]
    rng.shuffle(cases)
    return cases


def workload_inputs(name: str, seed: int, size: dict):
    """(endless case stream, cases per round, the round traced)."""
    rng = random.Random(seed)
    if name == "sweep_light":
        case = ("sweep", size["sweep_bound"])
        return itertools.repeat(case), 1, [case]
    if name == "verify_small":
        catalog = [("cli", n) for n in CATALOG]
        # the traced round repeats the first fans of the untraced stream
        head = list(itertools.islice(small_fans(random.Random(seed)),
                                     size["trace_sample"]))
        return (itertools.chain(catalog, small_fans(rng)), 1,
                catalog + head)
    if name == "verify_high_d":
        cases = high_d_round(rng, size)
    elif name == "verify_big_coords":
        cases = big_round(rng, size)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return itertools.cycle(cases), len(cases), cases


# -- running and checking one case ----------------------------------------

def execute(ta, case):
    """The program call(s) for one case; this is what gets timed."""
    if case[0] == "sweep":
        return ta.run_sweep(bound=case[1], heavy=False)
    if case[0] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ta.cli.main(["verify", "--example", case[1],
                                "--format", "json"])
        return code, buf.getvalue()
    _, rays, box, _ = case
    c = ta.classify(ta.build_fan(rays))
    return c, ta.verification_report(c, box=box)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fan_key(rays) -> str:
    return " ".join(f"{x},{y}" for x, y in rays)


def action_digest(c) -> str:
    """Digest of the emitted action formulas of a classification."""
    parts = [c.normalized_action, c.non_normalized_action]
    return sha("\n--\n".join("\n".join(a.image_strings())
                             for a in parts if a is not None))


def _gate(ok: bool, case, what: str) -> None:
    if not ok:
        raise AnswerMismatch(f"{case[:2]}: {what}")


def check(case, out, golden: dict) -> int:
    """Raise AnswerMismatch unless ``out`` is right; return fans covered."""
    if case[0] == "sweep":
        want = SWEEP_EXPECTED[case[1]]
        got = {"total_fans": out.total_fans, "admitting": out.admitting,
               "wide": out.wide, "d_histogram": dict(out.d_histogram)}
        _gate(got == want, case, f"sweep gave {got}, expected {want}")
        _gate(out.all_clean, case, f"violations {out.violation_counts}")
        return out.total_fans
    if case[0] == "cli":
        code, text = out
        _gate(code == 0, case, f"CLI exit status {code}")
        doc = json.loads(text)
        admits, d = expected_answer(CATALOG[case[1]])
        _gate(doc["all_pass"], case, f"failed checks in {doc['checks']}")
        _gate(doc["rays"] == [list(r) for r in CATALOG[case[1]]], case,
              f"rays {doc['rays']}")
        _gate((doc["admits_action"], doc["d"], doc["num_classes"])
              == (admits, d, num_classes(admits, d)), case,
              f"got d={doc['d']} classes={doc['num_classes']}, "
              f"expected d={d}")
        _gate(sha(text) == golden["cli"][case[1]], case,
              "CLI output differs from the golden digest")
        return 1
    _, rays, _, (admits, d) = case
    c, rep = out
    classes = num_classes(admits, d)
    _gate(rep["all_pass"], case,
          f"failed checks {[k for k, v in rep['checks'].items() if not v]}")
    _gate((c.admits_action, c.d, c.num_classes) == (admits, d, classes), case,
          f"got admits={c.admits_action} d={c.d} classes={c.num_classes}, "
          f"expected {admits} {d} {classes}")
    want = golden["actions"].get(fan_key(rays))
    if admits and want is not None:
        _gate(action_digest(c) == want, case,
              "action formulas differ from the golden digest")
    return 1


def run_case(ta, case, golden: dict, ruler: Ruler):
    """Time one case and check it.

    Returns ((program ns, raw start ns, raw end ns), program output, fans).
    """
    try:
        r0, t0 = time.perf_counter_ns(), ruler.clock()
        out = execute(ta, case)
        t1, r1 = ruler.clock(), time.perf_counter_ns()
    except Exception as exc:  # a fan that raises is a wrong answer
        raise AnswerMismatch(f"{case[:2]}: raised {exc!r}") from exc
    return (t1 - t0, r0, r1), out, check(case, out, golden)


# -- measuring ------------------------------------------------------------

def percentile(values, q: float) -> float:
    s = sorted(values)
    k = (len(s) - 1) * q / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def import_seconds(reps: int) -> float:
    """Median time of ``import toric_additive`` in fresh interpreters.

    Each is scaled to reference speed by ruler samples taken just before.
    One untimed import comes first, so a fresh checkout's bytecode
    compilation is not counted.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import toric_additive; "
            "print(time.perf_counter() - t)")
    times = []
    for rep in range(reps + 1):
        scale = reference_scale()
        out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        if rep:
            times.append(float(out.stdout) * scale)
    return statistics.median(times)


def end_to_end(ta, stream, round_size: int, seconds: float,
               golden: dict) -> tuple[dict, int]:
    """Closed loop until the next round would end after ``seconds``."""
    records = []  # (timing, fans, enumeration ns of a sweep or None)
    fans = 0
    with Ruler() as ruler:
        t0 = time.perf_counter()
        for case in stream:
            timing, out, n = run_case(ta, case, golden, ruler)
            fans += n
            records.append((timing, n, round(out.t_enumerate_light * 1e9)
                            if case[0] == "sweep" else None))
            if len(records) % round_size == 0:
                elapsed = time.perf_counter() - t0
                done = len(records)
                if elapsed * (done + round_size) / done > seconds:
                    break
    lat_ms, raw_ms, preps = [], [], []
    busy = raw_busy = 0.0
    for (ns, r0, r1), n, enum_ns in records:
        scale = ruler.scale(r0, r1)
        busy += ns * scale / 1e9
        raw_busy += ns / 1e9
        # a sweep does not expose single fans: amortize over its fans
        lat_ms.append(ns * scale / 1e6 / n)
        raw_ms.append(ns / 1e6 / n)
        if enum_ns is not None:
            # run_sweep's own timer includes ruler samples; remove them
            enum_ns -= ruler.stolen_between(r1 - enum_ns, r1)
            preps.append((ns - enum_ns) * scale / 1e9)
    print(f"unscaled: fans_per_s = {fans / raw_busy!r} 1/s, fan_p50_ms = "
          f"{percentile(raw_ms, 50)!r} ms", file=sys.stderr)
    setup = import_seconds(IMPORT_REPS)
    if preps:
        setup += statistics.median(preps)
    values = {
        "fans_per_s": fans / busy,
        "fan_p50_ms": percentile(lat_ms, 50),
        "fan_p90_ms": percentile(lat_ms, 90),
        "setup_s": setup,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]}
            for k, v in values.items()}, fans


def _round(ta, cases: list, golden: dict, ruler: Ruler, tr=None):
    """Run a round of cases: (program ns, raw start ns, raw end ns, fans)."""
    total = fans = 0
    start = time.perf_counter_ns()
    for i, case in enumerate(cases):
        if tr is not None:
            tr.trace_id = i
        (ns, _, _), _, n = run_case(ta, case, golden, ruler)
        total += ns
        fans += n
    return total, start, time.perf_counter_ns(), fans


def per_layer(ta, cases: list, seconds: float, golden: dict,
              trace_file: Path | None) -> tuple[dict, int]:
    """Alternate untraced and traced runs of one fixed round of cases."""
    pairs = []
    fans = 0
    with Ruler() as ruler:
        t0 = time.perf_counter()
        while True:
            untraced = _round(ta, cases, golden, ruler)
            tr = tracer.Tracer(clock=ruler.clock)
            tr.install()
            try:
                traced = _round(ta, cases, golden, ruler, tr)
            finally:
                tr.uninstall()
            fans += traced[3]
            pairs.append((untraced, traced, tr.totals(), tr.counters()))
            if trace_file is not None and len(pairs) == 1:
                write_spans(trace_file, tr.spans)
            elapsed = time.perf_counter() - t0
            if elapsed * (len(pairs) + 1) / len(pairs) > seconds:
                break
    samples: dict[str, list[float]] = {}
    for untraced, traced, totals, counters in pairs:
        u_scale = ruler.scale(untraced[1], untraced[2])
        t_scale = ruler.scale(traced[1], traced[2])
        row = {"trace.overhead_ratio":
               traced[0] * t_scale / (untraced[0] * u_scale) - 1}
        for name, (calls, self_ns) in totals.items():
            row[f"{name}.calls"] = calls
            row[f"{name}.self_ms"] = self_ns * t_scale / 1e6
        row.update(counters)
        for k, v in row.items():
            samples.setdefault(k, []).append(v)
    units = per_layer_units()
    return {k: {"value": statistics.median_low(v), "unit": units[k]}
            for k, v in samples.items()}, fans


def per_layer_units() -> dict[str, str]:
    units = {"trace.overhead_ratio": "ratio"}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update({k: unit for k, (unit, _) in tracer.COUNTERS.items()})
    return units


def write_spans(path: Path, spans: list) -> None:
    base = min((s[4] for s in spans), default=0)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["trace", "id", "parent", "name", "start_ns",
                              "dur_ns", "self_ns"],
                   "spans": [[t, i, p, n, s - base, d, own]
                             for t, i, p, n, s, d, own in spans]}, fh)


def load_package():
    """Import toric_additive from this checkout's src/, never elsewhere."""
    if not (SRC / "toric_additive" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import toric_additive
    import toric_additive.cli
    if not Path(toric_additive.__file__).resolve().is_relative_to(
            SRC.resolve()):
        raise ImportError(f"toric_additive came from "
                          f"{toric_additive.__file__}, not {SRC}")
    return toric_additive


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: dict = FULL, trace_file: Path | None = None) -> dict:
    ta = load_package()
    golden = json.loads(GOLDEN.read_text())
    stream, round_size, traced_round = workload_inputs(workload, seed, size)
    if trace:
        metrics, fans = per_layer(ta, traced_round, seconds, golden,
                                  trace_file)
    else:
        metrics, fans = end_to_end(ta, stream, round_size, seconds, golden)
    return {"correct": True, "attempted": fans, "failed": 0,
            "metrics": metrics}


# -- environment and entry point ------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "loadavg_before": os.getloadavg(),
        "git_sha": git_sha(),
    }


WORKLOADS = ("sweep_light", "verify_small", "verify_high_d",
             "verify_big_coords")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = environment(args)
    trace_file = (TRACE_DIR / f"trace_{args.workload}_{args.seed}.json"
                  if args.trace else None)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), trace_file=trace_file)
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load the package: {exc}", file=sys.stderr)
        return 2
    except AnswerMismatch as exc:
        print(f"answer gate tripped, nothing recorded: {exc}",
              file=sys.stderr)
        return 3
    env["loadavg_after"] = os.getloadavg()
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"fans attempted = {result['attempted']}, failed = "
          f"{result['failed']} (failed share {share})")
    if trace_file is not None:
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
