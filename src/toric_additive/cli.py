"""Command line interface.

Exit codes: 0 success, 1 usage or input parsing problems, 2 rejected fan
data, 3 internal inconsistency (a verification oracle or a cross-check
failed, which indicates a bug rather than bad input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .additive import classify, complete_collections
from .catalog import example_fan, example_names
from .coxring import derivation_str
from .errors import (
    FanValidationError,
    InternalInconsistency,
    LengthMismatch,
    ToricError,
    UnsupportedDimension,
    ZeroVector,
)
from .fan import Fan2, build_fan
from .lattice import primitive
from .render import fan_svg
from .roots import all_roots
from .sweep import run_sweep
from .verify import verification_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_FAN = 2
EXIT_INTERNAL = 3


# What each subcommand returns: its JSON document (None when it has
# none), its text lines, and its exit code.  main() writes one of them.
_Result = tuple[dict | None, list[str], int]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 1)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _parse_ray_text(text: str) -> list[tuple[int, int]]:
    rays = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.replace(",", " ").split()
        try:
            coords = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {body!r}")
        rays.append(coords)
    return rays


def _json_rays(rays) -> list[tuple[int, ...]]:
    if not isinstance(rays, list):
        raise ValueError('"rays" must be a list of rays, each a list of '
                         f"integers; got {json.dumps(rays)}")
    for k, r in enumerate(rays, 1):
        if not isinstance(r, list) or not all(
                type(c) is int for c in r):  # bool is an int subclass
            raise ValueError(f"ray {k}: expected a list of integers, "
                             f"got {json.dumps(r)}")
    return [tuple(r) for r in rays]


def _load_rays(args) -> tuple[list[tuple[int, ...]], str]:
    if getattr(args, "example", None):
        return list(example_fan(args.example)), args.example
    path = args.input
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    name = "stdin" if path == "-" else os.path.basename(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if "rays" not in doc:
            raise ValueError('JSON fan input needs a "rays" key')
        rays = _json_rays(doc["rays"])
        name = doc.get("name", name)
        if not isinstance(name, str):
            raise ValueError(
                f'"name" must be a string; got {json.dumps(name)}')
        normalize = doc.get("normalize_rays", False)
        if type(normalize) is not bool:
            raise ValueError('"normalize_rays" must be true or false; '
                             f"got {json.dumps(normalize)}")
        if normalize:
            rays = [primitive(r)[0] for r in rays]
    else:
        rays = _parse_ray_text(text)
    return rays, name


def _load_fan(args) -> tuple[Fan2, str]:
    rays, name = _load_rays(args)
    return build_fan(rays), name


def _emit(args, text: str) -> None:
    """Write to -o FILE or stdout; the only place the CLI writes output."""
    out = getattr(args, "output", None)
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _ray_str(r: Sequence[int]) -> str:
    return "(" + ", ".join(str(c) for c in r) + ")"


def _collections(collections) -> list[dict]:
    return [{"rays": [i + 1 for i in c.basis_indices],
             "roots": [list(r.e) for r in c.roots]} for c in collections]


def _roots_str(roots) -> str:
    return " ".join(_ray_str(e) for e in roots) or "none"


def cmd_validate(args) -> _Result:
    fan, name = _load_fan(args)
    doc = {
        "name": name,
        "ok": True,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": [[i + 1, j + 1] for i, j in fan.maximal_cones],
    }
    lines = [f"fan: {name}", "rays (cyclic order):"]
    lines += [f"  p{i + 1} = {_ray_str(r)}" for i, r in enumerate(fan.rays)]
    cones = " ".join(f"(p{i + 1},p{j + 1})" for i, j in fan.maximal_cones)
    lines.append(f"maximal cones: {cones}")
    lines.append("valid: yes")
    return doc, lines, EXIT_OK


def cmd_roots(args) -> _Result:
    fan, name = _load_fan(args)
    rs = all_roots(fan)
    doc = {
        "name": name,
        "rays": [list(r) for r in fan.rays],
        "roots_by_ray": [
            {"ray": i + 1, "roots": [list(r.e) for r in per]}
            for i, per in enumerate(rs.per_ray)],
        "semisimple": [list(e) for e in rs.semisimple],
        "unipotent": [list(e) for e in rs.unipotent],
        "regular_vector": list(rs.regular_vector)
        if rs.regular_vector else None,
        "positive": [list(e) for e in rs.positive]
        if rs.positive is not None else None,
        "collections": _collections(complete_collections(fan)),
    }
    lines = [f"fan: {name}"]
    lines += [f"roots of p{i + 1}: {_roots_str(r.e for r in per)}"
              for i, per in enumerate(rs.per_ray)]
    lines.append(f"semisimple: {_roots_str(rs.semisimple)}")
    lines.append(f"unipotent: {_roots_str(rs.unipotent)}")
    if rs.regular_vector:
        lines.append(f"regular vector u: {_ray_str(rs.regular_vector)}")
        lines.append("positive roots: "
                     + " ".join(_ray_str(e) for e in rs.positive))
    for coll in doc["collections"]:
        i1, i2 = coll["rays"]
        e1, e2 = coll["roots"]
        lines.append(f"complete collection at (p{i1}, p{i2}): "
                     f"{_ray_str(e1)} {_ray_str(e2)}")
    if not doc["collections"]:
        lines.append("complete collections: none")
    return doc, lines, EXIT_OK


def _classification_doc(c, name: str) -> dict:
    doc = {
        "name": name,
        "rays": [list(r) for r in c.fan.rays],
        "admits_action": c.admits_action,
        "num_classes": c.num_classes,
        "wide": c.wide,
        "d": c.d,
    }
    if c.basis is not None:
        doc["basis"] = {
            "ray_indices": [i + 1 for i in c.basis.basis_indices],
            "rays": [list(c.fan.rays[i]) for i in c.basis.basis_indices],
            "duals": [list(w) for w in c.basis.duals],
            "nonbasis_ray_indices": [j + 1 for j in c.basis.nonbasis_indices],
            "alpha": [list(row) for row in c.basis.alpha],
        }
        assert c.root_system is not None
        doc["regular_vector"] = list(c.root_system.regular_vector or ())
        doc["positive_roots"] = [list(e) for e in (c.root_system.positive or ())]
        doc["root_counts"] = [len(per) for per in c.root_system.per_ray]
    doc["collections"] = _collections(c.collections)
    return doc


def cmd_classify(args) -> _Result:
    fan, name = _load_fan(args)
    c = classify(fan, with_actions=False)
    doc = _classification_doc(c, name)
    lines = [f"fan: {name}",
             "rays: " + " ".join(_ray_str(r) for r in doc["rays"]),
             f"admits additive action: {'yes' if c.admits_action else 'no'}",
             f"isomorphism classes: {c.num_classes}"]
    if c.admits_action:
        lines.append(f"wide: {'yes' if c.wide else 'no'}")
        lines.append(f"degree d: {c.d}")
        b = doc["basis"]
        lines.append("basis rays: "
                     + ", ".join(f"p{i}" for i in b["ray_indices"]))
        for j, row in zip(b["nonbasis_ray_indices"], b["alpha"]):
            lines.append(f"octant coordinates of p{j}: {tuple(row)}")
        lines.append(f"regular vector u: {_ray_str(doc['regular_vector'])}")
        lines.append("positive roots: "
                     + " ".join(_ray_str(e) for e in doc["positive_roots"]))
    lines.append(f"complete collections: {len(doc['collections'])}")
    return doc, lines, EXIT_OK


def cmd_actions(args) -> _Result:
    fan, name = _load_fan(args)
    c = classify(fan)
    doc = _classification_doc(c, name)
    if not c.admits_action:
        doc["actions"] = None
        return doc, [f"fan: {name}", "admits additive action: no"], EXIT_OK
    assert c.family is not None and c.normalized_action is not None
    doc["ring"] = list(c.family.ring.names)
    doc["derivations"] = {
        "delta": derivation_str(c.family.delta),
        "partials": [derivation_str(p) for p in c.family.partials],
    }
    doc["actions"] = {
        "normalized": list(c.normalized_action.image_strings()),
        "non_normalized": list(c.non_normalized_action.image_strings())
        if c.non_normalized_action is not None else None,
    }
    lines = [f"fan: {name}",
             f"isomorphism classes: {c.num_classes}",
             "derivations:",
             f"  delta = {doc['derivations']['delta']}"]
    for k, p in enumerate(doc["derivations"]["partials"]):
        lines.append(f"  partial_{k} = {p}")
    lines.append("normalized action:")
    lines += [f"  {s}" for s in doc["actions"]["normalized"]]
    if doc["actions"]["non_normalized"] is not None:
        lines.append("non-normalized action:")
        lines += [f"  {s}" for s in doc["actions"]["non_normalized"]]
    else:
        lines.append("non-normalized action: none (wide fan, single class)")
    return doc, lines, EXIT_OK


def cmd_verify(args) -> _Result:
    fan, name = _load_fan(args)
    rep = verification_report(classify(fan), box=args.box, seed=args.seed)
    rep["name"] = name
    lines = [f"fan: {name}"]
    for check, ok in rep["checks"].items():
        lines.append(f"{check}: {'PASS' if ok else 'FAIL'}")
    lines.append("all checks passed" if rep["all_pass"]
                 else "SOME CHECKS FAILED")
    return rep, lines, EXIT_OK if rep["all_pass"] else EXIT_INTERNAL


def cmd_render(args) -> _Result:
    fan, name = _load_fan(args)
    return None, [fan_svg(fan, all_roots(fan), title=name)], EXIT_OK


def cmd_examples(args) -> _Result:
    rows = []
    for name in example_names():
        if name == "f:a":
            rows.append((name, "(1,0) (0,1) (-1,-a) (0,-1)  [a >= 0]"))
        else:
            rows.append((name, " ".join(_ray_str(r).replace(" ", "")
                                        for r in example_fan(name))))
    width = max(len(name) for name, _ in rows)
    return (dict(rows), [f"{name:<{width}}  {rays}" for name, rays in rows],
            EXIT_OK)


def _progress(phase: str, fans: int) -> None:
    """A sweep's progress, on stderr so that stdout stays the report."""
    print(f"{phase} phase: {fans} fans", file=sys.stderr)


def cmd_sweep(args) -> _Result:
    report = run_sweep(bound=args.bound, min_rays=args.min_rays,
                       max_rays=args.max_rays, heavy=not args.light,
                       heavy_stride=args.heavy_stride,
                       nonadmitting_stride=args.nonadmitting_stride,
                       seed=args.seed, progress=_progress)
    lines = [
        f"pool bound: {report.bound}, "
        f"rays {report.min_rays}..{report.max_rays}",
        f"complete fans: {report.total_fans}",
        f"admitting an additive action: {report.admitting}",
        f"wide (single class): {report.wide}",
        "class counts: " + ", ".join(
            f"{k} -> {v}"
            for k, v in sorted(report.num_classes_counts.items())),
        "d histogram: " + (", ".join(
            f"{k} -> {v}"
            for k, v in sorted(report.d_histogram.items())) or "empty"),
        f"heavy checked: {report.heavy_checked}, "
        f"non-admitting sampled: {report.nonadmitting_sampled}",
        f"light time: {report.t_enumerate_light:.2f}s, "
        f"heavy time: {report.t_heavy:.2f}s",
    ]
    if report.all_clean:
        lines.append("no violations")
    else:
        lines.append(f"VIOLATIONS: {report.violation_counts}")
    return (report.to_json(), lines,
            EXIT_OK if report.all_clean else EXIT_INTERNAL)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="toric-additive",
                     description="Demazure roots and additive group actions "
                                 "on complete toric surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    source = _Parser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", metavar="FILE",
                       help="fan file: JSON {\"rays\": [[x, y], ...]} or "
                            "plain text with one 'x y' pair per line; "
                            "- reads stdin")
    group.add_argument("--example", metavar="NAME",
                       help="a named fan from the catalog (see 'examples')")

    io = _Parser(add_help=False)
    io.add_argument("--format", choices=("text", "json"), default="text")
    io.add_argument("-o", "--output", metavar="FILE", default=None,
                    help="write to FILE instead of stdout")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for randomized verification points")

    p = sub.add_parser("validate", parents=[source, io],
                       help="check rays for a valid complete fan")
    p.set_defaults(func=cmd_validate)
    p = sub.add_parser("roots", parents=[source, io],
                       help="enumerate Demazure roots and collections")
    p.set_defaults(func=cmd_roots)
    p = sub.add_parser("classify", parents=[source, io],
                       help="decide existence and count isomorphism classes")
    p.set_defaults(func=cmd_classify)
    p = sub.add_parser("actions", parents=[source, io],
                       help="emit explicit polynomial action formulas")
    p.set_defaults(func=cmd_actions)
    p = sub.add_parser("verify", parents=[source, io, seeded],
                       help="run all verification oracles on one fan")
    p.add_argument("--box", type=_int_at_least(0), default=10,
                   help="brute force root search box: at least this "
                        "half-width; widened to hold every root")
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("render", parents=[source, io],
                       help="draw the fan and its roots as SVG")
    p.set_defaults(func=cmd_render)
    p = sub.add_parser("examples", parents=[io],
                       help="list the named example fans")
    p.set_defaults(func=cmd_examples)
    p = sub.add_parser("sweep", parents=[io, seeded],
                       help="enumerate small complete fans and cross-check")
    p.add_argument("--bound", type=_int_at_least(1), default=3,
                   help="coordinate bound for the primitive ray pool")
    # a complete rank-2 fan has at least three rays
    p.add_argument("--min-rays", type=_int_at_least(3), default=3)
    p.add_argument("--max-rays", type=int, default=6,
                   help="at least --min-rays")
    p.add_argument("--light", action="store_true",
                   help="skip the per-fan symbolic verification phase")
    p.add_argument("--heavy-stride", type=_int_at_least(1), default=1,
                   help="verify every N-th admitting fan")
    p.add_argument("--nonadmitting-stride", type=_int_at_least(1),
                   default=997,
                   help="sample rate for double-checking non-admitting fans")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.max_rays < args.min_rays:
        parser.error(f"argument --max-rays: expected an integer >= "
                     f"--min-rays ({args.min_rays}), got {args.max_rays}")
    try:
        doc, lines, code = args.func(args)
        if args.format == "json" and doc is not None:
            _emit(args, json.dumps(doc, indent=2))
        else:
            _emit(args, "\n".join(lines))
        return code
    except (FanValidationError, UnsupportedDimension, ZeroVector,
            LengthMismatch) as exc:
        print(f"invalid fan: {exc}", file=sys.stderr)
        return EXIT_INVALID_FAN
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ToricError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
