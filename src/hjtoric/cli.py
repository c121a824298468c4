"""Command-line front end.

Subcommands: resolve, blowup, equiv, signature, simulate, hj.  Numeric
flags that are rational-valued accept exact "n/d" strings; output is JSON
(or SVG for diagrams); the public API they are passed to checks every
value.  Exit codes: 0 success, 2 domain/validation error, 1 internal
inconsistency.  Set HJTORIC_LOG=debug for verbose logging; any
value other than a level name (debug, info, warning, error, critical, in
any case) exits 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .blowup import fulton_config, lattices_isomorphic_as_chains, mcduff_sequence
from .circle import FixedPointDatum, build_cover, run_loop
from .errors import DomainError, StructureError, ValidationError
from .hj import hj_expand, hj_reverse
from .homology import IntersectionLattice, signature
from .rationals import rational_json
from .resolution import (
    CyclicSingularity,
    resolution_params,
    resolve_cyclic,
    same_resolution,
    type_equivalent,
)
from .svg import cut_diagram_svg

log = logging.getLogger(__name__)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2), out)


def cmd_resolve(args) -> int:
    s = CyclicSingularity(args.r, args.p, args.q)
    chain = resolve_cyclic(s)
    alpha, k = resolution_params(s)
    payload = {
        "r": args.r,
        "p": args.p,
        "q": args.q,
        "chain": list(chain.self_intersections),
        "k": k,
        "alpha": alpha,
    }
    if s.smooth:
        payload["note"] = "smooth point: empty resolution"
    _emit_json(payload, args.out)
    return 0


def cmd_blowup(args) -> int:
    cfg = fulton_config(args.p, args.q, size=args.size)
    seq = mcduff_sequence(args.q, args.p)
    vertex, replayed = cfg.lattice(), seq.lattice()
    ok = lattices_isomorphic_as_chains(vertex, replayed)
    if not ok:
        log.error("cross_check(%d, %d) failed: the %d replayed classes do not match the %d "
                  "vertex-route classes", args.p, args.q, len(replayed), len(vertex))
    if args.format == "svg":
        _emit(cut_diagram_svg(args.p, args.q, args.scale), args.out)
        return 0 if ok else 1
    payload = cfg.to_json()
    payload.update(
        {
            "size": rational_json(cfg.size),
            "mcduff": list(seq.multiplicities),
            "cuts": [list(c) for c in seq.cut_directions],
            "cross_check": ok,
        }
    )
    _emit_json(payload, args.out)
    return 0 if ok else 1


def cmd_equiv(args) -> int:
    s1 = CyclicSingularity(args.r, 1, args.q1)
    s2 = CyclicSingularity(args.r, 1, args.q2)
    payload = {
        "r": args.r,
        "q1": args.q1,
        "q2": args.q2,
        "oriented": args.oriented,
        "type_equivalent": type_equivalent(s1, s2, oriented=args.oriented),
        "same_resolution": same_resolution(s1, s2),
    }
    _emit_json(payload, args.out)
    return 0


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: input is not UTF-8 text: {exc}") from exc


def cmd_signature(args) -> int:
    raw = _read_input(args.input)
    lat = IntersectionLattice.from_json(raw)
    b_plus, b_minus, b_zero = signature(lat)
    _emit_json({"b_plus": b_plus, "b_minus": b_minus, "b_zero": b_zero}, args.out)
    return 0


def _parse_simulation_input(raw: str) -> tuple[list[FixedPointDatum], dict]:
    """The fixed points and the options (``run_loop``'s and eps) of a
    simulation input.  Only the JSON shape is checked here; the values are
    checked by ``FixedPointDatum``, ``run_loop`` and ``build_cover``.
    """
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON input: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("fixed_points"), list):
        raise DomainError('input must be an object with a "fixed_points" list')
    data = []
    for i, fp in enumerate(obj["fixed_points"]):
        if not isinstance(fp, dict):
            raise DomainError(f"fixed point {i} must be an object, got {fp!r}")
        missing = [key for key in ("level", "sign", "p", "q") if key not in fp]
        if missing:
            raise DomainError(f"fixed point {i} lacks {', '.join(missing)}")
        try:
            data.append(FixedPointDatum(fp["level"], fp["sign"], fp["p"], fp["q"], fp.get("match")))
        except DomainError as exc:
            raise DomainError(f"fixed point {i}: {exc}") from exc
    keys = ("bound", "tracked_independent", "eps", "base", "delta")
    return data, {"loops": obj.get("loops", 5), **{key: obj[key] for key in keys if key in obj}}


def cmd_simulate(args) -> int:
    raw = _read_input(args.input)
    data, options = _parse_simulation_input(raw)
    eps = options.pop("eps", None)
    try:
        result = run_loop(data, **options)  # validates the data, once
    except ValidationError as exc:
        _emit_json({"errors": list(exc.errors)}, args.out)
        return 2
    payload = {}
    if eps is not None:  # after the run, so validation errors come first
        payload["cover"] = build_cover(data, eps).to_json()
    payload.update(result.to_json())
    _emit_json(payload, args.out)
    return 0


def cmd_hj(args) -> int:
    e = hj_expand(args.m, args.k)
    rev = hj_reverse(e)
    payload = {
        "m": args.m,
        "k": args.k,
        "terms": list(e.terms),
        "reversed_terms": list(rev.terms),
        "k_prime": rev.residue,
    }
    _emit_json(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjtoric",
        description="Exact toric combinatorics: quotient-singularity resolutions, "
        "weighted blowups and circle-action reduced-space simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolve", help="resolve an order-r type-(p,q) quotient point")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("blowup", help="resolve a (p,q)-weighted blowup both ways")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--size", default="1", help='blowup size, exact rational "n/d"')
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.add_argument("--scale", type=int, default=40, help="svg units per lattice step")
    p.add_argument("--out")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("equiv", help="compare two order-r types (1,q1), (1,q2)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("signature", help="signature (b+, b-, b0) of a lattice JSON file")
    p.add_argument("input", help='lattice JSON path, or "-" for stdin')
    p.add_argument("--out")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("simulate", help="run the reduced-space circle simulation")
    p.add_argument("input", help='simulation JSON path, or "-" for stdin')
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("hj", help="negative continued fraction of m/k")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hj)

    return parser


LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def main(argv=None) -> int:
    level = os.environ.get("HJTORIC_LOG", "warning")
    if level.lower() not in LOG_LEVELS:
        print(f"error: HJTORIC_LOG must be one of {', '.join(LOG_LEVELS)}, got {level!r}",
              file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
