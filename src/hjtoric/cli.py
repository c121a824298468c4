"""Command-line front end.

Subcommands: resolve, blowup, equiv, signature, simulate, hj.  Numeric
flags that are rational-valued accept exact "n/d" strings; output is JSON
(or SVG for diagrams); the public API they are passed to checks every
value.  Exit codes: 0 success, 2 domain/validation error, 1 internal
inconsistency.  Set HJTORIC_LOG=debug for verbose logging; any
value other than a level name (debug, info, warning, error, critical, in
any case) exits 2.

Each subcommand imports only the modules it runs, inside its ``cmd_*``
function, so ``hj`` loads neither the simulator nor the blowup code, and a
usage error loads no math module.  ``simulate`` loads ``logging`` with the
simulator, which logs its debug trail through it; every other subcommand
imports it only when HJTORIC_LOG is set or a cross-check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DomainError, StructureError, ValidationError


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
    from .resolution import CyclicSingularity, resolution_params, resolve_cyclic

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
    from .blowup import cross_check, fulton_config, mcduff_sequence
    from .rationals import rational_json
    from .svg import cut_diagram_svg

    cfg = fulton_config(args.p, args.q, size=args.size)
    seq = mcduff_sequence(args.q, args.p)
    ok = cross_check(args.p, args.q)
    if not ok:
        import logging

        logging.basicConfig()  # a no-op when main configured logging
        logging.getLogger(__name__).error(
            "cross_check(%d, %d) failed: the %d replayed classes do not match the %d "
            "vertex-route classes", args.p, args.q, len(seq), len(cfg.class_labels))
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
    from .resolution import CyclicSingularity, same_resolution, type_equivalent

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
    from .homology import IntersectionLattice, signature

    raw = _read_input(args.input)
    lat = IntersectionLattice.from_json(raw)
    b_plus, b_minus, b_zero = signature(lat)
    _emit_json({"b_plus": b_plus, "b_minus": b_minus, "b_zero": b_zero}, args.out)
    return 0


def _parse_simulation_input(raw: str) -> tuple[list, dict]:
    """The fixed points and the options (``run_loop``'s and eps) of a
    simulation input.  Only the JSON shape and the rationals are checked
    here, under Python's int <-> str digit limit; the rest is checked by
    ``FixedPointDatum``, ``run_loop`` and ``build_cover``.  Keys the schema
    does not list are ignored.
    """
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep, >4300 digits
        raise DomainError(f"malformed JSON input: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("fixed_points"), list):
        raise DomainError('input must be an object with a "fixed_points" list')
    from .circle import FixedPointDatum, parse_rational

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
    rationals = ("eps", "base")
    options = {key: obj[key] for key in ("loops", "bound", "tracked_independent", *rationals)
               if obj.get(key) is not None}  # a null option takes its default
    options.update({key: parse_rational(options[key]) for key in rationals if key in options})
    return data, {"loops": 5, **options}


def cmd_simulate(args) -> int:
    data, options = _parse_simulation_input(_read_input(args.input))
    from .circle import build_cover, run_loop

    eps = options.pop("eps", None)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the input is read; a ledger entry multiplies its denominators
    try:
        result = run_loop(data, **options)  # validates the data, once
        payload = {} if eps is None else {"cover": build_cover(data, eps).to_json()}
        _emit_json({**payload, **result.to_json()}, args.out)
        return 0
    except ValidationError as exc:  # only run_loop validates; build_cover sees valid data
        _emit_json({"errors": list(exc.errors)}, args.out)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_hj(args) -> int:
    from .hj import hj_expand, hj_reverse

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

    def command(name, func, help, *int_flags):
        p = sub.add_parser(name, help=help)
        for flag in int_flags:
            p.add_argument(f"--{flag}", type=int, required=True)
        p.set_defaults(func=func)
        return p

    command("resolve", cmd_resolve, "resolve an order-r type-(p,q) quotient point", "r", "p", "q")
    p = command("blowup", cmd_blowup, "resolve a (p,q)-weighted blowup both ways", "p", "q")
    p.add_argument("--size", default="1", help='blowup size, exact rational "n/d"')
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.add_argument("--scale", type=int, default=40, help="svg units per lattice step")
    p = command("equiv", cmd_equiv, "compare two order-r types (1,q1), (1,q2)", "r", "q1", "q2")
    p.add_argument("--oriented", action="store_true")
    p = command("signature", cmd_signature, "signature (b+, b-, b0) of a lattice JSON file")
    p.add_argument("input", help='lattice JSON path, or "-" for stdin')
    p = command("simulate", cmd_simulate, "run the reduced-space circle simulation")
    p.add_argument("input", help='simulation JSON path, or "-" for stdin')
    command("hj", cmd_hj, "negative continued fraction of m/k", "m", "k")
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def main(argv=None) -> int:
    level = os.environ.get("HJTORIC_LOG")
    if level is not None:
        if level.lower() not in LOG_LEVELS:
            print(f"error: HJTORIC_LOG must be one of {', '.join(LOG_LEVELS)}, got {level!r}",
                  file=sys.stderr)
            return 2
        import logging

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
