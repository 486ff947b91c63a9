"""Command-line front end: invariants, stratify, recover, roundtrip, verify.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from random import Random

from .action import ActionSpec, canonicalize
from .errors import CircleActionError, MalformedDiagram, TooManyFaces
from .invariants import PART_ABS2, PART_RE, InvariantGenerator, hilbert_basis, realize_generators
from .numeric import run_property_suite
from .recovery import MAX_RECOVERED_WEIGHTS, recover_weights, roundtrip
from .stratification import StratificationDiagram, face_table, hasse_edges, orbit_strata


def generator_text(g: InvariantGenerator) -> str:
    """Render a generator the way it is usually written: |z1|^2, Re(z1^2 zbar2)."""
    e = g.exponents
    if g.part == PART_ABS2:
        return f"|z{e.holomorphic.index(1) + 1}|^2"
    pieces = [
        f"{name}{j + 1}" + (f"^{k}" if k > 1 else "")
        for name, side in (("z", e.holomorphic), ("zbar", e.antiholomorphic))
        for j, k in enumerate(side)
        if k
    ]
    return f"{'Re' if g.part == PART_RE else 'Im'}({' '.join(pieces)})"


def _face_text(indices: frozenset[int]) -> str:
    sep = "" if max(indices) <= 9 else ","
    return sep.join(str(i) for i in sorted(indices))


def _read_diagram(args: argparse.Namespace) -> StratificationDiagram:
    try:
        if args.diagram_path == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.diagram_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except RecursionError:
        raise MalformedDiagram("diagram JSON nests too deeply to parse") from None
    return StratificationDiagram.from_json(data)


def _cmd_invariants(args: argparse.Namespace) -> int:
    generators = realize_generators(hilbert_basis(canonicalize(args.weights)))
    if args.format == "json":
        print(json.dumps([g.to_json() for g in generators]))
    else:
        for g in generators:
            print(generator_text(g))
    return 0


def _cmd_stratify(args: argparse.Namespace) -> int:
    spec = canonicalize(args.weights, args.trivial_dim)
    diagram = orbit_strata(spec)
    try:
        faces = face_table(spec) if args.format == "text" else []
    except TooManyFaces as exc:
        raise TooManyFaces(f"{exc}; use --format json for the diagram without faces") from None
    if args.dot_path:
        with open(args.dot_path, "w", encoding="utf-8") as fh:
            fh.write(diagram.to_dot())
    if args.format == "json":
        print(json.dumps(diagram.to_json()))
    else:
        print(f"ambient dimension: {diagram.ambient_dim}")
        print("faces:")
        for row in faces:
            print(
                f"  S_{_face_text(row.indices)}  order {row.stabilizer_order}"
                f"  codim {row.codim}"
            )
        print("strata:")
        for s in diagram.strata:
            print(f"  {s.id}  order {s.wire_order}  dim {s.dim}")
        print("hasse edges:")
        for a, b in sorted(hasse_edges(diagram)):
            print(f"  {a} < {b}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    diagram = _read_diagram(args)
    weights = recover_weights(diagram)
    # recover_weights certified that ambient_dim = trivial_dim + 2m.
    n, m = diagram.ambient_dim, len(weights)
    trivial_dim = n - 2 * m
    report = {"weights": list(weights), "trivial_dim": trivial_dim, "m": m, "n": n}
    if args.format == "json":
        print(json.dumps(report))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return 0


def _random_spec(rng: Random, max_m: int, max_weight: int) -> ActionSpec:
    m = rng.randint(1, max_m)
    weights = [rng.randint(1, max_weight) for _ in range(m)]
    shared = math.gcd(*weights)
    return ActionSpec(rng.randint(0, 4), tuple(w // shared for w in weights))


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    if args.weights is not None:
        spec = canonicalize(args.weights, args.trivial_dim)
        ok = roundtrip(spec)
        if args.format == "json":
            print(json.dumps({"check": "roundtrip", "spec": spec.to_json(), "pass": ok}))
        else:
            print(f"roundtrip weights={list(spec.weights)}: {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1

    rng = Random(args.seed)
    failures = []
    for _ in range(args.trials):
        spec = _random_spec(rng, args.max_m, args.max_weight)
        if not roundtrip(spec):
            failures.append(spec.to_json())
    report = {
        "check": "roundtrip",
        "seed": args.seed,
        "trials": args.trials,
        "failures": len(failures),
    }
    print(json.dumps(report))
    for bad in failures[:10]:
        print(f"failed: {json.dumps(bad)}", file=sys.stderr)
    return 0 if not failures else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = canonicalize(args.weights, args.trivial_dim)
    reports = run_property_suite(spec, args.trials, args.seed, args.tol)
    failed = False
    for report in reports:
        print(json.dumps(report))
        failed = failed or report["failures"] > 0
    if args.format == "text":
        print("FAIL" if failed else "ok")
    return 1 if failed else 0


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}"
        ) from None


def _checked(parse, accept, requirement: str):
    """An argparse type: parse the text, then refuse values accept() rejects.

    It carries parse's name, so unparsable text reads "invalid int value".
    """

    def convert(text: str):
        value = parse(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    convert.__name__ = parse.__name__
    return convert


_trials = _checked(int, lambda v: v >= 0, ">= 0")
_positive_int = _checked(int, lambda v: v > 0, "> 0")
_max_m = _checked(
    _positive_int,
    lambda v: v <= MAX_RECOVERED_WEIGHTS,
    f"<= {MAX_RECOVERED_WEIGHTS} (the recovery bound)",
)
_tolerance = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circleact",
        description=(
            "Invariant generators, orbit-type stratification, and weight "
            "recovery for effective linear circle actions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("invariants", _cmd_invariants, "list the invariant polynomial generators")
    p.add_argument("--weights", required=True, type=_parse_weights)

    p = add("stratify", _cmd_stratify, "print the stratification diagram")
    p.add_argument("--weights", required=True, type=_parse_weights)
    p.add_argument("--trivial-dim", type=int, default=0)
    p.add_argument("--dot", dest="dot_path", metavar="PATH", help="write DOT here")

    p = add("recover", _cmd_recover, "recover weights from a diagram JSON file ('-' for stdin)")
    p.add_argument("--diagram", dest="diagram_path", required=True, metavar="PATH")

    p = add(
        "roundtrip", _cmd_roundtrip, "stratify then recover; random campaign without --weights"
    )
    p.add_argument("--weights", type=_parse_weights)
    p.add_argument("--trivial-dim", type=int, default=0)
    p.add_argument("--trials", type=_trials, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-weight", type=_positive_int, default=30, help="campaign weight bound (default 30)"
    )
    p.add_argument(
        "--max-m", type=_max_m, default=6, help="campaign coordinate bound (default 6)"
    )

    p = add("verify", _cmd_verify, "run the sampled numeric property suite")
    p.add_argument("--weights", required=True, type=_parse_weights)
    p.add_argument("--trivial-dim", type=int, default=0)
    p.add_argument("--trials", type=_trials, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CircleActionError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
