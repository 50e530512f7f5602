"""Command-line front end.

Every verb is a thin wrapper around a single library call.  Numeric
results are printed with 12 decimal places.  Exit codes: 0 on success,
1 on a domain error (invalid/signalling inputs, resource caps), 2 on
usage errors including malformed JSON.
"""

import argparse
import json
import sys

from . import examples
from .box import (
    DEFAULT_TOL,
    Permutation,
    is_no_signalling,
    marginal,
    mix,
    permute,
    product,
    symmetrize,
    validate,
)
from .definetti import (
    definetti_approximation,
    mixture_to_box,
    separable_decompose,
)
from .distance import adaptive_distance, general_distance, individual_distance
from .errors import ConvergenceError, ResourceLimitError
from .jsonio import (
    JsonFormatError,
    box_to_json,
    decomposition_to_json,
    dump_json,
    effect_to_json,
    load_box,
    load_json,
    mixture_to_json,
    quantum_spec_from_json,
)
from .quantum import definetti_quantum, mixture_density, reduced_state, trace_norm_distance


def _fmt(value: float) -> str:
    return f"{value:.12f}"


def _emit_box(box, out_path):
    obj = box_to_json(box)
    if out_path:
        dump_json(obj, out_path)
    else:
        json.dump(obj, sys.stdout, indent=1)
        sys.stdout.write("\n")


def _int_list(text: str):
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsbox",
        description="Calculus of no-signalling boxes: validation, marginals, "
        "separable decompositions, de Finetti mixtures and distances.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("example", help="write a built-in example box")
    p.add_argument("name", choices=["pr-box", "q-box", "signalling"])
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("validate", help="report normalization/negativity/signalling violations")
    p.add_argument("box")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("nosig-check", help="check the no-signalling conditions")
    p.add_argument("box")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("marginal", help="reduce to an ordered subset of parties")
    p.add_argument("box")
    p.add_argument("--parties", required=True, help="comma-separated 0-based parties")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("permute", help="relabel parties by a permutation")
    p.add_argument("box")
    p.add_argument("--perm", required=True, help="comma-separated images of parties 0..k-1")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("symmetrize", help="average over all party permutations")
    p.add_argument("box")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("product", help="tensor product of boxes")
    p.add_argument("boxes", nargs="+")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("mix", help="convex combination of boxes")
    p.add_argument("boxes", nargs="+")
    p.add_argument("--weights", required=True, help="comma-separated weights, one per box")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("lemma2", help="separable decomposition of a symmetric box")
    p.add_argument("box")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("definetti", help="de Finetti mixture with certified bound")
    p.add_argument("box")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("distance", help="distance between two boxes")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--method", required=True, choices=["individual", "adaptive", "general"])
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="tolerance of the box checks (adaptive and general)")
    p.add_argument("--witness", default=None, help="write the optimal effect (general only)")

    p = sub.add_parser("urn-distance", help="hypergeometric vs multinomial label distance")
    p.add_argument("--labels", required=True, help="comma-separated ball labels")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("quantum-definetti", help="separable-state de Finetti distance and bound")
    p.add_argument("spec")
    p.add_argument("--k", type=int, required=True)
    return parser


def _run(args) -> int:
    if args.verb == "example":
        maker = {
            "pr-box": examples.pr_box,
            "q-box": examples.q_box,
            "signalling": examples.signalling_example,
        }[args.name]
        _emit_box(maker(), args.output)
        return 0

    if args.verb == "validate":
        report = validate(load_box(args.box), args.tol)
        print("normalization_violation", _fmt(report.normalization_violation))
        print("negativity_violation", _fmt(report.negativity_violation))
        print("signalling_violation", _fmt(report.signalling_violation))
        return 0 if report.is_valid(args.tol) else 1

    if args.verb == "nosig-check":
        ok, violation = is_no_signalling(load_box(args.box), args.tol)
        print("no-signalling", "true" if ok else "false")
        print("max_violation", _fmt(violation))
        return 0 if ok else 1

    if args.verb == "marginal":
        box = marginal(load_box(args.box), _int_list(args.parties), args.tol)
        _emit_box(box, args.output)
        return 0

    if args.verb == "permute":
        box = permute(load_box(args.box), Permutation(tuple(_int_list(args.perm))))
        _emit_box(box, args.output)
        return 0

    if args.verb == "symmetrize":
        _emit_box(symmetrize(load_box(args.box)), args.output)
        return 0

    if args.verb == "product":
        _emit_box(product([load_box(path) for path in args.boxes]), args.output)
        return 0

    if args.verb == "mix":
        weights = _float_list(args.weights)
        if len(weights) != len(args.boxes):
            raise ValueError(f"{len(weights)} weights for {len(args.boxes)} boxes")
        boxes = [load_box(path) for path in args.boxes]
        _emit_box(mix(list(zip(weights, boxes))), args.output)
        return 0

    if args.verb == "lemma2":
        dec = separable_decompose(load_box(args.box), args.tol)
        print("m", dec.parties)
        print("terms", len(dec.terms))
        if args.output:
            dump_json(decomposition_to_json(dec), args.output)
        return 0

    if args.verb == "definetti":
        box = load_box(args.box)
        mixture = definetti_approximation(box, args.k, args.tol)
        target = marginal(box, range(args.k), args.tol)
        dist, _ = general_distance(target, mixture_to_box(mixture))
        print("bound", _fmt(mixture.bound))
        print("distance", _fmt(dist))
        if args.output:
            dump_json(mixture_to_json(mixture), args.output)
        return 0

    if args.verb == "distance":
        p, q = load_box(args.p), load_box(args.q)
        if args.method == "individual":
            value = individual_distance(p, q)
        elif args.method == "adaptive":
            value = adaptive_distance(p, q, args.tol)
        else:
            value, witness = general_distance(p, q, args.tol)
            if args.witness:
                dump_json(effect_to_json(witness), args.witness)
        print(_fmt(value))
        return 0

    if args.verb == "urn-distance":
        from .urn import Urn, urn_variational_distance

        value = urn_variational_distance(Urn(tuple(_int_list(args.labels))), args.k)
        print(_fmt(value))
        return 0

    if args.verb == "quantum-definetti":
        spec = quantum_spec_from_json(load_json(args.spec), args.spec)
        mixture, bound = definetti_quantum(spec, args.k)
        dist = trace_norm_distance(reduced_state(spec, args.k), mixture_density(mixture, args.k))
        print("distance", _fmt(dist))
        print("bound", _fmt(bound))
        return 0

    raise AssertionError(args.verb)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except JsonFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ResourceLimitError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
