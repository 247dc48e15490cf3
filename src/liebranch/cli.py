"""Command line front end.

Subcommands
-----------
classify   all (subgroup, node) sphericity verdicts for one ambient group
spherical  one verdict, with the dense-orbit witness when there is one
branch     expand a branching rule at a given degree, optionally verify it
dims       flag-variety and subgroup Borel dimensions
mult       exact multiplicity of one class in a restriction

Exit codes: 0 success, 2 bad input, 3 unsupported pair or node,
5 internal inconsistency (a failed verification or duality check).
"""

import argparse
import json
import sys
from functools import lru_cache

from .branching import load_rules, verify_rule
from .characters import module_dimension, multiplicity_of
from .embeddings import load_catalog
from .rootsys import (
    LieError,
    TypeSpec,
    format_weight,
    parse_weight,
    root_system,
    simple_type,
)
from .sphericity import (
    TRIALS, classify_group, classify_pair, duality_consistent, flag_dimension,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_INCONSISTENT = 5


class Unsupported(Exception):
    pass


def _lookup(method, *key):
    """Look a key up in a loaded catalog or rule book; a missing group,
    entry or rule is Unsupported.  Loading happens before the call, so a
    load error stays a LieError (bad input)."""
    try:
        return method(*key)
    except LieError as e:
        raise Unsupported(str(e)) from None


def _get_embedding(args, g, h):
    return _lookup(load_catalog(args.data).get, str(g), h)


def _require_generators(g, emb):
    """Restriction reads an entry's generators: one without is unsupported."""
    if emb.gen_terms is None:
        raise Unsupported(f"{g} > {emb.name} is catalogued without an explicit embedding")


def _emit(args, payload, lines):
    if args.format == "json":
        payload["schema"] = 1
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _row_lines(row):
    head = (
        f"{row.h_name:8s} {row.kind:9s} node {row.node}: "
        f"{row.verdict} ({row.method}, {row.certainty})"
    )
    lines = [head]
    if row.witness:
        terms = " + ".join(f"{c}*X[{','.join(map(str, a))}]" for c, a in row.witness)
        lines.append(f"    witness: {terms}")
    return lines


def cmd_classify(args):
    g = simple_type(args.group)
    catalog = load_catalog(args.data)
    _lookup(catalog.entries, str(g))  # a group without entries is unsupported
    rows = classify_group(catalog, str(g), seed=args.seed)
    spherical = sum(r.verdict == "spherical" for r in rows)
    consistent = duality_consistent(rows, g)
    lines = []
    for row in rows:
        lines.extend(_row_lines(row))
    lines.append(f"spherical: {spherical} of {len(rows)}")
    lines.append(f"duality: {'consistent' if consistent else 'INCONSISTENT'}")
    _emit(
        args,
        {
            "group": str(g),
            "seed": args.seed,
            "trials": TRIALS,
            "rows": [r.as_dict() for r in rows],
            "spherical_count": spherical,
            "duality_consistent": consistent,
        },
        lines,
    )
    return EXIT_OK if consistent else EXIT_INCONSISTENT


def cmd_spherical(args):
    g = simple_type(args.group)
    emb = _get_embedding(args, g, args.subgroup)
    flag_dimension(g, args.node)  # validates the node, raising LieError
    row = classify_pair(emb, args.node, seed=args.seed)
    if row.verdict == "undecided":  # no generators, and no dimension prune
        _require_generators(g, emb)
    _emit(
        args,
        {"group": str(g), "seed": args.seed, "row": row.as_dict()},
        [f"{g} " + line.lstrip() for line in _row_lines(row)[:1]] + _row_lines(row)[1:],
    )
    return EXIT_OK


def cmd_dims(args):
    g = simple_type(args.group)
    rs = root_system(g)
    dims = [flag_dimension(g, i) for i in range(1, rs.rank + 1)]
    entries = _lookup(load_catalog(args.data).entries, str(g))
    lines = [" ".join(str(d) for d in dims)]
    borel = []
    for emb in entries:
        borel.append({"subgroup": emb.name, "borel_dim": emb.borel_dim()})
        lines.append(f"borel_dim {emb.name} {emb.borel_dim()}")
    _emit(
        args,
        {"group": str(g), "flag_dims": dims, "borel_dims": borel},
        lines,
    )
    return EXIT_OK


def cmd_branch(args):
    g = simple_type(args.group)
    if args.degree < 0:
        raise LieError("degree must be nonnegative")
    if args.verify and args.degree < 1:
        raise LieError("--verify checks degrees 1..DEGREE, so DEGREE must be at least 1")
    flag_dimension(g, args.node)  # validates the node, raising LieError
    entry = _lookup(load_rules(args.data).get, str(g), args.subgroup, args.node)
    rule = entry.primary
    torus = TypeSpec.parse(rule.h_name).torus > 0
    classes = rule.expand(args.degree)
    omega = format_weight(
        tuple(args.degree if j == rule.node - 1 else 0 for j in range(g.rank)), "w"
    )
    lines = [
        f"res V({omega}) [{g} -> {rule.h_name}]: {len(classes)} classes"
    ]
    class_payload = []
    for (w, q), m in sorted(classes.items()):
        label = format_weight(w, "l", q if torus else None)
        lines.append(f"  {label}" + (f"  x{m}" if m != 1 else ""))
        class_payload.append({"weight": list(w), "charge": q, "mult": m})
    payload = {
        "group": str(g),
        "subgroup": rule.h_name,
        "node": args.node,
        "degree": args.degree,
        "classes": class_payload,
    }
    code = EXIT_OK
    if args.verify:
        emb = _get_embedding(args, g, args.subgroup)
        _require_generators(g, emb)
        checks = []
        for k in range(1, args.degree + 1):
            ok = verify_rule(emb, rule, k)
            checks.append({"k": k, "direct": ok})
            lines.append(f"verify k={k}: {'match' if ok else 'MISMATCH'}")
            if not ok:
                code = EXIT_INCONSISTENT
        payload["verify"] = checks
    _emit(args, payload, lines)
    return code


def cmd_mult(args):
    g = simple_type(args.group)
    emb = _get_embedding(args, g, args.subgroup)
    rs = root_system(g)
    lam, lam_charge = parse_weight(args.weight, rs.rank, "w")
    if lam_charge is not None:
        raise LieError("the ambient weight takes no torus charge")
    target, charge = parse_weight(args.target, emb.rank_ss, "l")
    if charge is not None and emb.spec.torus == 0:
        raise LieError(f"{emb.name} has no torus charge")
    _require_generators(g, emb)
    dim = module_dimension(g, lam)
    # the parsed weights; a subgroup with a torus shows the charge used
    lam_text = format_weight(lam, "w")
    target_text = format_weight(target, "l", (charge or 0) if emb.spec.torus else None)
    m = multiplicity_of(emb, lam, target, charge=charge or 0)
    _emit(
        args,
        {
            "group": str(g),
            "subgroup": emb.name,
            "weight": list(lam),
            "target": list(target),
            "charge": charge or 0,
            "dim": dim,
            "multiplicity": m,
        },
        [
            f"dim V({lam_text}) = {dim}",
            f"multiplicity of {target_text} in res V({lam_text}): {m}",
        ],
    )
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser():
    """The command line parser, built on the first call and then shared:
    every `main` in one process parses with the same parser."""
    parser = argparse.ArgumentParser(
        prog="liebranch",
        description="Spherical flag varieties and branching rules, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument(
        "--data", default=None, help="data directory (default: the packaged data)"
    )

    random_opts = argparse.ArgumentParser(add_help=False)
    random_opts.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "classify", parents=[common, random_opts], help="classify all pairs for a group"
    )
    p.add_argument("group")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "spherical", parents=[common, random_opts], help="test one (subgroup, node) pair"
    )
    p.add_argument("group")
    p.add_argument("subgroup")
    p.add_argument("node", type=int)
    p.set_defaults(func=cmd_spherical)

    p = sub.add_parser(
        "branch", parents=[common], help="expand a branching rule at one degree"
    )
    p.add_argument("group")
    p.add_argument("subgroup")
    p.add_argument("node", type=int)
    p.add_argument("degree", type=int)
    p.add_argument("--verify", action="store_true",
                   help="check degrees 1..DEGREE against exact characters")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser(
        "dims", parents=[common], help="flag dimensions and subgroup Borel dimensions"
    )
    p.add_argument("group")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser(
        "mult", parents=[common], help="multiplicity of one class in a restriction"
    )
    p.add_argument("group")
    p.add_argument("subgroup")
    p.add_argument("weight", help="ambient highest weight, e.g. 4w1")
    p.add_argument("target", help="subgroup class, e.g. 2l5+2l7 or l4@-3")
    p.set_defaults(func=cmd_mult)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Unsupported as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except LieError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
