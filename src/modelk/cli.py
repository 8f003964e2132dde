"""Command-line front end.

Subcommands cover the four layers: set-level queries over formulas (k0,
iso, dim, count), piecewise-affine map queries over JSON descriptions
(aut), the symbolic closed forms (k1, omega-ab), the named verification
suites (verify), and brute-force abelianization of catalogue groups
(abelianize).

Exit codes: 0 on success, 1 for a domain error or a failing verify run,
2 for usage errors.  With --json all output is a single JSON document
with sorted keys, so identical inputs give byte-identical output.

Each command imports the layers it uses when it runs, so a command loads
only those.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DEFAULT_CAP, WorkbenchError

# the names of `suites.SUITE_NAMES`, kept here so that the parser does not
# load every layer (a test checks that the two agree)
SUITE_NAMES = ("ed", "gl", "lift", "perm", "semiab", "truncation", "wreath")


def _positive_int(text: str) -> int:
    """An integer of at least 1; anything else is a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"need an integer of at least 1, not {text!r}")
    return int(text)


def _common_flags(seed, cap, emit_json) -> argparse.ArgumentParser:
    """--seed, --cap and --json with these defaults, as a parent parser."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--seed", type=int, default=seed,
                       help="seed for randomized suites (default 0)")
    flags.add_argument("--cap", type=_positive_int, default=cap,
                       help="the most group elements (closed-form order or "
                            "closure) and ring table entries (q^2) to build "
                            f"(default {DEFAULT_CAP})")
    flags.add_argument("--json", action="store_true", default=emit_json,
                       help="emit machine-readable JSON")
    return flags


def _theory_flags() -> argparse.ArgumentParser:
    """The ring and theory flags of k1 and omega-ab, as a parent parser."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--unit-sum", action="store_true",
                       help="declare 1 = u + v for units (abstract domains)")
    flags.add_argument("--t-closed", action="store_true",
                       help="the module theory is closed under products")
    flags.add_argument("--cofinal-even", action="store_true",
                       help="index-finite subgroups of even index are cofinal")
    flags.add_argument("--cofinal-odd", action="store_true",
                       help="negation of --cofinal-even")
    return flags


def build_parser() -> argparse.ArgumentParser:
    """The common flags go before or after the subcommand.  After it they
    have no defaults, so that one left out there keeps its value from before
    the subcommand."""
    parser = argparse.ArgumentParser(
        prog="modelk",
        description="Definable-set geometry and symbolic K1 over free modules.",
        parents=[_common_flags(0, DEFAULT_CAP, False)])
    after = _common_flags(*[argparse.SUPPRESS] * 3)
    theory = _theory_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("k0", parents=[after],
                       help="class of a definable set in the dimension ring")
    p.add_argument("formula", help='e.g. "ambient 2; pp(x1 = 0) | pp(x2 = 0)"')

    p = sub.add_parser("iso", parents=[after],
                       help="definable isomorphism test for two formulas")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("dim", parents=[after], help="dimension of a definable set")
    p.add_argument("formula")

    p = sub.add_parser("count", parents=[after],
                       help="point count of a formula modulo a prime")
    p.add_argument("formula")
    p.add_argument("--prime", type=int, required=True,
                   help="a prime p; counts the points of F_p^n")

    p = sub.add_parser("aut", parents=[after], help="piecewise-affine map operations")
    p.add_argument("action", choices=["validate", "support", "dim", "decompose"])
    p.add_argument("mapfile", help="path to a PAMap JSON file, or - for stdin")

    p = sub.add_parser("k1", parents=[after, theory],
                       help="closed form of K1 for a free module")
    p.add_argument("--ring", required=True,
                   help="fq:<q> | z | poly-char0 | field:<tag> | ed:<tag>")
    p.add_argument("--free-rank", type=int, default=None,
                   help="finite free rank (integers only; default 1 there)")

    p = sub.add_parser("omega-ab", parents=[after, theory],
                       help="abelianized automorphism truncation at level n")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", parents=[after], help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p.add_argument("--cases", type=_positive_int, default=None,
                   help="randomized case count (at least 1), where the suite takes one")

    p = sub.add_parser("abelianize", parents=[after],
                       help="abelianization of a catalogue group")
    p.add_argument("--group", required=True,
                   help="sym:k | cyclic:n | dihedral:m | sl2:q | klein | q8 "
                        "| gl:n:q | sl:n:q | aff:n:q | wreath:<base>:<k>")
    return parser


def _ring_and_flags(args):
    from .symbolic import RingDescriptor, TheoryFlags, ring_from_key

    ring = ring_from_key(args.ring)
    if ring.kind == "abstract-ed" and args.unit_sum:
        ring = RingDescriptor.abstract_ed(ring.tag, has_unit_sum=True)
    chosen = [f for f in ("t_closed", "cofinal_even", "cofinal_odd")
              if getattr(args, f)]
    if len(chosen) > 1:
        raise WorkbenchError(
            "--t-closed, --cofinal-even and --cofinal-odd are mutually exclusive")
    if args.t_closed:
        return ring, TheoryFlags(True)
    if args.cofinal_even:
        return ring, TheoryFlags(False, True)
    if args.cofinal_odd:
        return ring, TheoryFlags(False, False)
    return ring, None


def _emit(args, json_obj: dict, text: str) -> None:
    if args.json:
        from .jsonio import dumps

        sys.stdout.write(dumps(json_obj))
    else:
        print(text)


def _load_pamap(path: str):
    import json

    from .jsonio import pamap_from_json

    raw = sys.stdin.read() if path == "-" else open(path).read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise WorkbenchError(f"the map file is not JSON: {exc}") from None
    return pamap_from_json(doc)


def _dim_json(value):
    return None if value == float("-inf") else value


def _dim_text(value) -> str:
    return "-inf (empty)" if value == float("-inf") else str(value)


def _normal_form(formula):
    from .defsets import boolean_normalize
    from .formulas import elaborate

    return boolean_normalize(elaborate(formula), formula.ambient)


def _cmd_k0(args) -> int:
    from .defsets import k0_class
    from .formulas import parse_formula
    from .jsonio import k0_to_json

    cls = k0_class(_normal_form(parse_formula(args.formula)))
    _emit(args, dict(k0_to_json(cls), pretty=cls.pretty()), cls.pretty())
    return 0


def _cmd_iso(args) -> int:
    from .defsets import k0_class
    from .formulas import parse_formula

    left = parse_formula(args.left)
    right = parse_formula(args.right)
    dl, dr = _normal_form(left), _normal_form(right)
    cl, cr = k0_class(dl), k0_class(dr)
    iso = cl == cr
    _emit(args,
          {"isomorphic": iso, "left_class": cl.pretty(),
           "right_class": cr.pretty()},
          f"{'definably isomorphic' if iso else 'not definably isomorphic'}"
          f" (classes {cl.pretty()} and {cr.pretty()})")
    return 0


def _cmd_dim(args) -> int:
    from .defsets import definable_dim
    from .formulas import parse_formula

    d = _normal_form(parse_formula(args.formula))
    value = definable_dim(d)
    _emit(args, {"dim": _dim_json(value), "empty": d.is_empty},
          _dim_text(value))
    return 0


def _cmd_count(args) -> int:
    from .counting import count_points_mod_p
    from .formulas import elaborate, parse_formula

    formula = parse_formula(args.formula)
    rep = count_points_mod_p(elaborate(formula), args.prime)
    text = (f"{rep.count} points mod {rep.prime}; "
            f"class predicts {rep.predicted}; "
            f"prime is {'good' if rep.good_prime else 'bad'}")
    _emit(args, rep.to_json(), text)
    return 0


def _cmd_aut(args) -> int:
    from . import jsonio

    f = _load_pamap(args.mapfile)
    if args.action == "validate":
        rep = f.validate()
        _emit(args, rep.to_json(), str(rep))
        return 0
    f.require_valid()
    if args.action == "support":
        supp = f.support()
        value = supp.dim
        _emit(args,
              {"support": jsonio.defset_to_json(supp),
               "dim": _dim_json(value)},
              f"support: {supp.pretty()}\ndim: {_dim_text(value)}")
        return 0
    if args.action == "dim":
        value = f.support_dim()
        _emit(args, {"dim": _dim_json(value)}, _dim_text(value))
        return 0
    from .automorphisms import decompose_affine

    g, h = decompose_affine(f)
    matrix = [[jsonio.rat_to_json(x) for x in row] for row in g.matrix]
    offset = [jsonio.rat_to_json(x) for x in g.offset]
    value = h.support_dim()
    _emit(args,
          {"affine": {"matrix": matrix, "offset": offset},
           "rest": jsonio.pamap_to_json(h),
           "rest_support_dim": _dim_json(value)},
          f"affine part: matrix {matrix}, offset {offset}\n"
          f"small-support part has support dimension {_dim_text(value)}")
    return 0


def _cmd_k1(args) -> int:
    from .symbolic import k1_free_module

    ring, flags = _ring_and_flags(args)
    group = k1_free_module(ring, flags=flags, free_rank=args.free_rank)
    _emit(args, dict(group.to_json(), pretty=group.pretty()), group.pretty())
    return 0


def _cmd_omega_ab(args) -> int:
    from .symbolic import k1_truncation, truncation_levels

    ring, flags = _ring_and_flags(args)
    levels = truncation_levels(ring, args.n, flags)
    group = k1_truncation(ring, args.n, flags)
    level_json = []
    level_text = []
    for depth, atoms in enumerate(levels):
        level = args.n - depth
        level_json.append({"level": level,
                           "atoms": [a.to_json() for a in atoms]})
        level_text.append(
            f"level {level}: " + (" + ".join(a.pretty() for a in atoms) or "0"))
    _emit(args,
          {"levels": level_json, "group": group.to_json(),
           "pretty": group.pretty()},
          "\n".join(level_text) + f"\ntotal: {group.pretty()}")
    return 0


def _cmd_verify(args) -> int:
    from .suites import run_suite

    rep = run_suite(args.suite, seed=args.seed, cases=args.cases, cap=args.cap)
    _emit(args, rep.to_json(), str(rep))
    return 0 if rep.passed else 1


def _cmd_abelianize(args) -> int:
    from .catalogue import by_name
    from .groups import abelianization

    G = by_name(args.group, args.cap)
    ab = abelianization(G)
    _emit(args,
          {"group": G.name, "order": G.order,
           "abelianization": list(ab.factors), "pretty": str(ab)},
          f"{G.name} (order {G.order}) abelianizes to {ab}")
    return 0


_COMMANDS = {
    "k0": _cmd_k0,
    "iso": _cmd_iso,
    "dim": _cmd_dim,
    "count": _cmd_count,
    "aut": _cmd_aut,
    "k1": _cmd_k1,
    "omega-ab": _cmd_omega_ab,
    "verify": _cmd_verify,
    "abelianize": _cmd_abelianize,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (WorkbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
