"""Command-line entry point.

Verbs: verify (p33, theorem, yb, pentagon), statesum, moves (walk,
apply), solutions, selftest.  Every run echoes its resolved options as
opt_* lines followed by the relation report, all as flat key=value
lines, so identical argv and seed produce byte-identical output.

Exit codes: 0 pass, 1 fail, 2 indeterminate, 64 usage or input error
(unknown flags, missing files, descriptors that do not parse, complexes
outside the supported scope), 70 internal error (an unexpected exception,
reported as one error line, so it never reads as a genuine fail).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from itertools import islice

from . import acceptance
from .groups import parse_group
from .scalars import Scalar, ScalarRing
from .simplicial import Triangulation, all_sites, apply_move
from .solutions import (
    groups_up_to_order,
    named_group_table,
    parse_solution,
    pentagon_map,
    triple_from_table,
)
from .statesum import build_assignment, invariance_run, partition, walk
from .verify import (
    dense_p33_oracle,
    verify_p33,
    verify_pentagon,
    verify_set_p33,
    verify_theorem,
    verify_yb_family,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

_VERDICT_CODES = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "indeterminate": EXIT_INDETERMINATE}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _echo(command: str, options: dict):
    lines = [f"command={command}"]
    for key in sorted(options):
        lines.append(f"opt_{key}={options[key]}")
    return lines


def _load_triangulation(path: str) -> Triangulation:
    if not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    try:
        return Triangulation.load(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_move_type(text: str, dim: int):
    try:
        p, q = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"move type must look like 3,3 - got {text!r}") from exc
    if p < 1 or q < 1:
        raise UsageError(f"type ({p},{q}) is not a move: need p, q >= 1")
    if p + q != dim + 2:
        raise UsageError(f"type ({p},{q}) does not fit dimension {dim}: need p+q={dim + 2}")
    return p, q


def _solution(text: str):
    try:
        return parse_solution(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# -- verify --------------------------------------------------------------------


def cmd_verify(args):
    try:
        out, report = _run_verify(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out += report.lines()
    print("\n".join(out))
    return _VERDICT_CODES[report.verdict]


def _run_verify(args):
    out = []
    if args.relation == "p33":
        if args.solution == "set":
            out += _echo("verify p33", {"solution": "set", "samples": args.samples, "seed": args.seed})
            report = verify_set_p33(samples=args.samples, seed=args.seed)
        else:
            sol = parse_solution(args.solution)
            out += _echo(
                "verify p33",
                {"solution": args.solution, "backend": args.backend, "oracle": args.oracle},
            )
            if args.oracle == "dense":
                report = dense_p33_oracle(sol)
            else:
                report = verify_p33(sol, backend=args.backend)
    elif args.relation == "theorem":
        group = parse_group(args.group)
        out += _echo("verify theorem", {"group": args.group, "backend": "exact"})
        report = verify_theorem(group)
    elif args.relation == "yb":
        sol = parse_solution(args.solution)
        out += _echo("verify yb", {"solution": args.solution, "backend": args.backend})
        report = verify_yb_family(sol, backend=args.backend)
    else:  # pentagon
        table = named_group_table(args.group)
        out += _echo("verify pentagon", {"group": args.group, "backend": args.backend})
        triple = triple_from_table(table, args.group)
        report = verify_pentagon(pentagon_map(triple), backend=args.backend)
    return out, report


# -- statesum ------------------------------------------------------------------


def cmd_statesum(args):
    t = _load_triangulation(args.tri)
    sol = _solution(args.solution)
    try:
        assignment = build_assignment(t, sol, backend=args.backend)
        tensor = partition(assignment, order=args.order)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if tensor.arity == 0:
        shown = tensor.ring.render(tensor.entry(()))
    else:
        shown = f"boundary tensor, {tensor.arity} slots, {len(tensor.entries)} nonzero"
    out = [f"Z = {shown}"]
    out += _echo(
        "statesum",
        {"tri": args.tri, "solution": args.solution, "backend": args.backend, "order": args.order},
    )
    out += [
        f"pentachora={len(t.simplexes)}",
        f"pairings={len(assignment.pairings)}",
        f"boundary_slots={tensor.arity}",
        f"backend={tensor.ring.name}",
        f"value={shown}",
        "verdict=pass",
    ]
    if args.dump and tensor.arity > 0:
        out.append("entries:")
        out.append(tensor.dump())
    print("\n".join(out))
    return EXIT_PASS


# -- moves ---------------------------------------------------------------------


def cmd_moves_walk(args):
    if args.count < 0:
        raise UsageError(f"--count must be >= 0, got {args.count}")
    t = _load_triangulation(args.tri)
    p, q = _parse_move_type(args.type, t.dim)
    out = _echo(
        "moves walk",
        {
            "tri": args.tri,
            "type": f"{p},{q}",
            "count": args.count,
            "seed": args.seed,
            "solution": args.solution or "",
            "backend": args.backend,
        },
    )
    if args.solution:
        sol = _solution(args.solution)
        try:
            report = invariance_run(t, sol, count=args.count, seed=args.seed, backend=args.backend, p=p)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        out += report.lines()
        print("\n".join(out))
        return _VERDICT_CODES[report.verdict]
    try:
        chi = t.euler_characteristic()
        applied = 0
        for _, t in islice(walk(t, (p,), random.Random(args.seed)), args.count):
            applied += 1
            if t.euler_characteristic() != chi:
                out += [f"moves={applied}", "verdict=fail", "witness=euler characteristic changed"]
                print("\n".join(out))
                return EXIT_FAIL
    except ValueError as exc:  # past simplicial.FACE_NODES_LIMIT or SPLITTINGS_LIMIT
        raise UsageError(str(exc)) from exc
    out += [
        f"moves={applied}",
        f"tops={len(t.simplexes)}",
        f"euler_characteristic={chi}",
        "verdict=pass",
    ]
    print("\n".join(out))
    return EXIT_PASS


def cmd_moves_apply(args):
    t = _load_triangulation(args.tri)
    p, q = _parse_move_type(args.type, t.dim)
    try:
        sites = all_sites(t, p)
    except ValueError as exc:  # past simplicial.SPLITTINGS_LIMIT
        raise UsageError(str(exc)) from exc
    if not sites:
        raise UsageError(f"no ({p},{q}) site in {args.tri}")
    if not 0 <= args.site < len(sites):
        raise UsageError(f"site index {args.site} out of range: {len(sites)} sites")
    site = sites[args.site]
    moved = apply_move(t, site)
    out = _echo(
        "moves apply",
        {"tri": args.tri, "type": f"{p},{q}", "site": args.site, "out": args.out or ""},
    )
    out += [
        f"sites={len(sites)}",
        f"site_vertices={'.'.join(str(v) for v in site.phi)}",
        f"site_entries={'.'.join(str(e) for e in site.entries)}",
        f"tops_before={len(t.simplexes)}",
        f"tops_after={len(moved.simplexes)}",
        "verdict=pass",
    ]
    if args.out:
        try:
            moved.save(args.out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
        out.append(f"written={args.out}")
    else:
        out.append("triangulation:")
        out.extend(moved.to_lines())
    print("\n".join(out))
    return EXIT_PASS


# -- solutions -----------------------------------------------------------------


def catalog():
    names = ["bichar:Z2", "bichar:Z3", "bichar:Z4", "bichar:Z5", "bichar:Z6", "bichar:Z2xZ2"]
    names += [f"triple:groupalg:{name}" for name, _ in groups_up_to_order(6)]
    names.append("set")
    return names


def cmd_solutions(args):
    out = _echo("solutions", {"describe": args.describe or ""})
    if not args.describe:
        for name in catalog():
            out.append(f"solution={name}")
        print("\n".join(out))
        return EXIT_PASS
    sol = _solution(args.describe)
    out.append(f"kind={sol.kind}")
    out.append(f"descriptor={sol.descriptor}")
    if sol.q is not None:
        out.append(f"domain={sol.domain.literal}")
        out.append(f"nonzeros={len(sol.q.entries)}")
        out.append(f"kernels={'yes' if sol.kind == 'bicharacter' else 'no'}")
        if args.dump:
            out.append("entries:")
            out.append(sol.q.dump())
    else:
        out.append("domain=open unit interval, exact rationals")
    print("\n".join(out))
    return EXIT_PASS


# -- selftest ------------------------------------------------------------------

# name -> (owner, attribute, the broken version made from the original)
_MUTATIONS = {
    "conj-noop": (Scalar, "conj", lambda original: lambda self: self),
    "weight-sign": (
        ScalarRing,
        "radical",
        lambda original: lambda self, exponent=1: original(self, abs(exponent)),
    ),
}


def _inject_mutation(name: str):
    """Deliberately break scalar arithmetic; returns an undo callable.

    A negative control for the selftest itself: with a broken conjugate
    or a broken measure weight, the criteria must notice.
    """
    if name not in _MUTATIONS:
        raise UsageError(
            f"unknown mutation {name!r}; known: {', '.join(_MUTATIONS)}"
        )
    owner, attribute, broken = _MUTATIONS[name]
    original = getattr(owner, attribute)
    setattr(owner, attribute, broken(original))
    return lambda: setattr(owner, attribute, original)


def cmd_selftest(args):
    out = _echo("selftest", {"only": ",".join(args.only) if args.only else ""})
    if args.list:
        for crit in acceptance.CRITERIA:
            out.append(f"criterion={crit.name} budget={crit.budget:.0f}s")
        print("\n".join(out))
        return EXIT_PASS
    names = args.only or None
    if names:
        known = {crit.name for crit in acceptance.CRITERIA}
        for name in names:
            if name not in known:
                raise UsageError(f"unknown criterion {name!r}; see selftest --list")
    mutation = os.environ.get("PACHNER_MUTATE", "")
    undo = _inject_mutation(mutation) if mutation else None
    try:
        results = acceptance.run_all(names)
    finally:
        if undo is not None:
            undo()
    for result in results:
        out.append(result.line())
    failed = [r for r in results if not r.ok]
    out.append(f"criteria={len(results)}")
    out.append(f"failed={len(failed)}")
    out.append(f"verdict={'pass' if not failed else 'fail'}")
    print("\n".join(out))
    return EXIT_PASS if not failed else EXIT_FAIL


# -- argument grammar ------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="pachner", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    verify = sub.add_parser("verify", help="check one of the shipped relations")
    vsub = verify.add_subparsers(dest="relation", required=True)
    p33 = vsub.add_parser("p33", help="the six-term three-tensor relation")
    p33.add_argument("--solution", required=True, help="bichar:Z3, triple:groupalg:S3, or set")
    p33.add_argument("--backend", choices=("exact", "float"), default="exact")
    p33.add_argument("--oracle", choices=("operator", "dense"), default="operator")
    p33.add_argument("--samples", type=int, default=1000, help="rational points for set")
    p33.add_argument("--seed", type=int, default=1, help="seed for set sampling")
    theorem = vsub.add_parser("theorem", help="four slot-swap transforms equal the conjugate")
    theorem.add_argument("--group", required=True, help="finite abelian group literal, e.g. Z5")
    yb = vsub.add_parser("yb", help="the derived Yang-Baxter family")
    yb.add_argument("--solution", required=True)
    yb.add_argument("--backend", choices=("exact", "float"), default="exact")
    pentagon = vsub.add_parser("pentagon", help="the bialgebra pentagon identity")
    pentagon.add_argument("--group", required=True, help="group table name, e.g. Z4 or S3")
    pentagon.add_argument("--backend", choices=("exact", "float"), default="exact")

    statesum = sub.add_parser("statesum", help="contract a triangulation file")
    statesum.add_argument("--tri", required=True, help="triangulation file")
    statesum.add_argument("--solution", required=True)
    statesum.add_argument("--backend", choices=("exact", "float"), default="exact")
    statesum.add_argument("--order", choices=("greedy", "left"), default="greedy")
    statesum.add_argument("--dump", action="store_true", help="print boundary tensor entries")

    moves = sub.add_parser("moves", help="apply bistellar moves")
    msub = moves.add_subparsers(dest="action", required=True)
    walk_p = msub.add_parser("walk", help="seeded random moves of one type")
    walk_p.add_argument("--tri", required=True)
    walk_p.add_argument("--type", default="3,3", help="move type p,q with p+q = dim+2")
    walk_p.add_argument("--count", type=int, default=20)
    walk_p.add_argument("--seed", type=int, default=7)
    walk_p.add_argument("--solution", default="", help="track the state sum along the walk")
    walk_p.add_argument("--backend", choices=("exact", "float"), default="exact")
    apply_p = msub.add_parser("apply", help="apply one move and print or save the result")
    apply_p.add_argument("--tri", required=True)
    apply_p.add_argument("--type", default="3,3")
    apply_p.add_argument("--site", type=int, default=0, help="index into the ordered site list")
    apply_p.add_argument("--out", default="", help="write the moved triangulation here")

    solutions = sub.add_parser("solutions", help="list or describe shipped solutions")
    solutions.add_argument("--describe", default="", help="solution descriptor to inspect")
    solutions.add_argument("--dump", action="store_true", help="print tensor entries")

    selftest = sub.add_parser("selftest", help="run the acceptance criteria")
    selftest.add_argument("--list", action="store_true", help="print criteria without running")
    selftest.add_argument("--only", action="append", default=[], help="run a single criterion")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "verify":
            return cmd_verify(args)
        if args.verb == "statesum":
            return cmd_statesum(args)
        if args.verb == "moves":
            return cmd_moves_walk(args) if args.action == "walk" else cmd_moves_apply(args)
        if args.verb == "solutions":
            return cmd_solutions(args)
        return cmd_selftest(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
