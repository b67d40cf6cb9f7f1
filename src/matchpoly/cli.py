"""Command-line front end: single-graph queries, paper-example demos, and
exhaustive sweep campaigns.

Exit codes: 0 all checks pass, 1 a violation was found (the report is still
emitted), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .covers import certify_main, is_extremal, min_path_cover, path_polynomial
from .errors import MatchpolyError, NotSpecial
from .exactalg import AlgebraicRootClass, IntPoly, factor_irreducible
from .graphs import Graph, builtin, load_graph
from .matchcore import matching_polynomial
from .sweeps import CAMPAIGNS, SweepConfig, default_jobs, run_sweep
from .thetaclass import (
    check_stability,
    classify_vertex,
    construct_eigenvector,
    root_classes,
    theta_partition,
    verify_eigenvector,
)


def _load_graph_arg(args) -> Graph:
    """The ``--graph`` argument, also written to the ``--dot`` file if given."""
    spec = args.graph
    if spec.startswith("builtin:"):
        g = builtin(spec[len("builtin:") :])
    else:
        g = load_graph(Path(spec).read_bytes())
    if args.dot:
        Path(args.dot).write_text(g.to_dot())
    return g


def _resolve_theta(spec: str, g: Optional[Graph]) -> AlgebraicRootClass:
    """Accept a minimal polynomial (dense JSON array or text form) or
    ``factor:k``, the k-th root class of the graph's matching polynomial."""
    if spec.startswith("factor:"):
        if g is None:
            raise MatchpolyError("factor:k needs a graph")
        try:
            k = int(spec[len("factor:") :])
        except ValueError:
            raise MatchpolyError(f"factor index must be an integer, got {spec!r}") from None
        classes = root_classes(g)
        if not (1 <= k <= len(classes)):
            raise MatchpolyError(
                f"factor index {k} out of range; the polynomial has {len(classes)} classes"
            )
        return classes[k - 1][0]
    try:
        data = json.loads(spec)
    except json.JSONDecodeError:
        data = None
    try:
        poly = IntPoly.from_json(data) if isinstance(data, list) else IntPoly.parse(spec)
    except ValueError as exc:
        raise MatchpolyError(f"bad --theta {spec!r}: {exc}") from None
    factored = factor_irreducible(poly)
    if len(factored.factors) != 1 or factored.factors[0][1] != 1 or abs(factored.unit) != 1:
        raise MatchpolyError(f"--theta must be irreducible and primitive, got {poly}")
    minpoly = factored.factors[0][0]
    if not minpoly.is_monic:
        raise MatchpolyError(f"--theta must be monic, got {poly}")
    return AlgebraicRootClass(minpoly)


def _vertex_arg(g: Graph, spec: str) -> int:
    if g.labels is not None and spec in g.labels:
        return g.labels.index(spec)
    try:
        v = int(spec)
    except ValueError:
        raise MatchpolyError(f"unknown vertex {spec!r}") from None
    if not (0 <= v < g.n):
        raise MatchpolyError(f"vertex {v} out of range for n={g.n}")
    return v


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        payload = {"schema": 1, **payload}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


def _sign_row(g: Graph, part) -> str:
    return "  ".join(f"{g.label(v)}:{part.signs[v].symbol}" for v in range(g.n))


# -- subcommand handlers ----------------------------------------------------------


def _cmd_poly(args) -> int:
    g = _load_graph_arg(args)
    mu = matching_polynomial(g)
    _emit(
        {"graph": g.to_json(), "poly": {"text": str(mu), "coeffs": mu.to_json()}},
        args.json,
        str(mu),
    )
    return 0


def _cmd_factor(args) -> int:
    g = _load_graph_arg(args)
    classes = root_classes(g)
    mu = matching_polynomial(g)
    lines = [f"mu = {mu}"]
    payload = {"poly": mu.to_json(), "classes": []}
    for rc, mult in classes:
        approx = rc.approx()
        near = f"  (a real root near {approx:.6g})" if approx is not None else ""
        lines.append(f"  ({rc.minpoly})^{mult}{near}")
        payload["classes"].append({**rc.to_json(), "mult": mult})
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph_arg(args)
    theta = _resolve_theta(args.theta, g)
    vertices = [_vertex_arg(g, args.vertex)] if args.vertex else list(range(g.n))
    rows = []
    payload = {"rootclass": theta.to_json(), "vertices": {}}
    for v in vertices:
        vs = classify_vertex(g, theta, v, allow_nonroot=args.allow_nonroot)
        rows.append(
            f"{g.label(v):>6}  {vs.sign.value:<9} {'special' if vs.special else ''}".rstrip()
        )
        payload["vertices"][g.label(v)] = {"sign": vs.sign.value, "special": vs.special}
    _emit(payload, args.json, "\n".join(rows))
    return 0


def _cmd_partition(args) -> int:
    g = _load_graph_arg(args)
    theta = _resolve_theta(args.theta, g)
    part = theta_partition(g, theta, allow_nonroot=args.allow_nonroot)
    human = "\n".join(
        [
            f"rootclass: {theta}",
            f"mult: {part.mult}",
            f"signs: {_sign_row(g, part)}",
            f"D: {[g.label(v) for v in sorted(part.D)]}",
            f"A: {[g.label(v) for v in sorted(part.A)]}",
            f"C: {[g.label(v) for v in sorted(part.C)]}",
        ]
    )
    _emit(part.to_json(g), args.json, human)
    return 0


def _cmd_eigvec(args) -> int:
    g = _load_graph_arg(args)
    theta = _resolve_theta(args.theta, g)
    vec = construct_eigenvector(g, theta)
    ok = verify_eigenvector(g, theta, vec.values)
    lines = [f"rootclass: {theta}"]
    for v in range(g.n):
        lines.append(f"  f({g.label(v)}) = {vec.values[v]}")
    lines.append(f"support: {[g.label(v) for v in sorted(vec.support())]}")
    lines.append(f"eigenvalue condition: {'exact' if ok else 'VIOLATED'}")
    _emit({**vec.to_json(g), "verified": ok}, args.json, "\n".join(lines))
    return 0 if ok else 1


def _cmd_cover(args) -> int:
    g = _load_graph_arg(args)
    cover = min_path_cover(g)
    lines = [f"minimum cover: {cover.size} path(s)"]
    for p in cover.paths:
        lines.append("  " + " - ".join(g.label(v) for v in p))
    payload = {"cover": cover.to_json(), "size": cover.size}
    if args.theta:
        theta = _resolve_theta(args.theta, g)
        report = is_extremal(g, theta, cover)
        lines.append(f"extremal for {theta.minpoly}: {report.verdict}")
        payload["extremal"] = report.to_json(g)
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_certify(args) -> int:
    g = _load_graph_arg(args)
    verdict = certify_main(g, converse_cap=args.converse_cap)
    lines = [
        f"min cover size: {verdict.min_cover_size}",
        f"max multiplicity: {verdict.max_mult} "
        f"(witnesses: {', '.join(str(rc.minpoly) for rc in verdict.witnesses)})",
        f"max mult <= min cover: {verdict.mult_le_cover}",
        f"covers checked: {verdict.covers_checked}",
        f"biconditional: {'holds' if verdict.biconditional_ok else 'FAILS'}",
    ]
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        lines.append(f"counterexample: {ce.reason}")
        for p in ce.cover.paths:
            lines.append("  " + " - ".join(g.label(v) for v in p))
    _emit(verdict.to_json(g), args.json, "\n".join(lines))
    return 0 if verdict.biconditional_ok else 1


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        campaign=args.campaign,
        n_min=args.min_n,
        n_max=args.max_n,
        jobs=args.jobs,
        seed=args.seed,
        converse_cap=args.converse_cap,
    )
    report = run_sweep(cfg)
    print(
        f"sweep {report.campaign}: {report.items} items, {report.checks_run} checks, "
        f"{len(report.violations)} violation(s) in {report.elapsed:.1f}s",
        file=sys.stderr,
    )
    if args.json:
        sys.stdout.write(report.to_json_text())
    else:
        if report.violations:
            for v in report.violations:
                print(f"VIOLATION {v.ident} [{v.check}] {v.detail}")
        else:
            print(f"{report.campaign}: all {report.checks_run} checks passed")
    return report.exit_code


def _cmd_demo(args) -> int:
    if args.example == "t9":
        return _demo_t9()
    if args.example == "g14":
        return _demo_g14()
    raise MatchpolyError(f"unknown demo {args.example!r}; choose t9 or g14")


def _demo_t9() -> int:
    g = builtin("paper:T9")
    mu = matching_polynomial(g)
    print(f"T9: tree on 9 vertices, mu = {mu}")
    theta = _resolve_theta("x - 1", g)
    part = theta_partition(g, theta)
    print(f"root class x - 1 has multiplicity {part.mult}")
    print(f"signs ('-' essential, '*' neutral, '+' positive):")
    print(f"  {_sign_row(g, part)}")
    print(f"D = {[g.label(v) for v in sorted(part.D)]}")
    print(f"A = {[g.label(v) for v in sorted(part.A)]} (special)")
    print(f"C = {[g.label(v) for v in sorted(part.C)]}")
    v5 = 4
    rep = check_stability(g, theta, v5)
    print(f"\ndeleting the special vertex v5: stable = {rep.stable}")
    print(
        "  signs after: "
        + "  ".join(f"{g.label(r.vertex)}:{r.after_sign.symbol}" for r in rep.records)
    )
    try:
        check_stability(g, theta, 2)
    except NotSpecial as exc:
        print(f"\ndeleting v3 instead is rejected: {exc}")
    sub, kept = g.delete_vertices([2])
    after = theta_partition(sub, theta)
    print(
        "  direct partition of T9 minus v3: "
        + "  ".join(f"{sub.label(i)}:{after.signs[i].symbol}" for i in range(sub.n))
    )
    vec = construct_eigenvector(g, theta)
    print(f"\neigenvector support: {[g.label(v) for v in sorted(vec.support())]}")
    print(
        "  values: "
        + "  ".join(f"{g.label(v)}:{vec.values[v]}" for v in range(g.n))
    )
    verdict = certify_main(g)
    print(
        f"\nmin cover {verdict.min_cover_size}, max mult {verdict.max_mult}, "
        f"biconditional {'holds' if verdict.biconditional_ok else 'FAILS'}"
    )
    return 0


def _demo_g14() -> int:
    g = builtin("paper:G14")
    mu = matching_polynomial(g)
    print(f"G14: two chorded 7-vertex components joined by t4-b4, mu = {mu}")
    theta = _resolve_theta("x^2 - 3", g)
    from .exactalg import root_multiplicity

    print(f"mult of x^2 - 3 (the class of sqrt(3)): {root_multiplicity(mu, theta.minpoly)}")
    cover = min_path_cover(g)
    print(f"minimum cover: {cover.size} paths")
    for p in cover.paths:
        print("  " + " - ".join(g.label(v) for v in p))
    mu7 = path_polynomial(7)
    print(f"mu(P7) = {mu7}")
    print(f"gcd(mu(P7), x^2 - 3) = {mu7.gcd(theta.minpoly)} -> sqrt(3) is not a root of mu(P7)")
    verdict = certify_main(g)
    print(
        f"certify: min cover {verdict.min_cover_size}, max mult {verdict.max_mult}, "
        f"biconditional {'holds' if verdict.biconditional_ok else 'FAILS'}"
    )
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        print(f"counterexample: {ce.reason}")
        for p in ce.cover.paths:
            print("  " + " - ".join(g.label(v) for v in p))
    print("so the cover/multiplicity biconditional does not extend to general graphs")
    return 0


# -- parser ------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_graph_opts(sub, theta: bool = False, theta_required: bool = False) -> None:
    sub.add_argument("--graph", required=True, help="graph JSON file or builtin:NAME")
    sub.add_argument("--dot", help="also write a DOT export of the graph to this path")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if theta:
        sub.add_argument(
            "--theta",
            required=theta_required,
            help="root class: minimal polynomial (text or JSON array) or factor:k",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchpoly",
        description="Exact matching polynomials, root classifications, and path covers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("poly", help="matching polynomial of a graph")
    _add_graph_opts(p)
    p.set_defaults(fn=_cmd_poly)

    p = subs.add_parser("factor", help="irreducible root classes with multiplicities")
    _add_graph_opts(p)
    p.set_defaults(fn=_cmd_factor)

    p = subs.add_parser("classify", help="sign classification of vertices")
    _add_graph_opts(p, theta=True, theta_required=True)
    p.add_argument("--vertex", help="classify a single vertex (label or index)")
    p.add_argument(
        "--allow-nonroot",
        action="store_true",
        help="permit classification when the class has multiplicity 0",
    )
    p.set_defaults(fn=_cmd_classify)

    p = subs.add_parser("partition", help="D/A/C partition for a root class")
    _add_graph_opts(p, theta=True, theta_required=True)
    p.add_argument("--allow-nonroot", action="store_true")
    p.set_defaults(fn=_cmd_partition)

    p = subs.add_parser("eigvec", help="exact eigenvector for a root class of a tree")
    _add_graph_opts(p, theta=True, theta_required=True)
    p.set_defaults(fn=_cmd_eigvec)

    p = subs.add_parser("cover", help="minimum path cover (optionally with extremality)")
    _add_graph_opts(p, theta=True)
    p.set_defaults(fn=_cmd_cover)

    p = subs.add_parser("certify", help="cover/multiplicity biconditional verdict")
    _add_graph_opts(p)
    p.add_argument("--converse-cap", type=int, default=4, help="largest cover size to sweep")
    p.set_defaults(fn=_cmd_certify)

    p = subs.add_parser("sweep", help="exhaustive theorem-verification campaign")
    p.add_argument("campaign", choices=CAMPAIGNS)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--min-n", type=int, default=1)
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=default_jobs(),
        help="worker processes (at most the CPU count and the item count are used)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for random-graph checks")
    p.add_argument("--converse-cap", type=int, default=4)
    p.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    p.set_defaults(fn=_cmd_sweep)

    p = subs.add_parser("demo", help="reproduce a worked example end to end")
    p.add_argument("example", choices=["t9", "g14"])
    p.set_defaults(fn=_cmd_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MatchpolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
