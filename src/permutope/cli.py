"""Command-line surface.

Every verb maps to one library operation chain and prints deterministic
output: exact rational strings by default, decimal only under ``--float``.
Exit codes: 0 success, 1 domain error, 2 usage error.  Integer options take
ASCII digits alone (:func:`permutope.limits.natural`); argparse refuses any
other form before a verb runs.

Size guards are the library's own: each reads the ``PERMUTOPE_CAP``
environment variable when it checks (see :mod:`permutope.limits`), so the CLI
has no cap options.  The variable is parsed once before any verb runs, so a
malformed value is an error on every verb.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import limits
from .errors import PermutopeError
from .limits import natural

if TYPE_CHECKING:
    from .graphs import Multigraph
    from .perms import PatternVector

# Each verb imports the layers it uses when it runs, so a cold process loads
# only those: stats and mix load perms alone, and a malformed --vector fails
# before any geometry is built.


def _float_str(value: Fraction) -> str:
    """Decimal rendering for display only (never used in decisions)."""
    return f"{float(value):.12g}"


def _fmt(value: Fraction, args: argparse.Namespace) -> str:
    return _float_str(value) if getattr(args, "float", False) else str(value)


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_graph(args: argparse.Namespace) -> Multigraph:
    if getattr(args, "graph", None):
        from .graphs import Multigraph

        return Multigraph.from_json(_read(args.graph))
    if getattr(args, "k", None):
        from .overlap import build_overlap_graph

        return build_overlap_graph(args.k).graph
    raise ValueError("pass --k or --graph")


def _parse_vector(spec: str, k: int) -> PatternVector:
    from .perms import PatternVector

    if spec == "uniform":
        return PatternVector.uniform(k)
    try:
        data = json.loads(_read(spec[1:]) if spec.startswith("@") else spec)
    except RecursionError:
        raise ValueError("vector JSON is nested too deeply to parse") from None
    vector = PatternVector.from_json_dict(data)
    if vector.k != k:
        raise ValueError(f"vector is over S_{vector.k}, expected S_{k}")
    return vector


def _region_and_vector(args: argparse.Namespace):
    """The --vector, parsed once --k is checked against the overlap cap and
    before the region of size --k is built."""
    limits.check_overlap_k(args.k)
    vector = _parse_vector(args.vector, args.k)
    from .feasible import FeasibleRegion

    return FeasibleRegion(args.k), vector


def _vector_json(vector: PatternVector, args: argparse.Namespace) -> dict:
    data = vector.to_json_dict()
    if getattr(args, "float", False):
        data["entries"] = {w: _float_str(Fraction(v)) for w, v in data["entries"].items()}
    return data


# -- verb handlers -------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> int:
    from .perms import Permutation, proportion_vector

    sigma = Permutation.parse(args.perm)
    vector = proportion_vector(args.k, sigma, args.kind)
    print(_dump(_vector_json(vector, args)))
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    from .overlap import build_overlap_graph

    g = build_overlap_graph(args.k).graph
    print(
        f"k={args.k}: {g.n_vertices} vertices, {g.n_edges} edges, "
        f"{'strongly connected' if g.is_strongly_connected() else 'not strongly connected'}, "
        f"{g.out_degree(0)}-regular"
    )
    return 0


def _cmd_vertices(args: argparse.Namespace) -> int:
    from .polytope import CyclePolytope

    graph = _load_graph(args)
    poly = CyclePolytope(graph)
    vertices = poly.vertices()
    listed = []
    for cv in vertices:
        ids = cv.cycle.edge_ids
        weight = _fmt(Fraction(1, len(ids)), args)
        listed.append(
            {
                "cycle_edges": list(ids),
                "cycle_labels": [graph.label(e) for e in ids],
                "vector": {graph.label(e): weight for e in ids},
            }
        )
    payload = {"count": len(vertices), "vertices": listed}
    print(_dump(payload))
    return 0


def _cmd_dim(args: argparse.Namespace) -> int:
    from .polytope import CyclePolytope

    graph = _load_graph(args)
    print(CyclePolytope(graph).dimension())
    return 0


def _decomposition_text(decomposition, args: argparse.Namespace) -> str:
    from .feasible import decomposition_json

    return _dump({"decomposition": decomposition_json(decomposition, lambda w: _fmt(w, args))})


def _cmd_member(args: argparse.Namespace) -> int:
    region, vector = _region_and_vector(args)
    result = region.membership(vector)
    print("true" if result.member else "false")
    if result.member:
        print(_decomposition_text(result.decomposition, args))
    else:
        print(_dump({"violation": result.violation}))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    region, vector = _region_and_vector(args)
    print(_decomposition_text(region.polytope.convex_decomposition(region.point_of(vector)), args))
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    region, vector = _region_and_vector(args)
    plan = region.plan(vector)
    witness = str(plan.generate(args.m))
    # The plan is written first, so a failed write leaves stdout empty.
    if args.plan:
        _write_or_print(plan.to_json(), args.plan)
    print(witness)
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    from .perms import Permutation, mix

    inner = Permutation.parse(args.perm_a)
    outer = Permutation.parse(args.perm_b)
    mixed = mix(lambda m: inner, lambda m: outer, 1)
    print(mixed)
    return 0


def _cmd_universal(args: argparse.Namespace) -> int:
    from .overlap import eulerian_universal_permutation

    print(eulerian_universal_permutation(args.k))
    return 0


def _cmd_faces(args: argparse.Namespace) -> int:
    from .polytope import CyclePolytope

    graph = _load_graph(args)
    poly = CyclePolytope(graph)
    poset = poly.face_poset()
    by_dim = poset.by_dimension()
    payload = {
        "polytope_dimension": poly.dimension(),
        "face_counts": {str(dim): len(handles) for dim, handles in by_dim.items()},
        "faces": [
            {"dimension": dim, "edges": list(h.edge_ids)}
            for dim, handles in by_dim.items()
            for h in handles
        ],
    }
    print(_dump(payload))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    region, vector = _region_and_vector(args)
    from .feasible import convergence_report

    plan = region.plan(vector)
    m_values = args.m_values
    if m_values is None:
        # Default schedule: powers of two while the size fits both limits.
        cap = limits.cap("realize")
        m_values, m = [], 1
        while plan.size_for(m) <= min(args.max_size, cap):
            m_values.append(m)
            m *= 2
        if not m_values:
            raise ValueError(
                f"no m fits under --max-size {args.max_size} and the realize cap {cap} "
                f"(PERMUTOPE_CAP key 'realize'); pass --m-values explicitly"
            )
    report = convergence_report(
        plan.generate,
        args.k,
        m_values,
        consecutive_target=vector,
        include_classical=not args.no_classical,
    )
    _write_or_print(report.to_csv(), args.out)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    if args.format == "dot":
        _write_or_print(graph.to_dot(), args.out)
    else:
        _write_or_print(graph.to_json(), args.out)
    return 0


# -- parser ---------------------------------------------------------------------


def _natural(text: str) -> int:
    """:func:`~permutope.limits.natural` for argparse, which prints this
    refusal (cut to 40 characters) where it would quote a ValueError's whole
    value."""
    try:
        return natural(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _naturals(text: str) -> list[int]:
    """A comma-separated list of :func:`_natural` values."""
    return [_natural(part.strip()) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permutope",
        description="Consecutive pattern statistics and cycle-polytope geometry of permutations.",
    )
    parser.add_argument(
        "--float",
        action="store_true",
        help="display proportions as 12-digit decimals instead of exact rationals",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("stats", help="pattern proportion vector of a permutation")
    p.add_argument("--perm", required=True, help="permutation (digits, or comma-separated)")
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--kind", choices=["classical", "consecutive"], required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("overlap", help="summary of the overlap graph (export writes it)")
    p.add_argument("--k", type=_natural, required=True)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("vertices", help="polytope vertices = simple cycles")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--k", type=_natural, help="use the overlap graph of size k")
    src.add_argument("--graph", metavar="FILE", help="use a JSON graph file")
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("dim", help="dimension of the cycle polytope")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--k", type=_natural)
    src.add_argument("--graph", metavar="FILE")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("member", help="test membership in the feasible region")
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--vector", required=True, help="'uniform', inline JSON, or @file")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("decompose", help="convex decomposition of a feasible vector")
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--vector", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("realize", help="permutation realizing a feasible vector")
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--m", type=_natural, required=True, help="size parameter")
    p.add_argument("--plan", metavar="FILE", help="also write the realization plan JSON")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("mix", help="substitute copies of A into B")
    p.add_argument("--perm-a", required=True, help="consecutive-side permutation")
    p.add_argument("--perm-b", required=True, help="classical-side permutation")
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("universal", help="permutation with every size-k pattern once")
    p.add_argument("--k", type=_natural, required=True)
    p.set_defaults(func=_cmd_universal)

    p = sub.add_parser("faces", help="face poset via full-subgraph enumeration")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--k", type=_natural)
    src.add_argument("--graph", metavar="FILE")
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("report", help="convergence CSV for a realization plan")
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--vector", required=True)
    p.add_argument(
        "--m-values", type=_naturals, help="comma-separated m values (default: powers of 2)"
    )
    p.add_argument("--max-size", type=_natural, default=4096, help="size cap of the default m list")
    p.add_argument("--no-classical", action="store_true", help="skip classical columns")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("export", help="export a graph as DOT or JSON")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--k", type=_natural)
    src.add_argument("--graph", metavar="FILE", help="input JSON graph")
    p.add_argument("--format", choices=["dot", "json"], required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_export)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        limits.caps()
        return args.func(args)
    except (PermutopeError, ValueError, IndexError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            # str(exc) would quote the whole path, however long
            message = f"[Errno {exc.errno}] {exc.strerror}: {limits.excerpt(repr(exc.filename))}"
        print(f"error: {message}", file=sys.stderr)
        return 1
    except MemoryError:
        # Only a raised cap allows a request near the size of memory: name each
        # cap over its default, or the overlap cap when none is.
        caps = limits.caps()
        raised = [key for key, value in caps.items() if value > limits.DEFAULTS[key]]
        named = []
        for key in raised or ["overlap"]:
            value = limits.excerpt(caps[key])
            consent = (
                f"allows tables of up to {value}! entries"
                if key == "overlap"
                else f"is over its default {limits.DEFAULTS[key]}"
            )
            named.append(f"the {key} cap {value} (PERMUTOPE_CAP key '{key}') {consent}")
        print(f"error: out of memory; {'; '.join(named)}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
