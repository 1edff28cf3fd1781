"""Command-line front-end.

Subcommands cover the graph oracles, the identity checks with the corrected
constants, the counterexample demo for the mis-stated stability constant,
instance generation, the three-valued checkers, the optimal-parameter
bracket, and the full acceptance suite.

Conventions:

* rationals cross the boundary as "p/q" strings, never as floats;
* floating values are printed as decimal strings with 17 significant
  digits, so identical runs produce byte-identical reports;
* reports go to stdout, diagnostics to stderr;
* exit codes for check-sc / check-sc2: 0 = SELF_CONCORDANT,
  1 = NOT_SELF_CONCORDANT, 2 = UNDECIDED, 3 = error.  Identity checks exit
  1 when a gap exceeds tolerance; other commands exit 0 or 3.

The default seed is fixed (1729) so transcripts reproduce exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .acceptance import FOOTNOTE_GRAPH, footnote_sides, format_table, run_all
from .concordance import MODES, Status, _search, check_sc, check_sc2, sigma_opt_bounds, verdict_to_json_obj
from .graphs import Graph, complement, max_clique, max_stable_set, parse_graph_text
from .optimize import (
    DEFAULT_SEED,
    OptConfig,
    max_quadratic_simplex,
    report_to_json_obj,
)
from .reduction import (
    GADGETS,
    CliqueInstance,
    ConcordanceInstance,
    build_cubic_tensor,
    build_instance,
    threshold,
)
from .tensors import tensor_from_json_obj, tensor_from_text, tensor_to_json_obj

_IDENTITY_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with code 3 (2 is reserved for UNDECIDED)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return parse_graph_text(_read_input(path))


def _cfg(args) -> OptConfig:
    return OptConfig(
        starts=args.starts,
        max_iters=args.max_iters,
        value_tol=args.tol,
        seed=args.seed,
    )


def _render(obj: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(obj, indent=2)
    lines: list[str] = []

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(value, list):
            lines.append(f"{prefix}: {' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{prefix}: {value}")

    walk("", obj)
    return "\n".join(lines)


def _graph_obj(G: Graph) -> dict:
    return {"n": G.n, "m": G.m, "edges": [list(e) for e in G.edge_order]}


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns (report dict or str, exit code))


def _cmd_omega(args):
    G = _load_graph(args.input)
    witness = sorted(max_clique(G))
    return {"clique_number": len(witness), "witness": witness}, 0


def _cmd_alpha(args):
    G = _load_graph(args.input)
    witness = sorted(max_stable_set(G))
    return {"stability_number": len(witness), "witness": witness}, 0


def _simplex_side(G: Graph, over_edges: bool, cfg: OptConfig, order_size: int) -> dict:
    rep = max_quadratic_simplex(G, over_edges, cfg)
    target = 1.0 - 1.0 / order_size
    gap = abs(2.0 * rep.best_value - target)
    return {
        "twice_max": _fmt(2.0 * rep.best_value),
        "target": _fmt(target),
        "gap": _fmt(gap),
        "report": report_to_json_obj(rep),
    }, gap


def _cmd_ms_check(args):
    G = _load_graph(args.input)
    if G.m < 1:
        raise ValueError("identity checks need a graph with at least one edge")
    cfg = _cfg(args)
    clique_side, g1 = _simplex_side(G, True, cfg, len(max_clique(G)))
    stab_side, g2 = _simplex_side(G, False, cfg, len(max_stable_set(G)))
    report = {"clique": clique_side, "stability": stab_side, "tolerance": _fmt(_IDENTITY_TOL)}
    return report, 0 if max(g1, g2) <= _IDENTITY_TOL else 1


def _sphere_side(G: Graph, cfg: OptConfig) -> tuple[dict, float]:
    """One side of the sphere identity: 13.5 * max^2 against 1 - 1/omega(G)."""
    C = max_clique(G)
    rep = None
    if G.m >= 1:
        rep = _search(build_cubic_tensor(G), G, cfg)
        best = rep.best_value
    else:
        best = 0.0
    target = 1.0 - 1.0 / len(C) if C else 0.0
    gap = abs(13.5 * best * best - target)
    side = {
        "max_value": _fmt(best),
        "scaled_square": _fmt(13.5 * best * best),
        "target": _fmt(target),
        "gap": _fmt(gap),
    }
    if rep is not None:
        side["report"] = report_to_json_obj(rep)
    return side, gap


def _cmd_nesterov_check(args):
    G = _load_graph(args.input)
    if G.m < 1:
        raise ValueError("identity checks need a graph with at least one edge")
    cfg = _cfg(args)
    clique_side, g1 = _sphere_side(G, cfg)
    stab_side, g2 = _sphere_side(complement(G), cfg)
    report = {"clique": clique_side, "stability": stab_side, "tolerance": _fmt(_IDENTITY_TOL)}
    return report, 0 if max(g1, g2) <= _IDENTITY_TOL else 1


def _cmd_footnote_demo(args):
    alpha, erroneous_lhs, erroneous_rhs, corrected = footnote_sides(_cfg(args))
    report = {
        "graph": _graph_obj(FOOTNOTE_GRAPH),
        "stability_number": alpha,
        "erroneous_identity": {
            "statement": "sqrt(1 - 1/alpha) = 3*sqrt(3) * max",
            "lhs": _fmt(erroneous_lhs),
            "rhs": _fmt(erroneous_rhs),
            "mismatch": _fmt(abs(erroneous_rhs - erroneous_lhs)),
        },
        "corrected_identity": {
            "statement": "1 - 1/alpha = 27/2 * max^2",
            "lhs": _fmt(1.0 - 1.0 / alpha),
            "rhs": _fmt(corrected),
            "gap": _fmt(abs(corrected - (1.0 - 1.0 / alpha))),
        },
    }
    return report, 0


def _instance_obj(inst: ConcordanceInstance) -> dict:
    gadget = GADGETS[inst.kind]
    obj: dict = {"kind": inst.kind}
    if inst.provenance is not None:
        obj["graph"] = _graph_obj(inst.provenance.graph)
        obj["k"] = inst.provenance.k
    if inst.sigma_or_tau is not None:
        obj[gadget.param] = str(inst.sigma_or_tau)
        obj[gadget.gamma] = str(inst.gamma_power)
    obj["q"] = str(inst.q)
    obj["tensor"] = tensor_to_json_obj(inst.A)
    return obj


def _instance_from_obj(obj: dict) -> ConcordanceInstance:
    kind = obj["kind"]
    if kind not in GADGETS:
        raise ValueError(f"instance kind must be one of {tuple(GADGETS)}, got {kind!r}")
    gadget = GADGETS[kind]
    A = tensor_from_json_obj(obj["tensor"])
    q = Fraction(obj["q"])
    provenance = None
    if "graph" in obj and "k" in obj:
        g = obj["graph"]
        G = Graph(int(g["n"]), frozenset(tuple(e) for e in g["edges"]))
        # only trust provenance if the tensor really is the standard gadget
        if gadget.tensor(G) == A:
            provenance = CliqueInstance(G, int(obj["k"]))
            if threshold(kind, provenance.k) != q:
                raise ValueError(f"field 'k' ({provenance.k}) disagrees with q = {q}")
    param = obj.get(gadget.param)
    inst = ConcordanceInstance(
        kind=kind,
        A=A,
        q=q,
        sigma_or_tau=Fraction(param) if param is not None else None,
        provenance=provenance,
    )
    power = obj.get(gadget.gamma)
    if power is not None and param is not None and Fraction(power) != inst.gamma_power:
        raise ValueError(f"field {gadget.gamma!r} ({power}) disagrees with q = {q} and {gadget.param} = {param}")
    return inst


def _instance_from_graph(G: Graph, args) -> ConcordanceInstance:
    kind = args.kind
    param = GADGETS[kind].param
    value = getattr(args, param)
    if value is None:
        raise ValueError(f"a {kind} instance from a graph needs --{param} p/q")
    return build_instance(G, kind, args.k, value)


def _cmd_reduce(args):
    return _instance_obj(_instance_from_graph(_load_graph(args.input), args)), 0


_EXIT_BY_STATUS = {
    Status.SELF_CONCORDANT: 0,
    Status.NOT_SELF_CONCORDANT: 1,
    Status.UNDECIDED: 2,
}


def _load_instance(args) -> ConcordanceInstance:
    text = _read_input(args.input)
    if text.lstrip().startswith("{"):
        return _instance_from_obj(json.loads(text))  # a file of the other kind fails in `args.check`
    return _instance_from_graph(parse_graph_text(text), args)


def _cmd_check(args):
    verdict = args.check(_load_instance(args), _cfg(args), mode=args.mode)
    return verdict_to_json_obj(verdict, seed=args.seed), _EXIT_BY_STATUS[verdict.status]


def _cmd_sigma_opt(args):
    text = _read_input(args.input)
    if text.lstrip().startswith("{"):
        A = tensor_from_json_obj(json.loads(text))
    else:
        A = tensor_from_text(text)
    bounds = sigma_opt_bounds(A, _cfg(args))
    return {"lower": _fmt(bounds.lower), "upper": _fmt(bounds.upper)}, 0


def _cmd_verify_all(args):
    results = run_all(max_n=args.max_n, seed=args.seed, identity_tol=args.identity_tol)
    code = 0 if all(r.passed for r in results) else 1
    if args.format == "json":
        obj = {
            "criteria": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "details": r.details,
                    "seconds": _fmt(r.seconds),
                }
                for r in results
            ],
            "passed": code == 0,
        }
        return obj, code
    return format_table(results), code


# ---------------------------------------------------------------------------
# Parser wiring


def _add_common(sub, with_input=True):
    if with_input:
        sub.add_argument("input", help="graph/instance/tensor file, or '-' for stdin")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed (default %(default)s)")
    sub.add_argument("--starts", type=int, default=8, help="multistart count (default %(default)s)")
    sub.add_argument("--max-iters", type=int, default=400, help="iterations per start (default %(default)s)")
    sub.add_argument("--tol", type=float, default=1e-13, help="value plateau tolerance (default %(default)s)")
    sub.add_argument("--format", choices=("json", "text"), default="json", help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selfconcord", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("omega", help="exact clique number with witness")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_omega)

    sub = commands.add_parser("alpha", help="exact stability number with witness")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_alpha)

    sub = commands.add_parser("ms-check", help="simplex quadratic identities for clique and stability numbers")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_ms_check)

    sub = commands.add_parser("nesterov-check", help="sphere cubic-form identities (corrected constants)")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_nesterov_check)

    sub = commands.add_parser("footnote-demo", help="counterexample to the mis-stated stability constant")
    _add_common(sub, with_input=False)
    sub.set_defaults(handler=_cmd_footnote_demo)

    sub = commands.add_parser("reduce", help="emit a decision instance for (graph, k, parameter)")
    _add_common(sub)
    sub.add_argument("--k", type=int, required=True, help="target clique size (>= 3)")
    sub.add_argument("--kind", choices=tuple(GADGETS), default="cubic")
    sub.add_argument("--sigma", help="curvature parameter as p/q (cubic)")
    sub.add_argument("--tau", help="curvature parameter as p/q (quartic)")
    sub.set_defaults(handler=_cmd_reduce)

    for name, kind, check in (("check-sc", "cubic", check_sc), ("check-sc2", "quartic", check_sc2)):
        sub = commands.add_parser(name, help=f"three-valued {kind} decision")
        _add_common(sub)
        sub.add_argument("--mode", choices=MODES, default="relax")
        sub.add_argument("--k", type=int, default=3, help="clique target when input is a graph")
        sub.add_argument(f"--{GADGETS[kind].param}", help="curvature parameter as p/q when input is a graph")
        sub.set_defaults(handler=_cmd_check, kind=kind, check=check)

    sub = commands.add_parser("sigma-opt", help="bracket the optimal parameter of an order-3 tensor")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_sigma_opt)

    sub = commands.add_parser("verify-all", help="run the acceptance suite")
    _add_common(sub, with_input=False)
    sub.add_argument("--max-n", type=int, default=5, help="largest vertex count in exhaustive sweeps")
    sub.add_argument(
        "--identity-tol", type=float, default=1e-6,
        help="identity tolerance for the simplex/sphere sweeps (default %(default)s)",
    )
    sub.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
        print(report if isinstance(report, str) else _render(report, args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # interpreter exit cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    except Exception as exc:  # exit 1 means NOT_SELF_CONCORDANT, so no failure may reach it
        print(f"selfconcord: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
