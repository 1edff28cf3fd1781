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
import math
import os
import sys
from fractions import Fraction

from .acceptance import format_table, run_all
from .concordance import Status, check_sc, check_sc2, sigma_opt_bounds, verdict_to_json_obj
from .graphs import Graph, complement, max_clique, max_stable_set, parse_graph_text
from .optimize import (
    DEFAULT_SEED,
    OptConfig,
    max_form_sphere,
    max_quadratic_simplex,
    report_to_json_obj,
)
from .reduction import (
    ConcordanceInstance,
    CliqueInstance,
    build_cubic_instance,
    build_cubic_tensor,
    build_quartic_instance,
    build_quartic_tensor,
    witness_from_clique,
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
    extra = (witness_from_clique(G, C),) if len(C) >= 2 and G.m >= 1 else ()
    rep = None
    if G.m >= 1:
        rep = max_form_sphere(build_cubic_tensor(G), cfg, extra_starts=extra, nonnegative_starts=True)
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
    G = Graph(3, frozenset({(1, 2)}))
    cfg = _cfg(args)
    Gc = complement(G)
    rep = max_form_sphere(
        build_cubic_tensor(Gc), cfg,
        extra_starts=(witness_from_clique(Gc, max_clique(Gc)),),
        nonnegative_starts=True,
    )
    alpha = len(max_stable_set(G))
    erroneous_lhs = math.sqrt(1.0 - 1.0 / alpha)
    erroneous_rhs = 3.0 * math.sqrt(3.0) * rep.best_value
    corrected = 13.5 * rep.best_value**2
    report = {
        "graph": _graph_obj(G),
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
    obj: dict = {"kind": inst.kind}
    if inst.provenance is not None:
        obj["graph"] = _graph_obj(inst.provenance.graph)
        obj["k"] = inst.provenance.k
    if inst.sigma_or_tau is not None:
        obj["sigma" if inst.kind == "cubic" else "tau"] = str(inst.sigma_or_tau)
    if inst.gamma_power is not None:
        obj["gamma_cubed" if inst.kind == "cubic" else "gamma_squared"] = str(inst.gamma_power)
    obj["q"] = str(inst.q)
    obj["tensor"] = tensor_to_json_obj(inst.A)
    return obj


def _instance_from_obj(obj: dict) -> ConcordanceInstance:
    kind = obj["kind"]
    A = tensor_from_json_obj(obj["tensor"])
    q = Fraction(obj["q"])
    provenance = None
    if "graph" in obj and "k" in obj:
        g = obj["graph"]
        G = Graph(int(g["n"]), frozenset(tuple(e) for e in g["edges"]))
        # only trust provenance if the tensor really is the standard gadget
        builder = build_cubic_tensor if kind == "cubic" else build_quartic_tensor
        if builder(G) == A:
            provenance = CliqueInstance(G, int(obj["k"]))
    param = obj.get("sigma") or obj.get("tau")
    power = obj.get("gamma_cubed") or obj.get("gamma_squared")
    return ConcordanceInstance(
        kind=kind,
        A=A,
        q=q,
        gamma_power=Fraction(power) if power else None,
        sigma_or_tau=Fraction(param) if param else None,
        provenance=provenance,
    )


def _cmd_reduce(args):
    G = _load_graph(args.input)
    if args.kind == "cubic":
        if args.sigma is None:
            raise ValueError("cubic reduction needs --sigma p/q")
        inst = build_cubic_instance(G, args.k, Fraction(args.sigma))
    else:
        if args.tau is None:
            raise ValueError("quartic reduction needs --tau p/q")
        inst = build_quartic_instance(G, args.k, Fraction(args.tau))
    return _instance_obj(inst), 0


_EXIT_BY_STATUS = {
    Status.SELF_CONCORDANT: 0,
    Status.NOT_SELF_CONCORDANT: 1,
    Status.UNDECIDED: 2,
}


def _load_instance(args, kind: str) -> ConcordanceInstance:
    text = _read_input(args.input)
    if text.lstrip().startswith("{"):
        inst = _instance_from_obj(json.loads(text))
        if inst.kind != kind:
            raise ValueError(f"instance file is {inst.kind}, expected {kind}")
        return inst
    G = parse_graph_text(text)
    if kind == "cubic":
        if args.sigma is None:
            raise ValueError("graph input needs --k and --sigma to build a cubic instance")
        return build_cubic_instance(G, args.k, Fraction(args.sigma))
    if args.tau is None:
        raise ValueError("graph input needs --k and --tau to build a quartic instance")
    return build_quartic_instance(G, args.k, Fraction(args.tau))


def _cmd_check_sc(args):
    inst = _load_instance(args, "cubic")
    verdict = check_sc(inst, _cfg(args), mode=args.mode)
    return verdict_to_json_obj(verdict, seed=args.seed), _EXIT_BY_STATUS[verdict.status]


def _cmd_check_sc2(args):
    inst = _load_instance(args, "quartic")
    verdict = check_sc2(inst, _cfg(args), mode=args.mode)
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
    sub.add_argument("--kind", choices=("cubic", "quartic"), default="cubic")
    sub.add_argument("--sigma", help="curvature parameter as p/q (cubic)")
    sub.add_argument("--tau", help="curvature parameter as p/q (quartic)")
    sub.set_defaults(handler=_cmd_reduce)

    for name, handler, param in (("check-sc", _cmd_check_sc, "sigma"), ("check-sc2", _cmd_check_sc2, "tau")):
        sub = commands.add_parser(name, help=f"three-valued {'cubic' if param == 'sigma' else 'quartic'} decision")
        _add_common(sub)
        sub.add_argument("--mode", choices=("relax", "grid", "oracle"), default="relax")
        sub.add_argument("--k", type=int, default=3, help="clique target when input is a graph")
        sub.add_argument(f"--{param}", help=f"curvature parameter as p/q when input is a graph")
        sub.set_defaults(handler=handler)

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
