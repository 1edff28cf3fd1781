"""Command-line front-end.

Subcommands cover the graph oracles, the identity checks with the corrected
constants, the counterexample demo for the mis-stated stability constant,
instance generation, the three-valued checkers, the optimal-parameter
bracket, and the full acceptance suite.  Each subcommand takes only the
flags it reads: the search flags (--seed, --starts, --max-iters) belong to
ms-check, nesterov-check, footnote-demo, check-sc, check-sc2 and sigma-opt;
verify-all takes --seed; omega, alpha and reduce take none.

Conventions:

* rationals cross the boundary as "p/q" strings, never as floats;
* floating values are printed as decimal strings with 17 significant
  digits, so identical runs produce byte-identical reports, except
  verify-all, which prints each criterion's wall time;
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
from dataclasses import asdict

from .acceptance import (
    FOOTNOTE_GRAPH,
    IdentitySide,
    footnote_sides,
    format_table,
    gadget_side,
    run_all,
)
from .concordance import MODES, Status, check_sc, check_sc2, sigma_opt_bounds, verdict_to_json_obj
from .graphs import Graph, complement, max_clique, max_stable_set, parse_graph_text
from .optimize import DEFAULT_SEED, OptConfig, report_to_json_obj
from .reduction import GADGETS, ConcordanceInstance, build_instance, threshold
from .tensors import MAX_STARTS, json_field, load_json, read_integer, read_rational
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
    read_integer(args.starts, "--starts", 1, MAX_STARTS)
    return OptConfig(starts=args.starts, max_iters=args.max_iters, seed=args.seed)


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
    """A maximum stable set: a maximum clique of the complement (`graphs.complement` refuses one too large)."""
    witness = sorted(max_stable_set(_load_graph(args.input)))
    return {"stability_number": len(witness), "witness": witness}, 0


def _identity_check(args, kind: str, head) -> tuple[dict, int]:
    """The `kind` gadget side of the input graph (clique) and of its complement
    (stability), each rendered as `head`(side), target, gap and any report.
    The complement is built before either search, so `graphs.complement`
    refuses an oversized one before any work."""
    G = _load_graph(args.input)
    if G.m < 1:
        raise ValueError("identity checks need a graph with at least one edge")
    H = complement(G)
    cfg = _cfg(args)
    clique, stability = gadget_side(kind, G, cfg), gadget_side(kind, H, cfg)

    def render(side: IdentitySide) -> dict:
        obj = {**head(side), "target": _fmt(side.target), "gap": _fmt(side.gap)}
        if side.report is not None:
            obj["report"] = report_to_json_obj(side.report)
        return obj

    report = {"clique": render(clique), "stability": render(stability), "tolerance": _fmt(_IDENTITY_TOL)}
    return report, 0 if max(clique.gap, stability.gap) <= _IDENTITY_TOL else 1


def _cmd_ms_check(args):
    return _identity_check(args, "quartic", lambda side: {"twice_max": _fmt(side.scaled)})


def _cmd_nesterov_check(args):
    return _identity_check(
        args, "cubic", lambda side: {"max_value": _fmt(side.max_value), "scaled_square": _fmt(side.scaled)})


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
            "lhs": _fmt(corrected.target),
            "rhs": _fmt(corrected.scaled),
            "gap": _fmt(corrected.gap),
        },
    }
    return report, 0


def _instance_from_obj(obj: dict) -> ConcordanceInstance:
    """The instance of a JSON object.  A stated `k` must be an integer that
    gives q; a `graph` is not read, since the checker reads it from the tensor."""
    kind = json_field(obj, "kind")
    if type(kind) is not str or kind not in GADGETS:
        raise ValueError(f"field 'kind' must be one of {tuple(GADGETS)}, got {kind!r}")
    gadget = GADGETS[kind]
    tensor = json_field(obj, "tensor")
    if type(tensor) is not dict:
        raise ValueError(f"field 'tensor' must be an object, got {type(tensor).__name__}")
    A = tensor_from_json_obj(tensor, "tensor.")
    q = read_rational(json_field(obj, "q"), "field 'q'")
    if "k" in obj:
        k = read_integer(obj["k"], "field 'k'")
        if threshold(kind, k) != q:
            raise ValueError(f"field 'k' ({k}) disagrees with q = {q}")
    param = obj.get(gadget.param)
    if param is not None:
        param = read_rational(param, f"field '{gadget.param}'")
    inst = ConcordanceInstance(kind=kind, A=A, q=q, sigma_or_tau=param)
    power = obj.get(gadget.gamma)
    if power is not None and param is not None and read_rational(power, f"field '{gadget.gamma}'") != inst.gamma_power:
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
    G = _load_graph(args.input)
    inst = _instance_from_graph(G, args)
    gadget = GADGETS[inst.kind]
    return {
        "kind": inst.kind, "graph": _graph_obj(G), "k": args.k,
        gadget.param: str(inst.sigma_or_tau), gadget.gamma: str(inst.gamma_power),
        "q": str(inst.q), "tensor": tensor_to_json_obj(inst.A),
    }, 0


_EXIT_BY_STATUS = {
    Status.SELF_CONCORDANT: 0,
    Status.NOT_SELF_CONCORDANT: 1,
    Status.UNDECIDED: 2,
}


def _load_instance(args) -> ConcordanceInstance:
    text = _read_input(args.input)
    if text.lstrip().startswith("{"):
        return _instance_from_obj(load_json(text))  # a file of the other kind fails in `args.check`
    return _instance_from_graph(parse_graph_text(text), args)


def _cmd_check(args):
    verdict = args.check(_load_instance(args), _cfg(args), mode=args.mode)
    return verdict_to_json_obj(verdict, seed=args.seed), _EXIT_BY_STATUS[verdict.status]


def _cmd_sigma_opt(args):
    text = _read_input(args.input)
    if text.lstrip().startswith("{"):
        A = tensor_from_json_obj(load_json(text))
    else:
        A = tensor_from_text(text)
    bounds = sigma_opt_bounds(A, _cfg(args))
    return {"lower": _fmt(bounds.lower), "upper": _fmt(bounds.upper)}, 0


def _cmd_verify_all(args):
    if not 2 <= args.max_n <= 6:  # the exhaustive sweeps enumerate graphs with 2..6 vertices
        raise ValueError(f"--max-n must be in 2..6, got {args.max_n}")
    if not 0.0 <= args.identity_tol <= 1e-6:  # it only tightens; inf would pass criteria 1-2 unchecked, nan fail them
        raise ValueError(f"--identity-tol must be in 0..1e-6, got {args.identity_tol:g}")
    results = run_all(max_n=args.max_n, seed=args.seed, identity_tol=args.identity_tol)
    code = 0 if all(r.passed for r in results) else 1
    if args.format == "json":
        return {"criteria": [{**asdict(r), "seconds": _fmt(r.seconds)} for r in results], "passed": code == 0}, code
    return format_table(results), code


# ---------------------------------------------------------------------------
# Parser wiring


def _command(commands, name: str, summary: str, handler, with_input=True, search=True):
    """A subcommand with `--format`, the input file unless `with_input` is false,
    and the search flags read by `_cfg` when `search` is true."""
    sub = commands.add_parser(name, help=summary)
    if with_input:
        sub.add_argument("input", help="graph/instance/tensor file, or '-' for stdin")
    if search:
        _add_seed(sub)
        sub.add_argument("--starts", type=int, default=8, help="multistart count (default %(default)s)")
        sub.add_argument("--max-iters", type=int, default=400, help="iterations per start (default %(default)s)")
    sub.add_argument("--format", choices=("json", "text"), default="json", help="report format")
    sub.set_defaults(handler=handler)
    return sub


def _add_seed(sub):
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selfconcord", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    _command(commands, "omega", "exact clique number with witness", _cmd_omega, search=False)
    _command(commands, "alpha", "exact stability number with witness", _cmd_alpha, search=False)
    _command(commands, "ms-check", "simplex quadratic identities for clique and stability numbers", _cmd_ms_check)
    _command(commands, "nesterov-check", "sphere cubic-form identities (corrected constants)", _cmd_nesterov_check)
    _command(commands, "footnote-demo", "counterexample to the mis-stated stability constant", _cmd_footnote_demo,
             with_input=False)

    sub = _command(commands, "reduce", "emit a decision instance for (graph, k, parameter)", _cmd_reduce,
                   search=False)
    sub.add_argument("--k", type=int, required=True, help="target clique size (>= 3)")
    sub.add_argument("--kind", choices=tuple(GADGETS), default="cubic")
    sub.add_argument("--sigma", help="curvature parameter as p/q (cubic)")
    sub.add_argument("--tau", help="curvature parameter as p/q (quartic)")

    for name, kind, check in (("check-sc", "cubic", check_sc), ("check-sc2", "quartic", check_sc2)):
        sub = _command(commands, name, f"three-valued {kind} decision", _cmd_check)
        sub.add_argument("--mode", choices=MODES, default="relax")
        sub.add_argument("--k", type=int, default=3, help="clique target when input is a graph")
        sub.add_argument(f"--{GADGETS[kind].param}", help="curvature parameter as p/q when input is a graph")
        sub.set_defaults(kind=kind, check=check)

    _command(commands, "sigma-opt", "bracket the optimal parameter of an order-3 tensor", _cmd_sigma_opt)

    sub = _command(commands, "verify-all", "run the acceptance suite", _cmd_verify_all, with_input=False, search=False)
    _add_seed(sub)
    sub.add_argument("--max-n", type=int, default=5, help="largest vertex count in exhaustive sweeps, 2..6")
    sub.add_argument(
        "--identity-tol", type=float, default=1e-6,
        help="identity tolerance for the simplex/sphere sweeps, 0..1e-6 (default %(default)s)",
    )

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
