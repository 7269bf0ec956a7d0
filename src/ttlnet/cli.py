"""Command-line front end: analyze topologies, simulate them, print reference tables.

Exit codes: 0 success, 2 validation/configuration error, 3 state-space
budget exceeded. Errors are written to stderr as one JSON object.
"""

import argparse
import itertools
import json
import sys

from .errors import BudgetExceededError, TtlnetError, ValidationError
from .network import DEFAULT_BUDGET, AnalysisResult, analyze, parse_topology
from .renewal import (
    Deterministic,
    Exponential,
    StoppingPolicy,
    expected_stopped_sum,
    occupancy_renewal,
    table1_reference,
    transform_min,
    transform_r,
    transform_sigma,
)
from .sim import SimConfig, compare, simulate

ANALYZE_CSV_COLUMNS = [
    "object",
    "node",
    "hit_probability",
    "miss_probability",
    "occupancy",
    "input_rate",
    "miss_rate",
    "expected_inter_miss",
    "input_states",
    "output_states",
]

SIMULATE_CSV_COLUMNS = [
    "object",
    "node",
    "requests",
    "hits",
    "misses",
    "hit_ratio",
    "hit_se",
    "miss_ratio",
    "miss_se",
    "occupancy",
    "occupancy_se",
    "miss_rate",
    "miss_rate_se",
    "inter_miss_mean",
    "inter_miss_mean_se",
    "inter_miss_m2",
    "inter_miss_m2_se",
]

TABLE1_CSV_COLUMNS = [
    "model",
    "lambda",
    "mu",
    "nu",
    "omega",
    "transform_closed",
    "transform_engine",
    "expected_stopped_sum_closed",
    "expected_stopped_sum_engine",
    "occupancy_closed",
    "occupancy_engine",
    "max_rel_err",
]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_lines(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(
            ",".join(
                repr(float(row[c])) if isinstance(row[c], float) else str(row[c])
                for c in columns
            )
        )
    return "\n".join(lines) + "\n"


def _pretty_table(columns, rows) -> str:
    def fmt(v):
        return f"{v:.6g}" if isinstance(v, float) else str(v)

    rendered = [[fmt(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) if rendered else len(c) for i, c in enumerate(columns)]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rendered]
    return "\n".join([header, sep, *body]) + "\n"


def _read_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def cmd_analyze(args) -> int:
    topo = _read_config(args.config)
    for join, above in topo.reconvergent.items():
        sys.stderr.write(
            f"warning: reconvergent join {join!r}: its children share an upstream node, but"
            " the analysis treats their streams as independent; not exact: "
            + ", ".join(map(repr, (join, *above)))
            + "\n"
        )
    order = topo.topological_order()
    for nid in order:
        node = topo.nodes[nid]
        approximated = [
            f"{name} by Erlang-{ttl.ph.order}"
            for name, ttl in (("ttl", node.ttl), ("ttl_r", node.ttl_r))
            if ttl is not None and not ttl.exact_on_map_path
        ]
        if approximated:
            inexact = {nid}  # the node and every node its misses reach
            for other in order:
                if inexact.intersection(topo.nodes[other].children):
                    inexact.add(other)
            sys.stderr.write(
                f"warning: node {nid!r}: the MAP path approximates its deterministic "
                + " and ".join(approximated)
                + "; not exact: "
                + ", ".join(repr(other) for other in order if other in inexact)
                + "\n"
            )
    object_ids = [args.object] if args.object else [o.id for o in topo.objects]
    results = [analyze(topo, oid, budget=args.budget) for oid in object_ids]
    payload = {"command": "analyze", "results": [r.to_dict() for r in results]}
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        rows = []
        for res in results:
            for nid, m in res.metrics.items():
                rows.append(
                    {
                        "object": res.object_id,
                        "node": nid,
                        "input_states": res.dimensions[nid]["input"],
                        "output_states": res.dimensions[nid]["output"],
                        **m.to_dict(),
                    }
                )
        render = _csv_lines if args.format == "csv" else _pretty_table
        _emit(render(ANALYZE_CSV_COLUMNS, rows), args.out)
    return 0


def cmd_simulate(args) -> int:
    topo = _read_config(args.config)
    cfg = SimConfig(
        topology=topo,
        event_cap=args.events,
        warmup=args.warmup,
        seed=args.seed,
        object_id=args.object,
    )
    estimate = simulate(cfg)
    payload = {"command": "simulate", "estimate": estimate.to_dict()}
    if args.against:
        with open(args.against, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        candidates = [AnalysisResult.from_dict(r) for r in doc["results"]]
        matching = [r for r in candidates if r.object_id == estimate.object_id]
        if not matching:
            raise ValidationError(
                f"no analysis for object {estimate.object_id!r} in {args.against}"
            )
        report = compare(matching[0], estimate, k_sigma=args.k_sigma)
        payload["comparison"] = report.to_dict()
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        rows = [
            {"object": estimate.object_id, "node": nid, **est.to_dict()}
            for nid, est in estimate.nodes.items()
        ]
        render = _csv_lines if args.format == "csv" else _pretty_table
        text = render(SIMULATE_CSV_COLUMNS, rows)
        if "comparison" in payload and args.format == "pretty":
            comp_cols = ["node", "metric", "analytic", "empirical", "stderr", "z_score", "flagged"]
            comp_rows = payload["comparison"]["rows"]
            text += "\n" + _pretty_table(comp_cols, comp_rows)
        _emit(text, args.out)
    return 0


def _transform(x, policy: StoppingPolicy, omega: float) -> float:
    """The engine's inter-miss transform at omega for one policy."""
    if policy.tag == "R":
        return transform_r(x, policy.ttl, omega)
    if policy.tag == "Sigma":
        return transform_sigma(x, policy.ttl, omega)
    return transform_min(x, policy.ttl_sigma, policy.ttl_r, omega).value


def _table1_rows(lams, mus, nus, omegas):
    rows = []
    for lam, mu, nu, omega in itertools.product(lams, mus, nus, omegas):
        x, exp_ttl, det_ttl = Exponential(lam), Exponential(mu), Deterministic(1.0 / mu)
        policies = {
            "M-M-R": StoppingPolicy.reset_on_request(exp_ttl),
            "M-D-R": StoppingPolicy.reset_on_request(det_ttl),
            "M-D-Sigma": StoppingPolicy.reset_on_miss(det_ttl),
            "M-M-min": StoppingPolicy.min_of(exp_ttl, Exponential(nu)),
        }
        for model, closed in table1_reference(lam, mu, nu, omega).items():
            policy = policies[model]
            engine = {
                "transform": _transform(x, policy, omega),
                "expected_stopped_sum": expected_stopped_sum(x, policy),
                "occupancy": occupancy_renewal(x, policy),
            }
            row = {"model": model, "lambda": lam, "mu": mu, "nu": nu, "omega": omega}
            for name, a in closed.items():
                row[f"{name}_closed"], row[f"{name}_engine"] = a, engine[name]
            row["max_rel_err"] = max(
                abs(a - engine[name]) / max(abs(a), abs(engine[name])) for name, a in closed.items()
            )
            rows.append(row)
    return rows


def cmd_table1(args) -> int:
    for name, values in (("lambda", args.lam), ("mu", args.mu), ("nu", args.nu)):
        if any(v <= 0 for v in values):
            raise ValidationError(f"--{name} values must be positive")
    if any(w < 0 for w in args.omega):
        raise ValidationError("--omega values must be nonnegative")
    rows = _table1_rows(args.lam, args.mu, args.nu, args.omega)
    worst = max(row["max_rel_err"] for row in rows)
    if worst > 1e-12:
        raise TtlnetError(
            f"closed-form and engine values disagree (max rel err {worst:g})"
        )
    if args.format == "json":
        _emit(json.dumps({"command": "table1", "rows": rows}, indent=2) + "\n", args.out)
    else:
        render = _csv_lines if args.format == "csv" else _pretty_table
        _emit(render(TABLE1_CSV_COLUMNS, rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttlnet", description="Exact TTL cache network analysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="exact per-node metrics for a topology")
    p_an.add_argument("--config", required=True, help="topology JSON file")
    p_an.add_argument("--object", default=None, help="object id (default: all)")
    p_an.add_argument("--budget", type=lambda s: int(float(s)), default=DEFAULT_BUDGET)
    p_an.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    p_an.add_argument("--out", default=None, help="output path (default stdout)")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="discrete-event simulation of a topology")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--object", default=None)
    p_sim.add_argument("--events", type=float, required=True, help="leaf request count")
    p_sim.add_argument("--warmup", type=float, default=None, help="events discarded (default 10%%)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--against", default=None, help="analysis JSON to compare with")
    p_sim.add_argument("--k-sigma", dest="k_sigma", type=float, default=4.0)
    p_sim.set_defaults(func=cmd_simulate)

    p_t1 = sub.add_parser("table1", help="closed-form single-cache reference values")
    p_t1.add_argument("--lambda", dest="lam", type=float, nargs="+", default=[1.0])
    p_t1.add_argument("--mu", type=float, nargs="+", default=[1.0])
    p_t1.add_argument("--nu", type=float, nargs="+", default=[1.0])
    p_t1.add_argument("--omega", type=float, nargs="+", default=[1.0])
    p_t1.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
    p_t1.add_argument("--out", default=None)
    p_t1.set_defaults(func=cmd_table1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        _write_error(exc)
        return 3
    except (ValidationError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        _write_error(exc)
        return 2
    except TtlnetError as exc:
        _write_error(exc)
        return 1


def _write_error(exc: BaseException) -> None:
    json.dump(
        {"error": {"type": type(exc).__name__, "message": str(exc)}},
        sys.stderr,
    )
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
