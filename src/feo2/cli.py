"""Command-line interface.

Verbs:
  run          execute an experiment config, writing rounds.csv / summary.json /
               manifest.json (which names the privacy `Mechanism`) into --out
  validate     check a config and build its population; print the resolved config and hash
  solve-z      invert the privacy accountant for a target (epsilon, delta)
  analytic     closed-form quantities and Monte Carlo sweeps

Exit codes: 0 success, 1 run failure (partial CSV is flushed with a trailing
FAILED marker row), 2 configuration / usage failure or an output that cannot
be written: --out, or a run's manifest.json / summary.json, which are written
after rounds.csv is complete. `main` alone turns an exception into exit 2.

`main` may be called repeatedly in one process: it builds the argument parser
on its first call and reuses it. Handlers look up the functions they call
(`solve_z`, `parse_config`, ...) in this module at call time.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .accounting import solve_z
from .analytic import (
    AnalyticParams,
    gap_dpfedavg,
    gap_fedavg,
    lambda_star_general,
    lambda_star_np,
    lambda_star_p,
    optimal_ratio,
    server_variance_at,
    server_variance_dpfedavg,
    server_variance_fedavg,
    server_variance_opt,
)
from .config import config_to_dict, manifest_hash, parse_config
from .datagen import build_population
from .privacy import Mechanism
from .simulate import RoundReport, focal_scenario, lambda_sweep, monte_carlo_server_variance, run_experiment

_CONFIG_ERRORS = (OSError, ValueError, TypeError, KeyError)  # malformed YAML is a ValueError


class _OutputError(Exception):
    """An output path that cannot be written; the message is ``<path>: <reason>``."""

    def __init__(self, path, exc: OSError):
        super().__init__(f"{path}: {exc.strerror or exc}")


def _jsonable(obj):
    """Strict-JSON-safe copy: non-finite floats become 'inf'/'-inf'/'nan' strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):  # numpy's float64 is a float
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"


def _write(path, text: str) -> None:
    """Write ``text`` to the file ``path``, making its directory if needed."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _OutputError(path, exc) from exc


def _analytic_params(args) -> AnalyticParams:
    d = getattr(args, "dim", 1)
    split = {key: getattr(args, key) for key in ("tau2", "beta2", "n_s") if getattr(args, key) is not None}
    if args.sigma_c2 is not None:
        if split:
            raise ValueError("give either --sigma-c2 or the --tau2/--beta2/--n-s split, not both")
        return AnalyticParams.from_sigma_c2(
            N=args.N, N_p=args.N_p, sigma_c2=args.sigma_c2, gamma2=args.gamma2, d=d
        )
    if args.tau2 is None or args.beta2 is None:
        raise ValueError("need --sigma-c2, or both --tau2 and --beta2")
    return AnalyticParams(N=args.N, N_p=args.N_p, gamma2=args.gamma2, d=d, **split)


def _add_analytic_verb(an_sub, name: str, fn, help: str, with_dim: bool = False):
    """Register ``feo2 analytic <name>``: the model-parameter flags plus --out,
    answered by ``fn(params, args)``. Returns the subparser for extra flags."""
    sub = an_sub.add_parser(name, help=help, description=help)
    sub.set_defaults(fn=_cmd_emit, payload_fn=lambda args: fn(_analytic_params(args), args))
    sub.add_argument("--out", default=None)
    sub.add_argument("--N", type=float, required=True, help="total number of clients")
    sub.add_argument("--N-p", type=float, required=True, help="number of private clients")
    sub.add_argument("--gamma2", type=float, required=True, help="DP noise variance at the private mean")
    sub.add_argument("--sigma-c2", type=float, default=None, help="per-client update variance (shortcut)")
    sub.add_argument("--tau2", type=float, default=None, help="client truth spread around the global truth")
    sub.add_argument("--beta2", type=float, default=None, help="per-sample observation noise variance")
    sub.add_argument("--n-s", type=int, default=None, help="samples per client (alpha2 = beta2/n_s; default 1)")
    if with_dim:
        sub.add_argument("--dim", type=int, default=1, help="model dimension")
    return sub


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi (inclusive), rounded to 10 decimals."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"--step must be a positive finite number, got {step}")
    return np.round(np.arange(lo, hi + 1e-12, step), 10)


# --- verb handlers ----------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    if args.workers != 1:  # the flag goes once perfbench/run.py stops passing --workers 1
        raise ValueError(f"--workers must be 1, got {args.workers}")

    out_dir = Path(args.out)
    manifest = {
        "config_path": str(Path(args.config).resolve()),
        "config": config_to_dict(cfg),
        "config_sha256": manifest_hash(cfg),
        "mechanism": Mechanism.from_config(cfg).to_dict(),
        "out_dir": str(out_dir.resolve()),
        "started_at": datetime.now(timezone.utc).isoformat(),
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        fh = open(out_dir / "rounds.csv", "w", encoding="utf-8", newline="")
    except OSError as exc:  # nothing is written
        raise _OutputError(args.out, exc) from exc

    result = None
    failure = None
    with fh:
        fh.write(RoundReport.CSV_HEADER + "\n")

        def flush_row(report: RoundReport) -> None:
            fh.write(report.csv_row() + "\n")
            fh.flush()

        try:
            result = run_experiment(cfg, on_round=flush_row)
        except Exception as exc:  # noqa: BLE001 - anything mid-run is a run failure
            failure = exc
            msg = " ".join(str(exc).split()).replace(",", ";") or type(exc).__name__
            fh.write(f"FAILED,{msg}\n")

    manifest["finished_at"] = datetime.now(timezone.utc).isoformat()
    manifest["status"] = "failed" if failure is not None else "ok"
    _write(out_dir / "manifest.json", _json_text(manifest))
    if failure is not None:
        print(f"run failed: {failure}", file=sys.stderr)
        return 1

    final = dataclasses.asdict(result.reports[-1]) if result.reports else None
    summary = {
        "rounds_completed": len(result.reports),
        "final_round": final,
        "privacy": result.ledger.to_dict(),
        "config_sha256": manifest["config_sha256"],
    }
    _write(out_dir / "summary.json", _json_text(summary))
    return 0


def _cmd_emit(args) -> int:
    """Verbs that answer with one JSON payload, written to --out if given, then
    printed; nothing is printed if --out cannot be written."""
    text = _json_text(args.payload_fn(args))
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return 0


def _validate(args) -> dict:
    cfg = parse_config(args.config)
    build_population(cfg.population)  # data a run would reject (malformed IDX, short pool) fails here
    return {"config": config_to_dict(cfg), "config_sha256": manifest_hash(cfg)}


def _solve_z(args) -> dict:
    z, achieved, order = solve_z(args.epsilon, args.delta, args.q, args.rounds)
    return {
        "z": z, "epsilon": args.epsilon, "delta": args.delta, "q": args.q, "rounds": args.rounds,
        "achieved_epsilon": achieved, "order": order,
    }


def _an_ratio(p: AnalyticParams, args) -> dict:
    return {"r_star": optimal_ratio(p)}


def _rule_variances(p: AnalyticParams) -> dict:
    """The server variance under each aggregation rule."""
    rules = {"opt": server_variance_opt, "fedavg": server_variance_fedavg, "dpfedavg": server_variance_dpfedavg}
    return {name: fn(p) for name, fn in rules.items()}


def _an_variance(p: AnalyticParams, args) -> dict:
    payload = _rule_variances(p)
    if args.r is not None:
        payload["at_r"] = {"r": args.r, "variance": server_variance_at(p, args.r)}
    return payload


def _an_gaps(p: AnalyticParams, args) -> dict:
    return {"gap_fedavg": gap_fedavg(p), "gap_dpfedavg": gap_dpfedavg(p)}


def _an_lambdas(p: AnalyticParams, args) -> dict:
    payload = {
        "lambda_opted_out": lambda_star_np(p),
        "lambda_private": lambda_star_p(p),
    }
    if args.r is not None:
        opted_out = focal_scenario(p, False, "fedavg")[0]  # lambda-sweep's: N_p - 1 private peers
        payload["at_r"] = {
            "r": args.r,
            "lambda_private": lambda_star_general(p, True, args.r),
            "lambda_opted_out": lambda_star_general(opted_out, False, args.r),
        }
    return payload


def _an_r_sweep(p: AnalyticParams, args) -> dict:
    grid = list(_grid(0.0, 1.0, args.step))
    r_star = optimal_ratio(p)
    if all(abs(r_star - g) > 1e-12 for g in grid):
        grid = sorted(grid + [r_star])
    rows = [
        {
            "r": r,
            "mc": monte_carlo_server_variance(p, r, args.trials, args.seed),
            "exact": server_variance_at(p, r),
        }
        for r in grid
    ]
    best = min(rows, key=lambda row: row["mc"])
    return {"r_star": r_star, "sigma2_opt": server_variance_opt(p), "mc_argmin": best["r"], "rows": rows}


def _an_lambda_sweep(p: AnalyticParams, args) -> dict:
    grid = list(_grid(args.lambda_min, args.lambda_max, args.step))
    focal_private = args.focal == "private"
    pairs = lambda_sweep(p, focal_private, grid, args.trials, args.seed, aggregator=args.aggregator)
    rows = [{"lambda": lam, "loss": loss} for lam, loss in pairs]
    best = min(rows, key=lambda row: row["loss"])
    scenario, r = focal_scenario(p, focal_private, args.aggregator)
    return {
        "focal": args.focal,
        "aggregator": args.aggregator,
        "r": r,
        "lambda_star": lambda_star_general(scenario, focal_private, r),
        "mc_argmin": best["lambda"],
        "rows": rows,
    }


def _an_rho_sweep(p: AnalyticParams, args) -> dict:
    rows = [
        {"rho_np": float(rho), **_rule_variances(dataclasses.replace(p, N_p=p.N - rho * p.N))}
        for rho in _grid(0.0, 1.0, args.step)
    ]
    return {"rows": rows}


# --- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="feo2",
        description="Federated learning simulator with opt-out client-level differential privacy.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("--config", required=True, help="YAML/JSON experiment config")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument("--workers", type=int, default=1, help="must be 1: a round trains its cohort in one step")
    run.set_defaults(fn=_cmd_run)

    val = sub.add_parser("validate", help="check a config and its population data; print its resolved form")
    val.add_argument("--config", required=True)
    val.add_argument("--out", default=None, help="also write the JSON here")
    val.set_defaults(fn=_cmd_emit, payload_fn=_validate)

    sz = sub.add_parser("solve-z", help="noise multiplier for a target privacy budget")
    sz.add_argument("--epsilon", type=float, required=True)
    sz.add_argument("--delta", type=float, required=True)
    sz.add_argument("--q", type=float, required=True, help="per-round sampling fraction")
    sz.add_argument("--rounds", type=int, required=True)
    sz.add_argument("--out", default=None)
    sz.set_defaults(fn=_cmd_emit, payload_fn=_solve_z)

    an = sub.add_parser("analytic", help="closed forms and Monte Carlo checks")
    an_sub = an.add_subparsers(dest="analytic_verb", required=True)

    _add_analytic_verb(an_sub, "ratio", _an_ratio, "variance-optimal private-group weight r*")

    var = _add_analytic_verb(
        an_sub, "variance", _an_variance, "server estimator variance per aggregation rule"
    )
    var.add_argument("--r", type=float, default=None, help="also evaluate at this ratio")

    _add_analytic_verb(
        an_sub, "gaps", _an_gaps, "variance gaps of FedAvg / DP-FedAvg to the optimum"
    )

    lams = _add_analytic_verb(
        an_sub, "lambdas", _an_lambdas, "optimal personalization tether per client class"
    )
    lams.add_argument("--r", type=float, default=None, help="also evaluate the general form at r")

    rs = _add_analytic_verb(
        an_sub,
        "r-sweep",
        _an_r_sweep,
        "MC server variance over an r grid vs the closed form; 'mc' is summed over the "
        "--dim coordinates, 'exact' and 'sigma2_opt' are per coordinate",
        with_dim=True,
    )
    rs.add_argument("--step", type=float, default=0.05)
    trials_help = (
        "Monte Carlo trials; the trial-mean Gram matrix is sampled from its law, "
        "so cost and memory do not grow with this"
    )
    rs.add_argument("--trials", type=int, default=200_000, help=trials_help)
    rs.add_argument("--seed", type=int, default=0)

    ls = _add_analytic_verb(
        an_sub, "lambda-sweep", _an_lambda_sweep, "MC personalization loss over a lambda grid",
        with_dim=True,
    )
    ls.add_argument("--focal", choices=("private", "opted-out"), default="private")
    ls.add_argument("--aggregator", choices=("feo2", "fedavg"), default="feo2")
    ls.add_argument("--lambda-min", type=float, default=0.0)
    ls.add_argument("--lambda-max", type=float, default=2.0)
    ls.add_argument("--step", type=float, default=0.05)
    ls.add_argument("--trials", type=int, default=100_000, help=trials_help)
    ls.add_argument("--seed", type=int, default=0)

    rho = _add_analytic_verb(
        an_sub, "rho-sweep", _an_rho_sweep, "variance of each rule as the opt-out share varies"
    )
    rho.add_argument("--step", type=float, default=0.01)

    return parser


def main(argv=None) -> int:
    """Run one verb; a config or output error raised in it is printed here and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
