"""feo2 benchmark harness.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop for about S seconds: one fresh process per
repetition (perfbench/child.py driving feo2's CLI with --workers 1), each
started only after the previous one exits, BLAS threads pinned to 1. All
repetitions of one invocation use the same seed, so their outputs must be
byte-identical. The harness writes the generated config or plan, checks every
repetition's outputs, prints every metric by name with its unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, with every time scaled to a fixed
host speed: each repetition also times a reference kernel after every step
(perfbench/child.py), and its times are multiplied by REFERENCE_NOMINAL_S over
the kernel's median time, in that repetition for set-up and run times and
over the nearest steps for step times. --trace 1 alternates traced and
untraced repetitions and reports the per-layer metrics from the traced ones
(perfbench/spans.py) plus the tracing overhead. Per-repetition records, the
environment and output digests go to perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_CYCLES = 2  # byte-identity needs two full repetitions; --trace 1 needs one of each kind
HARD_LIMIT_S = 170  # a run must end within 180 s, even when a child hangs
# child.reference's time on the 2-vCPU Xeon host of baseline.json when it runs
# at its fast speed. Only a constant: it sets the host speed times are scaled to.
REFERENCE_NOMINAL_S = 0.003
REFERENCE_NEIGHBOURS = 5  # a step's time is scaled by the kernel's median over the steps within this many
# The plan's step percentiles cover its Monte Carlo calls only: the four
# solve_z calls take 5-10 times as long, so a percentile near their share of
# the steps would jump between the two kinds. solve_z shows in run_s.
PLAN_STEP_KERNELS = ("monte_carlo_server_variance", "lambda_sweep")
POOL = {"classes": 10, "per_class": 200, "feature_dim": 16, "spread": 1.0}

# privacy_plan parameters: README's analytic examples and four solve-z targets.
SOLVE_Z_TARGETS = ((2.0, 0.02, 100), (1.0, 0.05, 200), (4.0, 0.01, 1000), (8.0, 0.1, 50))
PLAN_DELTA = 1e-5
MC_TRIALS = 200_000
R_SWEEP_STEP = 0.05
R_SWEEP_MC_TOL = 0.03  # acceptance criterion 01's relative tolerance
SERVER_ARGS = ["--N", "100", "--N-p", "95", "--sigma-c2", "1.0", "--gamma2", "0.01"]
TETHER_ARGS = ["--N", "100", "--N-p", "95", "--tau2", "0.5", "--beta2", "0.25", "--gamma2", "1.0"]


def skewed_shard(seed: int) -> dict:
    """configs/skewed_label_shard.yaml with rounds 100 and both seeds set to ``seed``."""
    return {
        "population": {
            "kind": "label_shard", "n_clients": 200, "rho_np": 0.05, "samples_per_client": 20,
            "skew_label": 7, "seed": seed, "pool": dict(POOL),
        },
        "algorithm": "feo2",
        "feo2": {"r": 0.01, "z": 48.0, "z_b": 1.0, "S0": 1.0, "eta": 0.5, "epochs": 1},
        "rounds": 100,
        "cohort_fraction": 1.0,
        "master_seed": seed,
        "delta": 1.0e-5,
    }


def sampled_ditto(seed: int) -> dict:
    """1,000 label-shard clients, 5% sampled per round, mini-batches and Ditto."""
    return {
        "population": {
            "kind": "label_shard", "n_clients": 1000, "rho_np": 0.05, "samples_per_client": 20,
            "skew_label": 7, "seed": seed, "pool": dict(POOL),
        },
        "algorithm": "feo2",
        "feo2": {"r": 0.1, "z": 1.0, "z_b": 5.0, "S0": 1.0, "eta": 0.5, "epochs": 1, "batch_size": 4},
        "ditto": {"lambda_p": 0.5, "lambda_np": 0.5},
        "rounds": 100,
        "cohort_fraction": 0.05,
        "master_seed": seed,
        "delta": 1.0e-5,
    }


def privacy_plan(seed: int, out: Path) -> list[list[str]]:
    """CLI invocations of the analysis plan; the seed drives the Monte Carlo draws."""
    mc = ["--trials", str(MC_TRIALS), "--seed", str(seed)]
    plan = [
        ["analytic", "ratio", *SERVER_ARGS],
        ["analytic", "gaps", *SERVER_ARGS],
        ["analytic", "lambdas", *TETHER_ARGS],
    ]
    for eps, q, rounds in SOLVE_Z_TARGETS:
        plan.append(["solve-z", "--epsilon", str(eps), "--delta", str(PLAN_DELTA),
                     "--q", str(q), "--rounds", str(rounds)])
    plan.append(["analytic", "r-sweep", *SERVER_ARGS, "--dim", "10", "--step", str(R_SWEEP_STEP), *mc])
    for focal in ("private", "opted-out"):
        for aggregator in ("feo2", "fedavg"):
            plan.append(["analytic", "lambda-sweep", *TETHER_ARGS, "--focal", focal,
                         "--aggregator", aggregator, *mc])
    return [argv + ["--out", str(out / f"q{i:02d}.json")] for i, argv in enumerate(plan)]


SIMULATIONS = {"skewed_shard": skewed_shard, "sampled_ditto": sampled_ditto}
WORKLOADS = (*SIMULATIONS, "privacy_plan")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment(seed: int, env: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "feo2").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "seed": seed,
        "default_seed": 0,
        "recheck_seed": 1,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


class Rep:
    """One repetition: a child process and what it left behind."""

    def __init__(self, index: int, traced: bool, setup_only: bool, argv: list, out: Path,
                 spawned: float, code: int, result: dict | None):
        self.index, self.traced, self.setup_only, self.argv, self.out = index, traced, setup_only, argv, out
        self.spawned, self.code, self.result = spawned, code, result
        self.failure: str | None = None
        self.digest: dict | None = None
        self.items = 0

    @property
    def scale(self) -> float:
        """Host speed correction: 1 when the reference kernel was not run."""
        reference_s = self.result["setup_reference_s"] + self.result["step_reference_s"]
        return REFERENCE_NOMINAL_S / statistics.median(reference_s) if reference_s else 1.0

    @property
    def setup_s(self) -> float:
        return self.scale * (self.result["setup_end"] - self.spawned)

    @property
    def run_s(self) -> float:
        return self.scale * (self.result["done"] - self.spawned)

    def step_gaps_ms(self) -> list[float]:
        """Time to each step from the one before (the first: from set-up end),
        scaled by the kernel times taken after the neighbouring steps."""
        marks = [self.result["setup_end"], *self.result["steps"]]
        reference_s = self.result["step_reference_s"]
        names = self.result["step_names"]
        gaps = []
        for i, (a, b) in enumerate(zip(marks, marks[1:])):
            if names and names[i] not in PLAN_STEP_KERNELS:
                continue
            near = reference_s[max(0, i - REFERENCE_NEIGHBOURS): i + REFERENCE_NEIGHBOURS + 1]
            scale = REFERENCE_NOMINAL_S / statistics.median(near) if near else 1.0
            gaps.append(1000.0 * scale * (b - a))
        return gaps


def run_child(job: dict, env: dict, timeout: float) -> tuple[float, int]:
    job_path = Path(job["result"]).with_name("job.json")
    job_path.write_text(json.dumps(job), encoding="utf-8")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)], cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return spawned, code


def run_rep(index: int, traced: bool, setup_only: bool, calibrate: bool, workload: str, seed: int, work: Path,
            env: dict, timeout: float) -> Rep:
    """One child process. A set-up-only repetition runs the workload's config
    with zero rounds (the plan: no queries), so it ends right after set-up."""
    out = work / f"rep{index:02d}"
    out.mkdir(parents=True)
    if workload == "privacy_plan":
        kind, argv = "plan", [] if setup_only else privacy_plan(seed, out)
    else:
        config = work / ("setup.yaml" if setup_only else "config.yaml")
        kind, argv = "simulation", [["run", "--config", str(config), "--out", str(out), "--workers", "1"]]
    job = {"kind": kind, "argv": argv, "trace": traced, "calibrate": calibrate, "run_id": f"{workload}-{seed}-{index}",
           "result": str(out / "result.json")}
    try:
        spawned, code = run_child(job, env, timeout)
    except subprocess.TimeoutExpired:
        spawned, code = time.monotonic(), -1
    result_path = out / "result.json"
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else None
    return Rep(index, traced, setup_only, argv, out, spawned, code, result)


# --- correctness -----------------------------------------------------------


def check_simulation(rep: Rep, cfg: dict) -> str | None:
    """Reason the repetition failed, or None. Also sets its digest and update count."""
    rounds_csv = rep.out / "rounds.csv"
    if not (rounds_csv.exists() and (rep.out / "summary.json").exists()):
        return "missing rounds.csv or summary.json"
    lines = rounds_csv.read_text(encoding="utf-8").splitlines()
    if not lines:
        return "empty rounds.csv"
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if any(row[0] == "FAILED" for row in rows):
        return "FAILED marker row in rounds.csv"
    if len(rows) != cfg["rounds"]:
        return f"{len(rows)} rows, expected {cfg['rounds']}"
    col = {name: i for i, name in enumerate(header)}
    cohort = max(1, round(cfg["cohort_fraction"] * cfg["population"]["n_clients"]))
    sizes = [int(row[col["N_p_t"]]) + int(row[col["N_np_t"]]) for row in rows]
    if any(size != cohort for size in sizes):
        return f"a round's N_p_t + N_np_t differs from the cohort size {cohort}"
    if cfg["feo2"]["z"] > 0:
        eps = [float(row[col["epsilon"]]) for row in rows]
        if not all(math.isfinite(e) for e in eps):
            return "non-finite epsilon with z > 0"
        if any(b < a for a, b in zip(eps, eps[1:])):
            return "epsilon decreased between rounds"
    rep.items = sum(sizes)
    rep.digest = {"rounds.csv": sha256(rounds_csv), "summary.json": sha256(rep.out / "summary.json")}
    return None


def check_plan_outputs(outputs: list[dict], argvs: list[list[str]]) -> str | None:
    """Content checks of one plan's outputs, against feo2's own accountant."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from feo2.accounting import PrivacyLedger, account_round, epsilon_at_delta, solve_z

    tol = inspect.signature(solve_z).parameters["tol"].default
    for argv, payload in zip(argvs, outputs):
        if argv[0] == "solve-z":
            flags = dict(zip(argv[1::2], argv[2::2]))
            target, q = float(flags["--epsilon"]), float(flags["--q"])
            ledger = PrivacyLedger()
            for _ in range(int(flags["--rounds"])):
                ledger = account_round(ledger, q, payload["z"])
            eps = epsilon_at_delta(ledger, float(flags["--delta"]))[0]
            if not abs(eps - target) <= tol:
                return f"epsilon {eps} at z={payload['z']} misses target {target} by more than {tol}"
        elif argv[1] == "r-sweep":
            if not abs(payload["mc_argmin"] - payload["r_star"]) <= R_SWEEP_STEP + 1e-9:
                return f"r-sweep MC argmin {payload['mc_argmin']} is over one step from r* {payload['r_star']}"
            # "mc" is E||estimate||^2 summed over --dim coordinates; the closed
            # forms are per coordinate (feo2.analytic), so compare per coordinate.
            dim = int(argv[argv.index("--dim") + 1])
            at_star = [row["mc"] / dim for row in payload["rows"] if row["r"] == payload["r_star"]]
            if len(at_star) != 1 or not abs(at_star[0] / payload["sigma2_opt"] - 1.0) <= R_SWEEP_MC_TOL:
                return f"MC variance at r* is over {R_SWEEP_MC_TOL:.0%} from server_variance_opt"
    return None


def check_plan(rep: Rep, checked: dict) -> str | None:
    argvs = rep.argv
    paths = [Path(argv[-1]) for argv in argvs]
    if not all(path.exists() for path in paths):
        return "missing plan output"
    digest = hashlib.sha256(b"".join(path.read_bytes() for path in paths)).hexdigest()
    rep.digest = {"plan outputs": digest}
    outputs = [json.loads(path.read_text(encoding="utf-8")) for path in paths]
    rep.items = sum(
        MC_TRIALS * (len(payload["rows"]) if argv[1] == "r-sweep" else 1)
        for argv, payload in zip(argvs, outputs)
        if argv[0] == "analytic" and argv[1] in ("r-sweep", "lambda-sweep")
    )
    if digest not in checked:
        checked[digest] = check_plan_outputs(outputs, argvs)
    return checked[digest]


def check(rep: Rep, cfg: dict | None, reference: dict | None, checked: dict) -> str | None:
    if rep.code != 0 or rep.result is None:
        return f"exit code {rep.code}"
    if not Path(rep.result["feo2_file"]).resolve().is_relative_to(SRC.resolve()):
        return f"imported feo2 from {rep.result['feo2_file']}, not from this checkout"
    if rep.setup_only:
        return None if rep.result["setup_end"] is not None else "set-up end was never reached"
    failure = check_plan(rep, checked) if cfg is None else check_simulation(rep, cfg)
    if failure is None and reference is not None and rep.digest != reference:
        failure = "outputs differ from the first repetition of the same seed"
    return failure


# --- metrics ---------------------------------------------------------------


def mc_seconds(rep: Rep) -> float:
    return rep.scale * sum(
        s for argv, s in zip(rep.argv, rep.result["query_s"])
        if argv[0] == "analytic" and argv[1] in ("r-sweep", "lambda-sweep")
    )


def end_to_end(reps: list[Rep], probes: list[Rep], workload: str) -> dict:
    gaps = sorted(g for rep in reps for g in rep.step_gaps_ms())
    if workload == "privacy_plan":
        rates = [rep.items / mc_seconds(rep) for rep in reps]
    else:
        rates = [rep.items / (rep.run_s - rep.setup_s) for rep in reps]
    return {
        "setup_s": statistics.median(rep.setup_s for rep in reps + probes),
        "run_s": statistics.median(rep.run_s for rep in reps),
        "items_per_s": statistics.median(rates),
        "step_p50_ms": statistics.median(gaps),
        "step_p90_ms": statistics.quantiles(gaps, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(rep.result["maxrss_kb"] / 1024.0 for rep in reps),
    }


def per_layer(traced: list[Rep], untraced: list[Rep]) -> dict:
    per_rep = [
        layer_metrics(rep.result["trace"], rep.result["setup_end"], rep.result["steps"], rep.result["done"])
        for rep in traced
    ]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_s"] = statistics.median(r.run_s for r in traced) - statistics.median(
        r.run_s for r in untraced
    )
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "feo2" / "cli.py").is_file():
        print(f"error: no feo2 sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = SIMULATIONS[args.workload](args.seed) if args.workload in SIMULATIONS else None
    if cfg is not None:
        (work / "config.yaml").write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
        (work / "setup.yaml").write_text(yaml.safe_dump(dict(cfg, rounds=0), sort_keys=False), encoding="utf-8")

    env = child_env()
    hard_end = started + HARD_LIMIT_S
    warm = subprocess.run([sys.executable, "-c", "import feo2.cli"], cwd=ROOT, env=env,
                          timeout=HARD_LIMIT_S / 2, check=False)
    if warm.returncode != 0:
        print("error: feo2 does not import from this checkout", file=sys.stderr)
        return 1

    reps: list[Rep] = []
    checked: dict = {}
    cycles: list[float] = []
    deadline = time.monotonic() + args.seconds
    # --trace 0: each cycle is a set-up-only repetition (more set-up samples,
    # cheaply) and a full one. --trace 1: full repetitions, traced and untraced in turn.
    while True:
        cycle_start = time.monotonic()
        kinds = [(True, False)] if args.trace == 0 else []
        kinds.append((False, bool(args.trace) and len(cycles) % 2 == 0))
        for setup_only, traced in kinds:
            rep = run_rep(len(reps), traced, setup_only, args.trace == 0, args.workload, args.seed, work, env,
                          hard_end - time.monotonic())
            reference = next((r.digest for r in reps if r.digest is not None), None)
            rep.failure = check(rep, cfg, reference, checked)
            reps.append(rep)
            if rep.failure is not None:
                break
        if rep.failure is not None:
            print(f"repetition {rep.index} failed: {rep.failure}")
            break
        cycles.append(time.monotonic() - cycle_start)
        if len(cycles) >= MIN_CYCLES and time.monotonic() + statistics.median(cycles) > deadline:
            break

    good = [r for r in reps if r.failure is None]
    probes = [r for r in good if r.setup_only]
    traced = [r for r in good if r.traced]
    untraced = [r for r in good if not r.traced and not r.setup_only]
    if not untraced or (args.trace and not traced):
        print("error: no repetition completed correctly", file=sys.stderr)
        return 1
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, probes, args.workload)

    env_record = environment(args.seed, env)
    env_record["numpy"] = untraced[0].result["numpy"]
    digest = untraced[0].digest
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env_record,
        "output_sha256": digest,
        "repetitions": [
            {"traced": r.traced, "setup_only": r.setup_only, "code": r.code, "failure": r.failure,
             "setup_s": r.setup_s if r.failure is None else None,
             "run_s": r.run_s if r.failure is None else None,
             "scale": r.scale if r.failure is None else None}
            for r in reps
        ],
        "metrics": metrics,
    }
    results = HERE / "_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)} ({len(probes)} set-up only, {len(traced)} traced)  closed loop, 1 client, --workers 1")
    print("environment " + json.dumps(env_record, sort_keys=True))
    for name, value in digest.items():
        print(f"sha256 {name}: {value}")
    print(f"fail_ratio {len(reps) - len(good)}/{len(reps)}")
    if args.trace == 0:
        scales = [r.scale for r in good]
        print(f"host speed scale (reference kernel {REFERENCE_NOMINAL_S * 1000:g} ms / its median per repetition): "
              f"median {statistics.median(scales):.4f}, range {min(scales):.4f}-{max(scales):.4f}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit_of(name)}")
    line = {
        "correct": len(good) == len(reps),
        "attempted": len(reps),
        "failed": len(reps) - len(good),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
