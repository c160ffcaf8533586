"""The benchmark's contract with the program. perfbench/ times feo2 by rebinding
names that feo2 looks up at call time (`build_population` stamps a simulation's
set-up end, `run_experiment`'s round callback each round), reads the
accountant's cache counters, and runs the privacy plan through feo2's CLI,
checking its solve-z answers with feo2's own accountant, so a change to src/
must keep all three working. The plan's calls share one process, so they must
share one parser too."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import feo2.accounting
import feo2.cli
import feo2.simulate
from feo2.cli import build_parser, main
from feo2.config import build_experiment_config
from test_golden_outputs import INLINE

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``spans`` and ``run`` modules, imported from the checkout."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("spans"), importlib.import_module("run")
    for name in ("spans", "run"):
        sys.modules.pop(name, None)


def test_every_span_target_resolves(perfbench):
    spans, _ = perfbench
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_the_loop_calls_each_privacy_step_through_its_span_target(monkeypatch):
    # perfbench times these three steps by the bindings in feo2.simulate: a loop
    # that bypassed one would read 0 s for its layer, and raise no error
    cfg = build_experiment_config(INLINE["label_shard_minibatch_ditto"][0])
    calls = {name: [] for name in ("dp_group_mean", "update_clip_norm", "account_round")}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(feo2.simulate, name, counted(name, getattr(feo2.simulate, name)))
    reports = feo2.simulate.run_experiment(cfg).reports
    incoming = [cfg.feo2.S0] + [report.S for report in reports[:-1]]  # each round's clip norm S
    private = [t for t, report in enumerate(reports) if report.N_p_t]
    assert len(reports) == cfg.rounds and private
    z, z_b, N_t = cfg.feo2.z, cfg.feo2.z_b, 12  # a cohort of 0.1 * 120 clients
    assert [(len(updates), S, std) for updates, S, std, _ in calls["dp_group_mean"]] == [
        (reports[t].N_p_t, incoming[t], z * incoming[t] / reports[t].N_p_t) for t in private
    ]
    assert [(S, len(bits), std) for S, bits, std, *_ in calls["update_clip_norm"]] == [
        (S, N_t, z_b / N_t) for S in incoming
    ]
    assert [(q, z) for _, q, z in calls["account_round"]] == [(0.1, z)] * len(private)


def test_a_run_fires_the_set_up_hook_once_then_one_round_hook_per_round(monkeypatch, tmp_path, capsys):
    # perfbench/child.py's simulation hooks: a run that skipped them would read
    # "set-up end was never reached" in every benchmark repetition
    events = []
    build_population, run_experiment = feo2.simulate.build_population, feo2.cli.run_experiment

    def built(*args, **kwargs):
        out = build_population(*args, **kwargs)
        events.append("set-up")
        return out

    def chained(cfg, workers=1, on_round=None):
        def on_round_stamped(report):
            events.append("round")
            on_round(report)

        return run_experiment(cfg, workers=workers, on_round=on_round_stamped)

    monkeypatch.setattr(feo2.simulate, "build_population", built)
    monkeypatch.setattr(feo2.cli, "run_experiment", chained)
    argv = ["run", "--config", str(CONFIGS / "point_demo.yaml"), "--out", str(tmp_path / "out"), "--workers", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert events == ["set-up"] + ["round"] * 10  # point_demo.yaml runs 10 rounds


def test_rdp_increment_keeps_its_cache_counters(perfbench):
    # perfbench/child.py reports rdp_increment.cache_info() as the accounting.rdp_*
    # metrics, so it must be the cache that a ledger's solve fills and reads
    _, run = perfbench
    eps, q, rounds = run.SOLVE_Z_TARGETS[0]
    cache = feo2.accounting.rdp_increment
    cache.cache_clear()
    z, _, order = feo2.accounting.solve_z(eps, run.PLAN_DELTA, q, rounds)
    solved = cache.cache_info()
    assert solved.misses > 0
    ledger = feo2.accounting.PrivacyLedger(((q, z, rounds),))
    # a rescan from the last scan's best order reads only orders that scan read
    _, order = feo2.accounting.epsilon_at_delta(ledger, run.PLAN_DELTA, order)
    replayed = cache.cache_info()
    assert replayed.misses == solved.misses and replayed.hits > solved.hits
    ledger.rdp(order)
    after = cache.cache_info()
    assert (after.hits, after.misses) == (replayed.hits + 1, replayed.misses)


def test_a_traced_plan_repetition_counts_rdp_cache_misses(perfbench, tmp_path):
    # one traced solve-z repetition of the privacy plan, run as the harness runs it
    spans, run = perfbench
    argv = next(argv for argv in run.privacy_plan(0, tmp_path) if argv[0] == "solve-z")
    job = {"kind": "plan", "argv": [argv], "trace": True, "calibrate": False, "run_id": "contract",
           "result": str(tmp_path / "result.json")}
    (tmp_path / "job.json").write_text(json.dumps(job), encoding="utf-8")
    child = [sys.executable, str(PERFBENCH / "child.py"), str(tmp_path / "job.json")]
    assert subprocess.run(child, env=run.child_env(), timeout=120, check=False).returncode == 0
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["trace"]["rdp_cache"]["misses"] > 0
    metrics = spans.layer_metrics(result["trace"], result["setup_end"], result["steps"], result["done"])
    assert metrics["accounting.rdp_increment_misses"] > 0


def test_plan_gate_accepts_solve_z_and_rejects_a_wrong_z(perfbench, tmp_path, capsys):
    _, run = perfbench
    argvs = run.privacy_plan(0, tmp_path)
    assert sum(argv[0] == "solve-z" for argv in argvs) == len(run.SOLVE_Z_TARGETS)
    build_parser.cache_clear()
    for argv in argvs:
        assert main(argv) == 0, argv
    assert build_parser.cache_info().misses == 1  # built by the first call only
    capsys.readouterr()
    payloads = [json.loads(Path(argv[-1]).read_text(encoding="utf-8")) for argv in argvs]
    assert run.check_plan_outputs(payloads, argvs) is None
    first = next(i for i, argv in enumerate(argvs) if argv[0] == "solve-z")
    wrong = list(payloads)
    wrong[first] = dict(payloads[first], z=payloads[first]["z"] * 1.1)
    assert "misses target" in run.check_plan_outputs(wrong, argvs)
