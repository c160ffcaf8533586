"""One benchmark repetition: a fresh process that drives feo2's CLI once.

Usage: python3 child.py JOB_JSON

The job names the CLI invocations to make and where to write the result. The
harness (run.py) starts this process and reads ``result.json`` afterwards.
Timestamps use ``time.monotonic``, the same system-wide clock the harness
reads when it starts the process, so set-up time includes interpreter start.

Only call-time lookups are rebound, never program code:
- ``feo2.cli.run_experiment`` gets a callback chained in front of the CLI's
  own row writer, stamping the end of every round;
- ``feo2.simulate.build_population`` stamps the end of set-up;
- in the privacy plan, the CLI's ``solve_z``, ``monte_carlo_server_variance``
  and ``lambda_sweep`` stamp, and name, the end of every plan step;
- with ``trace`` set, every name in spans.TARGETS records spans as well.

With ``calibrate`` set, a fixed reference kernel (``reference``) runs right
after every stamp, a few times after the set-up stamp and once after each
step, and its durations are recorded in the order of the stamps. Its time is
kept out of every timestamp: all stamps read ``Clock.now``, which is
``time.monotonic`` minus the time spent in the kernel so far. The harness
divides the program's times by the kernel's, taken at the same moments of the
same process, to remove the shared host's speed drift.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import numpy as np

REFERENCE_AT_SETUP = 5  # kernel runs after the set-up stamp; set-up-only repetitions have no others


def reference(x: np.ndarray, w: np.ndarray, labels: np.ndarray) -> None:
    """Fixed work of the kinds the workloads do, about 3 ms: an interpreted
    loop, small-array steps like a local gradient step, and a vectorized draw
    and reduction like a Monte Carlo batch. It never touches feo2."""
    acc = 0
    for j in range(20_000):
        acc += j * j
    w = w.copy()
    rows = np.arange(len(labels))
    for _ in range(60):
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, labels] -= 1.0
        w -= 0.1 * (x.T @ p) / len(labels)
    draws = np.random.default_rng(0).standard_normal((4_000, 8))
    (draws * draws).sum(axis=1).mean()


class Clock:
    """``time.monotonic`` minus the time spent in the reference kernel."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.paused = 0.0
        rng = np.random.default_rng(0)
        self._inputs = (rng.standard_normal((20, 16)), rng.standard_normal((16, 10)), rng.integers(0, 10, 20))

    def now(self) -> float:
        return time.monotonic() - self.paused

    def stamp(self, stamps: list, reference_s: list, repeats: int = 1) -> None:
        """Append the time to ``stamps``, then the kernel's times to ``reference_s``."""
        stamps.append(self.now())
        if not self.calibrate:
            return
        for _ in range(repeats):
            start = time.monotonic()
            reference(*self._inputs)
            elapsed = time.monotonic() - start
            reference_s.append(elapsed)
            self.paused += elapsed


def _call_then(fn, after):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        after()
        return out

    return wrapped


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)

    import feo2.accounting
    import feo2.cli as cli
    import feo2.simulate as sim

    clock = Clock(job["calibrate"])
    setup: list[float] = []
    steps: list[float] = []
    step_names: list[str] = []
    setup_reference_s: list[float] = []
    step_reference_s: list[float] = []
    rdp_cache_info = feo2.accounting.rdp_increment.cache_info
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()

    if job["kind"] == "simulation":
        sim.build_population = _call_then(
            sim.build_population, lambda: clock.stamp(setup, setup_reference_s, REFERENCE_AT_SETUP)
        )
        run_experiment = cli.run_experiment

        def chained(cfg, workers=1, on_round=None):
            def on_round_stamped(report):
                clock.stamp(steps, step_reference_s)
                on_round(report)

            return run_experiment(cfg, workers=workers, on_round=on_round_stamped)

        cli.run_experiment = chained
    else:
        clock.stamp(setup, setup_reference_s, REFERENCE_AT_SETUP)

        def plan_step(name):
            def after():
                step_names.append(name)
                clock.stamp(steps, step_reference_s)

            return after

        for name in ("solve_z", "monte_carlo_server_variance", "lambda_sweep"):
            setattr(cli, name, _call_then(getattr(cli, name), plan_step(name)))

    codes, query_s = [], []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in job["argv"]:
            t = clock.now()
            codes.append(cli.main(argv))
            query_s.append(clock.now() - t)
    done = clock.now()

    result = {
        "codes": codes,
        "query_s": query_s,
        "setup_end": setup[0] if setup else None,
        "steps": steps,
        "step_names": step_names,
        "done": done,
        "setup_reference_s": setup_reference_s,
        "step_reference_s": step_reference_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "feo2_file": cli.__file__,
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
        result["trace"]["rdp_cache"] = rdp_cache_info()._asdict()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
