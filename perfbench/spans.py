"""Span recording around feo2's public names, and the per-layer summary of spans.

The program is not edited. `Tracer.install` rebinds module attributes that feo2
looks up at call time (for example ``feo2.simulate.client_update``) to wrappers
that record a span per call: name, start, end, parent span and run id. Spans
stay in memory and are written out when the process ends; `layer_metrics`
turns one process's spans into the per-layer metrics of BENCHMARK.json.

Both sides import this file: the child process records, the harness summarizes.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

# (module, attribute, span name). A function bound in several modules gets one
# wrapper, installed under every binding listed. Only the bindings a call site
# actually resolves are listed: dp_group_mean's inner group_mean call is part
# of the dp_group_mean span, ditto_step's inner local_gradient of ditto_step.
TARGETS = (
    ("feo2.cli", "parse_config", "config.parse"),
    ("feo2.simulate", "build_population", "datagen.build_population"),
    ("feo2.simulate", "stream", "rng.stream"),
    ("feo2.simulate", "client_update", "models.client_update"),
    ("feo2.models", "local_gradient", "models.local_gradient"),
    ("feo2.personalization", "ditto_step", "personalization.ditto_step"),
    ("feo2.privacy", "clip", "privacy.clip"),
    ("feo2.simulate", "update_clip_norm", "privacy.update_clip_norm"),
    ("feo2.simulate", "group_mean", "aggregation.group_mean"),
    ("feo2.simulate", "dp_group_mean", "aggregation.dp_group_mean"),
    ("feo2.simulate", "feo2_combine", "aggregation.feo2_combine"),
    ("feo2.simulate", "apply_update", "aggregation.apply_update"),
    ("feo2.simulate", "account_round", "accounting.account_round"),
    ("feo2.simulate", "epsilon_at_delta", "accounting.epsilon_at_delta"),
    ("feo2.accounting", "epsilon_at_delta", "accounting.epsilon_at_delta"),
    ("feo2.accounting", "rdp_increment", "accounting.rdp_increment"),
    ("feo2.cli", "solve_z", "accounting.solve_z"),
    ("feo2.cli", "monte_carlo_server_variance", "simulate.mc_server_variance"),
    ("feo2.cli", "lambda_sweep", "simulate.lambda_sweep"),
    ("feo2.simulate", "optimal_ratio", "analytic.closed_form"),
) + tuple(
    ("feo2.cli", fn, "analytic.closed_form")
    for fn in (
        "optimal_ratio",
        "server_variance_at",
        "server_variance_opt",
        "server_variance_fedavg",
        "server_variance_dpfedavg",
        "gap_fedavg",
        "gap_dpfedavg",
        "lambda_star_np",
        "lambda_star_p",
        "lambda_star_general",
    )
)


def _note_clip(counts, args, out):
    if out[1] == 0:
        counts["privacy.clipped"] += 1


def _note_combine(counts, args, out):
    if args[0] is None or args[1] is None:
        counts["aggregation.empty_group_rounds"] += 1


# Counts taken at the same boundaries as the spans, from each call's inputs and result.
NOTES = {"privacy.clip": _note_clip, "aggregation.feo2_combine": _note_combine}


class Tracer:
    """In-memory span recorder for one process (one run id).

    Spans live in flat arrays, not one Python object each, so recording adds
    nothing for the garbage collector to scan while the program runs.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts
        note = NOTES.get(name)
        now = time.monotonic

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(now())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                ends[index] = now()
                stack.pop()
            if note is not None:
                note(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(name, fn)
            setattr(module, attr, wrappers[id(fn)])

    def dump(self) -> dict:
        """Spans as [name, start, end, parent index or -1, run id]."""
        names, run_id = self.names, self.run_id
        return {
            "spans": [
                [names[n], s, e, p, run_id]
                for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)
            ],
            "counts": dict(self.counts),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, setup_end: float, steps: list, done: float) -> dict:
    """Per-layer metrics of one traced process.

    ``setup_end`` is when set-up ended, ``steps`` the end of every round (or
    plan step) and ``done`` when all outputs were written, all on the spans'
    clock. Self time is a span's duration minus its direct children's.
    """
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    total: Counter = Counter()
    calls: Counter = Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_time: Counter = Counter()
    for i, (name, start, end, _parent, _run) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]

    last = steps[-1] if steps else setup_end
    top_level = sum(
        end - start
        for _name, start, end, parent, _run in spans
        if parent < 0 and start >= setup_end and end <= last
    )
    solve_z_spans = {i for i, s in enumerate(spans) if s[0] == "accounting.solve_z"}
    solve_z_evals = sum(
        1 for s in spans if s[0] == "accounting.rdp_increment" and s[3] in solve_z_spans
    )
    cache = trace["rdp_cache"]
    return {
        "models.client_update_s": total["models.client_update"],
        "models.client_update_calls": calls["models.client_update"],
        "models.client_update_self_s": self_time["models.client_update"],
        "models.local_gradient_s": total["models.local_gradient"],
        "models.local_gradient_calls": calls["models.local_gradient"],
        "personalization.ditto_step_s": total["personalization.ditto_step"],
        "personalization.ditto_step_calls": calls["personalization.ditto_step"],
        "rng.stream_s": total["rng.stream"],
        "rng.stream_calls": calls["rng.stream"],
        "simulate.residual_s": (last - setup_end) - top_level,
        "privacy.clip_s": total["privacy.clip"],
        "privacy.clip_calls": calls["privacy.clip"],
        "privacy.clipped_ratio": _ratio(counts["privacy.clipped"], calls["privacy.clip"]),
        "privacy.update_clip_norm_s": total["privacy.update_clip_norm"],
        "aggregation.group_mean_s": total["aggregation.group_mean"],
        "aggregation.dp_group_mean_s": total["aggregation.dp_group_mean"],
        "aggregation.combine_s": total["aggregation.feo2_combine"] + total["aggregation.apply_update"],
        "aggregation.empty_group_rounds": counts["aggregation.empty_group_rounds"],
        "aggregation.skipped_rounds": counts["aggregation.feo2_combine.raised.RoundSkipped"],
        "accounting.account_round_s": total["accounting.account_round"],
        "accounting.epsilon_at_delta_s": total["accounting.epsilon_at_delta"],
        "accounting.rdp_increment_s": total["accounting.rdp_increment"],
        "accounting.rdp_increment_misses": cache["misses"],
        "accounting.rdp_cache_hit_ratio": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "accounting.solve_z_s": total["accounting.solve_z"],
        "accounting.solve_z_evals": solve_z_evals,
        "simulate.mc_server_variance_s": total["simulate.mc_server_variance"],
        "simulate.lambda_sweep_s": total["simulate.lambda_sweep"],
        "analytic.closed_form_s": total["analytic.closed_form"],
        "datagen.build_population_s": total["datagen.build_population"],
        "config.parse_s": total["config.parse"],
        "cli.output_s": done - last,
    }
