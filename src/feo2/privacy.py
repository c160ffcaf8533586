"""A run's private `Mechanism` (what a round releases and charges), clipping,
and the adaptive clip-norm update with its noised indicator mean."""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .models import NumericFailure


@dataclasses.dataclass(frozen=True)
class Mechanism:
    """Each round draws ``cohort_size`` clients without replacement, noises the private
    mean with std update_std(S, N_p) per coordinate and the clip bits' mean with std
    bit_std(N_t), and charges ``(q, z)`` if it drew a private client; q = cohort_size / n_clients."""

    q: float
    cohort_size: int
    z: float
    z_b: float

    @classmethod
    def from_config(cls, cfg) -> Mechanism:
        """The `ExperimentConfig`'s mechanism: a cohort of max(1, round(cohort_fraction * n_clients))."""
        n = cfg.population.n_clients
        cohort_size = max(1, round(cfg.cohort_fraction * n))
        return cls(cohort_size / n, cohort_size, cfg.feo2.z, cfg.feo2.z_b)

    def update_std(self, S: float, N_p: int) -> float:
        return self.z * S / N_p

    def bit_std(self, N_t: int) -> float:
        return self.z_b / N_t

    def to_dict(self) -> dict:
        """The fields, and the terms of the release that the charge assumes."""
        terms = {"sampling": "fixed-size without replacement", "noise_denominator": "realised count"}
        return {**dataclasses.asdict(self), **terms, "clip_bits_charged": False}


def row_norms(rows: np.ndarray) -> np.ndarray:
    """L2 norm of each row, bitwise equal to ``np.linalg.norm(row)``: the root of a
    one-row dot product (``np.linalg.norm(rows, axis=1)`` can differ in the last bit)."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def clip_rows(rows: np.ndarray, S: float, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row onto the L2 ball of radius ``S``; return (clipped, b) with
    b[i] = 1 iff ||rows[i]|| <= S before clipping. The clipped rows go into
    ``out`` (``out=rows`` clips in place, as `run_experiment` clips the delta
    stack it owns), by default a fresh copy. Each pass multiplies only the rows
    above S, each by S/||row||, so a row that fits keeps its bits; the rows whose
    scaled norm lands a few ulps above S take another pass, which makes a second
    clip a bitwise no-op (idempotent)."""
    if S <= 0:
        raise ValueError("clip norm must be positive")
    rows = np.asarray(rows, dtype=np.float64)
    norms = row_norms(rows)
    if not np.isfinite(norms).all():
        raise ValueError(f"cannot clip a vector of norm {norms[~np.isfinite(norms)][0]}")
    b = (norms <= S).astype(np.int64)
    out = rows.copy() if out is None else out
    if out is not rows:
        out[...] = rows
    over = norms > S
    while over.any():
        out[over] *= (S / norms[over])[:, None]
        norms = row_norms(out)
        over = norms > S
    return out, b


def clip(v: np.ndarray, S: float) -> tuple[np.ndarray, int]:
    """`clip_rows` of the single vector ``v``: (clipped, b) with b = 1 iff ||v|| <= S."""
    out, b = clip_rows(np.reshape(np.asarray(v, dtype=np.float64), (1, -1)), S)
    return out[0], int(b[0])


def update_clip_norm(
    S: float, indicators: Sequence[int], std: float, kappa: float, eta_b: float, rng: np.random.Generator
) -> float:
    """Geometric step of the clip norm toward the kappa-quantile of update norms.

    S' = S * exp(-eta_b * ((mean(b) + N(0, std^2)) - kappa)), the noise drawn
    from ``rng`` only when std > 0 (a run passes `Mechanism.bit_std`). A step
    that leaves (0, inf) raises `NumericFailure` naming the value.
    """
    if S <= 0:
        raise ValueError("S must be positive")
    N_t = len(indicators)
    if N_t < 1:
        raise ValueError("need at least one indicator bit")
    b_mean = float(np.mean(indicators))
    if std > 0:
        b_mean += float(rng.normal(0.0, std))
    with np.errstate(over="ignore"):
        S_new = S * float(np.exp(-eta_b * (b_mean - kappa)))
    if not 0.0 < S_new < np.inf:
        raise NumericFailure(f"clip norm update gave S = {S_new!r}")
    return S_new
