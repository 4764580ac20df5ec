"""Evaluation metrics: AUC, MSE, the MTL-gain comparison, and the rank scores."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UndefinedMetricError
from .model import Task


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank.

    A tie group is a run of equal values in the stable sort; NaN equals
    nothing, so each NaN is a group of its own. A group spanning sorted
    positions start..end gets ``0.5 * (start + end) + 1.0``.
    """
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    n = len(scores)
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = sorted_scores[1:] != sorted_scores[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:] - 1, n - 1) if n else starts
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auc(labels, scores) -> float:
    """Mann-Whitney AUC: P(random positive outranks random negative), ties 0.5."""
    labels = np.asarray(labels, dtype=np.float64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if labels.shape != scores.shape:
        raise ValueError(f"auc: {len(labels)} labels vs {len(scores)} scores")
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc needs both a positive and a negative sample")
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def mse(labels, predictions) -> float:
    labels = np.asarray(labels, dtype=np.float64).ravel()
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    if labels.size == 0:
        raise ValueError("mse: empty input")
    if labels.shape != predictions.shape:
        raise ValueError(f"mse: {len(labels)} labels vs {len(predictions)} predictions")
    return float(np.mean(np.square(predictions - labels)))


def mtl_gain(metric_single: float, metric_mtl: float, task: Task) -> tuple[float, float]:
    """(absolute, relative) multi-task gain over the single-task model.

    Sign convention: an improvement is positive for both tasks — AUC going up
    for CTR and MSE going down for CVR both give a positive gain. Relative
    gain is absolute gain over the single-task metric.
    """
    if not (np.isfinite(metric_single) and np.isfinite(metric_mtl)):
        raise ValueError("mtl_gain: non-finite metric")
    if Task(task) is Task.CTR:
        absolute = metric_mtl - metric_single
    else:
        absolute = metric_single - metric_mtl
    if metric_single == 0:
        raise ValueError("mtl_gain: relative gain undefined for zero single-task metric")
    return absolute, absolute / metric_single


def format_gain(absolute: float, relative: float) -> str:
    """Comparison-table cell, e.g. '+0.00462 (+3.38%)'."""
    return f"{absolute:+.5f} ({relative * 100.0:+.2f}%)"


def _pow(x: np.ndarray, e: float, name: str, exponent: str) -> np.ndarray:
    """``x ** e`` per entry through Python's scalar float pow. numpy's array
    pow can differ from it in the last bit for exponents other than 0 and 1;
    ``x ** 1.0 == x`` exactly, so that exponent skips the pow. Raises
    ConfigError naming the first entry whose power overflows."""
    if e == 1.0:
        return x
    values = x.tolist()
    try:
        return np.array([v ** e for v in values], dtype=np.float64)
    except OverflowError:
        for i, v in enumerate(values):
            try:
                v ** e
            except OverflowError:
                raise ConfigError(f"candidate {i}: {name}**{exponent} overflows "
                                  f"({name}={v!r}, {exponent}={e!r})") from None
        raise


def rank_scores(pctr, pcvr, lengths, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """pCTR^alpha * pCVR^beta * length^gamma per candidate, each bit for bit
    as Python's ``pctr ** alpha * pcvr ** beta * length ** gamma``. Raises
    ConfigError on inputs of different lengths, a probability outside (0,1)
    or a length that is not positive, and when a power, or the product of
    finite powers, overflows."""
    pctr, pcvr, lengths = (np.asarray(a, dtype=np.float64).ravel()
                           for a in (pctr, pcvr, lengths))
    if not len(pctr) == len(pcvr) == len(lengths):
        raise ConfigError(f"rank_scores: {len(pctr)} pctr, {len(pcvr)} pcvr, "
                          f"{len(lengths)} lengths")
    ok_p = (pctr > 0.0) & (pctr < 1.0) & (pcvr > 0.0) & (pcvr < 1.0)
    ok = ok_p & (lengths > 0)
    if not ok.all():
        i = int(np.argmin(ok))
        if not ok_p[i]:
            raise ConfigError(f"probabilities must be in (0,1): pctr={float(pctr[i])}, "
                              f"pcvr={float(pcvr[i])}")
        raise ConfigError(f"video_length must be positive, got {float(lengths[i])}")
    factors = (_pow(pctr, alpha, "pctr", "alpha"), _pow(pcvr, beta, "pcvr", "beta"),
               _pow(lengths, gamma, "length", "gamma"))
    with np.errstate(over="ignore"):
        scores = factors[0] * factors[1] * factors[2]
    over = np.isinf(scores)
    if over.any():
        over &= np.isfinite(factors[0]) & np.isfinite(factors[1]) & np.isfinite(factors[2])
        if over.any():
            i = int(np.argmax(over))
            raise ConfigError(f"candidate {i}: pctr**alpha * pcvr**beta * length**gamma "
                              f"overflows (alpha={alpha!r}, beta={beta!r}, gamma={gamma!r})")
    return scores


def rank_top_k(scores, k: int) -> list[int]:
    """Indices of the k highest scores, ties broken by candidate index.

    Only the entries scoring at least the k-th highest score, ties at it
    included, are sorted. Raises ConfigError unless ``0 <= k <= len(scores)``.
    """
    neg = -np.asarray(scores, dtype=np.float64).ravel()
    n = len(neg)
    if not 0 <= k <= n:
        raise ConfigError(f"rank_top_k: k={k} for {n} candidates")
    if k == 0:
        return []
    kth = np.partition(neg, k - 1)[k - 1]
    # ~(neg > kth) keeps every tie at the k-th score, and NaN entries,
    # which lexsort orders last
    head = np.flatnonzero(~(neg > kth))
    return head[np.lexsort((head, neg[head]))][:k].tolist()


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


@dataclass
class MetricsReport:
    """Per-run evaluation summary, serializable to text and key=value lines."""

    mode: str
    metrics: dict[str, float]                 # e.g. {"ctr_auc": ..., "cvr_mse": ...}
    sparsity: dict[str, float] = field(default_factory=dict)   # per task
    overlap: dict[str, int] = field(default_factory=dict)
    config_fingerprint: str = ""
    notes: dict[str, str] = field(default_factory=dict)

    def to_kv_lines(self) -> list[str]:
        lines = [f"mode={self.mode}"]
        if self.config_fingerprint:
            lines.append(f"config_fingerprint={self.config_fingerprint}")
        for k in sorted(self.metrics):
            lines.append(f"metric.{k}={self.metrics[k]:.10g}")
        for k in sorted(self.sparsity):
            lines.append(f"sparsity.{k}={self.sparsity[k]:.10g}")
        for k in sorted(self.overlap):
            lines.append(f"overlap.{k}={self.overlap[k]}")
        for k in sorted(self.notes):
            lines.append(f"note.{k}={self.notes[k]}")
        return lines

    def to_text(self) -> str:
        lines = [f"sharing mode : {self.mode}"]
        if self.config_fingerprint:
            lines.append(f"config       : {self.config_fingerprint}")
        for k in sorted(self.metrics):
            lines.append(f"{k:<13}: {self.metrics[k]:.5f}")
        for k in sorted(self.sparsity):
            lines.append(f"sparsity {k:<4}: {self.sparsity[k]:.5f}")
        for k in sorted(self.overlap):
            lines.append(f"overlap {k:<5}: {self.overlap[k]}")
        for k in sorted(self.notes):
            lines.append(f"{k}: {self.notes[k]}")
        return "\n".join(lines)

    @classmethod
    def from_kv_lines(cls, lines) -> "MetricsReport":
        """Parse ``report.kv`` lines; a DataError names the first line whose
        value does not parse, or whose metric or sparsity is not finite."""
        rep = cls(mode="", metrics={})
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, val = line.split("=", 1)
            try:
                if key == "mode":
                    rep.mode = val
                elif key == "config_fingerprint":
                    rep.config_fingerprint = val
                elif key.startswith("metric."):
                    rep.metrics[key[7:]] = _finite_float(val)
                elif key.startswith("sparsity."):
                    rep.sparsity[key[9:]] = _finite_float(val)
                elif key.startswith("overlap."):
                    rep.overlap[key[8:]] = int(val)
                elif key.startswith("note."):
                    rep.notes[key[5:]] = val
            except ValueError:
                raise DataError(f"line {lineno}: bad value in {line!r}") from None
        return rep
