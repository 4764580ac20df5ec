"""Host-speed correction for the benchmark's bounded time metrics.

On a shared host the same operation can run 1.5-2x slower for minutes at a
time, because other tenants contend for the physical core. No statistic
taken inside one run removes a slowdown that lasts longer than the run, so
run-to-run spread of raw wall times exceeds any useful bound.

``Reference`` is a fixed piece of numpy and Python work that shares no code
with lotshare: small-MLP train steps with an embedding scatter (the shape of
a ``mask_search`` step), an Adam-style update over 640k parameters (the
``wide_tables`` optimizer), and parsing of TSV candidate lines (the
``score`` input path). The benchmark runs it on the same CPU right before
and right after every timed interval. An interval's corrected time is its
wall time times ``REF_S`` over the mean of those two reference times: the
wall time the interval would take on a host where the reference takes
``REF_S``. A change to lotshare moves the corrected time as it moves the wall
time, because the reference does not run lotshare code; a change in host
speed moves both the interval and the reference, and cancels.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Reference time on an idle 2-vCPU VM (Python 3.11, numpy 2, OpenBLAS, one
# thread). It only sets the scale of corrected times; any fixed value would
# do, and it must not change between the commits being compared.
REF_S = 0.35

MLP_STEPS = 200
ADAM_PARAMS, ADAM_STEPS = 640_000, 12
PARSE_LINES = 20_000


class Reference:
    """Fixed work whose time tracks the speed the host gives this process."""

    def __init__(self):
        rng = np.random.default_rng(20080987)
        # small MLP: 8 fields x 16 rows x 8 dims -> 64 -> 32 -> 1
        self.init = [rng.standard_normal(s) * 0.1
                     for s in ((8, 16, 8), (64, 64), (64, 32), (32, 1))]
        self.ids = rng.integers(0, 16, (40, 256, 8))
        self.labels = (rng.random((40, 256, 1)) < 0.3).astype(np.float64)
        # Adam-style update over one wide table
        self.grad = rng.standard_normal(ADAM_PARAMS)
        # candidate lines: 8 comma-separated ids, a tab, a length
        ids = rng.integers(0, 10_000, (PARSE_LINES, 8)).tolist()
        lengths = rng.uniform(5.0, 600.0, PARSE_LINES).tolist()
        self.lines = [f"{','.join(map(str, r))}\t{x:.1f}" for r, x in zip(ids, lengths)]

    def _mlp(self) -> float:
        params = [p.copy() for p in self.init]
        emb, w1, w2, w3 = params
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        fields = np.arange(8)
        loss = 0.0
        for step in range(MLP_STEPS):
            idx, y = self.ids[step % 40], self.labels[step % 40]
            x = emb[fields, idx].reshape(256, 64)
            h1 = np.maximum(x @ w1, 0.0)
            h2 = np.maximum(h1 @ w2, 0.0)
            p = 1.0 / (1.0 + np.exp(-(h2 @ w3)))
            dz = (p - y) / 256.0
            d2 = (dz @ w3.T) * (h2 > 0)
            d1 = (d2 @ w2.T) * (h1 > 0)
            g_emb = np.zeros_like(emb)
            np.add.at(g_emb, (fields, idx), (d1 @ w1.T).reshape(256, 8, 8))
            grads = (g_emb, x.T @ d1, h1.T @ d2, h2.T @ dz)
            for k, g in enumerate(grads):
                m[k] *= 0.9
                m[k] += 0.1 * g
                v[k] *= 0.999
                v[k] += 0.001 * g * g
                params[k] -= 1e-3 * m[k] / (np.sqrt(v[k]) + 1e-8)
            loss += float(p.sum())
        return loss

    def _adam(self) -> float:
        g = self.grad
        p, m, v = np.zeros_like(g), np.zeros_like(g), np.zeros_like(g)
        for _ in range(ADAM_STEPS):
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * g * g
            p -= 1e-3 * m / (np.sqrt(v) + 1e-8)
        return float(p[0])

    def _parse(self) -> float:
        rows, lengths = [], []
        for line in self.lines:
            ids, length = line.split("\t")
            rows.append([int(x) for x in ids.split(",")])
            lengths.append(float(length))
        return float(np.asarray(rows).sum() + np.asarray(lengths).sum())

    def run(self) -> float:
        """Wall time of one pass over the reference work.

        The garbage collector is off meanwhile, so that the time does not
        depend on how many objects the program under test holds.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._mlp()
            self._adam()
            self._parse()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def corrected(wall_s: float, ref_before: float, ref_after: float) -> float:
    """``wall_s`` scaled to a host on which the reference takes ``REF_S``."""
    return wall_s * REF_S / (0.5 * (ref_before + ref_after))
