"""Dense layer primitives: Xavier init, affine/ReLU/sigmoid forward-backward, Adam.

Everything is float64 numpy. All randomness goes through an explicit
``numpy.random.Generator`` so that equal seeds give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

DTYPE = np.float64


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; the single entry point for randomness."""
    return np.random.default_rng(int(seed))


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform Xavier/Glorot init on [-b, b] with b = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError(f"xavier_init needs positive dims, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(DTYPE)


def sigmoid(x):
    """Numerically stable logistic; never overflows."""
    x = np.asarray(x, dtype=DTYPE)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def affine_forward(inp: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out = inp @ weights + bias (bias broadcast over rows)."""
    if inp.shape[1] != weights.shape[0]:
        raise ShapeError(
            f"affine_forward: input {inp.shape} incompatible with weights {weights.shape}"
        )
    if bias.shape != (weights.shape[1],):
        raise ShapeError(
            f"affine_forward: bias {bias.shape} incompatible with weights {weights.shape}"
        )
    return inp @ weights + bias


def affine_backward(inp: np.ndarray, weights: np.ndarray, d_out: np.ndarray):
    """Gradients of an affine layer: (d_weights, d_bias, d_input)."""
    d_w = inp.T @ d_out
    d_b = d_out.sum(axis=0)
    d_in = d_out @ weights.T
    return d_w, d_b, d_in


@dataclass
class AdamState:
    """Per-parameter-block Adam moments and step counter.

    ``t_entry`` is allocated on first gated step: a frozen entry must keep its
    bias-correction clock stopped too, so gated blocks count steps per entry.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t_entry: np.ndarray | None = None

    @classmethod
    def for_param(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    update_mask: np.ndarray | None = None,
) -> None:
    """One in-place Adam update with bias correction.

    When ``update_mask`` is given, entries where it is 0 are frozen completely:
    neither the parameter nor its moments change. This is what lets a task
    leave the other task's private weights bit-identical.
    """
    if params.shape != grads.shape:
        raise ShapeError(f"adam_step: params {params.shape} vs grads {grads.shape}")
    if state.m.shape != params.shape or state.v.shape != params.shape:
        raise ShapeError(
            f"adam_step: moment shape {state.m.shape} vs params {params.shape}"
        )
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    if update_mask is None:
        bc1 = 1.0 - b1 ** state.t
        bc2 = 1.0 - b2 ** state.t
        state.m *= b1
        state.m += (1.0 - b1) * grads
        state.v *= b2
        state.v += (1.0 - b2) * np.square(grads)
        params -= lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + eps)
    else:
        if update_mask.shape != params.shape:
            raise ShapeError(
                f"adam_step: update_mask {update_mask.shape} vs params {params.shape}"
            )
        if state.t_entry is None:
            state.t_entry = np.zeros(params.shape, dtype=np.int64)
        active = update_mask != 0
        state.t_entry[active] += 1
        t = state.t_entry[active]
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        g = grads[active]
        m = b1 * state.m[active] + (1.0 - b1) * g
        v = b2 * state.v[active] + (1.0 - b2) * np.square(g)
        state.m[active] = m
        state.v[active] = v
        params[active] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class Adam:
    """Adam over a flat list of parameter blocks, one AdamState each."""

    def __init__(self, params: list[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.states = [
            AdamState(m=np.zeros_like(p), v=np.zeros_like(p),
                      beta1=beta1, beta2=beta2, eps=eps)
            for p in params
        ]
        self._params = params

    def step(self, grads: list[np.ndarray],
             update_masks: list[np.ndarray | None] | None = None) -> None:
        if len(grads) != len(self._params):
            raise ShapeError(
                f"Adam.step: {len(grads)} grads for {len(self._params)} params"
            )
        for i, (p, g, s) in enumerate(zip(self._params, grads, self.states)):
            mask = update_masks[i] if update_masks is not None else None
            adam_step(p, g, s, self.lr, update_mask=mask)
