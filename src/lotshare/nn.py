"""Dense layer primitives: Xavier init, affine/ReLU/sigmoid forward-backward, Adam.

Everything is float64 numpy. All randomness goes through an explicit
``numpy.random.Generator`` so that equal seeds give bit-identical results.
"""

from __future__ import annotations

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


# Entries per slice of an Adam step: the slice's working arrays stay in L2.
_CHUNK = 32768


def check_views(flat: np.ndarray, blocks) -> None:
    """Raise ShapeError unless ``blocks`` are views of the contiguous 1-D
    float64 vector ``flat``, back to back from its start, covering it."""
    if flat.ndim != 1 or flat.dtype != DTYPE or not flat.flags.c_contiguous:
        raise ShapeError(f"flat parameters must be a contiguous 1-D float64 vector, "
                         f"got {flat.dtype} {flat.shape}")
    base = flat.__array_interface__["data"][0]
    offset = 0
    for i, block in enumerate(blocks):
        if (block.dtype != DTYPE or not block.flags.c_contiguous
                or block.__array_interface__["data"][0] != base + 8 * offset):
            raise ShapeError(f"block {i} {block.shape} is not a view of the flat vector "
                             f"at entry {offset}")
        offset += block.size
    if offset != flat.size:
        raise ShapeError(f"blocks cover {offset} of {flat.size} flat entries")


def _bias_table(beta: float, n: int) -> np.ndarray:
    """``1 - beta ** t`` for t < n by numpy's array pow: every bias
    correction Adam takes, whichever clock it reads. Entry 0 is set to 1.0:
    only entries that have never stepped read it, and those are frozen, so
    it just keeps their scratch arithmetic finite."""
    table = 1.0 - beta ** np.arange(n)
    table[0] = 1.0
    return table


class UpdateGate:
    """Which entries of a flat parameter vector an Adam step may change.

    Built once from one entry per block, in order: ``None`` for an ungated
    block, or a 0/1 array for a gated one. Iterating yields those entries.
    ``chunks`` covers the vector in slices of at most ``_CHUNK`` entries,
    each ``(start, stop, active)``: ``active`` is None in ungated blocks,
    True where a gated slice is all open, and the slice's bool array
    otherwise. Fully closed gated blocks get no slice: nothing in them
    changes.
    """

    def __init__(self, per_block, sizes):
        self.per_block = tuple(per_block)
        self.sizes = tuple(sizes)
        if len(self.per_block) != len(self.sizes):
            raise ShapeError(f"gate has {len(self.per_block)} blocks, "
                             f"parameters have {len(self.sizes)}")
        # entries in the ungated blocks before the first gated one
        self.ungated_prefix = 0
        for gate, n in zip(self.per_block, self.sizes):
            if gate is not None:
                break
            self.ungated_prefix += n
        runs: list[tuple[int, int, object]] = []
        start = 0
        for i, (gate, n) in enumerate(zip(self.per_block, self.sizes)):
            stop = start + n
            active = None
            if gate is not None:
                if np.size(gate) != n:
                    raise ShapeError(f"gate {i} has {np.size(gate)} entries, block has {n}")
                active = np.asarray(gate).ravel() != 0
                active = True if active.all() else (active if active.any() else False)
            if active is not False:
                if runs and runs[-1][1] == start and type(runs[-1][2]) is type(active):
                    first, _, prev = runs.pop()
                    if isinstance(active, np.ndarray):
                        active = np.concatenate([prev, active])
                    start = first
                runs.append((start, stop, active))
            start = stop
        self.chunks = [
            (lo, min(lo + _CHUNK, stop),
             act[lo - start:lo - start + _CHUNK] if isinstance(act, np.ndarray) else act)
            for start, stop, act in runs for lo in range(start, stop, _CHUNK)]

    def prefix(self, n: int):
        """The gate over the first ``n`` entries: True if all are open (or
        ungated), False if all are shut, else the bool array of open ones."""
        if self.ungated_prefix >= n:
            return True
        is_open = np.zeros(n, dtype=bool)
        for start, stop, active in self.chunks:
            if start >= n:
                break
            stop = min(stop, n)
            is_open[start:stop] = True if active is None or active is True \
                else active[:stop - start]
        return True if is_open.all() else (is_open if is_open.any() else False)

    def __iter__(self):
        return iter(self.per_block)


class Adam:
    """Adam over one flat float64 parameter vector, updated in place.

    ``params`` holds that vector as ``flat`` and returns views of it, back
    to back, from ``blocks()`` (a ``model.ModelParams``); its embedding
    tables, if it has any, come first and are stacked as ``params.tables``.
    The moments ``m`` and ``v`` and the per-entry clocks ``t_entry`` share
    the vector's layout. ``beta1`` and ``beta2`` must lie in (0.5, 1).

    One rule: an entry that gets no gradient term this step, or whose gate
    is shut, does not move. Its parameter, both moments and its clock stay
    as they are; that is what lets a task leave the other task's private
    weights bit-identical. Every other entry takes
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*square(g)`` and
    ``p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``, with ``bc = 1 - b**t``:

    - Table rows are lazy: only the rows the gradient names step (a compact
      ``model.Grads`` names the batch's rows, a dense one names every row),
      each entry on its own clock in ``t_entry``.
    - A gated MLP block steps its open entries, each on its own clock.
    - An ungated MLP block steps every entry on the step count ``t``.

    Every ``1 - b**t`` is read from one table made by numpy's array pow
    (``_bias_table``), so an ungated entry and an always-open gated entry
    get the same bits.
    """

    def __init__(self, params, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.5 < beta < 1.0:
                raise ValueError(f"Adam {name} must lie in (0.5, 1), got {beta!r}")
        blocks = params.blocks()
        check_views(params.flat, blocks)
        self.flat = params.flat
        self.sizes = tuple(b.size for b in blocks)
        tables = getattr(params, "tables", None)
        self.dim = 1 if tables is None else tables.shape[1]
        self.tables = 0 if tables is None else tables.size
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0
        # int32 halves the clocks' memory; no clock exceeds t, and the bias
        # tables it indexes hold 2t floats each, so memory ends first
        self.t_entry = np.zeros(self.flat.shape, dtype=np.int32)
        self._bc1 = self._bc2 = np.empty(0)
        self._ungated = UpdateGate([None] * len(blocks), self.sizes)
        self._scratch = np.empty((5, max(min(self.flat.size, _CHUNK), self.dim)))
        # p, m, v and the clocks over the tables, one record per row, each
        # with a buffer for the rows of one _table_step slice
        n = min(self.tables, max(1, _CHUNK // self.dim) * self.dim)
        self._table_rows = [
            (a[:self.tables].view(np.dtype((np.void, a.itemsize * self.dim))),
             np.empty(n, a.dtype)) for a in (self.flat, self.m, self.v, self.t_entry)]

    def step(self, grads, update_masks=None) -> None:
        """One update from ``grads``: a ``model.Grads`` of this layout, or
        any object whose ``flat`` holds every entry. ``update_masks`` is
        None (all blocks ungated), an ``UpdateGate``, or a per-block
        sequence to build one from. A compact ``Grads`` (``rows`` set) is
        read through ``rows``, ``values`` and ``mlp`` only, so a step costs
        the batch's rows, not the tables."""
        gate = self._ungated if update_masks is None else update_masks
        if not isinstance(gate, UpdateGate):
            gate = UpdateGate(gate, self.sizes)
        elif gate.sizes != self.sizes:
            raise ShapeError(f"Adam.step: gate block sizes {gate.sizes} vs {self.sizes}")
        tables, d = self.tables, self.dim
        rows = getattr(grads, "rows", None)
        if rows is None:
            g = grads.flat
            if g.shape != self.flat.shape:
                raise ShapeError(f"Adam.step: grads {g.shape} for params {self.flat.shape}")
            rows, values, g = np.arange(tables // d), g[:tables].reshape(-1, d), g[tables:]
        else:
            g, values = grads.mlp, grads.values
            if values.shape != (len(rows), d) or g.size != self.flat.size - tables:
                raise ShapeError(f"Adam.step: table gradient {values.shape} at {len(rows)} "
                                 f"rows and {g.size} other entries, for tables of dim {d} "
                                 f"and {self.flat.size - tables} other entries")
        self.t += 1
        if len(self._bc1) <= self.t:   # no clock exceeds t
            n = max(1024, 2 * self.t)
            self._bc1, self._bc2 = _bias_table(self.beta1, n), _bias_table(self.beta2, n)
        self._table_step(rows, values, gate.prefix(tables))
        bc1, bc2 = float(self._bc1[self.t]), float(self._bc2[self.t])
        for start, stop, active in gate.chunks:
            if stop > tables:   # the part of a chunk in the tables is done there
                if start < tables and isinstance(active, np.ndarray):
                    active = active[tables - start:]
                sl = slice(max(start, tables), stop)
                self._update(self.flat[sl], self.m[sl], self.v[sl], self.t_entry[sl],
                             g[sl.start - tables:stop - tables], active, bc1, bc2)

    def _table_step(self, rows, values, is_open) -> None:
        """Lazy Adam on the tables, viewed as (rows, dim): the entries of
        ``rows`` whose gate is open (``is_open`` from ``UpdateGate.prefix``)
        step on their own clocks, with ``values`` (len(rows), dim) as their
        gradient; every other entry stays as it is. The rows' parameters,
        moments and clocks are gathered in slices of at most ``_CHUNK``
        entries, updated by ``_update`` and scattered back, each row moved
        as one record."""
        if is_open is False or not self.tables:
            return
        d = self.dim
        step = len(self._table_rows[0][1]) // d
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            part = [buf[:len(r) * d] for _, buf in self._table_rows]
            for (records, _), buf in zip(self._table_rows, part):
                records.take(r, out=buf.view(records.dtype), mode="clip")
            active = True if is_open is True else is_open.reshape(-1, d)[r].ravel()
            self._update(*part, values[lo:lo + step].ravel(), active, None, None)
            for (records, _), buf in zip(self._table_rows, part):
                records.put(r, buf.view(records.dtype))

    def _update(self, p, m, v, te, g, active, bc1, bc2) -> None:
        """Adam in place on one slice's parameters ``p``, moments ``m``,
        ``v`` and clocks ``te``, ``g`` being its gradient. ``active`` is
        None for ungated entries, which take the scalars ``bc1``/``bc2``;
        otherwise the open entries (True for all) advance their clocks and
        read their bias corrections from the tables. The ops and their
        operand order match ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + (1-b2)*square(g)`` and
        ``p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``, each rounded as numpy
        rounds it on whole arrays. A partly open slice computes every entry
        in scratch and writes back only the open ones."""
        t1, t2, m_new, v_new, upd = self._scratch[:, :p.size]
        if active is None or active is True:
            m_new, v_new = m, v
        if active is not None:
            if active is True:
                te += 1
            else:
                np.add(te, active, out=te)
            bc1 = self._bc1.take(te, out=t1, mode="clip")
            bc2 = self._bc2.take(te, out=t2, mode="clip")
        b1, b2 = self.beta1, self.beta2
        np.multiply(m, b1, out=m_new)
        np.multiply(g, 1.0 - b1, out=upd)
        np.add(m_new, upd, out=m_new)
        np.multiply(v, b2, out=v_new)
        np.square(g, out=upd)
        np.multiply(upd, 1.0 - b2, out=upd)
        np.add(v_new, upd, out=v_new)
        np.divide(m_new, bc1, out=upd)
        np.multiply(upd, self.lr, out=upd)
        np.divide(v_new, bc2, out=t2)
        np.sqrt(t2, out=t2)
        np.add(t2, self.eps, out=t2)
        np.divide(upd, t2, out=upd)
        if active is None or active is True:
            np.subtract(p, upd, out=p)
            return
        np.subtract(p, upd, out=upd)
        np.putmask(m, active, m_new)
        np.putmask(v, active, v_new)
        np.putmask(p, active, upd)
