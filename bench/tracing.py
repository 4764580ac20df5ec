"""Span tracing installed from outside the lotshare package.

``Tracer.install`` replaces the public functions of each ``lotshare`` module
with wrappers that record one span per call: its name, start, end and the
span that was open when it began. Every module attribute that refers to a
wrapped function is replaced, so names imported with ``from .x import y``
(``training.batches``) are traced too. ``uninstall`` puts the originals back.

Spans stay in memory until the run ends; ``layer_metrics`` derives self
times, call counts and ratios from them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# (module, attribute path) of every traced function. The span name is
# "<module>.<attribute path>"; the module part names the layer.
TARGETS = (
    ("data", "generate"), ("data", "load"), ("data", "batches"),
    ("model", "init_params"), ("model", "embed"), ("model", "feature_cross"),
    ("model", "forward"), ("model", "backward"),
    ("model", "save_checkpoint"), ("model", "load_checkpoint"),
    ("model", "ModelParams.take_snapshot"), ("model", "ModelParams.rewind"),
    ("nn", "affine_forward"), ("nn", "affine_backward"),
    ("nn", "Adam.__init__"), ("nn", "Adam.step"),
    ("masking", "prune_connections"), ("masking", "prune_neurons"),
    ("masking", "save_mask"), ("masking", "load_mask"),
    ("masking", "overlap_stats"), ("masking", "TaskMask.__post_init__"),
    ("metrics", "auc"), ("metrics", "mse"), ("metrics", "rank_top_k"),
    ("training", "train_model"), ("training", "train_baseline"),
    ("training", "warmup"), ("training", "generate_masks"),
    ("training", "joint_train"), ("training", "_train_step"),
    ("training", "evaluate_artifacts"), ("training", "evaluate"),
    ("training", "predict"),
    ("cli", "main"), ("cli", "build_report"), ("cli", "write_run_dir"),
)

PACKAGE = "lotshare"
LAYERS = ("data", "model", "nn", "masking", "metrics", "training", "cli")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50") or name.endswith("_ms_p99"):
        return "ms"
    if name.endswith("_frac") or ".survivor_frac." in name:
        return "ratio"
    if name.endswith("_per_step"):
        return "elems"
    return "count"


# name -> unit of every metric printed with --trace 1
PER_LAYER = {name: _unit(name) for name in (
    "data.generate_s", "data.load_s", "data.batches_s", "data.batches_n",
    "model.forward_s", "model.embed_s", "model.feature_cross_s", "model.forward_n",
    "model.backward_s", "model.backward_n",
    "model.save_checkpoint_s", "model.load_checkpoint_s",
    "model.emb_rows_touched_frac",
    "nn.affine_forward_s", "nn.affine_backward_s", "nn.affine_n",
    "nn.adam_s", "nn.adam_n", "nn.adam_gated_frac", "nn.adam_elems_per_step",
    "masking.prune_s", "masking.prune_n", "masking.save_mask_s",
    "masking.load_mask_s", "masking.survivor_frac.ctr", "masking.survivor_frac.cvr",
    "metrics.auc_s", "metrics.auc_n", "metrics.rank_top_k_s",
    "training.warmup_s", "training.mask_search_s", "training.joint_s",
    "training.baseline_s", "training.evaluate_s", "training.predict_s",
    "training.steps", "training.samples", "training.step_ms_p50", "training.step_ms_p99",
    "cli.build_report_s", "cli.write_run_dir_s", "cli.score_self_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.run_s", "trace.coverage_frac", "trace.overhead_frac",
)}

# span record fields
NAME, START, END, PARENT, ATTR = range(5)


class Tracer:
    """Records spans of calls into lotshare while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, attr=None) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attr]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself; yields its index."""
        rec = self._open(name)
        try:
            yield len(self.spans) - 1
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        attr_of = _ATTRS.get(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = opener(name, attr_of(args, kwargs) if attr_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(rec)
        return traced

    def _wrap_generator(self, name: str, fn):
        """Time each resumption of a generator: the caller is blocked then."""
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                rec = opener(name, 0)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    closer(rec)
                rec[ATTR] = item.n
                yield item
        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, path in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            if name == "data.batches":
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap(name, original)
            if outer:  # a method: patch the class attribute
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """One span per line: index, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i}\t{rec[PARENT]}\t{rec[NAME]}\t"
                         f"{rec[START]:.9f}\t{rec[END]:.9f}\n")


def _adam_attr(args, kwargs):
    """(elements updated, elements updated through the gated path)."""
    grads = args[1]
    masks = args[2] if len(args) > 2 else kwargs.get("update_masks")
    elems = sum(g.size for g in grads)
    if masks is None:
        return elems, 0
    return elems, sum(g.size for g, m in zip(grads, masks) if m is not None)


def _backward_attr(args, kwargs):
    """The batch's feature ids and the model config (for rows touched)."""
    cache = args[1] if len(args) > 1 else kwargs["cache"]
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return cache.ids, cfg


_ATTRS = {"nn.Adam.step": _adam_attr, "model.backward": _backward_attr}


def _percentile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    k = max(1, int(np.ceil(p / 100.0 * len(sorted_vals))))
    return sorted_vals[k - 1]


def span_table(spans: list[list], lo: int, hi: int):
    """Per-name inclusive time, self time and call count of spans[lo:hi]."""
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = spans[i][PARENT]
        if p >= lo:
            child[p - lo] += spans[i][END] - spans[i][START]
    incl: dict[str, float] = {}
    self_: dict[str, float] = {}
    count: dict[str, int] = {}
    for i in range(lo, hi):
        rec = spans[i]
        dur = rec[END] - rec[START]
        name = rec[NAME]
        incl[name] = incl.get(name, 0.0) + dur
        self_[name] = self_.get(name, 0.0) + dur - child[i - lo]
        count[name] = count.get(name, 0) + 1
    return incl, self_, count


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation, spans[lo] being its root.

    ``_s`` names are seconds, ``_n`` names call counts. Stage times and
    leaf calls are inclusive; ``model.forward_s``, ``model.backward_s`` and
    ``cli.score_self_s`` are self times, and ``<layer>.self_s`` sums the self
    time of every span of that layer.
    """
    incl, self_, count = span_table(spans, lo, hi)
    root_s = spans[lo][END] - spans[lo][START]

    def t(name):
        return incl.get(name, 0.0)

    def n(name):
        return count.get(name, 0)

    batch_sizes = [rec[ATTR] for rec in spans[lo:hi]
                   if rec[NAME] == "data.batches" and rec[ATTR]]
    steps = sorted(rec[END] - rec[START] for rec in spans[lo:hi]
                   if rec[NAME] == "training._train_step")
    adam = [rec[ATTR] for rec in spans[lo:hi] if rec[NAME] == "nn.Adam.step"]
    adam_elems = sum(a[0] for a in adam)
    touched = []
    for rec in spans[lo:hi]:
        if rec[NAME] == "model.backward":
            ids, cfg = rec[ATTR]
            distinct = sum(len(np.unique(ids[:, f])) for f in range(ids.shape[1]))
            touched.append(distinct / sum(cfg.field_cardinalities))

    out = {
        "data.batches_s": t("data.batches"),
        "data.batches_n": len(batch_sizes),
        "model.forward_s": self_.get("model.forward", 0.0),
        "model.embed_s": t("model.embed"),
        "model.feature_cross_s": t("model.feature_cross"),
        "model.forward_n": n("model.forward"),
        "model.backward_s": self_.get("model.backward", 0.0),
        "model.backward_n": n("model.backward"),
        "model.save_checkpoint_s": t("model.save_checkpoint"),
        "model.load_checkpoint_s": t("model.load_checkpoint"),
        "model.emb_rows_touched_frac": float(np.mean(touched)) if touched else 0.0,
        "nn.affine_forward_s": t("nn.affine_forward"),
        "nn.affine_backward_s": t("nn.affine_backward"),
        "nn.affine_n": n("nn.affine_forward") + n("nn.affine_backward"),
        "nn.adam_s": t("nn.Adam.step"),
        "nn.adam_n": len(adam),
        "nn.adam_gated_frac": (sum(a[1] for a in adam) / adam_elems
                               if adam_elems else 0.0),
        "nn.adam_elems_per_step": adam_elems / len(adam) if adam else 0.0,
        "masking.prune_s": t("masking.prune_connections") + t("masking.prune_neurons"),
        "masking.prune_n": n("masking.prune_connections") + n("masking.prune_neurons"),
        "masking.save_mask_s": t("masking.save_mask"),
        "masking.load_mask_s": t("masking.load_mask"),
        "metrics.auc_s": t("metrics.auc"),
        "metrics.auc_n": n("metrics.auc"),
        "metrics.rank_top_k_s": t("metrics.rank_top_k"),
        "training.warmup_s": t("training.warmup"),
        "training.mask_search_s": t("training.generate_masks"),
        "training.joint_s": t("training.joint_train"),
        "training.baseline_s": t("training.train_baseline"),
        "training.evaluate_s": t("training.evaluate"),
        "training.predict_s": t("training.predict"),
        "training.steps": len(steps),
        "training.samples": sum(batch_sizes),
        "training.step_ms_p50": 1e3 * _percentile(steps, 50),
        "training.step_ms_p99": 1e3 * _percentile(steps, 99),
        "cli.build_report_s": t("cli.build_report"),
        "cli.write_run_dir_s": t("cli.write_run_dir"),
        "cli.score_self_s": self_.get("cli.main", 0.0),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in self_.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = s
    out["trace.run_s"] = root_s
    out["trace.coverage_frac"] = sum(layer_self.values()) / root_s
    return out


def setup_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Data-layer times of one traced set-up, spans[lo] being its root."""
    incl, _, _ = span_table(spans, lo, hi)
    return {"data.generate_s": incl.get("data.generate", 0.0),
            "data.load_s": incl.get("data.load", 0.0)}
