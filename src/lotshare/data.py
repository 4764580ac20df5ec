"""Synthetic CTR/CVR data with nested sample spaces, TSV files, batching.

Every CVR row corresponds to a clicked (positive) CTR row by construction:
conversions only exist for clicked impressions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from itertools import compress, count, islice, repeat

import numpy as np

from . import nn
from .errors import ConfigError, DataError
from .model import Task, TASKS

SPLITS = ("train", "val", "test")
_SPLIT_INDEX = {name: i for i, name in enumerate(SPLITS)}


@dataclass(frozen=True)
class SyntheticSpec:
    n_users: int = 1000
    n_items: int = 1000
    field_cardinalities: tuple[int, ...] = (16,) * 8
    latent_dim: int = 8
    click_base_rate: float = 0.2
    click_noise: float = 0.5
    cvr_noise: float = 0.5
    task_correlation: float = 0.8  # rho: relatedness of the click and conversion logits
    n_impressions: int = 50000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "field_cardinalities",
                           tuple(int(c) for c in self.field_cardinalities))
        if self.n_users < 1 or self.n_items < 1 or self.n_impressions < 1:
            raise ConfigError("n_users, n_items, n_impressions must be >= 1")
        if not self.field_cardinalities or any(c < 1 for c in self.field_cardinalities):
            raise ConfigError(f"bad field cardinalities: {self.field_cardinalities}")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if not 0.0 < self.click_base_rate < 1.0:
            raise ConfigError("click_base_rate must be in (0,1)")
        if not -1.0 <= self.task_correlation <= 1.0:
            raise ConfigError("task_correlation must be in [-1,1]")


@dataclass
class TaskData:
    ids: np.ndarray      # (n, F) int64
    labels: np.ndarray   # (n,) float64
    split: np.ndarray    # (n,) uint8 index into SPLITS

    @property
    def n(self) -> int:
        return len(self.labels)

    def subset(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        sel = self.split == _SPLIT_INDEX[split]
        return self.ids[sel], self.labels[sel]


@dataclass
class Dataset:
    field_cardinalities: tuple[int, ...]
    tasks: dict[Task, TaskData]

    def task(self, task: Task) -> TaskData:
        return self.tasks[Task(task)]

    def subset(self, task: Task, split: str) -> tuple[np.ndarray, np.ndarray]:
        return self.task(task).subset(split)

    def counts(self) -> dict[str, int]:
        ctr = self.tasks[Task.CTR]
        return {
            "impressions": ctr.n,
            "clicks": int(ctr.labels.sum()),
            "conversions": self.tasks[Task.CVR].n,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.field_cardinalities != other.field_cardinalities:
            return False
        if set(self.tasks) != set(other.tasks):
            return False
        for t in self.tasks:
            a, b = self.tasks[t], other.tasks[t]
            if not ((a.ids == b.ids).all() and (a.labels == b.labels).all()
                    and (a.split == b.split).all()):
                return False
        return True


def _split_of(seed: int, impression_id: int) -> int:
    """Deterministic 80/10/10 hash split, stable across runs and platforms."""
    h = zlib.crc32(f"{seed}:{impression_id}".encode("ascii")) % 10
    return 0 if h < 8 else (1 if h == 8 else 2)


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def _intercept_for_rate(utilities: np.ndarray, rate: float) -> float:
    """Bisect b so that mean(sigmoid(b + u)) == rate; sigmoid convexity would
    otherwise push the realized click rate above the configured base rate."""
    lo, hi = _logit(rate) - 30.0, _logit(rate) + 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(np.mean(nn.sigmoid(mid + utilities))) < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_with_trace(spec: SyntheticSpec) -> tuple[Dataset, dict[str, np.ndarray]]:
    """Generate a dataset and return the latent logits for diagnostics."""
    rng = nn.make_rng(spec.seed)
    L = spec.latent_dim
    scale = 1.0 / np.sqrt(L)
    user_shared = rng.standard_normal((spec.n_users, L))
    item_shared = rng.standard_normal((spec.n_items, L))
    user_click = rng.standard_normal((spec.n_users, L))
    item_click = rng.standard_normal((spec.n_items, L))
    user_conv = rng.standard_normal((spec.n_users, L))
    item_conv = rng.standard_normal((spec.n_items, L))

    n = spec.n_impressions
    u = rng.integers(0, spec.n_users, size=n)
    it = rng.integers(0, spec.n_items, size=n)
    shared = np.einsum("nd,nd->n", user_shared[u], item_shared[it]) * scale
    click_spec = np.einsum("nd,nd->n", user_click[u], item_click[it]) * scale
    conv_spec = np.einsum("nd,nd->n", user_conv[u], item_conv[it]) * scale

    utilities = shared + click_spec + spec.click_noise * rng.standard_normal(n)
    click_logit = _intercept_for_rate(utilities, spec.click_base_rate) + utilities
    p_click = nn.sigmoid(click_logit)
    clicked = rng.random(n) < p_click
    conv_logit = (spec.task_correlation * shared + conv_spec
                  + spec.cvr_noise * rng.standard_normal(n))
    cvr_label = np.clip(nn.sigmoid(conv_logit), 0.0, 1.0)

    # categorical features: quantized latent coordinates, alternating user/item
    F = len(spec.field_cardinalities)
    ids = np.empty((n, F), dtype=np.int64)
    for f, card in enumerate(spec.field_cardinalities):
        if f % 2 == 0:
            z = user_shared[u, (f // 2) % L]
        else:
            z = item_shared[it, (f // 2) % L]
        ids[:, f] = np.minimum((nn.sigmoid(z) * card).astype(np.int64), card - 1)

    split = np.fromiter((_split_of(spec.seed, i) for i in range(n)),
                        dtype=np.uint8, count=n)
    ctr = TaskData(ids=ids, labels=clicked.astype(np.float64), split=split)
    cvr = TaskData(ids=ids[clicked].copy(), labels=cvr_label[clicked].copy(),
                   split=split[clicked].copy())
    dataset = Dataset(spec.field_cardinalities, {Task.CTR: ctr, Task.CVR: cvr})
    trace = {"click_logit": click_logit, "conv_logit": conv_logit,
             "p_click": p_click, "clicked": clicked}
    return dataset, trace


def generate(spec: SyntheticSpec) -> Dataset:
    return generate_with_trace(spec)[0]


BLOCK_LINES = 8192  # lines parsed or written together; bounds the token lists held at once


def open_text(path):
    """Open ``path`` for :func:`read_blocks`: UTF-8 with universal newlines,
    so only ``\\n``, ``\\r\\n`` and ``\\r`` end a line. Bytes that are not UTF-8
    decode to lone surrogates, which read_blocks reports by line."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _is_utf8(text: str) -> bool:
    """False if ``text`` holds a byte that was not UTF-8 (see open_text)."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_blocks(path, fh, parse, block_lines: int, first_line: int = 1):
    """Yield ``parse(lines, linenos)`` for each block of ``block_lines`` lines
    read from ``fh`` (opened by :func:`open_text`), whose first line is line
    ``first_line`` of ``path``.

    ``lines`` are the block's lines without their line ending, blank lines
    (empty or all whitespace) left out, and ``linenos`` their line numbers.
    ``parse`` raises ValueError when a line breaks a rule, and every rule
    must be one a line breaks alone. A failing block is bisected for the
    shortest failing run of its first lines, and the DataError
    ``path:line: problem`` names the last line of that run: the first line
    that is not UTF-8 or that ``parse`` rejects alone.
    """
    for first in count(first_line, block_lines):
        text = "".join(islice(fh, block_lines))
        if not text:
            return
        lines = text.split("\n")
        if text[-1] == "\n":
            lines.pop()
        linenos = range(first, first + len(lines))
        if "" in lines or any(map(str.isspace, lines)):
            keep = list(map(str.strip, lines))
            lines, linenos = list(compress(lines, keep)), list(compress(linenos, keep))
            if not lines:
                continue
        try:
            if not _is_utf8(text):
                raise ValueError("not valid UTF-8")
            result = parse(lines, linenos)
        except ValueError as exc:
            good, bad = 0, len(lines)  # lines[:good] pass together, lines[:bad] fail
            while bad - good > 1:
                mid = (good + bad) // 2
                if _passes(parse, lines[good:mid], linenos[good:mid]):
                    good = mid
                else:
                    bad = mid
            line, lineno = lines[bad - 1], linenos[bad - 1]
            if not _is_utf8(line):
                raise DataError(f"{path}:{lineno}: not valid UTF-8") from None
            try:
                parse([line], [lineno])
            except ValueError as line_exc:
                raise DataError(f"{path}:{lineno}: {line_exc}") from None
            # not reached: every check is per line, so lines fail together
            # only where one of them fails alone
            raise DataError(f"{path}: {exc}") from exc
        yield result


def _passes(parse, lines, linenos) -> bool:
    """True if ``lines`` are UTF-8 and ``parse`` accepts them together."""
    if not _is_utf8("".join(lines)):
        return False
    try:
        parse(lines, linenos)
    except ValueError:
        return False
    return True


def save(dataset: Dataset, path) -> None:
    """TSV: header with field cardinalities, then task/label/ids/split rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("cardinalities\t" + ",".join(map(str, dataset.field_cardinalities)) + "\n")
        for task in TASKS:
            td = dataset.tasks.get(task)
            if td is None:
                continue
            for start in range(0, td.n, BLOCK_LINES):
                block = slice(start, start + BLOCK_LINES)
                labels = map("{:.17g}".format, td.labels[block].tolist())
                ids = map(",".join, zip(*(map(str, col) for col in td.ids[block].T.tolist())))
                split = map(SPLITS.__getitem__, td.split[block].tolist())
                fh.write("\n".join(map("\t".join, zip(repeat(task.value), labels, ids, split)))
                         + "\n")


_TASK_CODE = {t.value: code for code, t in enumerate(TASKS)}
_INT64_MAX = int(np.iinfo(np.int64).max)


def _first_failing(convert, texts):
    """The first of ``texts`` that ``convert`` rejects with ValueError."""
    for text in texts:
        try:
            convert(text)
        except ValueError:
            return text


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def int_ids(id_col: list[str]) -> list[int]:
    """``int()`` of every comma-separated id in ``id_col``, in order: the
    full grammar of Python's ``int()``, and its ValueError on a bad id."""
    return list(map(int, ",".join(id_col).split(",")))


def digit_ids(id_col: list[str], n_fields: int) -> np.ndarray | None:
    """The ids of ``id_col``, strings of comma-separated ids, as an ``(n,
    n_fields)`` int64 array equal to :func:`int_ids`; None unless every
    string holds exactly ``n_fields`` ids of 1 to 18 ASCII digits each.

    Works over the bytes of ``",".join(id_col)``: each id is read right
    aligned in a window of the block's widest id, shorter ids padded with
    zeros, and dotted with powers of ten. 18 digits cannot overflow int64,
    and leading zeros read as ``int()`` reads them. Callers parse what this
    returns None for with :func:`int_ids`, which also words every error."""
    text = ",".join(id_col)
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), np.uint8)
    commas = np.flatnonzero(buf == ord(","))
    n = len(id_col)
    if len(commas) != n * n_fields - 1:
        return None
    digits = buf - np.uint8(ord("0"))  # bytes below '0' wrap to above 9
    if len(buf) - np.count_nonzero(digits <= 9) != len(commas):
        return None  # a byte that is neither a digit nor a comma
    # row k is joined to row k + 1 by the comma after its last id, which
    # must be the (k + 1) * n_fields-th comma for every row to hold n_fields
    row_ends = np.cumsum(np.fromiter(map(len, id_col), np.intp, n))[:-1]
    if (commas[n_fields - 1::n_fields] != row_ends + np.arange(n - 1)).any():
        return None
    ends = np.append(commas, len(buf))
    widths = np.diff(ends, prepend=-1) - 1
    width = int(widths.max())
    if widths.min() < 1 or width > 18:
        return None
    # window[j, i]: the byte width - j before the end of id i, 0 before its start
    offsets = np.arange(-width, 0)[:, None]
    window = np.concatenate((np.zeros(width, np.uint8), digits))[ends + width + offsets]
    window = np.where(offsets < -widths, 0, window)
    return (10 ** np.arange(width - 1, -1, -1) @ window).reshape(n, n_fields)


def _checked_int_ids(id_col: list[str], n_fields: int) -> tuple[np.ndarray, list[int]]:
    """:func:`_parse_rows`' ids by ``int()``: ``(ids (n, F) int64, the ints
    in row-major order)``. An id outside int64 is outside every field, so
    -1 stands in for it in ``ids``. Raises ValueError on a bad id first,
    then on a row with another id count than ``n_fields``."""
    try:
        values = int_ids(id_col)
    except ValueError:
        raise ValueError(f"bad feature ids {_first_failing(_int_list, id_col)!r}") from None
    counts = np.fromiter(map(str.count, id_col, repeat(",")), np.intp, len(id_col)) + 1
    if (counts != n_fields).any():
        raise ValueError(f"{counts[counts != n_fields][0]} ids for {n_fields} fields")
    try:
        ids = np.array(values, dtype=np.int64)
    except OverflowError:
        ids = np.array([v if -_INT64_MAX - 1 <= v <= _INT64_MAX else -1 for v in values],
                       dtype=np.int64)
    return ids.reshape(len(id_col), n_fields), values


def _parse_rows(lines: list[str], linenos, cards: tuple[int, ...]):
    """Parse ``task<TAB>label<TAB>id,...,id[<TAB>split]`` rows into ``(task
    codes (n,) int8, labels (n,) float64, ids (n, F) int64, split (n,)
    uint8)``, converting with Python's ``int()`` and ``float()``; ids of
    plain ASCII digits are read in bulk by :func:`digit_ids`, with the same
    result. A 3-field row takes its split from its line number. Raises
    ValueError on the first failed check, in this order: tab count, task,
    label, label domain per task, ids, id count, id range per field, split
    name. For a single line that order gives its error message."""
    n, n_fields = len(lines), len(cards)
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.intp, n)
    short = tabs == 2
    if ((tabs != 3) & ~short).any():
        raise ValueError("expected 3 or 4 tab-separated fields")
    if short.any():  # give 3-field rows an empty split column, which is not read
        lines = [line + "\t" if s else line for line, s in zip(lines, short.tolist())]
    fields = "\t".join(lines).split("\t")
    task_col, label_col, id_col, split_col = (fields[k::4] for k in range(4))
    tasks = np.fromiter(map(_TASK_CODE.get, task_col, repeat(-1)), np.int8, n)
    if (tasks < 0).any():
        raise ValueError(f"unknown task {task_col[int(np.argmax(tasks < 0))]!r}")
    try:
        labels = np.fromiter(map(float, label_col), np.float64, n)
    except ValueError:
        raise ValueError(f"bad label {_first_failing(float, label_col)!r}") from None
    ctr = tasks == _TASK_CODE[Task.CTR.value]
    bad = np.where(ctr, (labels != 0.0) & (labels != 1.0),
                   ~((labels >= 0.0) & (labels <= 1.0)))
    if bad.any():
        i = int(np.argmax(bad))
        if ctr[i]:
            raise ValueError(f"CTR label must be 0 or 1, got {float(labels[i])}")
        raise ValueError(f"CVR label must be in [0,1], got {float(labels[i])}")
    ids = digit_ids(id_col, n_fields)
    if ids is None:
        ids, values = _checked_int_ids(id_col, n_fields)
    else:
        values = ids.ravel()
    top = np.array([max(-1, min(c - 1, _INT64_MAX)) for c in cards], dtype=np.int64)
    bad = (ids < 0) | (ids > top)
    if bad.any():
        k = int(np.argmax(bad))  # row-major: row k // F, field k % F
        f = k % n_fields
        raise ValueError(f"id {int(values[k])} out of range for field {f} "
                         f"(cardinality {cards[f]})")
    split = np.fromiter(map(_SPLIT_INDEX.get, split_col, repeat(-1)), np.int8, n)
    bad = (split < 0) & ~short
    if bad.any():
        raise ValueError(f"unknown split {split_col[int(np.argmax(bad))]!r}")
    if short.any():
        split[short] = [_split_of(0, lineno) for lineno, s in zip(linenos, short.tolist()) if s]
    return tasks, labels, ids, split.astype(np.uint8)


def _parse_header(path, line: str) -> tuple[int, ...]:
    if not _is_utf8(line):
        raise DataError(f"{path}:1: not valid UTF-8")
    header = line.split("\t")
    if len(header) != 2 or header[0] != "cardinalities":
        raise DataError(f"{path}:1: expected 'cardinalities<TAB>...' header")
    try:
        return tuple(int(c) for c in header[1].split(","))
    except ValueError as exc:
        raise DataError(f"{path}:1: bad cardinality list: {exc}") from exc


def load(path) -> Dataset:
    """Read a dataset TSV written by :func:`save`. Rows are parsed in blocks
    of BLOCK_LINES lines; a DataError names the first bad line. An empty
    file gives an empty Dataset."""
    with open_text(path) as fh:
        header = next(fh, None)
        if header is None:
            return Dataset((), {t: _empty_taskdata(0) for t in TASKS})
        cards = _parse_header(path, header.removesuffix("\n"))
        blocks = list(read_blocks(path, fh, partial(_parse_rows, cards=cards),
                                  BLOCK_LINES, first_line=2))
    if not blocks:
        return Dataset(cards, {t: _empty_taskdata(len(cards)) for t in TASKS})
    codes, labels, ids, split = (np.concatenate(col) for col in zip(*blocks))
    tasks = {}
    for code, t in enumerate(TASKS):
        sel = codes == code
        tasks[t] = TaskData(ids=ids[sel], labels=labels[sel], split=split[sel])
    return Dataset(cards, tasks)


def _empty_taskdata(n_fields: int) -> TaskData:
    return TaskData(ids=np.empty((0, n_fields), dtype=np.int64),
                    labels=np.empty(0, dtype=np.float64),
                    split=np.empty(0, dtype=np.uint8))


@dataclass
class Batch:
    """Task-homogeneous minibatch; homogeneity realizes the per-task gate."""

    task: Task
    ids: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)


def _task_batches(td: TaskData, task: Task, split: str, batch_size: int,
                  rng: np.random.Generator) -> list[Batch]:
    ids, labels = td.subset(split)
    order = rng.permutation(len(labels))
    ids, labels = ids[order], labels[order]
    return [Batch(task, ids[i:i + batch_size], labels[i:i + batch_size])
            for i in range(0, len(labels), batch_size)]


def batches(dataset: Dataset, tasks, batch_size: int, seed: int, epoch: int,
            split: str = "train"):
    """Seeded per-epoch shuffled stream of task-homogeneous batches.

    With several tasks the per-task streams interleave proportionally to their
    batch counts via a seeded schedule; every sample appears exactly once.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    tasks = [Task(t) for t in tasks]
    per_task = {}
    for t in tasks:
        rng = np.random.default_rng([int(seed), int(epoch), list(TASKS).index(t)])
        per_task[t] = _task_batches(dataset.task(t), t, split, batch_size, rng)
    tags = np.concatenate([np.full(len(per_task[t]), ti, dtype=np.int64)
                           for ti, t in enumerate(tasks)]) if tasks else np.empty(0, np.int64)
    if len(tasks) > 1:
        sched_rng = np.random.default_rng([int(seed), int(epoch), 1000003])
        sched_rng.shuffle(tags)
    iters = {t: iter(per_task[t]) for t in tasks}
    for tag in tags:
        yield next(iters[tasks[int(tag)]])
