"""Synthetic CTR/CVR data with nested sample spaces, TSV files, batching.

Every CVR row corresponds to a clicked (positive) CTR row by construction:
conversions only exist for clicked impressions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from itertools import count, islice, repeat

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
        if self.seed < 0:
            raise ConfigError(f"data.seed must be >= 0, got {self.seed}")


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


_SPLIT_OF_HASH = np.array([0] * 8 + [1, 2], np.uint8)  # crc % 10 -> split: 80/10/10


def _crc32_table() -> np.ndarray:
    """The byte table of zlib's CRC-32 (reflected polynomial 0xEDB88320)."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC32_TABLE = _crc32_table()
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


def split_of(seed: int, impression_ids) -> np.ndarray:
    """The 80/10/10 split of ``f"{seed}:{i}"``'s zlib CRC-32 for each int64
    ``i >= 0`` of ``impression_ids``, as uint8: the CRC of ``f"{seed}:"`` is
    carried on over each id's decimal digits, most significant first, for
    all ids at once. An id of fewer digits than the longest keeps its CRC
    while the longer ones take their leading digits."""
    ids = np.asarray(impression_ids, dtype=np.int64)
    if (ids < 0).any():
        raise ValueError("split_of: impression ids must be non-negative")
    crc = np.full(ids.shape, ~zlib.crc32(f"{seed}:".encode("ascii")) & 0xFFFFFFFF, np.uint32)
    n_digits = np.searchsorted(_POWERS_OF_TEN[1:], ids, side="right") + 1
    for p in range(n_digits.max(initial=0), 0, -1):   # the digit of 10**(p - 1)
        digit = ids // _POWERS_OF_TEN[p - 1] % 10
        step = _CRC32_TABLE[(crc ^ (digit + ord("0")).astype(np.uint32)) & 0xFF] ^ (crc >> 8)
        crc = np.where(n_digits >= p, step, crc)
    return _SPLIT_OF_HASH[~crc % 10]


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def _intercept_for_rate(utilities: np.ndarray, rate: float) -> float:
    """Bisect b so that mean(sigmoid(b + u)) == rate; sigmoid convexity would
    otherwise push the realized click rate above the configured base rate."""
    lo, hi = _logit(rate) - 30.0, _logit(rate) + 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(np.mean(nn.sigmoid(mid + utilities))) < rate:
            bounds = mid, hi
        else:
            bounds = lo, mid
        if bounds == (lo, hi):
            break  # a fixed point: every further pass would repeat this one
        lo, hi = bounds
    return 0.5 * (lo + hi)


def generate_with_trace(spec: SyntheticSpec) -> tuple[Dataset, dict[str, np.ndarray]]:
    """Generate a dataset and return the latent logits for diagnostics. A
    MemoryError on the way is a ConfigError that names the ``data.*`` sizes."""
    try:
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

        split = split_of(spec.seed, np.arange(n))
        ctr = TaskData(ids=ids, labels=clicked.astype(np.float64), split=split)
        cvr = TaskData(ids=ids[clicked].copy(), labels=cvr_label[clicked].copy(),
                       split=split[clicked].copy())
        dataset = Dataset(spec.field_cardinalities, {Task.CTR: ctr, Task.CVR: cvr})
        trace = {"click_logit": click_logit, "conv_logit": conv_logit,
                 "p_click": p_click, "clicked": clicked}
        return dataset, trace
    except MemoryError:
        sizes = (f"data.n_impressions={spec.n_impressions}, data.n_users={spec.n_users}, "
                 f"data.n_items={spec.n_items}, data.latent_dim={spec.latent_dim}, "
                 f"data.field_cardinalities={','.join(map(str, spec.field_cardinalities))}")
        raise ConfigError(f"synthetic data from the data.* config does not fit in "
                          f"memory: {sizes}") from None


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


def read_blocks(path, fh, parse_block, parse_line, first_line: int = 1):
    """Yield the rows of ``fh`` (opened by :func:`open_text`), whose first
    line is line ``first_line`` of ``path``, as columns, one block of
    BLOCK_LINES lines at a time; a block without rows yields nothing.

    ``parse_line(line)`` defines the format: it returns the row of one line
    (without its line ending) as a tuple, None for a line that holds no
    row, and raises ValueError naming the rule a line breaks.
    ``parse_block(lines)`` returns a block's columns as arrays equal to
    those of ``parse_line``, or None to leave the block to ``parse_line``.
    The DataError ``path:line: problem`` names the first line that is not
    UTF-8 or that ``parse_line`` rejects.
    """
    for first in count(first_line, BLOCK_LINES):
        text = "".join(islice(fh, BLOCK_LINES))
        if not text:
            return
        lines = text.split("\n")
        if text[-1] == "\n":
            lines.pop()
        columns = parse_block(lines) if _is_utf8(text) else None
        if columns is None:
            rows = []
            for lineno, line in enumerate(lines, first):
                try:
                    if not _is_utf8(line):
                        raise ValueError("not valid UTF-8")
                    row = parse_line(line)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if row is not None:
                    rows.append(row)
            columns = tuple(zip(*rows))
        if columns:
            yield columns


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
_NOT_TAB_OR_NEWLINE = bytes(b for b in range(256) if b not in b"\t\n")


def tabs_per_line(lines: list[str], tabs: int) -> bool:
    """Whether each of ``lines``, which hold no newline, holds exactly
    ``tabs`` tabs: in one pass over the bytes of the lines joined by
    newlines, the tabs and newlines must read ``tabs`` tabs, a newline,
    ``tabs`` tabs, and so on. A line of too few tabs next to one of too many
    breaks that order, though the block's tab count is right."""
    seps = "\n".join(lines).encode("utf-8", "surrogatepass").translate(None, _NOT_TAB_OR_NEWLINE)
    return seps + b"\n" == (b"\t" * tabs + b"\n") * len(lines)


def digit_ids(id_col: list[str], n_fields: int) -> np.ndarray | None:
    """The ids of ``id_col``, strings of comma-separated ids, as an ``(n,
    n_fields)`` int64 array of their ``int()``; None unless every string
    holds exactly ``n_fields`` ids of 1 to 18 ASCII digits each.

    Works over the bytes of ``",".join(id_col)``: each id is read right
    aligned in a window of the block's widest id, shorter ids padded with
    zeros, and dotted with powers of ten. 18 digits cannot overflow int64,
    and leading zeros read as ``int()`` reads them."""
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


def check_ids(ids: list[int], cards: tuple[int, ...]) -> None:
    """The id rule of both text formats, dataset rows and ``score``'s
    candidates: one id per field of ``cards`` (the fields' cardinalities),
    each with ``0 <= id < card``. Raises ValueError naming the first id that
    breaks it."""
    if len(ids) != len(cards):
        raise ValueError(f"{len(ids)} ids for {len(cards)} fields")
    for f, (fid, card) in enumerate(zip(ids, cards)):
        if not 0 <= fid < min(card, 2 ** 63):  # an id past int64 is in no field
            raise ValueError(f"id {fid} out of range for field {f} (cardinality {card})")


def _parse_row(line: str, cards: tuple[int, ...]):
    """A dataset row, ``task<TAB>label<TAB>id,...,id<TAB>split``, as
    ``(task code, label, ids, split index)``; None for a blank line (empty
    or all whitespace). Labels and ids convert with Python's ``float()`` and
    ``int()``. Raises ValueError naming the first rule the row breaks."""
    if not line.strip():
        return None
    parts = line.split("\t")
    if len(parts) != 4:
        raise ValueError("expected 4 tab-separated fields")
    code = _TASK_CODE.get(parts[0])
    if code is None:
        raise ValueError(f"unknown task {parts[0]!r}")
    try:
        label = float(parts[1])
    except ValueError:
        raise ValueError(f"bad label {parts[1]!r}") from None
    if TASKS[code] is Task.CTR and label not in (0.0, 1.0):
        raise ValueError(f"CTR label must be 0 or 1, got {label}")
    if TASKS[code] is Task.CVR and not 0.0 <= label <= 1.0:
        raise ValueError(f"CVR label must be in [0,1], got {label}")
    try:
        ids = [int(x) for x in parts[2].split(",")]
    except ValueError:
        raise ValueError(f"bad feature ids {parts[2]!r}") from None
    check_ids(ids, cards)
    split = _SPLIT_INDEX.get(parts[3])
    if split is None:
        raise ValueError(f"unknown split {parts[3]!r}")
    return code, label, ids, split


def _row_block(lines: list[str], cards: tuple[int, ...]):
    """The columns :func:`_parse_row` gives ``lines``, as ``(task codes (n,)
    int8, labels (n,) float64, ids (n, F) int64, split (n,) int8)``, when
    every line is a 4-field row that it accepts and whose ids
    :func:`digit_ids` reads; None otherwise."""
    n = len(lines)
    if not tabs_per_line(lines, 3):
        return None
    fields = "\t".join(lines).split("\t")
    task_col, label_col, id_col, split_col = (fields[k::4] for k in range(4))
    tasks = np.fromiter(map(_TASK_CODE.get, task_col, repeat(-1)), np.int8, n)
    split = np.fromiter(map(_SPLIT_INDEX.get, split_col, repeat(-1)), np.int8, n)
    ids = digit_ids(id_col, len(cards))
    if (tasks < 0).any() or (split < 0).any() or ids is None or (ids.max(0) >= cards).any():
        return None
    try:
        labels = np.fromiter(map(float, label_col), np.float64, n)
    except ValueError:
        return None
    ctr = tasks == _TASK_CODE[Task.CTR.value]
    if np.where(ctr, (labels != 0.0) & (labels != 1.0), ~((labels >= 0.0) & (labels <= 1.0))).any():
        return None
    return tasks, labels, ids, split


def _parse_header(path, line: str) -> tuple[int, ...]:
    if not _is_utf8(line):
        raise DataError(f"{path}:1: not valid UTF-8")
    header = line.split("\t")
    if len(header) != 2 or header[0] != "cardinalities":
        raise DataError(f"{path}:1: expected 'cardinalities<TAB>...' header")
    try:
        cards = tuple(int(c) for c in header[1].split(","))
    except ValueError as exc:
        raise DataError(f"{path}:1: bad cardinality list: {exc}") from exc
    if any(c < 1 for c in cards):
        raise DataError(f"{path}:1: field cardinalities must all be >= 1: {cards}")
    return cards


def load(path) -> Dataset:
    """Read a dataset TSV written by :func:`save`, row by row as
    :func:`_parse_row` reads a row; blocks of plain 4-field rows are read in
    bulk. A DataError names the first bad line. An empty file gives an empty
    Dataset. A MemoryError on the way is a DataError that names the path."""
    try:
        with open_text(path) as fh:
            header = next(fh, None)
            if header is None:
                return Dataset((), {t: _empty_taskdata(0) for t in TASKS})
            cards = _parse_header(path, header.removesuffix("\n"))
            blocks = list(read_blocks(path, fh, partial(_row_block, cards=cards),
                                      partial(_parse_row, cards=cards), first_line=2))
        if not blocks:
            return Dataset(cards, {t: _empty_taskdata(len(cards)) for t in TASKS})
        codes, labels, ids, split = (np.concatenate(col) for col in zip(*blocks))
        tasks = {}
        for code, t in enumerate(TASKS):
            sel = codes == code
            tasks[t] = TaskData(ids=ids[sel], labels=labels[sel],
                                split=split[sel].astype(np.uint8))
        return Dataset(cards, tasks)
    except MemoryError:
        raise DataError(f"{path}: the dataset does not fit in memory") from None


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


def _task_batches(td: TaskData, task: Task, batch_size: int,
                  rng: np.random.Generator) -> list[Batch]:
    ids, labels = td.subset("train")
    order = rng.permutation(len(labels))
    ids, labels = ids[order], labels[order]
    return [Batch(task, ids[i:i + batch_size], labels[i:i + batch_size])
            for i in range(0, len(labels), batch_size)]


def batches(dataset: Dataset, tasks, batch_size: int, seed: int, epoch: int):
    """Seeded per-epoch shuffled stream of task-homogeneous batches of the
    train split.

    With several tasks the per-task streams interleave proportionally to their
    batch counts via a seeded schedule; every train row appears exactly once.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    tasks = [Task(t) for t in tasks]
    per_task = {}
    for t in tasks:
        rng = np.random.default_rng([int(seed), int(epoch), list(TASKS).index(t)])
        per_task[t] = _task_batches(dataset.task(t), t, batch_size, rng)
    tags = np.concatenate([np.full(len(per_task[t]), ti, dtype=np.int64)
                           for ti, t in enumerate(tasks)]) if tasks else np.empty(0, np.int64)
    np.random.default_rng([int(seed), int(epoch), 1000003]).shuffle(tags)
    iters = {t: iter(per_task[t]) for t in tasks}
    for tag in tags:
        yield next(iters[tasks[int(tag)]])
