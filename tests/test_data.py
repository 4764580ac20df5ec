import hashlib
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotshare import data
from lotshare.data import (SPLITS, Dataset, SyntheticSpec, batches, generate,
                           generate_with_trace)
from lotshare.errors import ConfigError, DataError
from lotshare.model import TASKS, Task
from test_nn import gather_sigmoid


SMALL = SyntheticSpec(n_users=50, n_items=50, field_cardinalities=(8,) * 4,
                      latent_dim=4, n_impressions=2000, seed=0)


class TestGenerate:
    def test_cvr_nested_in_clicked(self):
        ds, trace = generate_with_trace(SMALL)
        clicks = int(ds.tasks[Task.CTR].labels.sum())
        assert ds.tasks[Task.CVR].n == clicks
        assert clicks == int(trace["clicked"].sum())
        # CVR ids are exactly the clicked CTR rows, in order
        ctr = ds.tasks[Task.CTR]
        sel = ctr.labels == 1.0
        assert (ds.tasks[Task.CVR].ids == ctr.ids[sel]).all()

    def test_labels_in_range(self):
        ds = generate(SMALL)
        assert set(np.unique(ds.tasks[Task.CTR].labels)) <= {0.0, 1.0}
        cvr = ds.tasks[Task.CVR].labels
        assert ((cvr >= 0) & (cvr <= 1)).all()

    def test_ids_within_cardinalities(self):
        ds = generate(SMALL)
        for td in ds.tasks.values():
            for f, card in enumerate(ds.field_cardinalities):
                assert td.ids[:, f].min() >= 0
                assert td.ids[:, f].max() < card

    def test_deterministic(self):
        assert generate(SMALL) == generate(SMALL)

    def test_seed_changes_data(self):
        other = SyntheticSpec(**{**SMALL.__dict__, "seed": 1})
        assert generate(SMALL) != generate(other)

    def test_click_rate_matches_base_rate_within_3_sigma(self):
        spec = SyntheticSpec(n_impressions=20000, seed=3)
        ds, trace = generate_with_trace(spec)
        n = spec.n_impressions
        # oracle: expected clicks is the sum of the per-row click probabilities,
        # and the intercept calibration pins its mean to the base rate
        expected = float(trace["p_click"].sum())
        assert expected / n == pytest.approx(spec.click_base_rate, abs=1e-9)
        observed = ds.tasks[Task.CTR].labels.sum()
        sigma = np.sqrt(np.sum(trace["p_click"] * (1 - trace["p_click"])))
        assert abs(observed - expected) < 3 * sigma

    def test_split_proportions(self):
        ds = generate(SyntheticSpec(n_impressions=20000, seed=4))
        split = ds.tasks[Task.CTR].split
        fracs = [float((split == i).mean()) for i in range(3)]
        assert fracs[0] == pytest.approx(0.8, abs=0.02)
        assert fracs[1] == pytest.approx(0.1, abs=0.01)
        assert fracs[2] == pytest.approx(0.1, abs=0.01)

    def test_correlation_increases_with_rho(self):
        corrs = []
        for rho in (0.0, 0.5, 1.0):
            spec = SyntheticSpec(n_impressions=10000, task_correlation=rho,
                                 click_noise=0.1, cvr_noise=0.1, seed=5)
            _, trace = generate_with_trace(spec)
            corrs.append(np.corrcoef(trace["click_logit"], trace["conv_logit"])[0, 1])
        assert corrs[0] < corrs[1] < corrs[2]
        assert abs(corrs[0]) < 0.1

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_impressions=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(click_base_rate=1.5)
        with pytest.raises(ConfigError):
            SyntheticSpec(task_correlation=2.0)

    def test_split_is_the_impression_hash(self):
        split = generate(SMALL).tasks[Task.CTR].split
        assert split.tolist() == [zlib_split(SMALL.seed, i) for i in range(SMALL.n_impressions)]


def zlib_split(seed: int, impression_id: int) -> int:
    """Reference split: zlib's CRC-32 of ``f"{seed}:{id}"`` modulo 10 is
    0-7 for train (0), 8 for val (1) and 9 for test (2)."""
    h = zlib.crc32(f"{seed}:{impression_id}".encode("ascii")) % 10
    return 0 if h < 8 else (1 if h == 8 else 2)


def ids_of_1_to_19_digits() -> np.ndarray:
    """The least and greatest id of each digit count up to 2**63 - 1, and
    random ones between, shuffled so that neighbours differ in length."""
    rng = np.random.default_rng(19)
    ids = []
    for d in range(1, 20):
        lo, hi = 10 ** (d - 1) if d > 1 else 0, min(10 ** d, 2 ** 63)
        ids += [lo, hi - 1, *rng.integers(lo, hi, 8).tolist()]
    return rng.permutation(np.array(ids, dtype=np.int64))


class TestSplitOf:
    """``split_of``, the CRC-32 split of many ids at once, against
    ``zlib_split``."""

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 31, 10 ** 12])
    def test_ids_to_200k(self, seed):
        ids = np.arange(200_001)
        got = data.split_of(seed, ids)
        assert got.dtype == np.uint8
        want = [zlib_split(seed, i) for i in range(200_001)]
        assert got.tolist() == want

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 31, 10 ** 12])
    def test_ids_of_1_to_19_digits(self, seed):
        ids = ids_of_1_to_19_digits()
        assert 2 ** 63 - 1 in ids.tolist()
        want = [zlib_split(seed, i) for i in ids.tolist()]
        assert data.split_of(seed, ids).tolist() == want

    def test_shapes(self):
        assert data.split_of(0, []).shape == (0,)
        grid = np.arange(12).reshape(3, 4)
        assert data.split_of(5, grid).tolist() == [[zlib_split(5, i) for i in row]
                                                   for row in grid.tolist()]

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            data.split_of(0, [3, -1])


def intercept_80_passes(utilities: np.ndarray, rate: float) -> float:
    """Reference: ``_intercept_for_rate`` as it was before it stopped at its
    fixed point, 80 bisection passes over the boolean-gather sigmoid."""
    lo, hi = data._logit(rate) - 30.0, data._logit(rate) + 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(np.mean(gather_sigmoid(mid + utilities))) < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInterceptForRate:
    @pytest.mark.parametrize("rate", [0.01, 0.2, 0.97])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_80_passes(self, rate, seed):
        utilities = 1.5 * np.random.default_rng(seed).standard_normal(50_000)
        with mock.patch.object(data.nn, "sigmoid", wraps=data.nn.sigmoid) as sigmoid:
            got = data._intercept_for_rate(utilities, rate)
        assert sigmoid.call_count < 80   # it stopped at the fixed point
        want = intercept_80_passes(utilities, rate)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ds = generate(SMALL)
        path = tmp_path / "d.tsv"
        data.save(ds, path)
        assert data.load(path) == ds

    def test_save_is_deterministic_bytes(self, tmp_path):
        ds = generate(SMALL)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        data.save(ds, a)
        data.save(ds, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("")
        ds = data.load(p)
        assert ds.tasks[Task.CTR].n == 0 and ds.tasks[Task.CVR].n == 0

    def _write(self, tmp_path, body):
        p = tmp_path / "bad.tsv"
        p.write_text("cardinalities\t4,4\n" + body)
        return p

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("nope\t4,4\n")
        with pytest.raises(DataError, match=":1:"):
            data.load(p)

    @pytest.mark.parametrize("cards", ["0,4", "4,-1"])
    def test_cardinality_below_1_names_header(self, tmp_path, cards):
        """A header rule: it fires at line 1, before any row is read."""
        p = tmp_path / "bad.tsv"
        p.write_text(f"cardinalities\t{cards}\nctr\t1\t0,0\ttrain\n")
        with pytest.raises(DataError, match=rf"^{p}:1: field cardinalities must all be >= 1: "):
            data.load(p)

    def test_bad_task_names_line(self, tmp_path):
        p = self._write(tmp_path, "xxx\t1\t0,0\ttrain\n")
        with pytest.raises(DataError, match=":2:.*xxx"):
            data.load(p)

    def test_nonbinary_ctr_label(self, tmp_path):
        p = self._write(tmp_path, "ctr\t0.5\t0,0\ttrain\n")
        with pytest.raises(DataError, match=":2:.*0 or 1"):
            data.load(p)

    def test_cvr_label_out_of_range(self, tmp_path):
        p = self._write(tmp_path, "cvr\t1.5\t0,0\ttrain\n")
        with pytest.raises(DataError, match=":2:"):
            data.load(p)

    def test_id_out_of_range(self, tmp_path):
        p = self._write(tmp_path, "ctr\t1\t0,9\ttrain\n")
        with pytest.raises(DataError, match=":2:.*id 9.*field 1"):
            data.load(p)

    def test_wrong_id_count(self, tmp_path):
        p = self._write(tmp_path, "ctr\t1\t0,0,0\ttrain\n")
        with pytest.raises(DataError, match=":2:"):
            data.load(p)

    def test_unknown_split(self, tmp_path):
        p = self._write(tmp_path, "ctr\t1\t0,0\televen\n")
        with pytest.raises(DataError, match=":2:.*eleven"):
            data.load(p)

    def test_three_column_rows_rejected(self, tmp_path):
        p = self._write(tmp_path, "ctr\t1\t0,0\nctr\t0\t1,1\n")
        with pytest.raises(DataError) as exc:
            data.load(p)
        assert str(exc.value) == f"{p}:2: expected 4 tab-separated fields"


def per_line_load(path) -> Dataset:
    """Reference: the per-line loader the block parser replaced, with its
    line split changed from ``str.splitlines`` to universal newlines."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return Dataset((), {Task.CTR: data._empty_taskdata(0), Task.CVR: data._empty_taskdata(0)})
    header = lines[0].split("\t")
    if len(header) != 2 or header[0] != "cardinalities":
        raise DataError(f"{path}:1: expected 'cardinalities<TAB>...' header")
    try:
        cards = tuple(int(c) for c in header[1].split(","))
    except ValueError as exc:
        raise DataError(f"{path}:1: bad cardinality list: {exc}") from exc
    if any(c < 1 for c in cards):
        raise DataError(f"{path}:1: field cardinalities must all be >= 1: {cards}")
    rows = {t: [] for t in TASKS}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields")
        try:
            task = Task(parts[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: unknown task {parts[0]!r}") from None
        try:
            label = float(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad label {parts[1]!r}") from None
        if task is Task.CTR and label not in (0.0, 1.0):
            raise DataError(f"{path}:{lineno}: CTR label must be 0 or 1, got {label}")
        if task is Task.CVR and not 0.0 <= label <= 1.0:
            raise DataError(f"{path}:{lineno}: CVR label must be in [0,1], got {label}")
        try:
            ids = [int(x) for x in parts[2].split(",")]
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad feature ids {parts[2]!r}") from None
        if len(ids) != len(cards):
            raise DataError(f"{path}:{lineno}: {len(ids)} ids for {len(cards)} fields")
        for f, (fid, card) in enumerate(zip(ids, cards)):
            if not 0 <= fid < card:
                raise DataError(f"{path}:{lineno}: id {fid} out of range for field {f} "
                                f"(cardinality {card})")
        if parts[3] not in data._SPLIT_INDEX:
            raise DataError(f"{path}:{lineno}: unknown split {parts[3]!r}")
        split = data._SPLIT_INDEX[parts[3]]
        rows[task].append((ids, label, split))
    tasks = {}
    for t in TASKS:
        if rows[t]:
            tasks[t] = data.TaskData(
                ids=np.array([r[0] for r in rows[t]], dtype=np.int64),
                labels=np.array([r[1] for r in rows[t]], dtype=np.float64),
                split=np.array([r[2] for r in rows[t]], dtype=np.uint8),
            )
        else:
            tasks[t] = data._empty_taskdata(len(cards))
    return Dataset(cards, tasks)


def per_row_save(dataset: Dataset, path) -> None:
    """Reference: the per-row writer the block writer replaced."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("cardinalities\t" + ",".join(map(str, dataset.field_cardinalities)) + "\n")
        for task in TASKS:
            td = dataset.tasks.get(task)
            if td is None:
                continue
            for i in range(td.n):
                ids = ",".join(map(str, td.ids[i]))
                fh.write(f"{task.value}\t{td.labels[i]:.17g}\t{ids}\t{SPLITS[td.split[i]]}\n")


def assert_same_arrays(got: Dataset, want: Dataset):
    assert got.field_cardinalities == want.field_cardinalities
    assert list(got.tasks) == list(want.tasks)
    for t in want.tasks:
        for name in ("ids", "labels", "split"):
            a, b = getattr(got.tasks[t], name), getattr(want.tasks[t], name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (t, name)
            assert a.tobytes() == b.tobytes(), (t, name)


class TestBlockSave:
    """The block writer gives the per-row writer's bytes."""

    @pytest.mark.parametrize("block", [1, 3, 8192])
    def test_matches_per_row_writer(self, tmp_path, block):
        ds = generate(SMALL)
        ds.tasks[Task.CVR].labels[:3] = [0.0, 1.0, 1 / 3]
        per_row_save(ds, tmp_path / "want.tsv")
        with mock.patch.object(data, "BLOCK_LINES", block):
            data.save(ds, tmp_path / "got.tsv")
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()
        assert_same_arrays(data.load(tmp_path / "got.tsv"), ds)

    @pytest.mark.parametrize("n_ctr,n_cvr", [(0, 0), (7, 0), (0, 5)])
    def test_empty_tasks(self, tmp_path, n_ctr, n_cvr):
        ds = tiny_dataset(n_ctr, n_cvr)
        ds.tasks[Task.CTR].split[:] = np.arange(n_ctr) % 3
        per_row_save(ds, tmp_path / "want.tsv")
        with mock.patch.object(data, "BLOCK_LINES", 2):
            data.save(ds, tmp_path / "got.tsv")
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()
        assert_same_arrays(data.load(tmp_path / "got.tsv"), per_line_load(tmp_path / "want.tsv"))


_INT = st.one_of(st.integers(0, 3).map(str), st.integers(-2, 6).map(str), st.sampled_from([
    "+3", "1_0", " 2", "2 ", "003", "", "x", "1.0", "0x1", "\u0663", "1__0",
    "9223372036854775807", "-9223372036854775809", "99999999999999999999"]))
_LABEL = st.one_of(st.sampled_from(["0", "1"]), st.sampled_from([
                                    "0", "1", "0.0", "1.0", "-0", "+1", " 1 ", "1e0", "0.5",
                                    "1_0", "2", "-1", "nan", "NaN", "inf", "-inf", "", "x",
                                    "0x1", "\u0661", "1,0"]),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr))
_TASK = st.sampled_from(["ctr", "cvr"] * 4 + ["CTR", " ctr", "", "x"])
_SPLIT = st.sampled_from(["train", "val", "test"] * 2 + ["Train", "", "x", "val ", "\x0b"])
_GOOD_ROW = st.tuples(
    st.sampled_from(["ctr", "cvr"]), st.sampled_from(["0", "1"]),
    st.lists(st.integers(0, 3).map(str), min_size=2, max_size=2).map(",".join),
    st.sampled_from(SPLITS)).map("\t".join)
_GOOD_CVR_ROW = st.tuples(
    st.floats(0.0, 1.0).map(repr),
    st.lists(st.integers(0, 3).map(str), min_size=2, max_size=2).map(",".join),
    st.sampled_from(SPLITS)).map(lambda t: "cvr\t" + "\t".join(t))
_ROW = st.one_of(  # repeated branches are drawn more often
    _GOOD_ROW, _GOOD_ROW, _GOOD_CVR_ROW,
    _GOOD_ROW.map(lambda row: row.rsplit("\t", 1)[0]),  # 3 fields: a row without its split
    *[st.tuples(_TASK, _LABEL, st.lists(_INT, min_size=2, max_size=2).map(",".join), _SPLIT)
      .map("\t".join)] * 3,
    st.tuples(_TASK, _LABEL, st.lists(_INT, min_size=1, max_size=3).map(",".join))
    .map("\t".join),
    st.tuples(_TASK, _LABEL, st.lists(_INT, min_size=2, max_size=2).map(",".join), _SPLIT,
              _SPLIT).map("\t".join),
    st.sampled_from(["", "   ", "\t", "ctr\t1", "\x0c", "ctr\t1\t0,0\ttrain\x0c",
                     "\x85ctr\t1\t0,0", "ctr\t1\t0,0\u2028", "cvr\t0.5\t0,0\x1cval",
                     "ctr\t1\t0,4\ttrain", "ctr\t1\t0,0,0\ttest", "ctr\t1\t0,0\televen",
                     "ctr\t1\t0,99999999999999999999\ttrain", "cvr\t0\t-9223372036854775809,9"]),
    st.text(max_size=12))
# every id in int64 is in range, every id past it out of range, as in the reference
_WIDE_HEADER = "cardinalities\t9223372036854775808,9223372036854775808"
_HEADER = st.sampled_from(["cardinalities\t4,4"] * 20 + [
    "cardinalities\t4,4,2", "cardinalities\t99999999999999999999,0", "cardinalities\t4",
    "cardinalities\t4,x", "cardinalities", "Cardinalities\t4,4", "", " ", "\x0c",
    _WIDE_HEADER])
_MIXED_FILE = st.tuples(_HEADER, st.lists(_ROW, max_size=12)).map(lambda t: [t[0], *t[1]])
# ids of ASCII digits, leading zeros included, mostly short enough for data.digit_ids
DIGIT_ID = st.one_of(
    st.text("0123456789", min_size=1, max_size=18), st.text("0123456789", min_size=1, max_size=18),
    st.text("0123456789", min_size=19, max_size=20),
    st.sampled_from(["0", "00", "007", "9" * 18, "0" * 17 + "1", "1" + "0" * 17,
                     "0" * 18 + "5", "1" + "0" * 18, "9" * 19, "9" * 20,
                     "9223372036854775806", "9223372036854775807", "9223372036854775808",
                     "-9223372036854775807", "-9223372036854775808", "-9223372036854775809"]))
# rows whose ids are all digit strings, under a header that takes every int64 id
_DIGIT_FILE = st.lists(st.tuples(
    st.sampled_from(["ctr", "cvr"]), st.sampled_from(["0", "1"]),
    st.lists(DIGIT_ID, min_size=2, max_size=2).map(",".join),
    st.sampled_from(SPLITS)).map("\t".join), max_size=20).map(lambda rows: [_WIDE_HEADER, *rows])
# good rows and blank lines, with at most one row of any kind inserted
_MOSTLY_GOOD_FILE = st.tuples(
    st.lists(st.one_of(_GOOD_ROW, _GOOD_ROW, _GOOD_CVR_ROW, st.sampled_from(["", " "])),
             max_size=20),
    st.one_of(st.none(), _ROW), st.integers(0, 20),
).map(lambda t: ["cardinalities\t4,4",
                 *(t[0] if t[1] is None else t[0][:t[2]] + [t[1]] + t[0][t[2]:])])


class TestLoadMatchesPerLine:
    """The block loader accepts exactly what the per-line reference accepts,
    with byte-equal arrays, and rejects the rest with the same message."""

    @settings(max_examples=500, deadline=None)
    @given(lines=st.one_of(_MIXED_FILE, _MOSTLY_GOOD_FILE, _DIGIT_FILE, st.just([])),
           newlines=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=22, max_size=22),
           last_newline=st.booleans(),
           block=st.one_of(st.integers(1, 5), st.sampled_from([8, 64])))
    def test_matches_per_line_reference(self, tmp_path_factory, lines, newlines,
                                        last_newline, block):
        p = tmp_path_factory.mktemp("tsv") / "d.tsv"
        text = "".join(a + b for a, b in zip(lines, newlines))
        if lines and not last_newline:
            text = text[:-len(newlines[len(lines) - 1])]
        p.write_bytes(text.encode("utf-8"))
        try:
            want = per_line_load(p)
        except DataError as exc:
            want = str(exc)
        with mock.patch.object(data, "BLOCK_LINES", block):
            try:
                got = data.load(p)
            except DataError as exc:
                got = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert_same_arrays(got, want)

    def test_grammar_of_int_and_float(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t11,4\r\nctr\t+1\t1_0, 2\tval\r\n\r\n"
                     "cvr\t 1e-1 \t003,-0\ttest\rctr\t-0\t0,0\ttest\n")
        ds = data.load(p)
        ctr, cvr = ds.tasks[Task.CTR], ds.tasks[Task.CVR]
        assert ctr.ids.tolist() == [[10, 2], [0, 0]] and cvr.ids.tolist() == [[3, 0]]
        assert ctr.labels.tobytes() == np.array([1.0, -0.0]).tobytes()
        assert cvr.labels.tolist() == [0.1] and cvr.split.tolist() == [2]
        assert ctr.split.tolist() == [1, 2]

    def test_first_bad_line_across_blocks(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t4,4\n" + "ctr\t1\t0,0\ttrain\n" * 5
                     + "ctr\t1\t0,99999999999999999999\televen\n" + "ctr\tx\t0,0\n")
        with mock.patch.object(data, "BLOCK_LINES", 2):
            with pytest.raises(DataError, match=r"d.tsv:7: id 99999999999999999999 out of "
                                                r"range for field 1 \(cardinality 4\)$"):
                data.load(p)

    @pytest.mark.parametrize("bad,problem", [
        ("cvr\t1.5\t0,0\ttrain", "CVR label must be in [0,1], got 1.5"),
        ("cvr\tnan\t0,0\ttrain", "CVR label must be in [0,1], got nan"),
        ("ctr\t0.5\t0,0\ttrain", "CTR label must be 0 or 1, got 0.5"),
        ("ctr\t1\t0,4\tval", "id 4 out of range for field 1 (cardinality 4)"),
        ("ctr\t1\t0,0,0\tval", "3 ids for 2 fields"),
        ("cvr\t0\t0,0\tvalid", "unknown split 'valid'"),
        ("cvr\t0\t0,0\ttrain\t", "expected 4 tab-separated fields"),
        ("cvr\t0\t0,0", "expected 4 tab-separated fields"),
    ])
    def test_bad_line_deep_in_a_block(self, tmp_path, bad, problem):
        # plain rows around it, so only the bad line keeps the block from the bulk path
        rows = ["ctr\t1\t0,0\ttrain", "cvr\t0.25\t3,1\ttest", "ctr\t0\t2,3\tval"] * 21 + [bad]
        rows[40], rows[-1] = rows[-1], rows[40]  # line 42, in the first block of 64 lines
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t4,4\n" + "\n".join(rows) + "\n")
        with mock.patch.object(data, "BLOCK_LINES", 64):
            with pytest.raises(DataError) as exc:
                data.load(p)
        assert str(exc.value) == f"{p}:42: {problem}"

    def test_tab_count_checked_per_line(self, tmp_path):
        # a 3-field row and then a 5-field row hold 8 fields, as two 4-field rows do
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t4,4\nctr\t1\t0,0\ntrain\tctr\t1\t0,0\ttrain\n")
        with pytest.raises(DataError, match=r"d.tsv:2: expected 4 tab-separated fields$"):
            data.load(p)

    def test_tab_count_checked_per_line_after_a_good_first_row(self, tmp_path):
        # 3 + 2 + 4 tabs are the 9 of three 4-field rows, and the first row is one
        rows = ["ctr\t1\t0,0\ttrain", "ctr\t1\t0,0", "train\tcvr\t0\t1,1\ttrain"]
        assert data._row_block(rows, (4, 4)) is None
        p = tmp_path / "d.tsv"
        p.write_text("cardinalities\t4,4\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"d.tsv:3: expected 4 tab-separated fields$"):
            data.load(p)

    def test_only_universal_newlines_end_a_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_bytes("cardinalities\t4,4\nctr\t1\t0,0\x0cctr\t0\t1,1\n".encode())
        with pytest.raises(DataError, match=r"d.tsv:2: expected 4 tab-separated fields$"):
            data.load(p)  # str.splitlines would read two rows here
        p.write_bytes("cardinalities\t4,4\nctr\t1\t0,0\ttrain\x0c\n".encode())
        with pytest.raises(DataError, match=r"d.tsv:2: unknown split 'train\\x0c'$"):
            data.load(p)
        p.write_bytes("cardinalities\t4,4\n\x0c\u2028\nctr\t1\t0,0\ttrain\x85\n".encode())
        with pytest.raises(DataError, match=r"d.tsv:3: unknown split 'train\\x85'$"):
            data.load(p)

    @pytest.mark.parametrize("block", [1, 2, 8192])
    def test_not_utf8_names_first_bad_line(self, tmp_path, block):
        p = tmp_path / "d.tsv"
        p.write_bytes("cardinalities\t4,4\nctr\t1\t0,0\ttrain\n"
                      "cvr\t0.5\t0,0\tcafé\n".encode() + b"ctr\t1\t0,0\tval\xff\n")
        with mock.patch.object(data, "BLOCK_LINES", block):
            with pytest.raises(DataError, match=r"d.tsv:3: unknown split 'café'$"):
                data.load(p)
            p.write_bytes(b"cardinalities\t4,4\nctr\t1\t0,0\ttrain\n\n"
                          b"ctr\t1\t0,0\tval\xff\ncvr\tx\t0,0\n")
            with pytest.raises(DataError, match=r"d.tsv:4: not valid UTF-8$"):
                data.load(p)
            p.write_bytes(b"cardinalities\t4,\xe94\n")
            with pytest.raises(DataError, match=r"d.tsv:1: not valid UTF-8$"):
                data.load(p)


class TestDigitIds:
    """``data.digit_ids`` reads exactly the blocks of plain 1-18 digit ids,
    each as ``int()`` reads it, and leaves every other block to ``int()``."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_int_on_random_digit_strings(self, seed):
        rng = np.random.default_rng(seed)
        n, n_fields = 3000, 3
        tokens = ["".join(map(str, rng.integers(0, 10, w)))
                  for w in rng.integers(1, 19, n * n_fields).tolist()]
        rows = [",".join(tokens[i:i + n_fields]) for i in range(0, len(tokens), n_fields)]
        got = data.digit_ids(rows, n_fields)
        want = np.array(list(map(int, tokens)), dtype=np.int64).reshape(n, n_fields)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(DIGIT_ID, DIGIT_ID, st.sampled_from([
               "+5", "1_0", " 5", "5 ", "-1", "\u0663", "", "x", "1.0", "\udcff", "\t"])),
               min_size=1, max_size=4).map(",".join), min_size=1, max_size=8),
           n_fields=st.integers(1, 4))
    def test_none_unless_every_id_is_plain(self, rows, n_fields):
        tokens = [row.split(",") for row in rows]
        plain = all(len(row) == n_fields and all(
            1 <= len(t) <= 18 and t.isascii() and t.isdigit() for t in row) for row in tokens)
        got = data.digit_ids(rows, n_fields)
        if plain:
            assert got.dtype == np.int64
            assert got.tolist() == [[int(t) for t in row] for row in tokens]
        else:
            assert got is None

    def test_ids_per_row_not_only_in_total(self):
        assert data.digit_ids(["1,2,3", "4"], 2) is None
        assert data.digit_ids(["1", "2,3,4"], 2) is None
        assert data.digit_ids(["1,2", "3,4"], 2).tolist() == [[1, 2], [3, 4]]

    def test_widest_ids_and_leading_zeros(self):
        rows = ["9" * 18 + ",0", "0" * 18 + "," + "0" * 17 + "1", "7,1" + "0" * 17]
        assert data.digit_ids(rows, 2).tolist() == [[10 ** 18 - 1, 0], [0, 1], [7, 10 ** 17]]
        assert data.digit_ids(["0" * 19 + ",1"], 2) is None
        assert data.digit_ids(["9223372036854775807,1"], 2) is None

    def test_plain_ids_never_reach_int(self, tmp_path):
        """A block of plain rows is read in bulk, without the per-line
        parser and its ``int()``; a signed id sends its block there, which
        reads it to the same arrays."""
        p = tmp_path / "d.tsv"
        with mock.patch.object(data, "_parse_row", wraps=data._parse_row) as parse_row:
            p.write_text("cardinalities\t10,10\nctr\t1\t3,007\ttrain\ncvr\t0.5\t0,9\tval\n")
            plain = data.load(p)
            assert parse_row.call_count == 0
            p.write_text("cardinalities\t10,10\nctr\t1\t+3,007\ttrain\ncvr\t0.5\t0,9\tval\n")
            signed = data.load(p)
            assert parse_row.call_count == 2
        assert_same_arrays(signed, plain)
        assert plain.tasks[Task.CTR].ids.tolist() == [[3, 7]]


def tiny_dataset(n_ctr=10, n_cvr=5):
    rng = np.random.default_rng(0)
    def td(n, binary):
        labels = (rng.random(n) < 0.5).astype(float) if binary else rng.random(n)
        return data.TaskData(ids=rng.integers(0, 4, (n, 2)),
                             labels=labels,
                             split=np.zeros(n, dtype=np.uint8))
    return Dataset((4, 4), {Task.CTR: td(n_ctr, True), Task.CVR: td(n_cvr, False)})


class TestBatches:
    def test_sizes_and_coverage(self):
        ds = tiny_dataset(n_ctr=10)
        bs = list(batches(ds, [Task.CTR], batch_size=4, seed=0, epoch=0))
        assert [b.n for b in bs] == [4, 4, 2]
        seen = np.concatenate([b.labels for b in bs])
        assert sorted(seen) == sorted(ds.tasks[Task.CTR].labels)

    def test_interleave_proportional(self):
        ds = tiny_dataset(n_ctr=80, n_cvr=20)
        bs = list(batches(ds, [Task.CTR, Task.CVR], batch_size=1, seed=0, epoch=0))
        tasks = [b.task for b in bs]
        assert tasks.count(Task.CTR) == 80 and tasks.count(Task.CVR) == 20
        # interleaved, not concatenated by task
        assert tasks[:80] != [Task.CTR] * 80

    def test_every_sample_once_across_tasks(self):
        ds = tiny_dataset(n_ctr=23, n_cvr=11)
        bs = list(batches(ds, [Task.CTR, Task.CVR], batch_size=4, seed=1, epoch=2))
        for task, n in ((Task.CTR, 23), (Task.CVR, 11)):
            got = np.concatenate([b.labels for b in bs if b.task is task])
            assert sorted(got) == sorted(ds.tasks[task].labels)

    def test_deterministic_given_seed_epoch(self):
        ds = tiny_dataset(n_ctr=30, n_cvr=12)
        def run(seed, epoch):
            return [(b.task, b.labels.tolist())
                    for b in batches(ds, [Task.CTR, Task.CVR], 4, seed, epoch)]
        assert run(0, 0) == run(0, 0)
        assert run(0, 0) != run(0, 1)
        assert run(0, 0) != run(7, 0)

    @pytest.mark.parametrize("tasks,seed,epoch,digest", [
        ([Task.CVR], 0, 0, "01361a4f32a07e00237169454869f64e2bc0b27d81c7f79d939b856c9e5e3434"),
        ([Task.CVR], 5, 3, "56780057f616f008843f38cbc2eee34408ab9acce256032122946bceb82580d3"),
        ([Task.CTR, Task.CVR], 0, 0,
         "48681732d1d35b2ec1bbba29b663d479030e7b8ed9fdba6af0802cfee386c31b"),
        ([Task.CTR, Task.CVR], 5, 3,
         "0b8c15b71864355fc4794748df6ba3709be3dc902009ec663a38e0ad6fc0b95d"),
    ])
    def test_golden_order(self, tasks, seed, epoch, digest):
        """The sha256 of each batch's task, ids and labels, in stream order, is
        pinned: a change that reorders batches or rows would move every
        training bit."""
        h = hashlib.sha256()
        for b in batches(tiny_dataset(n_ctr=301, n_cvr=67), tasks, 8, seed, epoch):
            h.update(b.task.value.encode() + b.ids.astype("<i8").tobytes()
                     + b.labels.astype("<f8").tobytes())
        assert h.hexdigest() == digest

    def test_batch_size_validated(self):
        with pytest.raises(ConfigError):
            list(batches(tiny_dataset(), [Task.CTR], 0, 0, 0))

    def test_split_filter(self):
        """Batches hold every train row once, and no val or test row."""
        ds = tiny_dataset(n_ctr=10, n_cvr=9)
        for td in ds.tasks.values():
            td.split[:] = np.arange(td.n) % 3   # train, val, test, train, ...
        bs = list(batches(ds, [Task.CTR, Task.CVR], 2, 0, 0))
        for task in (Task.CTR, Task.CVR):
            td = ds.tasks[task]
            got = sorted((*b.ids[i].tolist(), b.labels[i])
                         for b in bs if b.task is task for i in range(b.n))
            train = td.split == 0
            assert got == sorted((*ids, label) for ids, label
                                 in zip(td.ids[train].tolist(), td.labels[train]))
