import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotshare import nn
from lotshare.errors import ConfigError, UndefinedMetricError
from lotshare.metrics import (MetricsReport, _average_ranks, auc, format_gain, mse, mtl_gain,
                              rank_scores, rank_top_k)
from lotshare.model import Task


def pairwise_auc_oracle(labels, scores):
    """O(n^2) count of positive-beats-negative pairs, ties 0.5."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([1, 0], [0.9, 0.1]) == 1.0

    def test_all_ties(self):
        assert auc([1, 0, 1, 0], [0.5] * 4) == 0.5

    def test_matches_pairwise_oracle_with_duplicates(self):
        rng = nn.make_rng(0)
        labels = (rng.random(50) < 0.4).astype(int)
        labels[0], labels[1] = 0, 1
        scores = np.round(rng.random(50), 1)  # force duplicates
        assert auc(labels, scores) == pytest.approx(
            pairwise_auc_oracle(labels, scores), abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 60))
    @settings(max_examples=60, deadline=None)
    def test_pairwise_oracle_property(self, seed, n):
        rng = nn.make_rng(seed)
        labels = (rng.random(n) < 0.5).astype(int)
        labels[0], labels[1] = 0, 1
        scores = np.round(rng.random(n), 2)
        assert auc(labels, scores) == pytest.approx(
            pairwise_auc_oracle(labels, scores), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = nn.make_rng(1)
        labels = (rng.random(30) < 0.5).astype(int)
        labels[0], labels[1] = 0, 1
        scores = rng.standard_normal(30)
        base = auc(labels, scores)
        assert auc(labels, np.exp(scores)) == pytest.approx(base, abs=1e-12)
        assert auc(labels, 3 * scores + 7) == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc([1, 1], [0.2, 0.3])


def loop_average_ranks(scores):
    """Reference: walk the stable sort and give each tie group its mean rank."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    @pytest.mark.parametrize("scores", [
        [],
        [0.3],
        [0.0, -0.0, 0.0, -0.0, 1.0, -1.0],
        [np.nan, 0.5, np.nan, 0.5, -np.inf, np.inf, np.nan],
        [1.0, 1.0, 1.0, 1.0],
        [2.0, 1.0],
    ], ids=["empty", "single", "signed_zeros", "nan", "all_tied", "two"])
    def test_matches_loop_bytes(self, scores):
        scores = np.asarray(scores, dtype=np.float64)
        assert _average_ranks(scores).tobytes() == loop_average_ranks(scores).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_matches_loop_bytes(self, seed):
        rng = nn.make_rng(seed)
        scores = rng.integers(0, 3 + 40 * seed, 2000).astype(np.float64)
        scores[rng.random(2000) < 0.05] = np.nan
        assert _average_ranks(scores).tobytes() == loop_average_ranks(scores).tobytes()


class TestMse:
    def test_identical_zero(self):
        assert mse([0.1, 0.9], [0.1, 0.9]) == 0.0

    def test_hand_value(self):
        assert mse([0, 1], [0.5, 0.5]) == 0.25

    def test_matches_naive_loop(self):
        rng = nn.make_rng(2)
        a, b = rng.random(37), rng.random(37)
        naive = sum((x - y) ** 2 for x, y in zip(b, a)) / 37
        assert mse(a, b) == pytest.approx(naive, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([], [])


class TestMtlGain:
    def test_paper_cvr_row(self):
        absolute, relative = mtl_gain(0.13688, 0.13226, Task.CVR)
        assert format_gain(absolute, relative) == "+0.00462 (+3.38%)"

    def test_paper_ctr_row(self):
        absolute, relative = mtl_gain(0.78572, 0.78874, Task.CTR)
        assert format_gain(absolute, relative) == "+0.00302 (+0.38%)"

    def test_paper_negative_ctr(self):
        absolute, relative = mtl_gain(0.78572, 0.78346, Task.CTR)
        assert format_gain(absolute, relative) == "-0.00226 (-0.29%)"

    def test_equal_metrics_zero(self):
        absolute, relative = mtl_gain(0.5, 0.5, Task.CTR)
        assert (absolute, relative) == (0.0, 0.0)

    def test_improvement_positive_both_tasks(self):
        assert mtl_gain(0.7, 0.8, Task.CTR)[0] > 0   # AUC up
        assert mtl_gain(0.2, 0.1, Task.CVR)[0] > 0   # MSE down

    def test_zero_single_rejected(self):
        with pytest.raises(ValueError):
            mtl_gain(0.0, 0.1, Task.CVR)


@dataclass(frozen=True)
class RankInput:
    """Reference: one candidate of the scalar ranking the array API replaced."""
    pctr: float
    pcvr: float
    video_length: float
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.pctr < 1.0 or not 0.0 < self.pcvr < 1.0:
            raise ValueError(f"probabilities must be in (0,1): pctr={self.pctr}, pcvr={self.pcvr}")
        if self.video_length <= 0:
            raise ValueError(f"video_length must be positive, got {self.video_length}")


def rank_score(inp: RankInput) -> float:
    """Reference: pCTR^alpha * pCVR^beta * video_length^gamma in Python floats."""
    return float(inp.pctr ** inp.alpha * inp.pcvr ** inp.beta
                 * inp.video_length ** inp.gamma)


def sorted_top_k(scores, k):
    """Reference: the full Python sort by (-score, index)."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def scores_of(cands):
    """The array API's scores for a list of RankInput (shared exponents)."""
    c = cands[0]
    return rank_scores([x.pctr for x in cands], [x.pcvr for x in cands],
                       [x.video_length for x in cands], c.alpha, c.beta, c.gamma)


def score_one(*args, **kwargs):
    return float(scores_of([RankInput(*args, **kwargs)])[0])


EXPONENTS = (1.0, 0.0, 2.0, 0.5, 0.7, 1.3, -1.0)


class TestRankScore:
    def test_product(self):
        assert score_one(0.5, 0.4, 100.0) == pytest.approx(20.0)

    def test_zero_exponent_ignores_factor(self):
        a = score_one(0.5, 0.4, 100.0, beta=0.0)
        b = score_one(0.5, 0.9, 100.0, beta=0.0)
        assert a == b

    def test_gamma_power_equivalence(self):
        a = score_one(0.5, 0.4, 10.0, gamma=2.0)
        b = score_one(0.5, 0.4, 100.0, gamma=1.0)
        assert a == pytest.approx(b)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="video_length must be positive, got -1.0"):
            rank_scores([0.5], [0.4], [-1.0], 1.0, 1.0, 1.0)
        for pctr, pcvr in ((1.0, 0.4), (0.5, 0.0), (float("nan"), 0.4)):
            with pytest.raises(ValueError, match="probabilities must be in"):
                rank_scores([0.3, pctr], [0.3, pcvr], [10.0, 10.0], 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="pctr=0.5, pcvr=1.0"):  # first bad entry
            rank_scores([0.5, 0.5, 0.5], [0.5, 1.0, 0.3], [10.0, -1.0, -1.0], 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="2 pctr, 2 pcvr, 1 lengths"):
            rank_scores([0.5, 0.5], [0.5, 0.5], [10.0], 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("args", [([0.5], [0.4], [-1.0]), ([1.0], [0.4], [10.0]),
                                      ([0.5, 0.5], [0.5, 0.5], [10.0])])
    def test_invalid_inputs_are_config_errors(self, args):
        with pytest.raises(ConfigError) as info:
            rank_scores(*args, 1.0, 1.0, 1.0)
        assert type(info.value) is ConfigError

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bits_equal_scalar_reference(self, seed):
        """Every exponent triple from EXPONENTS, including those where numpy's
        array pow differs from Python's scalar pow in the last bit."""
        rng = np.random.default_rng(seed)
        n = 300
        pctr = rng.uniform(1e-4, 1.0 - 1e-4, n)
        pcvr = rng.uniform(1e-4, 1.0 - 1e-4, n)
        lengths = np.round(rng.uniform(0.5, 7200.0, n), 1)
        for alpha, beta, gamma in itertools.product(EXPONENTS, repeat=3):
            got = rank_scores(pctr, pcvr, lengths, alpha, beta, gamma)
            want = [rank_score(RankInput(p, q, l, alpha, beta, gamma))
                    for p, q, l in zip(pctr.tolist(), pcvr.tolist(), lengths.tolist())]
            assert got.tobytes() == np.array(want).tobytes(), (alpha, beta, gamma)

    @pytest.mark.parametrize("args,message", [
        (([0.5, 0.5], [0.5, 0.5], [10.0, 600.0], 1.0, 1.0, 200.0),
         "candidate 1: length**gamma overflows (length=600.0, gamma=200.0)"),
        (([0.9, 1e-300, 1e-300], [0.5] * 3, [10.0] * 3, -2.0, 1.0, 1.0),
         "candidate 1: pctr**alpha overflows (pctr=1e-300, alpha=-2.0)"),
        (([0.5] * 3, [0.5, 0.5, 1e-200], [10.0] * 3, 1.0, -1.6, 1.0),
         "candidate 2: pcvr**beta overflows (pcvr=1e-200, beta=-1.6)"),
    ])
    def test_power_overflow_names_candidate_and_exponent(self, args, message):
        with pytest.raises(ConfigError) as info:
            rank_scores(*args)
        assert str(info.value) == message

    def test_product_overflow_of_finite_powers(self):
        pctr, pcvr, lengths = [0.5, 0.5, 1e-3], [0.5, 0.5, 0.5], [1e290, 1e290, 1e300]
        with np.errstate(over="raise"), pytest.raises(ConfigError) as info:
            rank_scores(pctr, pcvr, lengths, -40.0, 1.0, 1.0)
        assert str(info.value) == ("candidate 2: pctr**alpha * pcvr**beta * length**gamma "
                                   "overflows (alpha=-40.0, beta=1.0, gamma=1.0)")
        with pytest.raises(ConfigError, match="^candidate 0: pctr"):
            rank_scores([0.5], [1e-10], [1e308], 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("p,q,length,alpha,beta,gamma", [
        (0.5, 0.5, 1.7976931348623157e308, 1.0, 1.0, 1.0),
        (1e-300, 0.5, 1e8, -1.0, 1.0, 0.0),
        (0.9, 0.999, 600.0, 0.5, -2.0, 110.0),
        (0.5, 0.5, 1e300, -26.0, 1.0, 1.0),
    ])
    def test_largest_finite_scores_keep_bits(self, p, q, length, alpha, beta, gamma):
        got = rank_scores([p, 0.5], [q, 0.5], [length, 10.0], alpha, beta, gamma)
        want = [p ** alpha * q ** beta * length ** gamma,
                0.5 ** alpha * 0.5 ** beta * 10.0 ** gamma]
        assert np.isfinite(got).all() and got[0] > 1e299
        assert got.tobytes() == np.array(want).tobytes()

    def test_infinite_length_is_not_an_overflow(self):
        assert rank_scores([0.5], [0.5], [float("inf")], 1.0, 1.0, 1.0).tolist() == [float("inf")]


class TestRankTopK:
    def _candidates(self, n, seed=0):
        rng = nn.make_rng(seed)
        return [RankInput(float(rng.uniform(0.05, 0.95)),
                          float(rng.uniform(0.05, 0.95)),
                          float(rng.uniform(1, 600))) for _ in range(n)]

    def test_k_equals_n_is_permutation(self):
        cands = self._candidates(10)
        assert sorted(rank_top_k(scores_of(cands), 10)) == list(range(10))

    def test_dominant_first(self):
        cands = self._candidates(5)
        cands.append(RankInput(0.95, 0.95, 10000.0))
        assert rank_top_k(scores_of(cands), 1)[0] == 5

    def test_matches_full_sort_oracle(self):
        cands = self._candidates(20, seed=3)
        scores = [rank_score(c) for c in cands]
        assert rank_top_k(scores_of(cands), 5) == sorted_top_k(scores, 5)

    def test_tie_break_by_index(self):
        c = RankInput(0.5, 0.5, 100.0)
        assert rank_top_k(scores_of([c, c, c]), 2) == [0, 1]

    def test_common_length_scale_invariance(self):
        cands = self._candidates(12, seed=4)
        scaled = [RankInput(c.pctr, c.pcvr, c.video_length * 7.5) for c in cands]
        assert rank_top_k(scores_of(cands), 12) == rank_top_k(scores_of(scaled), 12)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            rank_top_k(scores_of(self._candidates(3)), 4)
        with pytest.raises(ValueError):
            rank_top_k([0.5, 0.4], -1)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_bad_k_is_config_error(self, k):
        with pytest.raises(ConfigError, match=rf"^rank_top_k: k={k} for 2 candidates$") as info:
            rank_top_k([0.5, 0.4], k)
        assert type(info.value) is ConfigError

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_heavy_matches_sort_for_every_k(self, seed):
        """Few distinct scores, so most k cut through a run of ties at the
        k-th score; signed zeros tie with each other."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pool = np.array([0.0, -0.0, 1e-300, 0.25, 0.25, 3.0, np.inf])
        scores = pool[rng.integers(0, int(rng.integers(1, len(pool) + 1)), n)]
        for k in range(n + 1):
            assert rank_top_k(scores, k) == sorted_top_k(scores.tolist(), k), k

    def test_ties_at_kth_score_from_scores(self):
        lengths = [10.0, 20.0, 10.0, 20.0, 10.0, 5.0, 10.0]
        scores = rank_scores([0.5] * 7, [0.5] * 7, lengths, 1.0, 1.0, 1.0)
        assert rank_top_k(scores, 3) == [1, 3, 0]
        assert rank_top_k(scores, 4) == [1, 3, 0, 2]


class TestMetricsReport:
    def test_kv_round_trip(self):
        rep = MetricsReport(mode="connection_share",
                            metrics={"ctr_auc": 0.78874, "cvr_mse": 0.13226},
                            sparsity={"ctr": 0.512, "cvr": 0.4096},
                            overlap={"shared": 100, "dead": 3},
                            config_fingerprint="abc123",
                            notes={"hidden_activation": "relu"})
        back = MetricsReport.from_kv_lines(rep.to_kv_lines())
        assert back.mode == rep.mode
        assert back.metrics == pytest.approx(rep.metrics)
        assert back.sparsity == pytest.approx(rep.sparsity)
        assert back.overlap == rep.overlap
        assert back.notes == rep.notes

    def test_text_has_five_decimals(self):
        rep = MetricsReport(mode="single_task", metrics={"cvr_mse": 0.13688})
        assert "0.13688" in rep.to_text()
