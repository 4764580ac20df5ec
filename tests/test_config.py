from collections import Counter
from dataclasses import fields

import pytest

from lotshare import config
from lotshare.config import ExperimentConfig, build_experiment, parse_kv_text
from lotshare.data import SyntheticSpec
from lotshare.errors import ConfigError
from lotshare.model import SharingMode
from lotshare.training import TrainConfig

# every key, each set to a value that differs from its default
NON_DEFAULT = {
    "mode": "neuron_share",
    "output_dir": "runs/elsewhere",
    "dataset": "data/d.tsv",
    "model.embedding_dim": "5",
    "model.hidden_dims": "12,7",
    "model.cross_kind": "pairwise_product",
    "train.learning_rate": "0.0025",
    "train.batch_size": "33",
    "train.omega_ctr": "0.55",
    "train.omega_cvr": "1.5",
    "train.q": "0.35",
    "train.n_pruning": "4",
    "train.warmup_epochs": "2",
    "train.mask_epochs": "3",
    "train.joint_epochs": "4",
    "train.seed": "11",
    "data.n_users": "77",
    "data.n_items": "66",
    "data.field_cardinalities": "3,9,27",
    "data.latent_dim": "5",
    "data.click_base_rate": "0.125",
    "data.click_noise": "0.25",
    "data.cvr_noise": "0.75",
    "data.rho": "-0.25",
    "data.n_impressions": "1234",
    "data.seed": "12",
}


def test_every_field_has_exactly_one_key():
    expected = [(None, f.name) for f in fields(ExperimentConfig)
                if f.name not in ("train", "synth")]
    expected += [("train", f.name) for f in fields(TrainConfig) if f.name != "sharing_mode"]
    expected += [("synth", f.name) for f in fields(SyntheticSpec)]
    assert Counter((key.section, key.attr) for key in config._KEYS) == Counter(expected)
    names = [key.name for key in config._KEYS]
    assert len(set(names)) == len(names)
    assert set(names) == set(NON_DEFAULT)


def test_every_key_round_trips_with_non_default_values():
    exp = build_experiment(NON_DEFAULT)
    default = build_experiment({})
    for key in config._KEYS:
        assert key.get(exp) != key.get(default), key.name
    assert exp.train.sharing_mode is SharingMode.NEURON_SHARE
    back = build_experiment(parse_kv_text(exp.to_text()))
    assert back == exp
    assert back.to_text() == exp.to_text()


def test_defaults_come_from_the_dataclasses():
    exp = build_experiment({})
    assert exp == ExperimentConfig()
    assert exp.train == TrainConfig() and exp.synth == SyntheticSpec()


@pytest.mark.parametrize("key,value", [("train.batch_size", "3.5"), ("mode", "bogus"),
                                       ("model.hidden_dims", "8,x"), ("data.rho", "high"),
                                       ("train.learning_rate", "nan"), ("train.omega_cvr", "inf"),
                                       ("data.click_noise", "-inf"), ("data.rho", "nan"),
                                       ("train.q", "NaN"), ("data.cvr_noise", "1e999")])
def test_bad_value_names_its_key(key, value):
    with pytest.raises(ConfigError, match=f"config key {key}: bad value"):
        build_experiment({key: value})


@pytest.mark.parametrize("key,value", [
    ("train.seed", "-1"), ("data.seed", "-3"), ("train.warmup_epochs", "-1"),
    ("train.mask_epochs", "-1"), ("train.joint_epochs", "-2")])
def test_negative_seed_or_epoch_count_is_rejected(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got {value}$"):
        build_experiment({key: value})


def test_zero_epochs_and_seeds_are_valid():
    exp = build_experiment({"seed": "0", "train.warmup_epochs": "0",
                            "train.mask_epochs": "0", "train.joint_epochs": "0"})
    assert (exp.train.seed, exp.synth.seed) == (0, 0)
    assert (exp.train.warmup_epochs, exp.train.mask_epochs, exp.train.joint_epochs) == (0, 0, 0)


def test_paths_with_hash_round_trip():
    """'#' inside a value is data; only a line starting with '#' is a comment."""
    exp = build_experiment({"output_dir": "runs/a#b", "dataset": "data/#1 set#.tsv"})
    text = "# a comment line\n   # an indented one\n" + exp.to_text()
    kv = parse_kv_text(text)
    assert kv["output_dir"] == "runs/a#b" and kv["dataset"] == "data/#1 set#.tsv"
    assert build_experiment(kv) == exp
    assert not any(key.startswith("#") for key in kv)
