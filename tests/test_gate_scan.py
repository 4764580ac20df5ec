"""The by-hand scans ``tests/gate_scan.py`` and ``tests/mode_table.py``
read the acceptance gate's own configs: with every run stubbed out, the
specs and configs that ``test_criterion_8_*`` and ``test_criterion_9_*``
pass equal what ``gate_scan``'s builders return for the same seed and mode."""

from types import SimpleNamespace

import pytest

import test_acceptance
from gate_scan import criterion_8_configs, criterion_8_spec, criterion_9_configs, criterion_9_spec
from lotshare.model import SharingMode, Task


@pytest.fixture
def calls(monkeypatch):
    """The calls the gate makes, as ``("generate", spec)``, ``("train_model",
    cfg, tcfg)`` and ``("warmup", cfg, tcfg)``; nothing is trained."""
    log = []

    def generate(spec):
        log.append(("generate", spec))
        return SimpleNamespace(field_cardinalities=spec.field_cardinalities)

    def train_model(ds, cfg, tcfg):
        log.append(("train_model", cfg, tcfg))

    def warmup(params, ds, cfg, tcfg):
        log.append(("warmup", cfg, tcfg))

    monkeypatch.setattr(test_acceptance, "generate", generate)
    monkeypatch.setattr(test_acceptance, "train_model", train_model)
    monkeypatch.setattr(test_acceptance, "warmup", warmup)
    monkeypatch.setattr(test_acceptance, "evaluate_artifacts", lambda *a: {"cvr_mse": 1.0})
    monkeypatch.setattr(test_acceptance, "generate_masks", lambda *a: (None, {Task.CVR: 0}))
    monkeypatch.setattr(test_acceptance, "_report", lambda *a: None)
    return log


def test_criterion_8_reads_gate_scan_configs(calls):
    test_acceptance.test_criterion_8_synthetic_mtl_gain(None)
    want = []
    for seed in range(5):
        spec = criterion_8_spec(seed)
        want.append(("generate", spec))
        want += [("train_model", *criterion_8_configs(spec.field_cardinalities, mode, seed))
                 for mode in (SharingMode.SINGLE_TASK, SharingMode.CONNECTION_SHARE)]
    assert calls == want


def test_criterion_9_reads_gate_scan_configs(calls):
    test_acceptance.test_criterion_9_interior_optimum(None)
    want = []
    for seed in range(5):
        spec = criterion_9_spec(seed)
        want += [("generate", spec), ("warmup", *criterion_9_configs(spec.field_cardinalities, seed))]
    assert calls == want
