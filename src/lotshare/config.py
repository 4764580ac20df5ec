"""Experiment configuration: flat `key = value` files with section prefixes.

Each key sets one dataclass field: `mode`, `output_dir`, `dataset` and
`model.*` set the fields of `ExperimentConfig`, `train.*` those of
`TrainConfig` and `data.*` those of `SyntheticSpec`. A key is its field's
name, except `train.q` (`prune_fraction`) and `data.rho`
(`task_correlation`); `TrainConfig.sharing_mode` follows `mode`, whose
default is that field's. Defaults live only on the dataclasses, and a value
parses by the type of its default; a float value must be finite.
The key `seed` sets both `train.seed` and `data.seed`.

Precedence is overrides (CLI flags, `--set`) > config file > defaults. Within
one source `train.seed`/`data.seed` beat `seed`. `to_text()` writes the
effective config, one line per key; a run directory keeps it as
`config.cfg`, so loading that file re-creates the run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum

from .data import SyntheticSpec
from .errors import ConfigError, DataError
from .model import CrossKind, ModelConfig, SharingMode, cross_output_width
from .training import TrainConfig


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines. A line whose first non-blank character is
    '#' is a comment, and blank lines are ignored; a '#' anywhere else is
    part of the key or value, so paths may hold it."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        out[key] = val
    return out


@dataclass
class ExperimentConfig:
    # "key" metadata: the config key of a field, or the key prefix of a section
    mode: SharingMode = TrainConfig.sharing_mode
    output_dir: str = "runs/run"
    dataset_path: str | None = field(default=None, metadata={"key": "dataset"})
    embedding_dim: int = field(default=8, metadata={"key": "model.embedding_dim"})
    hidden_dims: tuple[int, ...] = field(default=(64, 32, 16),
                                         metadata={"key": "model.hidden_dims"})
    cross_kind: CrossKind = field(default=CrossKind.PAIRWISE_DOT,
                                  metadata={"key": "model.cross_kind"})
    train: TrainConfig = field(default_factory=TrainConfig, metadata={"key": "train"})
    synth: SyntheticSpec = field(default_factory=SyntheticSpec, metadata={"key": "data"})

    def model_config(self, field_cardinalities: tuple[int, ...]) -> ModelConfig:
        dims = (cross_output_width(len(field_cardinalities), self.embedding_dim,
                                   self.cross_kind), *self.hidden_dims, 1)
        return ModelConfig(
            field_cardinalities=field_cardinalities,
            embedding_dim=self.embedding_dim,
            mlp_dims=dims,
            cross_kind=self.cross_kind,
            sharing_mode=self.mode,
        )

    def to_kv_lines(self) -> list[str]:
        """One `key = value` line per key, in table order; a key whose value
        is None (no dataset) gets no line."""
        return [f"{key.name} = {_format(value)}" for key in _KEYS
                if (value := key.get(self)) is not None]

    def to_text(self) -> str:
        return "\n".join(self.to_kv_lines()) + "\n"

    def fingerprint(self) -> str:
        """Hash of the experiment. output_dir does not change the experiment,
        only where it lands; a dataset enters by its bytes, not its path."""
        lines = []
        for line in self.to_kv_lines():
            if line.startswith("output_dir"):
                continue
            if line.startswith("dataset = "):
                line = f"dataset_sha256 = {_file_sha256(self.dataset_path)}"
            lines.append(line)
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    return digest.hexdigest()


@dataclass(frozen=True)
class _Key:
    name: str            # the config key
    section: str | None  # the ExperimentConfig field holding the field, if any
    attr: str            # the field the key sets
    default: object

    def get(self, exp: ExperimentConfig):
        return getattr(exp if self.section is None else getattr(exp, self.section), self.attr)

    def parse(self, text: str):
        try:
            if self.default is None:
                return text or None
            if isinstance(self.default, tuple):
                return tuple(int(x) for x in text.split(",") if x.strip())
            value = type(self.default)(text)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("not a finite number")
            return value
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config key {self.name}: bad value {text!r}: {exc}") from exc


def _format(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


# section fields whose key is not their name
_RENAMED = {"prune_fraction": "q", "task_correlation": "rho"}


def _key_table() -> tuple[_Key, ...]:
    keys = []
    for f in fields(ExperimentConfig):
        name = f.metadata.get("key", f.name)
        if f.default_factory is MISSING:
            keys.append(_Key(name, None, f.name, f.default))
            continue
        keys += [_Key(f"{name}.{_RENAMED.get(g.name, g.name)}", f.name, g.name, g.default)
                 for g in fields(f.default_factory) if g.name != "sharing_mode"]
    return tuple(keys)


_KEYS = _key_table()
_SEED_KEYS = tuple(key.name for key in _KEYS if key.attr == "seed")


def _expand_seed(source: dict[str, str]) -> dict[str, str]:
    """`seed` sets every seed key the same source leaves unset."""
    out = dict(source)
    if "seed" in out:
        seed = out.pop("seed")
        for key in _SEED_KEYS:
            out.setdefault(key, seed)
    return out


def build_experiment(kv: dict[str, str],
                     overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge defaults, file values, and flag overrides into a config."""
    merged = _expand_seed(kv)
    merged.update(_expand_seed({k: v for k, v in (overrides or {}).items()
                                if v is not None}))
    unknown = set(merged) - {key.name for key in _KEYS}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    values: dict[str | None, dict] = {None: {}, "train": {}, "synth": {}}
    for key in _KEYS:
        if key.name in merged:
            values[key.section][key.attr] = key.parse(merged[key.name])
    exp = ExperimentConfig(**values[None])
    exp.train = TrainConfig(**values["train"], sharing_mode=exp.mode)
    exp.synth = SyntheticSpec(**values["synth"])
    return exp


def load_experiment(path: str | None,
                    overrides: dict[str, str] | None = None) -> ExperimentConfig:
    kv: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                kv = parse_kv_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return build_experiment(kv, overrides)
