"""Experiment configuration: flat `key = value` files with section prefixes.

Precedence is CLI flags > config file > defaults; `LOTSHARE_SEED` in the
environment overrides every seed. A run's effective config is written
verbatim into its output directory so the run can be re-executed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from .data import SyntheticSpec
from .errors import ConfigError, DataError
from .model import CrossKind, ModelConfig, SharingMode, cross_output_width
from .training import TrainConfig

SEED_ENV_VAR = "LOTSHARE_SEED"


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        out[key] = val
    return out


def _get(kv: dict[str, str], key: str, cast, default):
    if key not in kv:
        return default
    try:
        return cast(kv[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config key {key}: bad value {kv[key]!r}: {exc}") from exc


def _int_tuple(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


_KNOWN_KEYS = {
    "mode", "output_dir", "dataset", "seed",
    "model.embedding_dim", "model.hidden_dims", "model.cross_kind",
    "train.learning_rate", "train.batch_size", "train.omega_ctr",
    "train.omega_cvr", "train.q", "train.n_pruning", "train.warmup_epochs",
    "train.mask_epochs", "train.joint_epochs", "train.seed",
    "data.n_users", "data.n_items", "data.field_cardinalities",
    "data.latent_dim", "data.click_base_rate", "data.click_noise",
    "data.cvr_noise", "data.rho", "data.n_impressions", "data.seed",
}


@dataclass
class ExperimentConfig:
    mode: SharingMode = SharingMode.CONNECTION_SHARE
    output_dir: str = "runs/run"
    dataset_path: str | None = None
    embedding_dim: int = 8
    hidden_dims: tuple[int, ...] = (64, 32, 16)
    cross_kind: CrossKind = CrossKind.PAIRWISE_DOT
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)

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
        lines = [f"mode = {self.mode.value}", f"output_dir = {self.output_dir}"]
        if self.dataset_path:
            lines.append(f"dataset = {self.dataset_path}")
        lines += [
            f"model.embedding_dim = {self.embedding_dim}",
            f"model.hidden_dims = {','.join(map(str, self.hidden_dims))}",
            f"model.cross_kind = {self.cross_kind.value}",
        ]
        lines += [f"train.{l}" for l in _train_kv(self.train)]
        lines += [f"data.{l}" for l in _synth_kv(self.synth)]
        return lines

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


def _train_kv(t: TrainConfig) -> list[str]:
    return [
        f"learning_rate = {t.learning_rate!r}",
        f"batch_size = {t.batch_size}",
        f"omega_ctr = {t.omega_ctr!r}",
        f"omega_cvr = {t.omega_cvr!r}",
        f"q = {t.prune_fraction!r}",
        f"n_pruning = {t.n_pruning}",
        f"warmup_epochs = {t.warmup_epochs}",
        f"mask_epochs = {t.mask_epochs}",
        f"joint_epochs = {t.joint_epochs}",
        f"seed = {t.seed}",
    ]


def _synth_kv(s: SyntheticSpec) -> list[str]:
    return [
        f"n_users = {s.n_users}",
        f"n_items = {s.n_items}",
        f"field_cardinalities = {','.join(map(str, s.field_cardinalities))}",
        f"latent_dim = {s.latent_dim}",
        f"click_base_rate = {s.click_base_rate!r}",
        f"click_noise = {s.click_noise!r}",
        f"cvr_noise = {s.cvr_noise!r}",
        f"rho = {s.task_correlation!r}",
        f"n_impressions = {s.n_impressions}",
        f"seed = {s.seed}",
    ]


def build_experiment(kv: dict[str, str],
                     overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge defaults, file values, and flag overrides into a config."""
    merged = dict(kv)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(merged) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer: {env_seed!r}") from exc

    def seed_for(key: str, default: int) -> int:
        if env_seed is not None:
            return int(env_seed)
        if key in merged:
            return _get(merged, key, int, default)
        return _get(merged, "seed", int, default)

    mode = _get(merged, "mode", SharingMode, SharingMode.CONNECTION_SHARE)
    train = TrainConfig(
        learning_rate=_get(merged, "train.learning_rate", float, 1e-3),
        batch_size=_get(merged, "train.batch_size", int, 256),
        omega_ctr=_get(merged, "train.omega_ctr", float, 0.7),
        omega_cvr=_get(merged, "train.omega_cvr", float, 0.3),
        prune_fraction=_get(merged, "train.q", float, 0.2),
        n_pruning=_get(merged, "train.n_pruning", int, 3),
        warmup_epochs=_get(merged, "train.warmup_epochs", int, 1),
        mask_epochs=_get(merged, "train.mask_epochs", int, 1),
        joint_epochs=_get(merged, "train.joint_epochs", int, 1),
        seed=seed_for("train.seed", 0),
        sharing_mode=mode,
    )
    synth = SyntheticSpec(
        n_users=_get(merged, "data.n_users", int, 1000),
        n_items=_get(merged, "data.n_items", int, 1000),
        field_cardinalities=_get(merged, "data.field_cardinalities", _int_tuple, (16,) * 8),
        latent_dim=_get(merged, "data.latent_dim", int, 8),
        click_base_rate=_get(merged, "data.click_base_rate", float, 0.2),
        click_noise=_get(merged, "data.click_noise", float, 0.5),
        cvr_noise=_get(merged, "data.cvr_noise", float, 0.5),
        task_correlation=_get(merged, "data.rho", float, 0.8),
        n_impressions=_get(merged, "data.n_impressions", int, 50000),
        seed=seed_for("data.seed", 0),
    )
    return ExperimentConfig(
        mode=mode,
        output_dir=merged.get("output_dir", "runs/run"),
        dataset_path=merged.get("dataset"),
        embedding_dim=_get(merged, "model.embedding_dim", int, 8),
        hidden_dims=_get(merged, "model.hidden_dims", _int_tuple, (64, 32, 16)),
        cross_kind=_get(merged, "model.cross_kind", CrossKind, CrossKind.PAIRWISE_DOT),
        train=train,
        synth=synth,
    )


def load_experiment(path: str | None,
                    overrides: dict[str, str] | None = None) -> ExperimentConfig:
    kv: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                kv = parse_kv_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return build_experiment(kv, overrides)
