"""Multi-task CTR/CVR training with neuron-connection level parameter sharing.

The package trains a DLRM-style base network, extracts per-task subnetwork
masks by iterative magnitude pruning with weight rewind, and trains the two
masked subnetworks alternately so they share exactly the overlapping
connections. Baselines (single-task, layer sharing, neuron pruning) and the
offline/online metrics live alongside.
"""

from .data import Batch, Dataset, SyntheticSpec
from .masking import MaskOverlapStats, TaskMask
from .metrics import MetricsReport
from .model import CrossKind, ModelConfig, ModelParams, SharingMode, Task
from .training import TrainConfig, TrainedArtifacts

__all__ = [
    "Batch", "Dataset", "SyntheticSpec",
    "MaskOverlapStats", "TaskMask",
    "MetricsReport",
    "CrossKind", "ModelConfig", "ModelParams", "SharingMode", "Task",
    "TrainConfig", "TrainedArtifacts",
]
