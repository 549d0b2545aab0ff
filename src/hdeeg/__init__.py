"""Hyperdimensional computing classifier for two-class EEG recordings.

Dense bipolar hypervectors encode short windows of quantized EEG; gated
class prototypes classify windows by cosine similarity and patients obtain
the majority label over their windows.
"""

from .common import Label, derive_seed, make_rng
from .hv import (
    UndefinedSimilarityError,
    bind,
    bundle,
    cosine_similarity,
    hamming_distance,
    is_bipolar,
    permute,
    random_bipolar,
)
from .memories import (
    AssociativeMemory,
    ContinuousItemMemory,
    ItemMemory,
    UntrainedMemoryError,
)
from .preprocess import (
    ChannelStats,
    EegRecording,
    QuantizedRecording,
    clip,
    compute_channel_stats,
    downsample_mean,
    drop_initial,
    preprocess_recording,
    quantize,
)
from .encoder import encode_windows
from .classifier import (
    EvalReport,
    PatientPrediction,
    PipelineParams,
    SweepResult,
    SweepRow,
    SweepRun,
    TrainedModel,
    build_memories,
    classify_patient,
    evaluate,
    incremental_sweep,
    run_trial,
    summarize,
    train,
)
from .dataio import (
    DatasetManifest,
    DataValidationError,
    PatientEntry,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    split,
    write_dataset,
)
from .model_io import ModelFormatError, load_model, save_model

__version__ = "0.1.0"
