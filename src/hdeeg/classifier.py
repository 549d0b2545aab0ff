"""Training, per-window classification, patient voting, and evaluation.

A model is trained by gated accumulation: each training patient's (W, D)
window matrix is offered to the associative memory in one call, patients
as given and windows in temporal order.  A patient is
classified by the majority label of its windows' (W, 2) similarities;
a patient counts as correctly classified only when strictly more than
half of its windows got the true label.
"""

import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .common import Label, check_seed, derive_seed, make_rng, map_forked
from .dataio import DatasetManifest, DataValidationError, draw_split, split
from .encoder import encode_windows
from .memories import AssociativeMemory, ContinuousItemMemory, ItemMemory, score_each_change
from .preprocess import (
    EegRecording,
    QuantizedRecording,
    compute_channel_stats,
    drop_initial,
    preprocess_recording,
)

__all__ = [
    "PipelineParams",
    "TrainedModel",
    "PatientPrediction",
    "EvalReport",
    "SweepRow",
    "SweepRun",
    "SweepResult",
    "build_memories",
    "train",
    "classify_patient",
    "summarize",
    "evaluate",
    "run_trial",
    "incremental_sweep",
]

IM_SEED_PURPOSE = "item-memory"
CIM_SEED_PURPOSE = "level-memory"
SPLIT_SEED_PURPOSE = "split"


@dataclass(frozen=True)
class PipelineParams:
    """Everything that fixes the pipeline apart from the data itself.

    Every value is checked when the record is built, so also at
    ``dataclasses.replace``: a bad one raises ValueError.
    """

    dimension: int = 10000
    level_count: int = 250
    ngram_size: int = 32
    drop_samples: int = 512
    downsample_factor: int = 8
    gate_threshold: float = 0.5
    clip_low_pct: float = 0.5
    clip_high_pct: float = 99.5
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 2 or self.dimension % 2 != 0:
            raise ValueError(f"dimension must be even and at least 2, got {self.dimension}")
        if self.level_count < 2:
            raise ValueError(f"need at least 2 levels, got {self.level_count}")
        if self.ngram_size < 1:
            raise ValueError(f"ngram size must be at least 1, got {self.ngram_size}")
        if self.drop_samples < 0:
            raise ValueError(f"drop count must be nonnegative, got {self.drop_samples}")
        if self.downsample_factor < 1:
            raise ValueError(f"downsample factor must be at least 1, got {self.downsample_factor}")
        if not math.isfinite(self.gate_threshold):
            raise ValueError(f"gate threshold must be finite, got {self.gate_threshold}")
        if not 0.0 <= self.clip_low_pct < self.clip_high_pct <= 100.0:
            raise ValueError(
                "percentiles must satisfy 0 <= low < high <= 100, got "
                f"({self.clip_low_pct}, {self.clip_high_pct})"
            )
        check_seed(self.seed)

    def check_length(self, rec: EegRecording, *, whole_windows: bool = True) -> None:
        """Reject a recording the pipeline cannot cut without a remainder.

        After drop_samples the rest must be a whole number k >= 1 of
        blocks: downsample_factor samples each, or, with ``whole_windows``
        (every command that encodes), downsample_factor * ngram_size
        samples, one window.  Raises DataValidationError naming the
        patient, its sample count and a length that fits.
        """
        block = self.downsample_factor * (self.ngram_size if whole_windows else 1)
        n = rec.samples.shape[0]
        if n > self.drop_samples and (n - self.drop_samples) % block == 0:
            return
        fit = self.drop_samples + max(1, (n - self.drop_samples) // block) * block
        unit = (
            f"{self.ngram_size}-sample windows after {self.downsample_factor}:1 downsampling"
            if whole_windows
            else f"blocks of {self.downsample_factor} for {self.downsample_factor}:1 downsampling"
        )
        raise DataValidationError(
            f"{rec.patient_id}: {n} samples, but a recording must hold "
            f"{self.drop_samples} + k * {block} samples for a whole k >= 1 "
            f"({self.drop_samples} dropped, then {unit}); {fit} samples would fit"
        )

    def channel_stats(self, recordings) -> tuple:
        """compute_channel_stats at these percentiles, pooled after the drop."""
        dropped = [drop_initial(rec, self.drop_samples) for rec in recordings]
        return compute_channel_stats(dropped, self.clip_low_pct, self.clip_high_pct)

    def preprocess(self, rec: EegRecording, stats) -> QuantizedRecording:
        """preprocess_recording with these params' drop, factor and level count."""
        return preprocess_recording(
            rec,
            stats,
            drop_samples=self.drop_samples,
            downsample_factor=self.downsample_factor,
            level_count=self.level_count,
        )

    def to_dict(self) -> dict:
        return {f.name: f.type(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineParams":
        return cls(**{f.name: f.type(doc[f.name]) for f in fields(cls)})


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Memories plus the statistics and parameters that produced them.

    ``train_ids`` and ``test_ids`` each name a patient at most once and
    share none, else ValueError: a held-out set must be held out.
    ``channel_stats`` name the item memory's channels in the same order,
    and ``params`` give the memories' dimension, level count and gate
    threshold, else ValueError, so every model ``save_model`` writes loads
    again as it was.
    """

    params: PipelineParams
    item_memory: ItemMemory
    level_memory: ContinuousItemMemory
    memory: AssociativeMemory
    channel_stats: tuple
    train_ids: tuple = ()
    test_ids: tuple = ()

    def __post_init__(self):
        p = self.params
        dimensions = [m.dimension for m in (self.item_memory, self.level_memory, self.memory)]
        if dimensions != [p.dimension] * 3:
            raise ValueError(f"params say dimension {p.dimension}, the memories have {dimensions}")
        if self.level_memory.level_count != p.level_count:
            raise ValueError(
                f"params say {p.level_count} levels, the level memory has "
                f"{self.level_memory.level_count}"
            )
        if self.memory.gate_threshold != p.gate_threshold:
            raise ValueError(
                f"params say gate threshold {p.gate_threshold}, the memory has "
                f"{self.memory.gate_threshold}"
            )
        if tuple(s.channel for s in self.channel_stats) != self.channels:
            raise ValueError(f"channel stats do not match channels {self.channels}")
        for name, ids in (("train_ids", self.train_ids), ("test_ids", self.test_ids)):
            repeated = sorted(i for i, n in Counter(ids).items() if n > 1)
            if repeated:
                raise ValueError(f"{name} name patient(s) {repeated} more than once")
        both = sorted(set(self.train_ids) & set(self.test_ids))
        if both:
            raise ValueError(f"patient(s) {both} are in both train_ids and test_ids")

    @property
    def channels(self) -> tuple:
        return self.item_memory.names


@dataclass(frozen=True)
class PatientPrediction:
    """Window votes, the read-only (W, 2) similarities behind them, and the patient outcome."""

    patient_id: str
    true_label: Label
    predicted_label: Label
    correct_windows: int
    total_windows: int
    similarities: np.ndarray | None = field(repr=False, compare=False, default=None)

    @property
    def correct(self) -> bool:
        """Strict majority: more than half the windows got the true label."""
        return 2 * self.correct_windows > self.total_windows


@dataclass(frozen=True)
class EvalReport:
    """Patient-level metrics with ADHD as the positive class.

    ``accuracy_pct`` counts patients by the strict-majority rule, which on
    an exactly even window split differs from the predicted label (a tied
    control patient is predicted CONTROL yet counted as not correct), so
    accuracy is recomputed from the per-patient ``correct`` flags rather
    than from tp + tn.  Metrics with a zero denominator are None.
    """

    accuracy_pct: float
    precision: float | None
    recall: float | None
    f1: float | None
    tp: int
    fp: int
    tn: int
    fn: int
    patients: tuple

    def to_dict(self) -> dict:
        return {
            "accuracy_pct": float(self.accuracy_pct),
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
            "patients": [
                {
                    "id": p.patient_id,
                    "true_label": str(p.true_label),
                    "predicted_label": str(p.predicted_label),
                    "correct_windows": p.correct_windows,
                    "total_windows": p.total_windows,
                    "correct": p.correct,
                }
                for p in self.patients
            ],
        }


def build_memories(params: PipelineParams, channel_names):
    """Item and level memories for the given parameters and channel set.

    Seeds are derived from params.seed per purpose, so a root seed pins
    both memories.
    """
    im = ItemMemory.build(
        channel_names, derive_seed(params.seed, IM_SEED_PURPOSE), params.dimension
    )
    cim = ContinuousItemMemory.build(
        params.level_count, derive_seed(params.seed, CIM_SEED_PURPOSE), params.dimension
    )
    return im, cim


def train(
    train_set,
    params: PipelineParams,
    channel_stats,
    *,
    train_ids=(),
    test_ids=(),
) -> TrainedModel:
    """Gated accumulation over every window of every training patient.

    ``train_set`` holds QuantizedRecordings in training order; both classes
    must be present.  ``channel_stats`` is stored on the model so raw
    recordings can be preprocessed consistently later.
    """
    train_set = list(train_set)
    if not train_set:
        raise ValueError("training set is empty")
    labels = {rec.label for rec in train_set}
    if labels != {Label.ADHD, Label.CONTROL}:
        raise ValueError(
            f"training set must contain both classes, got {sorted(str(l) for l in labels)}"
        )
    channels = train_set[0].channels
    for rec in train_set:
        if rec.channels != channels:
            raise ValueError(f"{rec.patient_id}: channels differ from {channels}")
        if rec.level_count != params.level_count:
            raise ValueError(
                f"{rec.patient_id}: quantized with {rec.level_count} levels, "
                f"params say {params.level_count}"
            )
    im, cim = build_memories(params, channels)
    am = AssociativeMemory(params.dimension, params.gate_threshold)
    for rec in train_set:
        am.offer(encode_windows(rec, im, cim, params.ngram_size), rec.label)
    return TrainedModel(
        params=params,
        item_memory=im,
        level_memory=cim,
        memory=am,
        channel_stats=tuple(channel_stats),
        train_ids=tuple(train_ids),
        test_ids=tuple(test_ids),
    )


def classify_patient(model: TrainedModel, rec: QuantizedRecording) -> PatientPrediction:
    """Score every window of a recording and take the majority label.

    Ties on the majority go to CONTROL; correctness is the stricter
    more-than-half rule against the true label.
    """
    vectors = encode_windows(rec, model.item_memory, model.level_memory, model.params.ngram_size)
    return _prediction(rec.patient_id, rec.label, model.memory.similarities(vectors))


def _prediction(patient_id, true_label, sims: np.ndarray) -> PatientPrediction:
    """Patient vote: a window votes ADHD only if sims[w, 0] > sims[w, 1], so a tie votes CONTROL."""
    total = len(sims)
    adhd_votes = int(np.count_nonzero(sims[:, 0] > sims[:, 1]))
    predicted = Label.ADHD if adhd_votes > total - adhd_votes else Label.CONTROL
    sims = sims.view()
    sims.flags.writeable = False
    return PatientPrediction(
        patient_id=patient_id,
        true_label=true_label,
        predicted_label=predicted,
        correct_windows=adhd_votes if true_label is Label.ADHD else total - adhd_votes,
        total_windows=total,
        similarities=sims,
    )


def summarize(predictions) -> EvalReport:
    """Metrics over per-patient predictions (ADHD positive)."""
    predictions = tuple(predictions)
    if not predictions:
        raise ValueError("nothing to summarize: no patient predictions")
    tp = sum(1 for p in predictions if p.true_label is Label.ADHD and p.predicted_label is Label.ADHD)
    fn = sum(1 for p in predictions if p.true_label is Label.ADHD and p.predicted_label is Label.CONTROL)
    fp = sum(1 for p in predictions if p.true_label is Label.CONTROL and p.predicted_label is Label.ADHD)
    tn = sum(1 for p in predictions if p.true_label is Label.CONTROL and p.predicted_label is Label.CONTROL)
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / (tp + fn) if (tp + fn) > 0 else None
    if precision is None or recall is None or (precision + recall) == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    accuracy = 100.0 * sum(1 for p in predictions if p.correct) / len(predictions)
    return EvalReport(
        accuracy_pct=float(accuracy),
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        patients=predictions,
    )


def evaluate(model: TrainedModel, test_set) -> EvalReport:
    """Classify every test patient, in the order given, and summarize."""
    test_set = list(test_set)
    if not test_set:
        raise ValueError("test set is empty")
    return summarize([classify_patient(model, rec) for rec in test_set])


def _prepare(manifest, recordings, train_ids, test_ids, params: PipelineParams, stats_scope):
    """Channel stats from the stats pool, then the full chain on both splits.

    Every manifest patient needs a recording that splits into whole
    windows (PipelineParams.check_length).  With stats_scope "train" the
    pool is the training split, with "all" every manifest patient.
    Returns (stats, q_train, q_test).
    """
    if stats_scope not in ("train", "all"):
        raise ValueError(f"stats scope must be 'train' or 'all', got {stats_scope!r}")
    by_id = {rec.patient_id: rec for rec in recordings}
    missing = [p.id for p in manifest.patients if p.id not in by_id]
    if missing:
        raise ValueError(f"recordings missing for patient(s) {missing}")
    for p in manifest.patients:
        params.check_length(by_id[p.id])
    pool_ids = train_ids if stats_scope == "train" else [p.id for p in manifest.patients]
    stats = params.channel_stats(by_id[i] for i in pool_ids)
    quantized = [params.preprocess(by_id[i], stats) for i in (*train_ids, *test_ids)]
    return stats, quantized[: len(train_ids)], quantized[len(train_ids):]


def run_trial(
    manifest: DatasetManifest,
    recordings,
    params: PipelineParams,
    train_counts,
    test_counts,
    *,
    stats_scope: str = "train",
):
    """Split, preprocess, train, evaluate; returns (model, report).

    The split seed derives from params.seed.  With stats_scope "train"
    (default) clip and quantization statistics come from the training
    split only; "all" pools every manifest patient.
    """
    train_ids, test_ids = split(
        manifest, train_counts, test_counts, derive_seed(params.seed, SPLIT_SEED_PURPOSE)
    )
    stats, q_train, q_test = _prepare(manifest, recordings, train_ids, test_ids, params, stats_scope)
    model = train(q_train, params, stats, train_ids=train_ids, test_ids=test_ids)
    report = evaluate(model, q_test) if q_test else None
    return model, report


@dataclass(frozen=True)
class SweepRow:
    k: int
    mean_acc: float
    std: float


@dataclass(frozen=True)
class SweepRun:
    """One run of the sweep: its seed, fixed split, and per-k accuracies."""

    run_seed: int
    test_ids: tuple
    train_order: tuple
    accuracies: tuple


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    runs: tuple


def _sweep_accuracy(q_test, counts, sims) -> float:
    """Patient accuracy that tolerates a single-class memory.

    While one prototype is still empty (``sims`` is None), every window
    counts as the trained class (an empty prototype loses every
    comparison), which keeps sweep rows for tiny training prefixes well
    defined.  Otherwise this is the accuracy of summarize() over the
    held-out patients, from their (W, 2) similarities ``sims``.
    """
    if sims is None:
        (trained,) = (label for label, n in zip((Label.ADHD, Label.CONTROL), counts) if n)
        return 100.0 * sum(1 for q in q_test if q.label is trained) / len(q_test)
    return summarize(
        _prediction(q.patient_id, q.label, s) for q, s in zip(q_test, sims)
    ).accuracy_pct


def incremental_sweep(
    manifest: DatasetManifest,
    recordings,
    *,
    test_size: int,
    max_train: int,
    runs: int,
    params: PipelineParams,
    stratified: bool = True,
    stats_scope: str = "train",
) -> SweepResult:
    """Accuracy as a function of training-set size.

    Each run fixes a test set and a random training order, then reports
    patient accuracy after training on the first k patients for k = 1 ..
    max_train.  Runs use seeds derived from params.seed, and within a run the
    item and level memories come from the run seed exactly as train()
    would derive them, so the k = max_train point of a run reproduces a
    plain train/evaluate with params.seed set to that run seed.

    Stratified test selection (default) draws test_size // 2 ADHD patients
    and the remainder from CONTROL by the policy of dataio.split;
    stratified=False samples the test set uniformly.  Statistics come from
    the run's training pool ("train", default) or the whole dataset
    ("all").  Returns per-k mean and population standard deviation across
    runs plus the raw per-run data.  Runs are spread over the usable CPUs
    by :func:`~hdeeg.common.map_forked`.
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    if test_size < 1 or max_train < 1:
        raise ValueError("test size and max train must be at least 1")
    n_patients = len(manifest.patients)
    if test_size + max_train > n_patients:
        raise DataValidationError(
            f"test size {test_size} plus max train {max_train} exceeds {n_patients} patients"
        )

    def one_run(r: int) -> SweepRun:
        run_seed = derive_seed(params.seed, f"sweep-run-{r}")
        rng = make_rng(derive_seed(run_seed, SPLIT_SEED_PURPOSE))
        all_ids = [p.id for p in manifest.patients]
        if stratified:
            n_adhd = test_size // 2
            counts = {Label.ADHD: n_adhd, Label.CONTROL: test_size - n_adhd}
            _, test_ids = draw_split(manifest, {}, counts, rng)
        else:
            order = rng.permutation(n_patients)
            test_ids = [all_ids[i] for i in order[:test_size]]
        held_out = set(test_ids)
        pool = [i for i in all_ids if i not in held_out]
        order = rng.permutation(len(pool))
        train_order = [pool[i] for i in order][:max_train]

        params_r = replace(params, seed=run_seed)
        _, q_train, q_test = _prepare(
            manifest, recordings, train_order, test_ids, params_r, stats_scope
        )
        im, cim = build_memories(params_r, manifest.channels)
        test_encodings = [encode_windows(q, im, cim, params_r.ngram_size) for q in q_test]
        accuracies = score_each_change(
            params_r.dimension,
            params_r.gate_threshold,
            ((encode_windows(q, im, cim, params_r.ngram_size), q.label) for q in q_train),
            test_encodings,
            lambda counts, sims: _sweep_accuracy(q_test, counts, sims),
        )
        return SweepRun(
            run_seed=run_seed,
            test_ids=tuple(test_ids),
            train_order=tuple(train_order),
            accuracies=tuple(accuracies),
        )

    run_results = map_forked(one_run, range(runs))
    rows = []
    for k in range(1, max_train + 1):
        samples = [run.accuracies[k - 1] for run in run_results]
        # statistics.fmean's float, without importing statistics.
        mean = math.fsum(samples) / len(samples)
        rows.append(SweepRow(k=k, mean_acc=mean, std=float(np.std(samples))))
    return SweepResult(rows=tuple(rows), runs=tuple(run_results))
