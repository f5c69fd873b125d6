"""SGD-with-momentum training loop and the evaluation driver.

Determinism contract: given (config, seed, single thread) every run draws
identical batches, noise, and dropout masks because all randomness is
addressed by (seed, purpose tags) rather than by call order.  Training twice
with the same config yields bitwise-identical parameters.

Memory: ``train`` allocates its state once.  Three float64 buffers
(``FlatBuffers``) hold the entry copy of the parameters, their gradients and
the momentum, one slice per parameter in ``Model.params`` order; each
parameter's .data and .grad are views into them, backward adds into the
zeroed gradient buffer in place, and ``sgd_step`` updates whole buffers in
place with no scratch.  A step drops its tape (the forward's outputs, the
losses and, through them, every node and intermediate gradient) right after
``loss.backward()``, so the next step's forward starts with only the
parameters and the momentum alive.

The step's arrays are then freed and allocated again every step; see
``tensor._keep_freed_memory`` for the malloc thresholds that keep their
pages mapped, which ``train`` and ``evaluate`` set before anything else.

``evaluate`` scores its batches in the calling process and in one helper
per further CPU the process may run on (``_eval_workers``), each helper a
child forked for the call (``_score_all``); processes, because threads
would share one interpreter lock.  Every eval draw is keyed, so the report
is bitwise the one a single process gives.  A helper shares the caller's
pages copy-on-write and holds only what it writes itself, which counts
towards the children's peak memory, not the caller's.  The caller pays for
the fork: its written pages are then shared, so the next write to each
faults once.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import os
import pickle
import threading
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import write_atomic
from .config import Record
from .dataset import Dataset
from .errors import ConfigError, DivergenceError
from .losses import AuxLossState, LossConfig, check_loss_mode, \
    member_avg_cross_entropy, total_loss
from .metrics import EvalReport, MetricAccumulator, fewshot_probe, \
    ood_metrics, ood_scores
from .model import Model, ModelSpec, ensemble_predict, forward
from .rng import Rng
from .tensor import _keep_freed_memory

SCHEDULES = ("constant", "cosine", "warmup_cosine")


@dataclass
class TrainConfig(Record):
    steps: int = 300
    batch_size: int = 32
    base_lr: float = 0.05
    momentum: float = 0.9
    clip_norm: float = 10.0
    lr_schedule: str = "constant"
    warmup_frac: float = 0.1
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    eval_every: int = 0  # 0: no mid-training evals

    def __post_init__(self):
        if self.steps <= 0:
            raise ConfigError("steps must be > 0")
        if self.clip_norm <= 0:
            raise ConfigError("clip_norm must be > 0")
        if self.base_lr < 0:
            raise ConfigError("base_lr must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be > 0")
        if self.lr_schedule not in SCHEDULES:
            raise ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError("warmup_frac must be in [0, 1)")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0")


def lr_at(config: TrainConfig, step: int) -> float:
    """Scheduled learning rate for 0-indexed step.

    constant and warmup_cosine begin with a linear warmup over the first
    warmup_frac of steps; cosine decays from the start.
    """
    warm = 0
    if config.lr_schedule in ("constant", "warmup_cosine"):
        warm = int(config.warmup_frac * config.steps)
    if step < warm:
        return config.base_lr * (step + 1) / warm
    if config.lr_schedule == "constant":
        return config.base_lr
    span = max(config.steps - warm, 1)
    progress = (step - warm) / span
    return config.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class FlatBuffers:
    """Training state in three float64 buffers, one slice per parameter in
    the order given: the parameters, their gradients and the momentum.  A
    bound tensor's .data is a view into params and its .grad a view into
    grads, into which backward adds in place."""

    params: np.ndarray
    grads: np.ndarray
    velocity: np.ndarray
    ends: list  # where each tensor's slice ends, in the bound order

    @classmethod
    def bind(cls, tensors) -> "FlatBuffers":
        """Copy the tensors' values into new buffers and rebind their data
        and grad to views of them; velocity and gradients start at 0."""
        tensors = list(tensors)
        total = sum(t.data.size for t in tensors)
        flat = cls(np.empty(total), np.zeros(total), np.zeros(total), [])
        lo = 0
        for t in tensors:
            hi = lo + t.data.size
            shape = t.data.shape
            flat.params[lo:hi] = t.data.reshape(-1)
            t.data = flat.params[lo:hi].reshape(shape)
            t.accumulate_into(flat.grads[lo:hi].reshape(shape))
            flat.ends.append(hi)
            lo = hi
        return flat


def sgd_step(flat: FlatBuffers, config: TrainConfig, lr: float) -> None:
    """Global-norm clip, then v <- beta v + g and p <- p - lr v, in place
    over the whole buffers.  The gradient buffer is the scratch of the
    update: it holds lr v after.

    The squared norm is summed per parameter, in order, each slice of g * g
    by np.add.reduce: the bits np.sum(g * g) has on the parameter's own
    array, as a contiguous array reduces as one flat run.
    """
    g, v = flat.grads, flat.velocity
    squares = g * g
    sq, lo = 0.0, 0
    for hi in flat.ends:
        sq += float(np.add.reduce(squares[lo:hi]))
        lo = hi
    del squares
    gnorm = math.sqrt(sq)
    if gnorm > config.clip_norm:
        g *= config.clip_norm / gnorm
    v *= config.momentum
    v += g
    np.multiply(v, lr, out=g)
    flat.params -= g


def _mimo_batch(images, labels, spec, rng: Rng, step: int):
    """Stack M pairings channel-wise; with probability
    mimo_input_repetition_prob a row keeps the same image in every slot."""
    m = spec.m
    b = len(labels)
    slots_x = [images]
    slots_y = [labels]
    rep = rng.stream("mimo_rep", step).random(b) < \
        spec.mimo_input_repetition_prob
    for j in range(1, m):
        perm = rng.stream("mimo", step, j).permutation(b)
        perm = np.where(rep, np.arange(b), perm)
        slots_x.append(images[perm])
        slots_y.append(labels[perm])
    x = np.concatenate(slots_x, axis=-1)
    y = np.stack(slots_y, axis=0)
    return x, y


def check_train_inputs(spec: ModelSpec, dataset: Dataset,
                       config: TrainConfig) -> None:
    """train's input checks: equal class counts, a loss mode the variant
    defines, a batch no larger than the training split."""
    if dataset.spec.classes != spec.classes:
        raise ConfigError("dataset and model class counts differ")
    check_loss_mode(spec.variant, config.loss.loss_mode)
    if config.batch_size > len(dataset.train_y):
        raise ConfigError("batch_size exceeds training set size")


def train(model: Model, dataset: Dataset, config: TrainConfig):
    """Run the loop; returns (model, history) with one dict per step.

    The parameters are copied once on entry into FlatBuffers, so the
    in-place updates never write an array the caller holds.  Each step's
    tape is dropped right after its backward, before the optimizer runs,
    so at most one tape is alive.  The cyclic garbage collector is off
    during the step loop, since the tape has no reference cycles for it to
    find; the caller's setting is restored on exit, also on error, and the
    parameters hold no gradient after.
    """
    spec = model.spec
    check_train_inputs(spec, dataset, config)
    n = len(dataset.train_y)
    _keep_freed_memory()
    rng = Rng(config.seed)
    params = model.params.values()
    flat = FlatBuffers.bind(params)
    history = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for s in range(config.steps):
            idx = rng.stream("batch", s).choice(n, size=config.batch_size,
                                                replace=False)
            images = dataset.train_x[idx]
            labels = dataset.train_y[idx]
            if spec.variant == "mimo":
                reps = spec.batch_repetitions
                if reps > 1:
                    images = np.concatenate([images] * reps, 0)
                    labels = np.concatenate([labels] * reps, 0)
                images, labels = _mimo_batch(images, labels, spec, rng, s)
            out = forward(model, images, rng, train=True, step=s)
            data = member_avg_cross_entropy(out.member_probs, labels,
                                            mode=config.loss.loss_mode)
            aux_states = [AuxLossState.from_decision(d)
                          for d in out.decisions]
            loss = total_loss(data, aux_states, config.loss.aux_weight)
            loss_val, data_val = loss.item(), data.item()
            if not math.isfinite(loss_val):
                raise DivergenceError(s, loss_val)
            flat.grads.fill(0.0)
            loss.backward()
            del out, data, aux_states, loss
            lr = lr_at(config, s)
            sgd_step(flat, config, lr)
            row = {"step": s, "loss": loss_val, "aux": loss_val - data_val,
                   "lr": lr, "nll": None, "error": None, "ece": None,
                   "kl": None}
            if s == config.steps - 1 or (config.eval_every and
                                         (s + 1) % config.eval_every == 0):
                row.update(_validate(model, dataset, rng, s))
            history.append(row)
    finally:
        for p in params:
            p.accumulate_into(None)
        if gc_was_enabled:
            gc.enable()
    return model, history


def _validate(model: Model, dataset: Dataset, rng: Rng, step: int) -> dict:
    """The mid-training metrics of the validation split."""
    acc = MetricAccumulator()
    acc.add_batch(forward(model, dataset.val_x, rng, train=False,
                          step=step).member_probs, dataset.val_y)
    r = acc.result()
    return {"nll": r["nll"], "error": r["error_pct"], "ece": r["ece"],
            "kl": r["kl_diversity"]}


HISTORY_COLUMNS = ("step", "loss", "aux", "nll", "error", "ece", "kl")


def history_to_csv(history: list, path) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(HISTORY_COLUMNS)
    for row in history:
        w.writerow(["" if row.get(c) is None
                    else (row[c] if c == "step" else f"{row[c]:.10g}")
                    for c in HISTORY_COLUMNS])
    write_atomic(path, buf.getvalue().encode("utf-8"))


def _batched(x, size):
    for i in range(0, len(x), size):
        yield x[i:i + size]


def _eval_workers(jobs: int) -> int:
    """Processes that score evaluate's jobs: one per CPU this process may
    run on, and no more than there are jobs.  One where there is no
    os.fork, or where another Python thread is alive: a fork copies only
    the calling thread, so a lock some other thread held stays locked in
    the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs)


def _score_stripe(jobs: list, score, rng: Rng, first: int, step: int,
                  results, failures: dict) -> None:
    """results[i] = score(jobs[i], rng) for i = first, first + step, ...;
    the first failure goes to failures[i] and ends the stripe."""
    for i in range(first, len(jobs), step):
        try:
            results[i] = score(jobs[i], rng)
        except Exception as exc:
            failures[i] = exc
            return


def _portable(exc: Exception) -> Exception:
    """exc if it survives a pickle round trip, else a RuntimeError that
    names its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"evaluate helper failed: "
                            f"{type(exc).__name__}: {exc}")
    return exc


def _fork_helper(jobs: list, score, rng: Rng, first: int,
                 step: int) -> tuple:
    """Fork a helper that scores jobs first, first + step, ... with its copy
    of rng; returns (pid, read end of its pipe).

    The helper stops at its first failure and writes one pickle, its
    ({index: result}, {index: failure}), to the pipe.  It always leaves
    through os._exit, so no exit handler, buffered output or caller's frame
    of the forked process ever runs."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        done, failed = {}, {}
        _score_stripe(jobs, score, rng, first, step, done, failed)
        failed = {i: _portable(exc) for i, exc in failed.items()}
        with open(write_end, "wb") as out:
            out.write(pickle.dumps((done, failed)))
        status = 0
    finally:
        os._exit(status)


def _reap_helper(pid: int, read_end: int, results: list,
                 failures: dict, first: int) -> None:
    """Read a helper's pickle, wait for it, and merge what it sent; a
    helper that exits without a clean report fails at its first job."""
    with open(read_end, "rb") as pipe:
        payload = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not payload:
        how = f"exited with status {status}" if status >= 0 \
            else f"was killed by signal {-status}"
        failures[first] = RuntimeError(
            f"evaluate helper {pid} {how} before reporting")
        return
    done, failed = pickle.loads(payload)
    for i, result in done.items():
        results[i] = result
    failures.update(failed)


def _score_all(jobs: list, score, rng: Rng) -> list:
    """[score(job, rng) for job in jobs], on the calling process and
    _eval_workers(len(jobs)) - 1 helpers forked from it.

    With W workers, worker w scores jobs w, w + W, ..., and the caller is
    worker 0.  A helper scores with its forked copy of everything: the
    model, the data and rng.  A keyed draw depends only on (seed, tags), so
    every process scores a job to the same bits.  The caller scores its
    stripe, then reads every helper's report and reaps every helper, also
    when its own stripe failed.  Each worker stops at its first failure,
    and the failure of the lowest job is raised: the one the loop in one
    process raises.
    """
    workers = _eval_workers(len(jobs))
    results = [None] * len(jobs)
    failures = {}
    helpers = []
    try:
        for w in range(1, workers):
            helpers.append((w, *_fork_helper(jobs, score, rng, w, workers)))
        _score_stripe(jobs, score, rng, 0, workers, results, failures)
    finally:
        for w, pid, read_end in helpers:
            _reap_helper(pid, read_end, results, failures, w)
    if failures:
        raise failures[min(failures)]
    return results


def evaluate(model: Model | None, dataset: Dataset, rng: Rng, *,
             models: list | None = None, mc_samples: int = 0,
             batch_size: int = 128, fewshot_shots=(),
             flops_giga: float | None = None) -> EvalReport:
    """Test-split metrics plus OOD/shift detection and optional probes.

    Pass models=[...] to evaluate a deep ensemble; mc_samples > 0 ensembles
    that many eval-time dropout draws of the single model.  The few-shot
    probes take their features from the test-split metrics pass.  A
    negative mc_samples, mc_samples with models, or a shot count below 1
    raises ConfigError before any forward pass.

    The forwards of the test, ood and shift batches run on every usable
    CPU (_score_all); the caller merges their results in batch order.
    """
    if (model is None) == (models is None):
        raise ConfigError("pass exactly one of model or models")
    if batch_size < 1:
        raise ConfigError("batch_size must be > 0")
    if mc_samples < 0:
        raise ConfigError("mc_samples must be >= 0")
    if models is not None and mc_samples:
        raise ConfigError("mc_samples needs a single model, not models")
    if any(int(shots) < 1 for shots in fewshot_shots):
        raise ConfigError("fewshot_shots must all be >= 1")
    _keep_freed_memory()

    # models pool one member per model, mc_samples one per dropout draw;
    # a lone model reports its own members
    passes = [(mdl, None) for mdl in models or ()] + \
        [(model, s) for s in range(mc_samples)]

    def predict(images, worker_rng, want_features=False):
        if model is None or mc_samples:
            return ensemble_predict(passes, images, worker_rng,
                                    want_features=want_features)
        return forward(model, images, worker_rng, train=False,
                       want_features=want_features)

    def score(job, worker_rng):
        split, xb = job
        if split != "test":
            return predict(xb, worker_rng).ensemble_probs.data
        bundle = predict(xb, worker_rng,
                         want_features=bool(fewshot_shots) and not mc_samples)
        feats = bundle.member_features
        if fewshot_shots and mc_samples:
            # MC-dropout members are random draws: the probe takes the
            # features of a deterministic pass
            feats = forward(model, xb, worker_rng,
                            want_features=True).member_features
        # the arrays alone: a bundle's routing decisions are not kept
        return bundle.member_probs.data, bundle.ensemble_probs.data, feats

    splits = (("test", dataset.test_x), ("ood", dataset.ood_x),
              ("shift", dataset.shift_x))
    jobs = [(split, xb) for split, x in splits if x is not None
            for xb in _batched(x, batch_size)]
    results = _score_all(jobs, score, rng)

    acc = MetricAccumulator()
    test_ens, feats = [], []
    outs = {split: [] for split, x in splits[1:] if x is not None}
    labels = _batched(dataset.test_y, batch_size)
    for (split, _), result in zip(jobs, results):
        if split == "test":
            member_probs, ens, f = result
            acc.add_batch(member_probs, next(labels))
            test_ens.append(ens)
            feats.append(f)
        else:
            outs[split].append(ood_scores(result))
    r = acc.result()
    in_scores = ood_scores(np.concatenate(test_ens, axis=0))
    ood = {f"test/{split}": ood_metrics(in_scores, np.concatenate(scores))
           for split, scores in outs.items()}

    fewshot = {}
    if fewshot_shots:
        features = np.concatenate(feats, axis=1)
        for shots in fewshot_shots:
            fewshot[int(shots)] = fewshot_probe(features, dataset.test_y,
                                                int(shots))
    return EvalReport(nll=r["nll"], error_pct=r["error_pct"], ece=r["ece"],
                      kl_diversity=r["kl_diversity"],
                      cosine_similarity=r["cosine_similarity"],
                      normalized_disagreement=r["normalized_disagreement"],
                      flops_train_giga=flops_giga, ood=ood, fewshot=fewshot)
