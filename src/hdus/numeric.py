"""Dense numeric substrate: ReLU MLPs with hand-derived gradients, plain SGD,
temperature softmax, KL divergence and cross-entropy.

All arrays are float64 numpy arrays. Every operation is a deterministic
function of its inputs plus an explicit numpy Generator where randomness is
involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, DomainError, ValidationError

# Global count of SGD parameter updates, used to assert that unlearning paths
# perform zero training steps.
_TRAINING_STEPS = 0


def training_step_count() -> int:
    return _TRAINING_STEPS


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths of a fully-connected ReLU network (input, hidden..., output)."""

    layer_dims: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ValidationError("spec needs at least input and output dims")
        if any(d < 1 for d in dims):
            raise ValidationError(f"all layer dims must be >= 1, got {dims}")
        if self.activation != "relu":
            raise ValidationError(f"unsupported activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


# Size tiers standing in for small/medium/large client hardware budgets.
def tier_spec(tier: str, feature_dim: int, class_count: int) -> MlpSpec:
    hidden = {
        "small": (16,),
        "medium": (64,),
        "large": (128, 64),
    }
    if tier not in hidden:
        raise ValidationError(f"unknown model tier {tier!r}")
    return MlpSpec((feature_dim, *hidden[tier], class_count))


@dataclass
class MlpModel:
    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "MlpModel":
        return MlpModel(self.spec, [w.copy() for w in self.weights],
                        [b.copy() for b in self.biases])

    def param_count(self) -> int:
        return self.spec.param_count()

    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def load_flat(self, flat: np.ndarray) -> None:
        off = 0
        for w, b in zip(self.weights, self.biases):
            w[...] = flat[off:off + w.size].reshape(w.shape)
            off += w.size
            b[...] = flat[off:off + b.size]
            off += b.size


@dataclass
class Gradients:
    """Same shape structure as the model parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    flatten = MlpModel.flatten


def init_mlp(spec: MlpSpec, rng: np.random.Generator) -> MlpModel:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases."""
    weights, biases = [], []
    dims = spec.layer_dims
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(spec, weights, biases)


def _stack_models(models: list[MlpModel]) -> MlpModel:
    """One model whose parameters carry a leading axis, one slice per model
    (all of the same spec). The forward pass, backprop and SGD step treat
    slice k exactly as they treat model k alone, bit for bit: each slice of
    a stacked matmul is the 2-D matmul of that slice."""
    return MlpModel(models[0].spec,
                    [np.stack(ws) for ws in zip(*(m.weights for m in models))],
                    [np.stack(bs) for bs in zip(*(m.biases for m in models))])


def _unstack_models(stack: MlpModel) -> list[MlpModel]:
    return [MlpModel(stack.spec, [w[k].copy() for w in stack.weights],
                     [b[k].copy() for b in stack.biases])
            for k in range(_stack_size(stack))]


def _stack_prefix(stack: MlpModel, count: int) -> MlpModel:
    """The first `count` slices of a stack (views)."""
    return MlpModel(stack.spec, [w[:count] for w in stack.weights],
                    [b[:count] for b in stack.biases])


def _stack_size(model: MlpModel) -> int:
    """Number of models a (possibly stacked) model holds."""
    w = model.weights[0]
    return w.shape[0] if w.ndim == 3 else 1


def _check_batch(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    ndim = model.weights[0].ndim
    if batch.ndim != ndim:
        raise DimensionError(f"batch must be {ndim}-D, got shape {batch.shape}")
    if batch.shape[-1] != model.spec.in_dim:
        raise DimensionError(
            f"batch has {batch.shape[-1]} features but layer 0 expects "
            f"{model.spec.in_dim}")
    return batch


def mlp_forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Forward pass returning raw (pre-softmax) logits, shape B x C."""
    return _forward_cached(model, batch)[-1]


def softmax_temp(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax with max-subtraction; row-wise on 2-D input."""
    if temperature <= 0:
        raise DomainError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Sum_i p_i ln(p_i / q_i) with q clamped below by 1e-12."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch: {p.shape} vs {q.shape}")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise DomainError("inputs must each sum to 1 within 1e-9")
    return _mean_kl_rows(p.reshape(1, -1), q.reshape(1, -1))


def _mean_kl_rows(p_rows: np.ndarray, q_rows: np.ndarray) -> float:
    """Batch-mean KL(p || q) over probability rows (q clamped at 1e-12)."""
    q = np.maximum(q_rows, 1e-12)
    terms = np.where(p_rows > 0,
                     p_rows * (np.log(np.maximum(p_rows, 1e-300)) - np.log(q)), 0.0)
    return float(terms.sum(axis=1).mean())


def _check_onehot(onehot: np.ndarray, class_count: int) -> np.ndarray:
    onehot = np.asarray(onehot, dtype=np.float64)
    if onehot.ndim != 2 or onehot.shape[1] != class_count:
        raise DimensionError(
            f"one-hot matrix shape {onehot.shape} incompatible with C={class_count}")
    ok = (np.abs(onehot.sum(axis=1) - 1.0) < 1e-12) & \
         ((onehot == 1.0).sum(axis=1) == 1) & ((onehot == 0.0).sum(axis=1) == class_count - 1)
    if not ok.all():
        raise ValidationError(f"malformed one-hot row at index {int(np.argmin(ok))}")
    return onehot


def cross_entropy(logits: np.ndarray, onehot: np.ndarray) -> float:
    """Batch-mean -ln softmax(logits)[true class], log-sum-exp stabilized."""
    logits = np.asarray(logits, dtype=np.float64)
    onehot = _check_onehot(onehot, logits.shape[1])
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    true_logit = (logits * onehot).sum(axis=1)
    return float((lse - true_logit).mean())


def _forward_cached(model: MlpModel, batch: np.ndarray):
    """Forward pass keeping per-layer inputs for backprop. A stacked model
    takes a stacked batch, one B x F slice per model."""
    x = _check_batch(model, batch)
    inputs = [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        if x.shape[-1] != w.shape[-2]:
            raise DimensionError(
                f"layer {i}: input width {x.shape[-1]} != weight rows {w.shape[-2]}")
        x = x @ w + b[..., np.newaxis, :]
        if i < last:
            x = np.maximum(x, 0.0)
        inputs.append(x)
    return inputs


def _backprop(model: MlpModel, inputs: list[np.ndarray],
              dlogits: np.ndarray) -> Gradients:
    """Propagate a gradient w.r.t. the output logits back to all parameters
    (of every slice, for a stacked model)."""
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        layer_in = inputs[i]
        gw[i] = layer_in.swapaxes(-1, -2) @ delta
        gb[i] = delta.sum(axis=-2)
        if i > 0:
            delta = delta @ model.weights[i].swapaxes(-1, -2)
            delta = delta * (inputs[i] > 0)  # ReLU mask of the hidden activation
    return Gradients(gw, gb)


def mlp_backward(model: MlpModel, batch: np.ndarray, *,
                 onehot: np.ndarray | None = None,
                 teacher_soft: np.ndarray | None = None,
                 temperature: float | None = None) -> tuple[float, Gradients]:
    """Loss and exact analytic gradients for one of two loss branches.

    Cross-entropy branch (pass `onehot`): batch-mean softmax cross-entropy
    against one-hot labels.

    Distillation branch (pass `teacher_soft` and `temperature`): the student
    logits are softened with the same temperature as the teacher targets and
    the loss is T^2 * mean KL(teacher || student_soft), so the usual 1/T
    gradient attenuation is compensated and the returned gradients are the
    exact gradients of the returned loss.
    """
    if (onehot is None) == (teacher_soft is None):
        raise ValidationError("pass exactly one of onehot / teacher_soft")
    inputs = _forward_cached(model, batch)
    logits = inputs[-1]
    n = logits.shape[0]
    if onehot is not None:
        loss = cross_entropy(logits, onehot)
        dlogits = (softmax_temp(logits, 1.0) - onehot) / n
    else:
        if temperature is None:
            raise ValidationError("distillation branch requires a temperature")
        teacher_soft = np.asarray(teacher_soft, dtype=np.float64)
        if teacher_soft.shape != logits.shape:
            raise DimensionError(
                f"teacher targets shape {teacher_soft.shape} != logits {logits.shape}")
        student_soft = softmax_temp(logits, temperature)
        loss = temperature ** 2 * _mean_kl_rows(teacher_soft, student_soft)
        dlogits = temperature * (student_soft - teacher_soft) / n
    return loss, _backprop(model, inputs, dlogits)


def sgd_step(model: MlpModel, grads: Gradients, lr: float) -> MlpModel:
    """In-place parameter update p <- p - lr * g. Counts as one training step
    per model (N for a stack of N). Every gradient array is checked before
    any parameter changes."""
    global _TRAINING_STEPS
    if lr < 0:
        raise DomainError(f"learning rate must be >= 0, got {lr}")
    if len(grads.weights) != len(model.weights):
        raise DimensionError("gradient/model layer count mismatch")
    for g in grads.weights + grads.biases:
        if not np.isfinite(g).all():
            raise DivergenceError("non-finite gradient entry")
    for w, gw in zip(model.weights, grads.weights):
        if w.shape != gw.shape:
            raise DimensionError(f"gradient shape {gw.shape} != weight {w.shape}")
        w -= lr * gw
    for b, gb in zip(model.biases, grads.biases):
        b -= lr * gb
    _TRAINING_STEPS += _stack_size(model)
    return model


def onehot_labels(labels: np.ndarray, class_count: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], class_count))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _first_nonfinite(*stacks: np.ndarray) -> int:
    """Lowest stack position with a non-finite entry in any of the arrays,
    or the stack size if every entry is finite."""
    finite = np.logical_and.reduce(
        [np.isfinite(a).reshape(a.shape[0], -1).all(axis=1) for a in stacks])
    bad = np.flatnonzero(~finite)
    return int(bad[0]) if bad.size else finite.size


def _train_stack(stack: MlpModel, features: np.ndarray, targets: np.ndarray,
                 temperature: float, epochs: int, lr: float, batch_size: int,
                 rngs: list[np.random.Generator]) -> None:
    """Minibatch SGD, in place, of each slice k of a stack toward the
    probability rows `targets[k]`, with logit gradient
    T * (softmax(logits / T) - targets) / B: distillation, or at T = 1 with
    one-hot targets cross-entropy, bit for bit. Slice k draws each epoch's
    permutation from `rngs[k]`, so it ends bitwise as it would alone. No
    loss is computed: the softened outputs are checked to be finite at every
    step, and `sgd_step` checks the gradients.

    All or nothing: if any slice diverges, DivergenceError's `index` is the
    lowest diverging position. A diverging slice stops those after it; those
    before it keep training, in case one of them diverges later.
    """
    live = _stack_size(stack)        # slices [0, live) are still training
    n = features.shape[0]
    rows = np.arange(live)[:, np.newaxis]
    failure = None
    for epoch in range(epochs):
        if live == 0:
            break
        orders = np.stack([rng.permutation(n) for rng in rngs[:live]])
        start = 0
        while start < n:
            idx = orders[:, start:start + batch_size]
            inputs = _forward_cached(stack, features[idx])
            student = softmax_temp(inputs[-1], temperature)
            checked = [student]
            try:
                if not np.isfinite(student).all():
                    raise DivergenceError("non-finite student output")
                if lr > 0:
                    dlogits = temperature * (student - targets[rows, idx]) / idx.shape[1]
                    grads = _backprop(stack, inputs, dlogits)
                    checked += grads.weights + grads.biases
                    sgd_step(stack, grads, lr)
            except DivergenceError as e:
                live = _first_nonfinite(*checked)
                failure = DivergenceError(f"{e} at epoch {epoch}", index=live)
                if live == 0:
                    break
                # Redo this step without the diverged slice and those after it.
                stack = _stack_prefix(stack, live)
                targets, orders, rows = targets[:live], orders[:live], rows[:live]
                continue
            start += batch_size
    if failure is not None:
        raise failure


def sgd_train(model: MlpModel, features: np.ndarray, labels: np.ndarray,
              class_count: int, epochs: int, lr: float, batch_size: int,
              rng: np.random.Generator) -> None:
    """Minibatch cross-entropy training, in place; returns nothing. It is the
    stack of one of `_train_stack` (a view: updates land in the model)."""
    stack = MlpModel(model.spec, [w[np.newaxis] for w in model.weights],
                     [b[np.newaxis] for b in model.biases])
    _train_stack(stack, features, onehot_labels(labels, class_count)[np.newaxis],
                 1.0, epochs, lr, batch_size, [rng])


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label; ties go to the lowest
    class index (np.argmax convention)."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        raise DomainError("empty batch")
    if logits.shape[0] != labels.shape[0]:
        raise DimensionError(
            f"{logits.shape[0]} logit rows vs {labels.shape[0]} labels")
    return float((logits.argmax(axis=1) == labels).mean())
