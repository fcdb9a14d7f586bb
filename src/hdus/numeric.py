"""Dense numeric substrate: ReLU MLPs with hand-derived gradients, plain SGD,
temperature softmax and KL divergence. There is one loss, the distillation
loss T^2 * mean KL(targets || softmax(logits / T)); cross-entropy is that loss
at T = 1 with one-hot targets, in training (`_train_stack`) and in
`mlp_backward`.

All arrays are float64 numpy arrays. Every operation is a deterministic
function of its inputs plus an explicit numpy Generator where randomness is
involved.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

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

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ValidationError("spec needs at least input and output dims")
        if any(d < 1 for d in dims):
            raise ValidationError(f"all layer dims must be >= 1, got {dims}")

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


# Size tiers standing in for small/medium/large client hardware budgets:
# tier name -> hidden layer widths.
TIERS = {"small": (16,), "medium": (64,), "large": (128, 64)}


def tier_spec(tier: str, feature_dim: int, class_count: int) -> MlpSpec:
    if tier not in TIERS:
        raise ValidationError(f"unknown model tier {tier!r}")
    return MlpSpec((feature_dim, *TIERS[tier], class_count))


@dataclass(eq=False)
class MlpModel:
    """A ReLU MLP whose parameters are one float64 vector, `params`, in wire
    order: for each layer, the weights row-major, then the biases. Models
    compare and hash by identity, like the seed objects repositories share.

    `weights[i]` (fan_in x fan_out) and `biases[i]` are views into `params`,
    built once at construction, so writing `params` moves the layers and
    writing a layer moves `params`; assign with `[...] =`, never rebind.
    A stack of S models of one spec is the same class with S x P `params`,
    one row per model: then `weights[i]` is S x fan_in x fan_out, row k is
    model k, and `params[:s]` is the stack of the first s. Read-only `params`
    give read-only layers. `__reduce__` rebuilds the views from a copied
    `params`, so `copy.deepcopy` and pickle keep them aliasing it and keep
    read-only `params` read-only. It drops `_test_output`, the test-set
    output that evaluation stores on a read-only model as (features, combine
    mode, output), so a copy forwards once before it keeps its own.
    """

    spec: MlpSpec
    params: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    _test_output: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        p = self.params
        if p.shape[-1:] != (self.spec.param_count(),):
            raise DimensionError(f"params shape {p.shape} does not end in "
                                 f"{self.spec.param_count()}")
        self.weights, self.biases = [], []
        off = 0
        for fan_in, fan_out in zip(self.spec.layer_dims, self.spec.layer_dims[1:]):
            end = off + fan_in * fan_out
            self.weights.append(p[..., off:end].reshape(*p.shape[:-1], fan_in, fan_out))
            self.biases.append(p[..., end:end + fan_out])
            off = end + fan_out

    def __reduce__(self):
        return _rebuild_model, (self.spec, self.params, self.params.flags.writeable)

    def copy(self) -> "MlpModel":
        return MlpModel(self.spec, self.params.copy())


def _rebuild_model(spec: MlpSpec, params: np.ndarray, writeable: bool) -> MlpModel:
    """`MlpModel.__reduce__`'s constructor: numpy hands back deep-copied and
    unpickled arrays writable, so a read-only model's flag is set again."""
    if not writeable:
        params.flags.writeable = False
    return MlpModel(spec, params)


def init_mlp(spec: MlpSpec, rng: np.random.Generator) -> MlpModel:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases."""
    model = MlpModel(spec, np.zeros(spec.param_count()))
    for w in model.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def _check_batch(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    ndim = model.params.ndim + 1
    if batch.ndim != ndim:
        raise DimensionError(f"batch must be {ndim}-D, got shape {batch.shape}")
    if batch.shape[-1] != model.spec.in_dim:
        raise DimensionError(
            f"batch has {batch.shape[-1]} features but layer 0 expects "
            f"{model.spec.in_dim}")
    return batch


# Rows per block of a large forward: the default minibatch size. A block's
# largest gemm, 32 x 128 x 64 in the large tier, is then a training step's,
# which threaded OpenBLAS runs on one thread (m*n*k <= 65,536 x 4); a larger
# one wakes a helper thread, which then spins until the next matmul.
_BLOCK_ROWS = 32


def mlp_forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Forward pass returning raw (pre-softmax) logits, shape B x C.

    One model's batch of more than `_BLOCK_ROWS` rows runs as a stack of
    blocks of that many, the last zero-padded, so every row takes the BLAS
    path of a 32-row matmul and its logits do not depend on the batch around
    it. On the rows of full blocks they are bitwise those of one unblocked
    pass. On the last block's rows they can differ in the last bit: a BLAS
    rounds the rows past a multiple of its kernel's row unroll (4 in
    OpenBLAS's Haswell kernels) on another path.
    """
    x = _check_batch(model, batch)
    n = x.shape[0]
    if x.ndim == 2 and n > _BLOCK_ROWS:
        blocks = np.zeros((-(-n // _BLOCK_ROWS) * _BLOCK_ROWS, x.shape[1]))
        blocks[:n] = x
        out = _layers(model, blocks.reshape(-1, _BLOCK_ROWS, x.shape[1]))[-1]
        return out.reshape(-1, out.shape[-1])[:n]
    return _layers(model, x)[-1]


def softmax_temp(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax with max-subtraction; row-wise on 2-D input."""
    if not temperature > 0:      # NaN fails too
        raise DomainError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=np.float64)
    # One new array, never the input; every later pass writes it in place.
    if temperature != 1.0:       # x / 1.0 == x for every IEEE value
        z = z / temperature
        z -= z.max(axis=-1, keepdims=True)
    else:
        z = z - z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Sum_i p_i (ln p_i - ln q_i), exactly: 0 ln 0 = 0, and the result is
    +inf where p_i > 0 = q_i. 1-D inputs are one distribution; 2-D inputs are
    rows of them, and the result is the mean over rows."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch: {p.shape} vs {q.shape}")
    if p.size == 0:
        raise DomainError(f"no distributions to compare: shape {p.shape}")
    for x in (p, q):    # written so that a NaN fails both tests
        if not ((x >= 0).all() and (np.abs(x.sum(axis=-1) - 1.0) <= 1e-9).all()):
            raise DomainError("inputs must be rows of entries >= 0, each "
                              "summing to 1 within 1e-9")
    # ln 0 = -inf, and 0 * inf = NaN in the branch `where` discards.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return float(terms.sum(axis=-1).mean())


def _layers(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """The layer loop: the input, then each layer's output. `x` is a checked
    batch, or for one model any stack of batches, which share its weights.
    Bias add and ReLU write the fresh matmul output in place."""
    inputs = [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        x = x @ w
        x += b[..., np.newaxis, :]
        if i < last:
            np.maximum(x, 0.0, out=x)
        inputs.append(x)
    return inputs


def _backprop(model: MlpModel, inputs: list[np.ndarray], dlogits: np.ndarray,
              grad: MlpModel) -> np.ndarray:
    """Propagate a gradient w.r.t. the output logits back to all parameters
    (of every row, for a stacked model), into the layer views of `grad`, a
    model shaped like `model`; returns `grad.params`."""
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(inputs[i].swapaxes(-1, -2), delta, out=grad.weights[i])
        np.sum(delta, axis=-2, out=grad.biases[i])
        if i > 0:
            delta = delta @ model.weights[i].swapaxes(-1, -2)
            delta *= inputs[i] > 0   # ReLU mask of the hidden activation
    return grad.params


def mlp_backward(model: MlpModel, batch: np.ndarray, targets: np.ndarray,
                 temperature: float) -> tuple[float, np.ndarray]:
    """Loss and exact analytic gradients of the one loss,
    T^2 * mean KL(targets || softmax(logits / T)), toward probability rows
    `targets`; one-hot rows at T = 1 give cross-entropy. The student logits
    are softened with the same temperature as the targets, and T^2
    compensates the usual 1/T gradient attenuation.

    The loss is `kl_divergence` of the softened student output, so it is
    exact while each softened probability a target weights stays normal in
    float64: at T = 1 it reads 50.0, 700.0 and 708.0 at logit gaps of 50,
    700 and 708, 720.000000000003 at 720, and +inf past a gap of about
    745 * T. The gradient is exact at every gap. It is one array shaped like
    `model.params`, in the same order.
    """
    inputs = _layers(model, _check_batch(model, batch))
    logits = inputs[-1]
    targets = np.asarray(targets, dtype=np.float64)
    student_soft = softmax_temp(logits, temperature)
    loss = temperature ** 2 * kl_divergence(targets, student_soft)
    dlogits = temperature * (student_soft - targets) / logits.shape[0]
    return loss, _backprop(model, inputs, dlogits,
                           MlpModel(model.spec, np.empty(model.params.shape)))


def sgd_step(model: MlpModel, grad: np.ndarray, lr: float) -> MlpModel:
    """In-place parameter update p <- p - lr * g, with `grad` shaped like
    `model.params`. Counts as one training step per model (N for a stack of
    N). The gradient is checked before any parameter changes."""
    global _TRAINING_STEPS
    if not lr >= 0:     # NaN fails too
        raise DomainError(f"learning rate must be >= 0, got {lr}")
    if grad.shape != model.params.shape:
        raise DimensionError(f"gradient shape {grad.shape} != params {model.params.shape}")
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite gradient entry")
    model.params -= lr * grad
    _TRAINING_STEPS += len(model.params) if model.params.ndim == 2 else 1
    return model


def _check_labels(labels: np.ndarray, class_count: int) -> np.ndarray:
    """`labels` as an array, checked to be 1-D integers in [0, C) for an
    integer C >= 1."""
    if not isinstance(class_count, numbers.Integral) or class_count < 1:
        raise DomainError(f"class count must be an integer >= 1, got {class_count!r}")
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":    # a float, bool or object label is no class
        raise DomainError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and not (labels.min() >= 0 and labels.max() < class_count):
        raise DomainError(f"labels must lie in [0, {class_count}), got "
                          f"{labels.min()} to {labels.max()}")
    return labels


def onehot_labels(labels: np.ndarray, class_count: int) -> np.ndarray:
    labels = _check_labels(labels, class_count)
    out = np.zeros((labels.shape[0], class_count))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _divergence(stack: np.ndarray, message: str) -> DivergenceError:
    """The error for a stack holding a non-finite entry: its `index` is the
    lowest stack position holding one."""
    finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
    return DivergenceError(message, index=int(np.argmin(finite)))


# Divergence overflows to inf and NaN; the finiteness checks below detect it,
# so numpy's own warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _train_stack(stack: MlpModel, features: np.ndarray, targets: np.ndarray,
                 temperature: float, epochs: int, lr: float, batch_size: int,
                 rngs: list[np.random.Generator]) -> None:
    """Minibatch SGD, in place, of each slice k of a stack on its own rows
    `features[k]` toward the probability rows `targets[k]`, with logit gradient
    T * (softmax(logits / T) - targets) / B: distillation, or at T = 1 with
    one-hot targets cross-entropy, bit for bit. Slice k draws each epoch's
    permutation from `rngs[k]`, so it ends bitwise as it would alone. Every
    slice has the same row count n: `features` is S x n x F (a broadcast
    view when the slices share rows), `targets` S x n x C, and each step
    gathers one minibatch per slice. No loss is computed.

    A bad batch size, learning rate or epoch count, or targets whose rows
    do not match the features, fail before any step. Fail fast: the first
    step at which any slice's softened output or gradient (`sgd_step`'s
    check) is not finite raises DivergenceError, whose `index` is the lowest
    slice at fault in that step, and nothing trains after it. Once a step
    has run the parameters are checked at the end too, since a finite
    gradient can overflow them in the last step.
    """
    for name, value in (("batch_size", batch_size), ("epochs", epochs)):
        if not isinstance(value, numbers.Integral):    # as `range` requires
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if batch_size < 1:
        raise DomainError(f"batch_size must be >= 1, got {batch_size}")
    if not 0 <= lr < np.inf:       # NaN fails too
        raise DomainError(f"learning rate must be finite and >= 0, got {lr}")
    if epochs < 0:
        raise DomainError(f"epochs must be >= 0, got {epochs}")
    features = _check_batch(stack, features)
    if targets.shape != (*features.shape[:2], stack.spec.out_dim):
        raise DimensionError(f"targets shape {targets.shape} does not match "
                             f"features {features.shape} and {stack.spec.out_dim} classes")
    grad = MlpModel(stack.spec, np.empty(stack.params.shape))   # reused every step
    n = features.shape[1]
    rows = np.arange(len(stack.params))[:, np.newaxis]
    for epoch in range(epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, batch_size):
            idx = orders[:, start:start + batch_size]
            inputs = _layers(stack, features[rows, idx])
            student = softmax_temp(inputs[-1], temperature)
            if not np.isfinite(student).all():
                raise _divergence(student, f"non-finite student output at epoch {epoch}")
            if lr > 0:
                # The logit gradient overwrites `student`, now checked.
                dlogits = student
                dlogits -= targets[rows, idx]
                dlogits *= temperature
                dlogits /= idx.shape[1]
                _backprop(stack, inputs, dlogits, grad)
                try:
                    sgd_step(stack, grad.params, lr)
                except DivergenceError as e:
                    raise _divergence(grad.params, f"{e} at epoch {epoch}") from None
    if lr > 0 and epochs > 0 and not np.isfinite(stack.params).all():
        raise _divergence(stack.params, f"non-finite parameters after epoch {epochs - 1}")


def sgd_train(model: MlpModel, features: np.ndarray, labels: np.ndarray,
              class_count: int, epochs: int, lr: float, batch_size: int,
              rng: np.random.Generator) -> None:
    """Minibatch cross-entropy training, in place; returns nothing. It is the
    stack of one of `_train_stack` (a view: updates land in the model)."""
    _train_stack(MlpModel(model.spec, model.params[np.newaxis]),
                 features[np.newaxis], onehot_labels(labels, class_count)[np.newaxis],
                 1.0, epochs, lr, batch_size, [rng])


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label; ties go to the lowest
    class index (np.argmax convention). `logits` is B x C and `labels` B
    classes in [0, C)."""
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be 2-D, got shape {logits.shape}")
    labels = _check_labels(labels, logits.shape[1])
    if logits.shape[0] == 0:
        raise DomainError("empty batch")
    if logits.shape[0] != labels.shape[0]:
        raise DimensionError(
            f"{logits.shape[0]} logit rows vs {labels.shape[0]} labels")
    return float((logits.argmax(axis=1) == labels).mean())
