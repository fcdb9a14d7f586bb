"""Incubating phase: train a lightweight seed model to mimic the main model's
temperature-softened outputs on an unlabeled reference set.

The seed never sees the client's labeled local data; it reads only reference
features and the main model's outputs on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError, check_count, check_rate
from .numeric import (MlpModel, MlpSpec, _divergence, _train_stack,
                      init_mlp, kl_divergence, mlp_forward, softmax_temp)


@dataclass
class DistillConfig:
    temperature: float = 3.0
    epochs: int = 8
    lr: float = 0.1
    batch_size: int = 32

    def __post_init__(self):
        # Errors name the experiment config's keys: `epochs` and `lr` are its
        # `incubate_epochs` and `incubate_lr`.
        check_count("incubate_epochs", self.epochs)
        check_count("batch_size", self.batch_size)
        check_rate("temperature", self.temperature)
        check_rate("incubate_lr", self.lr)
        for key, value in (("temperature", self.temperature), ("incubate_lr", self.lr)):
            if not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature: must be > 0, got {self.temperature}")
        if self.epochs < 1:
            raise ConfigError(f"incubate_epochs: must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.lr < 0:
            raise ConfigError(f"incubate_lr: must be >= 0, got {self.lr}")


@dataclass
class ReferenceSet:
    """Unlabeled feature rows shared for distillation, read-only once built
    (frozen in place, not copied). `data.LabeledDataset` adds labels to it,
    so every dataset's rows are checked here."""

    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DimensionError(f"features must be non-empty 2-D, got shape "
                                 f"{self.features.shape}")
        self.features.flags.writeable = False

    def __len__(self) -> int:
        return self.features.shape[0]

    def __reduce__(self):
        # numpy copies and unpickles arrays writable: a copy or a pickle is
        # rebuilt through the constructor, which freezes them again.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def incubate_seed(main: MlpModel, seed_spec: MlpSpec, ref: ReferenceSet,
                  cfg: DistillConfig, rng: np.random.Generator,
                  init: MlpModel | None = None) -> MlpModel:
    """Distill `main` into a model of `seed_spec` by minibatch SGD: the stack
    of one of `incubate_seeds` (HDUS's seeds), and FedUnl's recovery.

    Teacher targets are the main model's temperature-softened outputs on the
    reference features, computed once (the teacher is never modified). Pass
    `init` to continue training an existing model instead of starting fresh.
    """
    return incubate_seeds([main], seed_spec, ref, cfg, [rng], [init])[0]


def incubate_seeds(mains: list[MlpModel], seed_spec: MlpSpec, ref: ReferenceSet,
                   cfg: DistillConfig, rngs: list[np.random.Generator],
                   inits: list[MlpModel | None]) -> list[MlpModel]:
    """Incubate one seed per main model in one `numeric._train_stack` loop.

    Seed k is bitwise the seed `mains[k]` gets alone with `rngs[k]` and
    `inits[k]`: it draws its init, then its permutations, from its own
    generator. All teachers are checked before any step: a non-finite one
    raises DivergenceError, `index` the lowest such position.
    """
    if not len(mains) == len(rngs) == len(inits):
        raise ConfigError(f"need one rng and one init per main, got {len(mains)} "
                          f"mains, {len(rngs)} rngs and {len(inits)} inits")
    for main in mains:
        if (seed_spec.in_dim, seed_spec.out_dim) != (main.spec.in_dim, main.spec.out_dim):
            raise ConfigError(
                f"seed dims ({seed_spec.in_dim}, {seed_spec.out_dim}) do not match "
                f"main ({main.spec.in_dim}, {main.spec.out_dim})")
        # <= (not <): clients whose main already sits at the smallest tier use
        # a seed of the same size.
        if seed_spec.param_count() > main.spec.param_count():
            raise ConfigError("seed model must not be larger than the main model")
        if ref.features.shape[1] != main.spec.in_dim:
            raise ConfigError(
                f"reference feature dim {ref.features.shape[1]} != {main.spec.in_dim}")
    for init in inits:
        if init is not None and init.spec != seed_spec:
            raise ConfigError(f"init spec {init.spec.layer_dims} != seed spec "
                              f"{seed_spec.layer_dims}")

    if not mains:
        return []
    stack = np.stack([(init if init is not None else init_mlp(seed_spec, rng)).params
                      for init, rng in zip(inits, rngs)])
    targets = np.empty((len(mains), len(ref), seed_spec.out_dim))
    with np.errstate(over="ignore", invalid="ignore"):   # checked just below
        for k, main in enumerate(mains):   # one at a time: no second copy of the stack
            targets[k] = softmax_temp(mlp_forward(main, ref.features), cfg.temperature)
    if not np.isfinite(targets).all():
        raise _divergence(targets, "non-finite teacher output")
    features = np.broadcast_to(ref.features, (len(mains), *ref.features.shape))  # no copy
    _train_stack(MlpModel(seed_spec, stack), features, targets,
                 cfg.temperature, cfg.epochs, cfg.lr, cfg.batch_size, rngs)
    return [MlpModel(seed_spec, row.copy()) for row in stack]


def distill_fidelity(seed: MlpModel, main: MlpModel, ref: ReferenceSet,
                     temperature: float) -> tuple[float, float]:
    """Mean KL(softened main || softened seed) over the reference rows, plus
    the argmax agreement fraction."""
    main_logits = mlp_forward(main, ref.features)
    seed_logits = mlp_forward(seed, ref.features)
    mean_kl = kl_divergence(softmax_temp(main_logits, temperature),
                            softmax_temp(seed_logits, temperature))
    agreement = float((main_logits.argmax(axis=1) == seed_logits.argmax(axis=1)).mean())
    return mean_kl, agreement
