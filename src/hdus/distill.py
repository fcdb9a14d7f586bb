"""Incubating phase: train a lightweight seed model to mimic the main model's
temperature-softened outputs on an unlabeled reference set.

The seed never sees the client's labeled local data; it reads only reference
features and the main model's outputs on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError
from .numeric import (MlpModel, MlpSpec, _first_nonfinite, _mean_kl_rows,
                      _stack_models, _stack_prefix, _train_stack,
                      _unstack_models, init_mlp, mlp_forward, softmax_temp)


@dataclass
class DistillConfig:
    temperature: float = 3.0
    epochs: int = 4
    lr: float = 0.1
    batch_size: int = 32

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")


@dataclass
class ReferenceSet:
    """Unlabeled feature rows shared for distillation.

    `sealed_labels` holds the true labels for the same rows when they are
    known; by convention they are read only by the FedUnl baseline (which is
    the one framework the labels are released to).
    """

    features: np.ndarray
    sealed_labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ConfigError(f"reference features must be a non-empty 2-D "
                              f"array, got shape {self.features.shape}")

    def __len__(self) -> int:
        return self.features.shape[0]


def incubate_seed(main: MlpModel, seed_spec: MlpSpec, ref: ReferenceSet,
                  cfg: DistillConfig, rng: np.random.Generator,
                  init: MlpModel | None = None) -> MlpModel:
    """Train a seed model by minibatch SGD on the distillation loss: the stack
    of one of `incubate_seeds`.

    Teacher targets are the main model's temperature-softened outputs on the
    reference features, computed once (the teacher is never modified). Pass
    `init` to continue training an existing seed instead of starting fresh.
    """
    return incubate_seeds([main], seed_spec, ref, cfg, [rng], [init])[0]


def incubate_seeds(mains: list[MlpModel], seed_spec: MlpSpec, ref: ReferenceSet,
                   cfg: DistillConfig, rngs: list[np.random.Generator],
                   inits: list[MlpModel | None]) -> list[MlpModel]:
    """Incubate one seed per main model in one `numeric._train_stack` loop.

    Seed k is bitwise the seed `mains[k]` gets alone with `rngs[k]` and
    `inits[k]`: it draws its init, then its permutations, from its own
    generator. A non-finite teacher output at position p is raised only after
    the seeds before p have trained, so a lower seed that diverges is named first.
    """
    for main in mains:
        if (seed_spec.in_dim, seed_spec.out_dim) != (main.spec.in_dim, main.spec.out_dim):
            raise ConfigError(
                f"seed dims ({seed_spec.in_dim}, {seed_spec.out_dim}) do not match "
                f"main ({main.spec.in_dim}, {main.spec.out_dim})")
        # <= (not <): clients whose main already sits at the smallest tier use
        # a seed of the same size.
        if seed_spec.param_count() > main.param_count():
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
    seeds = _stack_models([init if init is not None else init_mlp(seed_spec, rng)
                           for init, rng in zip(inits, rngs)])
    targets = np.empty((len(mains), len(ref), seed_spec.out_dim))
    for k, main in enumerate(mains):   # one at a time: no second copy of the stack
        targets[k] = softmax_temp(mlp_forward(main, ref.features), cfg.temperature)
    live = _first_nonfinite(targets)   # position of a non-finite teacher
    _train_stack(_stack_prefix(seeds, live), ref.features, targets[:live],
                 cfg.temperature, cfg.epochs, cfg.lr, cfg.batch_size, rngs)
    if live < len(mains):
        raise DivergenceError("non-finite teacher output", index=live)
    return _unstack_models(seeds)


def distill_fidelity(seed: MlpModel, main: MlpModel, ref: ReferenceSet,
                     temperature: float) -> tuple[float, float]:
    """Mean KL(softened main || softened seed) over the reference rows, plus
    the argmax agreement fraction."""
    if len(ref) == 0:
        raise DomainError("empty reference set")
    main_logits = mlp_forward(main, ref.features)
    seed_logits = mlp_forward(seed, ref.features)
    mean_kl = _mean_kl_rows(softmax_temp(main_logits, temperature),
                            softmax_temp(seed_logits, temperature))
    agreement = float((main_logits.argmax(axis=1) == seed_logits.argmax(axis=1)).mean())
    return mean_kl, agreement
