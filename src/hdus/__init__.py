"""Decentralized learning/unlearning simulator with seed-model distillation
and erasable neighbor ensembles."""

from .data import (LabeledDataset, PartitionedDataset, gen_blobs,
                   load_idx_files, parse_idx, partition_noniid)
from .distill import (DistillConfig, ReferenceSet, distill_fidelity,
                      incubate_seed, incubate_seeds)
from .ensemble import (EnsembleConfig, SeedRepository, add_neighbor_seed,
                       deserialize_seed, ensemble_predict, serialize_seed,
                       unlearn_neighbor)
from .errors import (ConfigError, ConflictError, DimensionError, DivergenceError,
                     DomainError, HdusError, NotFoundError, ParseError,
                     StateError, ValidationError)
from .harness import (ExperimentConfig, RunReport, emit_metrics, load_config,
                      run_experiment, sweep, unlearn_demo, verify_unlearning)
from .numeric import (MlpModel, MlpSpec, accuracy, init_mlp, kl_divergence,
                      mlp_forward, onehot_labels, sgd_train, softmax_temp,
                      tier_spec)
from .simulation import (ClientState, EventLog, SimConfig, Topology,
                         evaluate_all, handle_unlearn_request, init_network,
                         run_round)

__version__ = "0.1.0"
