"""Desk-scale laboratory for linear-attention hybrids.

Everything runs on CPU float64 numpy: a small reverse-mode tensor core, the
second-order Taylor feature map with parallel/chunked/recurrent attention
views that match to near machine precision, sliding-window attention, gated
convolutions, a trainable hybrid stack with exact constant-state decoding,
synthetic recall data, closed-form state/IO accounting, and exhaustive
Boolean-circuit checks of the recall constructions.
"""

import types as _types

from .analysis import ArchSpec, io_cost_decode, io_cost_prefill, model_state_size, state_size, tiled_reference_run, tradeoff_sweep
from .errors import BasedLabError, ConfigError, EncodingError, InputError, NumericError, ParameterError, ShapeError, TrainingDiverged
from .feature_maps import FeatureMapKind, dims, taylor_exp2, unique_dim
from .linear_attention import DecayConfig, LinAttnParams, chunked_forward, default_decay_gammas, parallel_forward, recurrent_forward
from .model import DecodeState, HybridModel, ModelConfig, TrainConfig, build, load_checkpoint, save_checkpoint, train_mqar
from .mqar import MqarBatch, MqarConfig, evaluate, generate
from .sliding_window import SwaParams, WindowCache, swa_forward
from .tensor import Tensor, grad_check
from .theory import Polynomial, eq_phot_poly, exact_attention_mqar, mqar_poly, phot_decode, phot_encode, run_all_checks

__version__ = "0.1.0"

# the public names are the ones imported above, so each is listed once
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _types.ModuleType)) + ["__version__"]
