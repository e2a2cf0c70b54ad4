"""Model zoo: the nine DNNs of the paper's evaluation (Section V).

Use :func:`build_model` to construct any benchmark by its paper name;
``input_size`` applies to CNNs and ``seq_len`` to Transformers/RNNs
(the Section VI-C sensitivity knobs).  Networks are immutable, so
:func:`build_model` builds each argument tuple once per process and
hands every caller the same shared object.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.workloads.model import ModelFamily, Network
from repro.workloads.zoo.bert import build_bert_base, build_bert_large
from repro.workloads.zoo.lstm import build_lstm_small, build_lstm_large
from repro.workloads.zoo.mobilenet import build_mobilenet
from repro.workloads.zoo.resnet import build_resnet50, build_resnet152
from repro.workloads.zoo.squeezenet import build_squeezenet
from repro.workloads.zoo.vgg import build_vgg16

CNN_MODELS = ("VGG-16", "ResNet-50", "ResNet-152", "SqueezeNet", "MobileNet")
TRANSFORMER_MODELS = ("BERT-base", "BERT-large")
RNN_MODELS = ("LSTM-small", "LSTM-large")
MODEL_NAMES = CNN_MODELS + TRANSFORMER_MODELS + RNN_MODELS

_CNN_BUILDERS: dict[str, Callable[..., Network]] = {
    "VGG-16": build_vgg16,
    "ResNet-50": build_resnet50,
    "ResNet-152": build_resnet152,
    "SqueezeNet": build_squeezenet,
    "MobileNet": build_mobilenet,
}
_SEQ_BUILDERS: dict[str, Callable[..., Network]] = {
    "BERT-base": build_bert_base,
    "BERT-large": build_bert_large,
    "LSTM-small": build_lstm_small,
    "LSTM-large": build_lstm_large,
}


def build_model(name: str, input_size: int = 32, seq_len: int = 32,
                native_groups: bool = False) -> Network:
    """Build a zoo model by its paper name.

    Parameters
    ----------
    name:
        One of :data:`MODEL_NAMES`.
    input_size:
        Image side length for CNNs (default 32, the CIFAR-10 baseline).
    seq_len:
        Sequence length for Transformers/RNNs (default 32, the paper's
        baseline).
    native_groups:
        Keep grouped convolutions as per-group GEMMs (GPU execution
        model) instead of the dense TPU lowering.  Only affects
        MobileNet.

    Equal arguments return the same (frozen) :class:`Network` object,
    so its cached aggregates and identity-keyed memos such as the step
    pricer's per-kind GEMM lowerings
    (:mod:`repro.training.batch`) are shared by every caller.
    """
    return _build_model(name, input_size, seq_len, native_groups)


@lru_cache(maxsize=128)
def _build_model(name: str, input_size: int, seq_len: int,
                 native_groups: bool) -> Network:
    if name == "MobileNet":
        return build_mobilenet(input_size=input_size,
                               native_groups=native_groups)
    if name in _CNN_BUILDERS:
        return _CNN_BUILDERS[name](input_size=input_size)
    if name in _SEQ_BUILDERS:
        return _SEQ_BUILDERS[name](seq_len=seq_len)
    raise KeyError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def clear_model_cache() -> None:
    """Drop every shared :class:`Network` (mainly for benchmarks)."""
    _build_model.cache_clear()


__all__ = [
    "CNN_MODELS",
    "TRANSFORMER_MODELS",
    "RNN_MODELS",
    "MODEL_NAMES",
    "ModelFamily",
    "build_model",
    "clear_model_cache",
    "build_vgg16",
    "build_resnet50",
    "build_resnet152",
    "build_squeezenet",
    "build_mobilenet",
    "build_bert_base",
    "build_bert_large",
    "build_lstm_small",
    "build_lstm_large",
]
