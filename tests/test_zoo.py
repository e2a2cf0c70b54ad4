"""Tests for the nine-model zoo (repro.workloads.zoo)."""

import dataclasses

import pytest

from repro.workloads import MODEL_NAMES, GemmKind, build_model
from repro.workloads.model import ModelFamily
from repro.workloads.zoo import CNN_MODELS, RNN_MODELS, TRANSFORMER_MODELS

# Published parameter counts (10-class heads for CNNs, in millions).
EXPECTED_PARAMS_M = {
    "VGG-16": (30, 40),
    "ResNet-50": (20, 28),
    "ResNet-152": (52, 65),
    "SqueezeNet": (0.4, 1.2),
    "MobileNet": (2.5, 4.5),
    "BERT-base": (100, 120),
    "BERT-large": (320, 350),
    "LSTM-small": (0.2, 1.0),
    "LSTM-large": (10, 20),
}


class TestZooRegistry:
    def test_nine_models(self):
        assert len(MODEL_NAMES) == 9

    def test_family_partition(self):
        assert set(MODEL_NAMES) == (set(CNN_MODELS) | set(TRANSFORMER_MODELS)
                                    | set(RNN_MODELS))

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("AlexNet")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_builds(self, name):
        net = build_model(name)
        assert net.name == name
        assert net.params > 0

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_param_counts_published_range(self, name):
        low, high = EXPECTED_PARAMS_M[name]
        params_m = build_model(name).params / 1e6
        assert low <= params_m <= high, f"{name}: {params_m:.1f}M"

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_family_tags(self, name):
        net = build_model(name)
        if name in CNN_MODELS:
            assert net.family == ModelFamily.CNN
        elif name in TRANSFORMER_MODELS:
            assert net.family == ModelFamily.TRANSFORMER
        else:
            assert net.family == ModelFamily.RNN

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_every_stage_has_gemms(self, name):
        net = build_model(name)
        for kind in GemmKind:
            assert net.gemms(kind, batch=2), f"{name} missing {kind}"


class TestScaling:
    def test_image_scaling_grows_macs(self):
        small = build_model("VGG-16", input_size=32)
        large = build_model("VGG-16", input_size=64)
        assert (large.stage_macs(GemmKind.FORWARD, 1)
                > 3 * small.stage_macs(GemmKind.FORWARD, 1))

    def test_image_scaling_keeps_params(self):
        small = build_model("ResNet-50", input_size=32)
        large = build_model("ResNet-50", input_size=128)
        assert small.params == large.params

    def test_seq_scaling_grows_macs(self):
        short = build_model("BERT-base", seq_len=32)
        long = build_model("BERT-base", seq_len=128)
        assert (long.stage_macs(GemmKind.FORWARD, 1)
                > 3 * short.stage_macs(GemmKind.FORWARD, 1))

    def test_seq_scaling_irrelevant_for_cnn(self):
        a = build_model("SqueezeNet", seq_len=32)
        b = build_model("SqueezeNet", seq_len=256)
        assert a.params == b.params
        assert a.stage_macs(GemmKind.FORWARD, 2) == b.stage_macs(
            GemmKind.FORWARD, 2)


class TestMobileNetLowering:
    def test_native_groups_changes_gemms(self):
        dense = build_model("MobileNet")
        native = build_model("MobileNet", native_groups=True)
        assert (dense.stage_macs(GemmKind.FORWARD, 2)
                > native.stage_macs(GemmKind.FORWARD, 2))

    def test_native_groups_same_params(self):
        dense = build_model("MobileNet")
        native = build_model("MobileNet", native_groups=True)
        assert dense.params == native.params

    def test_other_models_ignore_flag(self):
        a = build_model("VGG-16", native_groups=True)
        b = build_model("VGG-16")
        assert a.stage_macs(GemmKind.FORWARD, 2) == b.stage_macs(
            GemmKind.FORWARD, 2)


class TestKnownShapes:
    def test_bert_base_encoder_count(self):
        net = build_model("BERT-base")
        q_layers = [l for l in net.layers if l.name.endswith(".q")]
        assert len(q_layers) == 12

    def test_bert_large_hidden(self):
        net = build_model("BERT-large")
        q = next(l for l in net.layers if l.name == "layer0.q")
        assert q.in_features == 1024

    def test_resnet152_conv_count(self):
        net = build_model("ResNet-152")
        from repro.workloads.layer import Conv2D
        convs = [l for l in net.layers if isinstance(l, Conv2D)]
        # 1 stem + 3*(3+8+36+3) bottleneck convs + 4 downsample projections.
        assert len(convs) == 1 + 3 * 50 + 4

    def test_vgg16_conv_count(self):
        net = build_model("VGG-16")
        from repro.workloads.layer import Conv2D, Linear
        assert len([l for l in net.layers if isinstance(l, Conv2D)]) == 13
        assert len([l for l in net.layers if isinstance(l, Linear)]) == 3

    def test_lstm_large_two_layers(self):
        net = build_model("LSTM-large")
        ih = [l for l in net.layers if l.name.endswith(".ih")]
        assert len(ih) == 2


class TestSharedNetworks:
    def test_equal_arguments_share_one_object(self):
        assert build_model("ResNet-50") is build_model("ResNet-50")
        assert build_model("ResNet-50") is build_model(
            "ResNet-50", input_size=32)
        assert build_model("BERT-base", seq_len=64) is build_model(
            "BERT-base", 32, 64)

    def test_distinct_arguments_distinct_objects(self):
        assert build_model("ResNet-50") is not build_model("VGG-16")
        assert build_model("MobileNet") is not build_model(
            "MobileNet", native_groups=True)
        assert build_model("MobileNet", input_size=32) is not build_model(
            "MobileNet", input_size=64)
        assert build_model("BERT-base", seq_len=32) is not build_model(
            "BERT-base", seq_len=64)

    def test_shared_network_stays_frozen(self):
        net = build_model("SqueezeNet")
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.name = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.layers = ()

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_cached_weight_layers(self, name):
        net = build_model(name)
        want = tuple(l for l in net.layers if l.has_weights)
        assert net.weight_layers == want
        assert net.weight_layers is net.weight_layers
