import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldrpmnet.config import (ConfigFileError, model_config_from_text,
                             model_config_to_text, parse_config)
from ldrpmnet.model import REDUCED_CONFIG, ModelConfig
from ldrpmnet.tensor import ConfigurationError
from ldrpmnet.train import TrainConfig


class TestDefaults:
    def test_empty_file_gives_defaults(self):
        model, train = parse_config("")
        assert model == ModelConfig()
        assert train.batch_size == 16
        assert train.learning_rate == 0.001
        assert train.epochs == 50
        assert train.weight_decay == 0.01
        assert train == TrainConfig()

    def test_comments_and_blanks_ignored(self):
        model, train = parse_config("# a comment\n\n   \nepochs = 3 # trailing\n")
        assert model == ModelConfig()
        assert train.epochs == 3


class TestErrors:
    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigFileError, match="line 1.*batch_sise"):
            parse_config("batch_sise = 16\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigFileError, match="line 3.*duplicate.*epochs"):
            parse_config("epochs = 1\nseed = 0\nepochs = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigFileError, match="line 2"):
            parse_config("seed = 1\njust some words\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigFileError, match="line 1.*epochs"):
            parse_config("epochs = soon\n")

    def test_empty_value(self):
        with pytest.raises(ConfigFileError, match="line 1.*empty"):
            parse_config("seed =\n")

    def test_mismatched_stage_lists(self):
        with pytest.raises(ConfigFileError, match="pool_strides"):
            parse_config("stage_channels = 8,8\npool_strides = 4\n"
                         "model_dim = 8\nkernel_sizes = 3,5\n")

    def test_kernel_stage_count_mismatch(self):
        with pytest.raises(ConfigFileError, match="kernel_sizes"):
            parse_config("stage_channels = 8,8\npool_strides = 4,4\n"
                         "model_dim = 8\nkernel_sizes = 3;5;7\n")

    @pytest.mark.parametrize("key, value", [
        ("stage_channels", "8,,64"), ("stage_channels", ","),
        ("stage_channels", "32,64,"), ("pool_strides", "4, ,4"),
        ("kernel_sizes", "3,,5"), ("kernel_sizes", "3;;5"),
        ("kernel_sizes", "3,5;3,5;")])
    def test_empty_list_item_names_the_line(self, key, value):
        with pytest.raises(ConfigFileError, match=f"line 2: bad value for '{key}'"):
            parse_config(f"seed = 0\n{key} = {value}\n")

    def test_no_stages_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one stage"):
            ModelConfig(stages=())


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", [
        ModelConfig(),
        REDUCED_CONFIG,
        ModelConfig(input_length=1024, stem=(4, 9, 2),
                    stages=((8, (3,), 4), (16, (3, 5, 7), 2)),
                    encoder=(3, 16, 4, 2), conv_kind="standard",
                    attn_kind="mhsa"),
    ])
    def test_text_round_trip(self, cfg):
        assert model_config_from_text(model_config_to_text(cfg)) == cfg

    def test_per_stage_kernel_syntax(self):
        model, _ = parse_config(
            "stage_channels = 8,16\nkernel_sizes = 3;3,5\n"
            "pool_strides = 4,4\nmodel_dim = 16\n")
        assert model.stages[0][1] == (3,)
        assert model.stages[1][1] == (3, 5)

    def test_default_kernel_set_is_shared_by_any_stage_count(self):
        model, _ = parse_config("stage_channels = 8,64\nmodel_dim = 64\n")
        assert [ks for _, ks, _ in model.stages] == [(3, 5, 7), (3, 5, 7)]
        # the canonical text still lists one set per stage
        assert "kernel_sizes = 3,5,7;3,5,7\n" in model_config_to_text(model)
        assert model == parse_config(
            "stage_channels = 8,64\nmodel_dim = 64\nkernel_sizes = 3,5,7\n")[0]

    def test_shared_kernel_syntax(self):
        model, _ = parse_config(
            "stage_channels = 8,16\nkernel_sizes = 3,5\n"
            "pool_strides = 4,4\nmodel_dim = 16\n")
        assert model.stages[0][1] == (3, 5)
        assert model.stages[1][1] == (3, 5)


# --------------------------------------------------------------------------
# fuzzing the parser: only ValueError subclasses may come out
# --------------------------------------------------------------------------

_VALID_TEXT = (model_config_to_text(REDUCED_CONFIG)
               + "batch_size = 16\nlearning_rate = 0.001\nepochs = 3\n")


@st.composite
def _mutated_config_text(draw):
    text = list(_VALID_TEXT)
    for _ in range(draw(st.integers(0, 4))):      # replace, insert or delete
        i = draw(st.integers(0, len(text)))
        text[i:i + draw(st.integers(0, 3))] = draw(st.text(
            st.sampled_from(",;=# \n-0123456789") | st.characters(), max_size=3))
    cut = draw(st.integers(0, len(text)))
    return "".join(text[:cut] if draw(st.booleans()) else text)


class TestFuzzedParser:
    @settings(max_examples=300, deadline=None)
    @given(text=_mutated_config_text())
    def test_mutated_config_text(self, text):
        try:
            model, _ = parse_config(text)
        except ValueError:
            return
        assert model_config_from_text(model_config_to_text(model)) == model
