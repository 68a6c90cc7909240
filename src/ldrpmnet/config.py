"""Flat `key = value` configuration files and the canonical config text
embedded in checkpoints.

The format is deliberately minimal: one assignment per line, `#` comments,
blank lines ignored.  Unknown keys are a hard error (no silent typo
absorption).  An empty file yields the documented defaults.
"""

from __future__ import annotations

from .model import ModelConfig
from .train import TrainConfig


class ConfigFileError(ValueError):
    """Parse failure or unknown key; message carries the line number."""


_MODEL_KEYS = {
    "conv_kind", "attn_kind", "input_length", "stem_channels", "stem_kernel",
    "stem_stride", "kernel_sizes", "stage_channels", "pool_strides",
    "model_dim", "depth", "ffn_expansion", "heads", "num_classes",
}
_TRAIN_FIELDS = {                  # config key -> TrainConfig field
    "batch_size": "batch_size", "learning_rate": "learning_rate",
    "epochs": "epochs", "seed": "seed", "weight_decay": "weight_decay",
    "beta1": "beta1", "beta2": "beta2", "adam_eps": "eps",
}


def _parse_lines(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _MODEL_KEYS | _TRAIN_FIELDS.keys():
            raise ConfigFileError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigFileError(f"line {lineno}: duplicate key {key!r}")
        if not val:
            raise ConfigFileError(f"line {lineno}: empty value for {key!r}")
        values[key] = (lineno, val)
    return values


def _ints(val: str) -> tuple:
    return tuple(int(x) for x in val.split(","))      # an empty item raises


def _kernel_sets(val: str) -> tuple:
    return tuple(_ints(part) for part in val.split(";"))


def parse_config(text: str) -> tuple[ModelConfig, TrainConfig]:
    """Parse a flat config file into model and training configurations."""
    values = _parse_lines(text)
    base = ModelConfig()

    def get(key, default, conv=str):
        if key not in values:
            return default
        lineno, val = values[key]
        try:
            return conv(val)
        except ValueError as exc:
            raise ConfigFileError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    stage_channels = get("stage_channels", tuple(c for c, _, _ in base.stages), _ints)
    pool_strides = get("pool_strides", None, _ints)
    if pool_strides is None:
        pool_strides = (tuple(p for _, _, p in base.stages)
                        if len(stage_channels) == len(base.stages)
                        else (4,) * len(stage_channels))
    if len(pool_strides) != len(stage_channels):
        raise ConfigFileError(
            f"pool_strides has {len(pool_strides)} entries, "
            f"stage_channels has {len(stage_channels)}")
    # the default is one set, so it fits any number of stages
    kernel_sets = get("kernel_sizes", ((3, 5, 7),), _kernel_sets)
    if len(kernel_sets) == 1:                 # one set shared by every stage
        kernel_sets *= len(stage_channels)
    if len(kernel_sets) != len(stage_channels):
        raise ConfigFileError(
            f"kernel_sizes lists {len(kernel_sets)} stages, "
            f"expected {len(stage_channels)}")

    model = ModelConfig(
        conv_kind=get("conv_kind", base.conv_kind),
        attn_kind=get("attn_kind", base.attn_kind),
        input_length=get("input_length", base.input_length, int),
        stem=(get("stem_channels", base.stem[0], int),
              get("stem_kernel", base.stem[1], int),
              get("stem_stride", base.stem[2], int)),
        stages=tuple(zip(stage_channels, kernel_sets, pool_strides)),
        encoder=(get("depth", base.encoder[0], int),
                 get("model_dim", base.encoder[1], int),
                 get("ffn_expansion", base.encoder[2], int),
                 get("heads", base.encoder[3], int)),
        num_classes=get("num_classes", base.num_classes, int),
    )
    train_base = TrainConfig()
    train = TrainConfig(**{
        field: get(key, getattr(train_base, field),
                   type(getattr(train_base, field)))
        for key, field in _TRAIN_FIELDS.items()})
    return model, train


def load_config(path) -> tuple[ModelConfig, TrainConfig]:
    with open(path, encoding="utf-8") as f:
        return parse_config(f.read())


def model_config_to_text(cfg: ModelConfig) -> str:
    """Canonical flat rendering; parse_config(text) reproduces cfg exactly."""
    lines = [
        f"conv_kind = {cfg.conv_kind}",
        f"attn_kind = {cfg.attn_kind}",
        f"input_length = {cfg.input_length}",
        f"stem_channels = {cfg.stem[0]}",
        f"stem_kernel = {cfg.stem[1]}",
        f"stem_stride = {cfg.stem[2]}",
        "stage_channels = " + ",".join(str(c) for c, _, _ in cfg.stages),
        "kernel_sizes = " + ";".join(
            ",".join(str(k) for k in ks) for _, ks, _ in cfg.stages),
        "pool_strides = " + ",".join(str(p) for _, _, p in cfg.stages),
        f"depth = {cfg.encoder[0]}",
        f"model_dim = {cfg.encoder[1]}",
        f"ffn_expansion = {cfg.encoder[2]}",
        f"heads = {cfg.encoder[3]}",
        f"num_classes = {cfg.num_classes}",
    ]
    return "\n".join(lines) + "\n"


def model_config_from_text(text: str) -> ModelConfig:
    model, _ = parse_config(text)
    return model
