"""Run configuration: a flat ``key = value`` text format, strictly validated.

Each key's declaration on :class:`RunConfig` holds its parser, default,
applicability and valid values. Unknown keys, keys that do not apply to the
chosen variant/model/dataset, non-finite numbers and invalid values are all
rejected with the offending field named. Parsing resolves every default, and
:func:`resolved_text` echoes the complete configuration in canonical order so
that a run is reproducible from its echo alone; the echo's sha256 is the
config hash.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError

VARIANTS = (
    "baseline",
    "anytime_osp",
    "app_default",
    "app_final",
    "app_warmup",
    "app_noreplay_snip",
)
PRUNERS = ("snip", "grasp", "magnitude", "random")
REPLAY_MODES = ("full", "none")
LR_MODES = ("multistep_m1_only", "cyclic_every_mt")
MODELS = ("mlp", "convnet")
DATASETS = ("idx", "csv", "synthetic_blobs", "synthetic_spirals")


_REQUIRED = object()


def _parse_int(s, key):
    try:
        return int(s)
    except (TypeError, ValueError):
        raise ConfigError(f"expected an integer, got {s!r}", key) from None


def _parse_float(s, key):
    try:
        value = float(s)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {s!r}", key) from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {s!r}", key)
    return value


def _parse_int_list(s, key):
    s = s.strip()
    if not s:
        return ()
    return tuple(_parse_int(part.strip(), key) for part in s.split(","))


def _parse_str(s, key):
    return str(s)


def _is_pruned(r):
    return r["variant"] != "baseline"


def _when(key, *values):
    return lambda r: r[key] in values


_STEERING = ("variant", "model", "dataset")  # the keys that ``applies`` reads
_MLP, _CONVNET = _when("model", "mlp"), _when("model", "convnet")
_IDX, _CSV = _when("dataset", "idx"), _when("dataset", "csv")
_BLOBS, _SPIRALS = _when("dataset", "synthetic_blobs"), _when("dataset", "synthetic_spirals")
_SYNTHETIC = _when("dataset", "synthetic_blobs", "synthetic_spirals")


def _from_seed(r):
    return r["seed"]


def _default_test_per_class(r):
    per_class = r["blob_per_class"] if r["dataset"] == "synthetic_blobs" else r["spiral_per_class"]
    return max(1, per_class // 5)


def _one_of(choices):
    return lambda v: v in choices, f"must be one of {choices}"


def _at_least(n):
    return lambda v: v >= n, f"must be >= {n}"


_POSITIVE = (lambda v: v > 0.0, "must be positive")
_OPEN_FRACTION = (lambda v: 0.0 < v < 1.0, "must be in (0, 1)")
_SIZES = (lambda v: all(i >= 1 for i in v), "every entry must be >= 1")


def _key(parser, default=_REQUIRED, applies=None, valid=None):
    """Declare a config key: its parser, default, applicability and valid values.

    A callable default and ``applies`` read the partially-resolved config (the
    keys declared before this one); ``applies`` None means "always". ``valid``
    is a ``(predicate, message)`` pair that every applicable, non-None value
    must satisfy; None accepts any value.
    """
    meta = {"parser": parser, "default": default, "applies": applies, "valid": valid}
    return field(metadata=meta)


@dataclass
class RunConfig:
    """A resolved config; field order is the echo order, so the hash depends on it."""

    variant: str = _key(_parse_str, valid=_one_of(VARIANTS))
    pruner: str | None = _key(
        _parse_str, lambda r: "snip" if r["variant"] == "app_noreplay_snip" else _REQUIRED,
        _is_pruned, _one_of(PRUNERS),
    )
    tau: float | None = _key(_parse_float, applies=_is_pruned, valid=_at_least(1))
    megabatches: int = _key(_parse_int, valid=_at_least(1))
    replay: str = _key(_parse_str, "full", valid=_one_of(REPLAY_MODES))
    epochs: int = _key(_parse_int, 30, valid=_at_least(1))
    warmup_epochs: int = _key(_parse_int, 20, valid=_at_least(1))
    lr_mode: str = _key(_parse_str, "multistep_m1_only", valid=_one_of(LR_MODES))
    lr0: float = _key(_parse_float, 0.1, valid=_POSITIVE)
    lr_gamma: float = _key(_parse_float, 0.1, valid=_POSITIVE)
    post_m1_lr: float = _key(_parse_float, 0.001, valid=_POSITIVE)
    momentum: float = _key(_parse_float, 0.9, valid=(lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"))
    weight_decay: float = _key(_parse_float, 0.0, valid=_at_least(0))
    minibatch: int = _key(_parse_int, 32, valid=_at_least(1))
    pi_fraction: float | None = _key(
        _parse_float, 0.2, _is_pruned, (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")
    )
    val_fraction: float = _key(_parse_float, 0.1, valid=_OPEN_FRACTION)
    model: str = _key(_parse_str, "mlp", valid=_one_of(MODELS))
    mlp_hidden: tuple | None = _key(_parse_int_list, (256, 128), _MLP, _SIZES)
    conv_channels: tuple | None = _key(
        _parse_int_list, (8, 16), _CONVNET,
        (lambda v: v and all(i >= 1 for i in v), "needs at least one conv layer, each >= 1"),
    )
    conv_kernel: int | None = _key(_parse_int, 3, _CONVNET, _at_least(1))
    conv_stride: int | None = _key(_parse_int, 1, _CONVNET, _at_least(1))
    conv_padding: int | None = _key(_parse_int, 1, _CONVNET, _at_least(0))
    head_hidden: tuple | None = _key(_parse_int_list, (), _CONVNET, _SIZES)
    dataset: str = _key(_parse_str, valid=_one_of(DATASETS))
    per_class_cap: int | None = _key(_parse_int, None, valid=_at_least(1))
    idx_train_images: str | None = _key(_parse_str, applies=_IDX)
    idx_train_labels: str | None = _key(_parse_str, applies=_IDX)
    idx_test_images: str | None = _key(_parse_str, applies=_IDX)
    idx_test_labels: str | None = _key(_parse_str, applies=_IDX)
    csv_path: str | None = _key(_parse_str, applies=_CSV)
    csv_label_column: str | None = _key(_parse_str, applies=_CSV)
    test_fraction: float | None = _key(_parse_float, 0.2, _CSV, _OPEN_FRACTION)
    blob_classes: int | None = _key(_parse_int, 5, _BLOBS, _at_least(2))
    blob_per_class: int | None = _key(_parse_int, 200, _BLOBS, _at_least(1))
    blob_dim: int | None = _key(_parse_int, 16, _BLOBS, _at_least(1))
    blob_noise: float | None = _key(_parse_float, 0.5, _BLOBS, _at_least(0))
    spiral_classes: int | None = _key(_parse_int, 3, _SPIRALS, _at_least(2))
    spiral_per_class: int | None = _key(_parse_int, 200, _SPIRALS, _at_least(1))
    spiral_noise: float | None = _key(_parse_float, 0.1, _SPIRALS, _at_least(0))
    test_per_class: int | None = _key(_parse_int, _default_test_per_class, _SYNTHETIC, _at_least(1))
    seed: int = _key(_parse_int, 0, valid=_at_least(0))
    seed_partition: int = _key(_parse_int, _from_seed, valid=_at_least(0))
    seed_init: int = _key(_parse_int, _from_seed, valid=_at_least(0))
    seed_pruning: int = _key(_parse_int, _from_seed, valid=_at_least(0))
    seed_shuffle: int = _key(_parse_int, _from_seed, valid=_at_least(0))


_KNOWN_KEYS = {f.name for f in fields(RunConfig)}


def _read_pairs(text):
    pairs = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in pairs:
            raise ConfigError("duplicate key", key)
        pairs[key] = value
    return pairs


def parse_config(source, seed_override=None):
    """Parse a config into a resolved RunConfig.

    A ``str`` that contains a newline is the config text itself; any other
    ``str`` or path-like object names the file to read.
    """
    text = source
    if not isinstance(source, str) or "\n" not in source:
        try:
            with open(source, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
    pairs = _read_pairs(text)
    unknown = sorted(set(pairs) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}", unknown[0])
    if seed_override is not None:
        pairs["seed"] = str(int(seed_override))

    resolved = {}
    for f in fields(RunConfig):
        name, meta = f.name, f.metadata
        if meta["applies"] is not None and not meta["applies"](resolved):
            if name in pairs:
                steering = [f"{k}={resolved[k]!r}" for k in _STEERING if k in resolved]
                raise ConfigError(f"not applicable for {', '.join(steering)}", name)
            resolved[name] = None
            continue
        if name in pairs:
            value = meta["parser"](pairs[name], name)
        else:
            default = meta["default"]
            value = default(resolved) if callable(default) else default
            if value is _REQUIRED:
                raise ConfigError("required key is missing", name)
        if meta["valid"] is not None and value is not None and not meta["valid"][0](value):
            raise ConfigError(f"{meta['valid'][1]}, got {value!r}", name)
        resolved[name] = value
    if resolved["variant"] == "app_noreplay_snip" and resolved["pruner"] != "snip":
        raise ConfigError("app_noreplay_snip requires the snip pruner", "pruner")
    if resolved["model"] == "convnet" and resolved["dataset"] != "idx":
        raise ConfigError("convnet needs (c, h, w) images: only dataset = idx has them", "model")
    return RunConfig(**resolved)


def format_value(v):
    """A config echo value or CSV cell as text: floats (numpy's too) round-trip."""
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, tuple):
        return ",".join(str(i) for i in v)
    return str(v)


def resolved_text(cfg):
    """Canonical echo of the fully-resolved config; parsing it round-trips."""
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if v is None:
            continue
        lines.append(f"{f.name} = {format_value(v)}")
    return "\n".join(lines) + "\n"


def config_hash(cfg):
    return hashlib.sha256(resolved_text(cfg).encode("utf-8")).hexdigest()


def run_id(cfg):
    return config_hash(cfg)[:12]
