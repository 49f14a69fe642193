"""Run configuration: a flat ``key = value`` text format, strictly validated.

Unknown keys, keys that do not apply to the chosen variant/model/dataset, and
out-of-range values are all rejected with the offending field named. Parsing
resolves every default, and :func:`resolved_text` echoes the complete
configuration in canonical order so that a run is reproducible from its echo
alone; the echo's sha256 is the config hash.
"""

import hashlib
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
        return float(s)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {s!r}", key) from None


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


def _from_seed(r):
    return r["seed"]


def _default_test_per_class(r):
    per_class = r["blob_per_class"] if r["dataset"] == "synthetic_blobs" else r["spiral_per_class"]
    return max(1, per_class // 5)


def _key(parser, default=_REQUIRED, applies=None):
    """Declare a config key: its parser, default and applicability.

    A callable default resolves against the partially-resolved config (the
    keys declared before it); ``applies`` None means "always".
    """
    return field(metadata={"parser": parser, "default": default, "applies": applies})


@dataclass
class RunConfig:
    """A resolved config; field order is the echo order, so the hash depends on it."""

    variant: str = _key(_parse_str)
    pruner: str | None = _key(
        _parse_str, lambda r: "snip" if r["variant"] == "app_noreplay_snip" else _REQUIRED, _is_pruned
    )
    tau: float | None = _key(_parse_float, applies=_is_pruned)
    megabatches: int = _key(_parse_int)
    replay: str = _key(_parse_str, "full")
    epochs: int = _key(_parse_int, 30)
    warmup_epochs: int = _key(_parse_int, 20)
    lr_mode: str = _key(_parse_str, "multistep_m1_only")
    lr0: float = _key(_parse_float, 0.1)
    lr_gamma: float = _key(_parse_float, 0.1)
    post_m1_lr: float = _key(_parse_float, 0.001)
    momentum: float = _key(_parse_float, 0.9)
    weight_decay: float = _key(_parse_float, 0.0)
    minibatch: int = _key(_parse_int, 32)
    pi_fraction: float | None = _key(_parse_float, 0.2, _is_pruned)
    val_fraction: float = _key(_parse_float, 0.1)
    model: str = _key(_parse_str, "mlp")
    mlp_hidden: tuple | None = _key(_parse_int_list, (256, 128), _when("model", "mlp"))
    conv_channels: tuple | None = _key(_parse_int_list, (8, 16), _when("model", "convnet"))
    conv_kernel: int | None = _key(_parse_int, 3, _when("model", "convnet"))
    conv_stride: int | None = _key(_parse_int, 1, _when("model", "convnet"))
    conv_padding: int | None = _key(_parse_int, 1, _when("model", "convnet"))
    head_hidden: tuple | None = _key(_parse_int_list, (), _when("model", "convnet"))
    dataset: str = _key(_parse_str)
    per_class_cap: int | None = _key(_parse_int, None)
    idx_train_images: str | None = _key(_parse_str, applies=_when("dataset", "idx"))
    idx_train_labels: str | None = _key(_parse_str, applies=_when("dataset", "idx"))
    idx_test_images: str | None = _key(_parse_str, applies=_when("dataset", "idx"))
    idx_test_labels: str | None = _key(_parse_str, applies=_when("dataset", "idx"))
    csv_path: str | None = _key(_parse_str, applies=_when("dataset", "csv"))
    csv_label_column: str | None = _key(_parse_str, applies=_when("dataset", "csv"))
    test_fraction: float | None = _key(_parse_float, 0.2, _when("dataset", "csv"))
    blob_classes: int | None = _key(_parse_int, 5, _when("dataset", "synthetic_blobs"))
    blob_per_class: int | None = _key(_parse_int, 200, _when("dataset", "synthetic_blobs"))
    blob_dim: int | None = _key(_parse_int, 16, _when("dataset", "synthetic_blobs"))
    blob_noise: float | None = _key(_parse_float, 0.5, _when("dataset", "synthetic_blobs"))
    spiral_classes: int | None = _key(_parse_int, 3, _when("dataset", "synthetic_spirals"))
    spiral_per_class: int | None = _key(_parse_int, 200, _when("dataset", "synthetic_spirals"))
    spiral_noise: float | None = _key(_parse_float, 0.1, _when("dataset", "synthetic_spirals"))
    test_per_class: int | None = _key(
        _parse_int, _default_test_per_class, _when("dataset", "synthetic_blobs", "synthetic_spirals")
    )
    seed: int = _key(_parse_int, 0)
    seed_partition: int = _key(_parse_int, _from_seed)
    seed_init: int = _key(_parse_int, _from_seed)
    seed_pruning: int = _key(_parse_int, _from_seed)
    seed_shuffle: int = _key(_parse_int, _from_seed)


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


def _validate(cfg):
    def check(cond, field, message):
        if not cond:
            raise ConfigError(message, field)

    for key in ("seed", "seed_partition", "seed_init", "seed_pruning", "seed_shuffle"):
        value = getattr(cfg, key)
        check(value >= 0, key, f"must be >= 0, got {value}")
    check(cfg.replay in REPLAY_MODES, "replay", f"must be one of {REPLAY_MODES}")
    check(cfg.lr_mode in LR_MODES, "lr_mode", f"must be one of {LR_MODES}")
    if cfg.variant != "baseline":
        check(cfg.pruner in PRUNERS, "pruner", f"must be one of {PRUNERS}, got {cfg.pruner!r}")
        check(cfg.tau >= 1.0, "tau", f"must be >= 1, got {cfg.tau}")
        check(0.0 < cfg.pi_fraction <= 1.0, "pi_fraction", "must be in (0, 1]")
        if cfg.variant == "app_noreplay_snip":
            check(cfg.pruner == "snip", "pruner", "app_noreplay_snip requires the snip pruner")
    check(cfg.megabatches >= 1, "megabatches", "must be >= 1")
    check(cfg.epochs >= 1, "epochs", "must be >= 1")
    check(cfg.warmup_epochs >= 1, "warmup_epochs", "must be >= 1")
    check(cfg.minibatch >= 1, "minibatch", "must be >= 1")
    check(0.0 < cfg.val_fraction < 1.0, "val_fraction", "must be in (0, 1)")
    check(cfg.lr0 > 0.0, "lr0", "must be positive")
    check(cfg.lr_gamma > 0.0, "lr_gamma", "must be positive")
    check(cfg.post_m1_lr > 0.0, "post_m1_lr", "must be positive")
    check(0.0 <= cfg.momentum < 1.0, "momentum", "must be in [0, 1)")
    check(cfg.weight_decay >= 0.0, "weight_decay", "must be >= 0")
    for key in ("mlp_hidden", "conv_channels", "head_hidden"):
        sizes = getattr(cfg, key)
        if sizes is not None:
            check(all(v >= 1 for v in sizes), key, f"every entry must be >= 1, got {sizes}")
    if cfg.model == "convnet":
        check(len(cfg.conv_channels) >= 1, "conv_channels", "needs at least one conv layer")
        check(cfg.conv_kernel >= 1, "conv_kernel", "must be >= 1")
        check(cfg.conv_stride >= 1, "conv_stride", "must be >= 1")
        check(cfg.conv_padding >= 0, "conv_padding", "must be >= 0")
    if cfg.per_class_cap is not None:
        check(cfg.per_class_cap >= 1, "per_class_cap", "must be >= 1")
    if cfg.dataset == "csv":
        check(0.0 < cfg.test_fraction < 1.0, "test_fraction", "must be in (0, 1)")
    if cfg.dataset == "synthetic_blobs":
        check(cfg.blob_classes >= 2, "blob_classes", "must be >= 2")
        check(cfg.blob_per_class >= 1, "blob_per_class", "must be >= 1")
        check(cfg.blob_dim >= 1, "blob_dim", "must be >= 1")
        check(cfg.blob_noise >= 0.0, "blob_noise", "must be >= 0")
    if cfg.dataset == "synthetic_spirals":
        check(cfg.spiral_classes >= 2, "spiral_classes", "must be >= 2")
        check(cfg.spiral_per_class >= 1, "spiral_per_class", "must be >= 1")
        check(cfg.spiral_noise >= 0.0, "spiral_noise", "must be >= 0")
    if cfg.dataset in ("synthetic_blobs", "synthetic_spirals"):
        check(cfg.test_per_class >= 1, "test_per_class", "must be >= 1")


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

    # these three steer which other keys apply, so reject bad values up front
    for key, allowed in (("variant", VARIANTS), ("model", MODELS), ("dataset", DATASETS)):
        if key in pairs and pairs[key] not in allowed:
            raise ConfigError(f"must be one of {allowed}, got {pairs[key]!r}", key)

    resolved = {}
    for f in fields(RunConfig):
        name, meta = f.name, f.metadata
        applicable = meta["applies"] is None or meta["applies"](resolved)
        if not applicable:
            if name in pairs:
                raise ConfigError(
                    f"not applicable for variant={resolved.get('variant')!r}, "
                    f"model={resolved.get('model')!r}, dataset={resolved.get('dataset')!r}",
                    name,
                )
            resolved[name] = None
            continue
        if name in pairs:
            resolved[name] = meta["parser"](pairs[name], name)
        else:
            default = meta["default"]
            value = default(resolved) if callable(default) else default
            if value is _REQUIRED:
                raise ConfigError("required key is missing", name)
            resolved[name] = value

    cfg = RunConfig(**resolved)
    _validate(cfg)
    return cfg


def _format_value(v):
    if isinstance(v, float):
        return repr(v)
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
        lines.append(f"{f.name} = {_format_value(v)}")
    return "\n".join(lines) + "\n"


def config_hash(cfg):
    return hashlib.sha256(resolved_text(cfg).encode("utf-8")).hexdigest()


def run_id(cfg):
    return config_hash(cfg)[:12]
