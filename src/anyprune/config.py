"""Run configuration: a flat ``key = value`` text format, strictly validated.

Unknown keys, keys that do not apply to the chosen variant/model/dataset, and
out-of-range values are all rejected with the offending field named. Parsing
resolves every default, and :func:`resolved_text` echoes the complete
configuration in canonical order so that a run is reproducible from its echo
alone; the echo's sha256 is the config hash.
"""

import hashlib
import os
from dataclasses import dataclass, fields

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


@dataclass
class RunConfig:
    variant: str
    pruner: str | None
    tau: float | None
    megabatches: int
    replay: str
    epochs: int
    warmup_epochs: int
    lr_mode: str
    lr0: float
    lr_gamma: float
    post_m1_lr: float
    momentum: float
    weight_decay: float
    minibatch: int
    pi_fraction: float | None
    val_fraction: float
    model: str
    mlp_hidden: tuple | None
    conv_channels: tuple | None
    conv_kernel: int | None
    conv_stride: int | None
    conv_padding: int | None
    head_hidden: tuple | None
    dataset: str
    per_class_cap: int | None
    idx_train_images: str | None
    idx_train_labels: str | None
    idx_test_images: str | None
    idx_test_labels: str | None
    csv_path: str | None
    csv_label_column: str | None
    test_fraction: float | None
    blob_classes: int | None
    blob_per_class: int | None
    blob_dim: int | None
    blob_noise: float | None
    spiral_classes: int | None
    spiral_per_class: int | None
    spiral_noise: float | None
    test_per_class: int | None
    seed: int
    seed_partition: int
    seed_init: int
    seed_pruning: int
    seed_shuffle: int


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
    if isinstance(s, (tuple, list)):
        return tuple(int(v) for v in s)
    s = s.strip()
    if not s:
        return ()
    return tuple(_parse_int(part.strip(), key) for part in s.split(","))


def _parse_str(s, key):
    return str(s)


def _is_pruned(r):
    return r["variant"] != "baseline"


# (name, parser, default, applicability). A callable default resolves against
# the partially-resolved config; None-applicability means "always".
_FIELDS = (
    ("variant", _parse_str, _REQUIRED, None),
    ("pruner", _parse_str, lambda r: "snip" if r["variant"] == "app_noreplay_snip" else _REQUIRED, _is_pruned),
    ("tau", _parse_float, _REQUIRED, _is_pruned),
    ("megabatches", _parse_int, _REQUIRED, None),
    ("replay", _parse_str, "full", None),
    ("epochs", _parse_int, 30, None),
    ("warmup_epochs", _parse_int, 20, None),
    ("lr_mode", _parse_str, "multistep_m1_only", None),
    ("lr0", _parse_float, 0.1, None),
    ("lr_gamma", _parse_float, 0.1, None),
    ("post_m1_lr", _parse_float, 0.001, None),
    ("momentum", _parse_float, 0.9, None),
    ("weight_decay", _parse_float, 0.0, None),
    ("minibatch", _parse_int, 32, None),
    ("pi_fraction", _parse_float, 0.2, _is_pruned),
    ("val_fraction", _parse_float, 0.1, None),
    ("model", _parse_str, "mlp", None),
    ("mlp_hidden", _parse_int_list, (256, 128), lambda r: r["model"] == "mlp"),
    ("conv_channels", _parse_int_list, (8, 16), lambda r: r["model"] == "convnet"),
    ("conv_kernel", _parse_int, 3, lambda r: r["model"] == "convnet"),
    ("conv_stride", _parse_int, 1, lambda r: r["model"] == "convnet"),
    ("conv_padding", _parse_int, 1, lambda r: r["model"] == "convnet"),
    ("head_hidden", _parse_int_list, (), lambda r: r["model"] == "convnet"),
    ("dataset", _parse_str, _REQUIRED, None),
    ("per_class_cap", _parse_int, None, None),
    ("idx_train_images", _parse_str, _REQUIRED, lambda r: r["dataset"] == "idx"),
    ("idx_train_labels", _parse_str, _REQUIRED, lambda r: r["dataset"] == "idx"),
    ("idx_test_images", _parse_str, _REQUIRED, lambda r: r["dataset"] == "idx"),
    ("idx_test_labels", _parse_str, _REQUIRED, lambda r: r["dataset"] == "idx"),
    ("csv_path", _parse_str, _REQUIRED, lambda r: r["dataset"] == "csv"),
    ("csv_label_column", _parse_str, _REQUIRED, lambda r: r["dataset"] == "csv"),
    ("test_fraction", _parse_float, 0.2, lambda r: r["dataset"] == "csv"),
    ("blob_classes", _parse_int, 5, lambda r: r["dataset"] == "synthetic_blobs"),
    ("blob_per_class", _parse_int, 200, lambda r: r["dataset"] == "synthetic_blobs"),
    ("blob_dim", _parse_int, 16, lambda r: r["dataset"] == "synthetic_blobs"),
    ("blob_noise", _parse_float, 0.5, lambda r: r["dataset"] == "synthetic_blobs"),
    ("spiral_classes", _parse_int, 3, lambda r: r["dataset"] == "synthetic_spirals"),
    ("spiral_per_class", _parse_int, 200, lambda r: r["dataset"] == "synthetic_spirals"),
    ("spiral_noise", _parse_float, 0.1, lambda r: r["dataset"] == "synthetic_spirals"),
    (
        "test_per_class",
        _parse_int,
        lambda r: max(1, (r.get("blob_per_class") or r.get("spiral_per_class")) // 5),
        lambda r: r["dataset"] in ("synthetic_blobs", "synthetic_spirals"),
    ),
    ("seed", _parse_int, 0, None),
    ("seed_partition", _parse_int, lambda r: r["seed"], None),
    ("seed_init", _parse_int, lambda r: r["seed"], None),
    ("seed_pruning", _parse_int, lambda r: r["seed"], None),
    ("seed_shuffle", _parse_int, lambda r: r["seed"], None),
)

_KNOWN_KEYS = {name for name, _, _, _ in _FIELDS}


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

    check(cfg.variant in VARIANTS, "variant", f"must be one of {VARIANTS}, got {cfg.variant!r}")
    check(cfg.replay in REPLAY_MODES, "replay", f"must be one of {REPLAY_MODES}")
    check(cfg.lr_mode in LR_MODES, "lr_mode", f"must be one of {LR_MODES}")
    check(cfg.model in MODELS, "model", f"must be one of {MODELS}")
    check(cfg.dataset in DATASETS, "dataset", f"must be one of {DATASETS}")
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
    """Parse a config from a file path or raw text into a resolved RunConfig."""
    text = source
    if isinstance(source, (str, os.PathLike)):
        looks_like_text = isinstance(source, str) and ("\n" in source or "=" in source)
        if not looks_like_text or os.path.exists(source):
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
    for name, parser, default, applies in _FIELDS:
        applicable = applies is None or applies(resolved)
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
            resolved[name] = parser(pairs[name], name)
        else:
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
