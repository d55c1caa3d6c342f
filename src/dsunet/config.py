"""Profiles, model/run configuration, and the plain-text config format."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

from .tensor import ConfigError, ShapeError


@dataclass(frozen=True)
class Profile:
    """Feature geometry of one model size."""

    name: str
    main_size: int          # square input edge for the pyramid encoder
    aux_size: int           # square input edge for the token encoder
    hiera_channels: tuple[int, int, int, int]
    vit_channels: int
    patch: int = 14

    @property
    def vit_grid(self):
        return self.aux_size // self.patch

    def pyramid_shapes(self):
        """Shapes of every map a feature pyramid may hold: s1..s4 (strides 4,
        8, 16, 32), the token map v, and one ViT tap per level, v_tap1..v_tap4,
        each of v's shape."""
        shapes = {}
        for i, c in enumerate(self.hiera_channels):
            s = self.main_size // 2 ** (i + 2)
            shapes[f"s{i + 1}"] = (c, s, s)
        v = (self.vit_channels, self.vit_grid, self.vit_grid)
        shapes["v"] = v
        shapes.update((f"v_tap{i + 1}", v) for i in range(len(self.hiera_channels)))
        return shapes

    def check(self, arrays, where=""):
        """ShapeError, prefixed by ``where``, unless each named array or Tensor
        (None: missing) has the shape this profile accepts under its name:
        image_main 3 x main_size², image_aux 3 x aux_size², the mask gt
        main_size², and the pyramid maps as :meth:`pyramid_shapes`.  Any other
        name is rejected."""
        accepted = {"image_main": (3, self.main_size, self.main_size),
                    "image_aux": (3, self.aux_size, self.aux_size),
                    "gt": (self.main_size, self.main_size),
                    **self.pyramid_shapes()}
        for name, array in arrays.items():
            if name not in accepted:
                raise ShapeError(f"{where}{name!r} is not an input of profile "
                                 f"{self.name!r}, which takes {', '.join(accepted)}")
            expected = accepted[name]
            if array is None or array.shape != expected:
                got = "missing" if array is None else f"shape {array.shape}"
                raise ShapeError(f"{where}{name} {got}: {name!r} of profile "
                                 f"{self.name!r} is {expected}")


PROFILES = {
    "large": Profile("large", 352, 518, (144, 288, 576, 1152), 1024),
    "toy": Profile("toy", 96, 126, (24, 48, 96, 192), 128),
}

VARIANTS = ("A", "B", "C", "full")


def _require_at_least(key, value, low, strict=False):
    """ConfigError naming ``key`` unless ``value`` is finite and >= ``low``
    (> ``low`` when strict); NaN fails every comparison."""
    if not (low < value < math.inf if strict else low <= value < math.inf):
        raise ConfigError(f"{key} must be {'>' if strict else '>='} {low} and "
                          f"finite, got {value}")


def _require_integer(key, value, low):
    """ConfigError naming ``key`` unless ``value`` is a Python or numpy
    integer (a float fails, even an integral one) and >= ``low``."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    _require_at_least(key, value, low)


def _require_line_value(key, value):
    """ConfigError naming ``key`` unless the text ``value`` reads back unchanged
    from its ``key = value`` line: no ``#`` (a comment starts there), no
    character ``str.splitlines`` splits on, no leading or trailing whitespace."""
    text = str(value)
    if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
        raise ConfigError(f"{key} {text!r} cannot be written to a config line: it "
                          f"may hold no '#', line break, or leading or trailing "
                          f"whitespace")


@dataclass
class ModelConfig:
    profile: str = "toy"
    variant: str = "full"
    seed: int = 0
    # constants, not settings: the adapter bottleneck ratio, the RFB width and
    # the per-level loss weights (d1, d2, d3)
    adapter_ratio: ClassVar[float] = 0.25
    reduced_channels: ClassVar[int] = 64
    loss_weights: ClassVar[tuple[float, float, float]] = (0.25, 0.5, 1.0)

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        _require_integer("model_seed", self.seed, 0)

    @property
    def resolved_profile(self):
        return PROFILES[self.profile]


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    lr: float = 1e-3
    batch: int = 4
    epochs: int = 20
    seed: int = 42
    mode: str = "sod"
    n_train: int = 64
    n_val: int = 16
    data_dir: str = ""
    out_dir: str = "runs/out"
    weight_decay: ClassVar[float] = 5e-4   # AdamW's decoupled decay, a constant

    def __post_init__(self):
        _require_at_least("lr", self.lr, 0, strict=True)
        for name, low in (("seed", 0), ("batch", 1), ("epochs", 1), ("n_train", 0),
                          ("n_val", 0)):
            _require_integer(name, getattr(self, name), low)
        if self.mode not in ("sod", "cod"):
            raise ConfigError(f"unknown data mode {self.mode!r}")
        for name in ("data_dir", "out_dir"):
            _require_line_value(name, getattr(self, name))


# config file key -> ModelConfig field: the model's seed is written model_seed
# (RunConfig has its own seed), every other field under its own name
_MODEL_KEYS = {("model_seed" if f.name == "seed" else f.name): f.name
               for f in fields(ModelConfig)}


def _settings(run):
    """Yield (file key, value) for each field of ModelConfig, then of
    RunConfig, in declaration order: the config file's lines."""
    for key, name in _MODEL_KEYS.items():
        yield key, getattr(run.model, name)
    for f in fields(RunConfig):
        if f.name != "model":
            yield f.name, getattr(run, f.name)


# removed settings -> the one value every run used, typed as the setting was:
# a line that reads as that value is skipped, and any other value is an error
_RETIRED_KEYS = {
    "adapter_ratio": 0.25, "reduced_channels": 64,    # ModelConfig constants
    "loss_w1": 0.25, "loss_w2": 0.5, "loss_w3": 1.0,  # ModelConfig.loss_weights
    "beta2_f": 0.3,                 # the F-measure's beta^2
    "pixel_weighted_loss": "true",  # the loss's boundary weights
    "weight_decay": 5e-4,           # RunConfig.weight_decay
}


def _coerce(raw, typ, key):
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def parse_config_text(text):
    """Parse `key = value` lines (# comments) into a RunConfig: a value takes its
    default's type and is checked as its line is read; an error names the line."""
    run, seen = RunConfig(), {}
    settings = dict(_settings(run))
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            if "=" not in stripped:
                raise ConfigError("expected 'key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key in seen:
                raise ConfigError(f"key {key!r} already set on line {seen[key]}")
            seen[key] = lineno
            if key in _RETIRED_KEYS:
                old = _RETIRED_KEYS[key]
                try:
                    same = _coerce(raw, type(old), key) == old
                except ConfigError:
                    same = False
                if not same:
                    raise ConfigError(f"setting {key!r} was removed; it may only "
                                      f"hold its old value {old}")
                continue
            if key not in settings:
                raise ConfigError(f"unknown key {key!r}")
            value = _coerce(raw, type(settings[key]), key)
            if key in _MODEL_KEYS:  # replace() runs each __post_init__ check
                run = replace(run, model=replace(run.model, **{_MODEL_KEYS[key]: value}))
            else:
                run = replace(run, **{key: value})
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return run


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
    return parse_config_text(text)


def render_config(run):
    """Serialize a RunConfig back to the config-file format, writing each
    value as its field's type (a numpy float64 lr as a Python float)."""
    defaults = dict(_settings(RunConfig()))
    lines = []
    for key, value in _settings(run):
        if type(defaults[key]) is float:
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
