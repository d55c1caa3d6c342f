"""Profiles, model/run configuration, and the plain-text config format."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

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
    adapter_ratio: float = 0.25
    reduced_channels: int = 64
    loss_weights: tuple[float, float, float] = (0.25, 0.5, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.adapter_ratio <= 1.0:
            raise ConfigError("adapter_ratio must be in (0, 1]")
        _require_integer("reduced_channels", self.reduced_channels, 1)
        if len(self.loss_weights) != 3:
            raise ConfigError("loss_weights must hold one weight per decoder level (3)")
        for key, w in zip(_RENAMED_MODEL_KEYS["loss_weights"], self.loss_weights):
            _require_at_least(key, w, 0)
        _require_integer("model_seed", self.seed, 0)

    @property
    def resolved_profile(self):
        return PROFILES[self.profile]


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    lr: float = 1e-3
    weight_decay: float = 5e-4
    batch: int = 4
    epochs: int = 20
    seed: int = 42
    mode: str = "sod"
    n_train: int = 64
    n_val: int = 16
    data_dir: str = ""
    out_dir: str = "runs/out"

    def __post_init__(self):
        _require_at_least("lr", self.lr, 0, strict=True)
        _require_at_least("weight_decay", self.weight_decay, 0)
        for name, low in (("seed", 0), ("batch", 1), ("epochs", 1), ("n_train", 0),
                          ("n_val", 0)):
            _require_integer(name, getattr(self, name), low)
        if self.mode not in ("sod", "cod"):
            raise ConfigError(f"unknown data mode {self.mode!r}")
        for name in ("data_dir", "out_dir"):
            _require_line_value(name, getattr(self, name))


# the model fields a config file names differently (RunConfig has its own
# seed); every other field is written under its own name
_RENAMED_MODEL_KEYS = {
    "seed": ("model_seed",),
    "loss_weights": ("loss_w1", "loss_w2", "loss_w3"),
}


def _settings(run):
    """Yield (file key, value) for each field of ModelConfig, then of
    RunConfig, in declaration order: the config file's lines."""
    for f in fields(ModelConfig):
        keys = _RENAMED_MODEL_KEYS.get(f.name, (f.name,))
        value = getattr(run.model, f.name)
        yield from zip(keys, value if len(keys) > 1 else (value,))
    for f in fields(RunConfig):
        if f.name != "model":
            yield f.name, getattr(run, f.name)


# removed settings -> the one value every run used, as older files hold it:
# a line with that value is skipped, and any other value is an error
_RETIRED_KEYS = {
    "beta2_f": "0.3",               # the F-measure's beta^2
    "pixel_weighted_loss": "true",  # the loss's boundary weights
}


def _coerce(raw, typ, key):
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def parse_config_text(text):
    """Parse `key = value` lines (# comments) into a RunConfig; each value
    takes its default's type, and a key left out keeps its default."""
    settings, seen = dict(_settings(RunConfig())), {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in _RETIRED_KEYS:
            if raw != _RETIRED_KEYS[key]:
                raise ConfigError(f"line {lineno}: setting {key!r} was removed; it "
                                  f"may only hold its old value {_RETIRED_KEYS[key]}")
            continue
        if key not in settings:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        settings[key] = _coerce(raw, type(settings[key]), key)
    model = {}
    for f in fields(ModelConfig):
        keys = _RENAMED_MODEL_KEYS.get(f.name, (f.name,))
        values = tuple(settings.pop(k) for k in keys)
        model[f.name] = values if len(values) > 1 else values[0]
    return RunConfig(model=ModelConfig(**model), **settings)


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


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
