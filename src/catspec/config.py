"""Run configuration: strict INI schema, defaults and hashing.

`KEYS` whitelists the keys and holds the legal range of each value; unknown
keys are rejected so a config file cannot silently misspell a knob.  The
SHA-256 of the canonical file text, with the seed override the CLI appends
to it, is stamped into every output artifact.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .escape import OrderParams
from .harness import CHECKS, COHERENT_K_CEILING, coherent_k_max, default_symbol_points
from .model import CatMap, MappingTorusFlow, TimeChange
from .operator import Truncation

DEFAULT_CONFIG = """\
[model]
a11 = 2
a12 = 1
a21 = 1
a22 = 1
c0 = 1.0
c_cos = 0.2
c_sin =

[escape]
u = -8.0
n0 = 0.0
s = 8.0
t_avg = 8.0
aperture = 0.1
radius = 10.0

[escape_alt]
n0 = 0.0

[solver]
k_max = 6
p_max = 2
j_max = 24
j_buffer = 0
flux_penalty = 1.6
edge_guard = 6
residual_tol = 1e-10
cluster_radius = 1e-7

[campaign]
checks = escape,upper_half,symmetry,intrinsic,weyl,ims,garding,coherent,counting,disk
e = 1.0
beta = 1.0
disk_b = 2.5
alpha_grid = 10,20,40,80,160
floor = -1.0
h = 0.05
seed = 1234
escape_samples = 10000
ims_j_max = 96
ims_band = 2.0,10.0
coherent_h = 0.1,0.05,0.025,0.0125

[output]
out_dir = out
"""


@dataclass
class RunConfig:
    """A parsed configuration; `parse_config` fills every field."""

    escape: OrderParams
    escape_alt: OrderParams          # [escape] with the n0 of [escape_alt]
    truncation: Truncation
    checks: list
    E: float
    beta: float
    disk_b: float
    alpha_grid: list
    floor: float
    h: float
    seed: int
    escape_samples: int
    ims_j_max: int
    ims_band: list
    coherent_h_list: list
    residual_tol: float
    cluster_radius: float
    out_dir: str
    model: MappingTorusFlow
    text: str

    def flow(self) -> MappingTorusFlow:
        """The flow of the [model] section, built once by parse_config."""
        return self.model

    def sha(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def _float(raw):
    """A finite float: nan and inf would pass every comparison gate vacuously."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


def _floats(raw):
    return [_float(v) for v in raw.split(",")] if raw.strip() else []


_POSITIVE = (lambda v: v > 0), "positive"
_NON_NEGATIVE = (lambda v: v >= 0), "non-negative"
_POSITIVE_ENTRIES = (lambda v: all(x > 0 for x in v)), "a list of positive entries"

#: (section, key) -> (reader, rule, what the rule asks for), one row per key of
#: DEFAULT_CONFIG.  A rule of None leaves the value to the constructor that takes
#: it: CatMap, TimeChange and OrderParams check their own arguments, since library
#: callers build them directly.  The rules that tie two keys follow in parse_config.
KEYS = {
    **{("model", key): (int, None, None) for key in ("a11", "a12", "a21", "a22")},
    ("model", "c0"): (_float, None, None),
    **{("model", key): (_floats, None, None) for key in ("c_cos", "c_sin")},
    **{("escape", key): (_float, None, None)
       for key in ("u", "n0", "s", "t_avg", "aperture", "radius")},
    ("escape_alt", "n0"): (_float, None, None),
    ("solver", "k_max"): (int, *_POSITIVE),
    ("solver", "p_max"): (int, (lambda v: v >= 2), "at least 2"),
    **{("solver", key): (int, *_NON_NEGATIVE) for key in ("j_max", "j_buffer", "edge_guard")},
    **{("solver", key): (_float, *_POSITIVE)
       for key in ("flux_penalty", "residual_tol", "cluster_radius")},
    ("campaign", "checks"): (lambda raw: [name.strip() for name in raw.split(",") if name.strip()],
                             lambda v: bool(v) and set(v) <= set(CHECKS),
                             f"a nonempty list of {', '.join(CHECKS)}"),
    ("campaign", "e"): (_float, (lambda v: v != 0), "nonzero: E = 0 is the excluded counting box"),
    **{("campaign", key): (_float, *_POSITIVE) for key in ("beta", "h")},
    **{("campaign", key): (_float, None, None) for key in ("disk_b", "floor")},
    **{("campaign", key): (_floats, *_POSITIVE_ENTRIES) for key in ("alpha_grid", "coherent_h")},
    **{("campaign", key): (int, *_NON_NEGATIVE) for key in ("seed", "ims_j_max")},
    ("campaign", "escape_samples"): (int, *_POSITIVE),
    ("campaign", "ims_band"): (_floats, (lambda v: len(v) == 2 and v[0] < v[1]),
                               "'lo,hi' with lo < hi"),
    ("output", "out_dir"): (str, None, None),
}


def read_value(section, key, raw):
    """The value of ``raw`` for ``key`` of ``section``, read and checked by its KEYS row."""
    reader, rule, what = KEYS[section, key]
    try:
        value = reader(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid config value for {key} in [{section}]: {exc}") from exc
    if rule is not None and not rule(value):
        raise ConfigError(f"{key} must be {what}, got {raw.strip()!r}")
    return value


def parse_config(text: str) -> RunConfig:
    # no interpolation: a '%' in a value is a character, not a syntax error
    merged = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    merged.read_string(DEFAULT_CONFIG)
    try:
        merged.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    sections = {section for section, _ in KEYS}
    for section in merged.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key in merged[section]:
            if (section, key) not in KEYS:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    values = {name: {key: read_value(name, key, raw) for key, raw in merged[name].items()}
              for name in merged.sections()}
    m, sv, cp = values["model"], values["solver"], values["campaign"]
    try:
        model = MappingTorusFlow(
            cat=CatMap(m["a11"], m["a12"], m["a21"], m["a22"]),
            time_change=TimeChange(m["c0"], m["c_cos"], m["c_sin"]))
        escape = OrderParams(**values["escape"])
        escape_alt = replace(escape, **values["escape_alt"])
    except (ValueError, OverflowError) as exc:     # OverflowError: an entry past int64
        raise ConfigError(f"invalid config value: {exc}") from exc
    tolerances = {key: sv.pop(key) for key in ("residual_tol", "cluster_radius")}
    trunc = Truncation(**sv)
    # the other [campaign] keys are RunConfig fields of the same name
    cfg = RunConfig(escape=escape, escape_alt=escape_alt, truncation=trunc, E=cp.pop("e"),
                    coherent_h_list=cp.pop("coherent_h"), **tolerances, **cp,
                    out_dir=values["output"]["out_dir"], model=model, text=text)

    if trunc.edge_guard > trunc.j_max:      # the orbit window keeps |j| <= j_max - edge_guard
        raise ConfigError(f"edge_guard must lie in [0, j_max = {trunc.j_max}]")
    points = default_symbol_points(model)
    for h in cfg.coherent_h_list:
        try:        # a cutoff that overflows on the way is over the ceiling too
            with np.errstate(over="raise"):
                if coherent_k_max(points, h) <= COHERENT_K_CEILING:
                    continue
        except (FloatingPointError, OverflowError):
            pass
        raise ConfigError(f"coherent_h = {h:g} needs a frequency cutoff above "
                          f"{COHERENT_K_CEILING}; use a larger coherent_h")
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
