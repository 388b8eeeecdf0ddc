"""Run configuration: strict INI schema, defaults and hashing.

Sections and keys are whitelisted; unknown keys are rejected so a config
file cannot silently misspell a knob.  The SHA-256 of the canonical file
text, with the seed override the CLI appends to it, is stamped into every
output artifact.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TruncationTooSmall
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
symmetric = true

[escape_alt]
u = -6.0
n0 = 0.0
s = 12.0
t_avg = 10.0
aperture = 0.08

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


def _schema():
    """Allowed keys per section: those of DEFAULT_CONFIG, with [escape_alt]
    taking the keys of [escape]."""
    defaults = configparser.ConfigParser()
    defaults.read_string(DEFAULT_CONFIG)
    schema = {section: set(defaults[section]) for section in defaults.sections()}
    schema["escape_alt"] = schema["escape"]
    return schema


_SCHEMA = _schema()


@dataclass
class RunConfig:
    """A parsed configuration; `parse_config` fills every field."""

    escape: OrderParams
    escape_alt: OrderParams
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
    ims_band: tuple
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
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_float(v) for v in raw.split(","))


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    merged = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    merged.read_string(DEFAULT_CONFIG)
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            merged.set(section, key, value)

    try:
        m = merged["model"]
        # CatMap and TimeChange reject a bad model
        model = MappingTorusFlow(
            cat=CatMap(*(int(m[k]) for k in ("a11", "a12", "a21", "a22"))),
            time_change=TimeChange(_float(m["c0"]), _floats(m["c_cos"]),
                                   _floats(m["c_sin"])))

        def order(section):
            s = merged[section]
            return OrderParams(
                u=_float(s["u"]), n0=_float(s["n0"]), s=_float(s["s"]),
                t_avg=_float(s["t_avg"]), aperture=_float(s["aperture"]),
                radius=_float(s.get("radius", "10.0")),
                symmetric=s.get("symmetric", "true").lower() in ("1", "true", "yes"))

        sv = merged["solver"]
        trunc = Truncation(
            k_max=int(sv["k_max"]), p_max=int(sv["p_max"]),
            j_max=int(sv["j_max"]), j_buffer=int(sv["j_buffer"]),
            flux_penalty=_float(sv["flux_penalty"]),
            edge_guard=int(sv["edge_guard"]))
        residual_tol = _float(sv["residual_tol"])
        cluster_radius = _float(sv["cluster_radius"])
        if residual_tol <= 0 or cluster_radius <= 0:
            raise ConfigError("tolerances must be positive")

        cp = merged["campaign"]
        checks = [c.strip() for c in cp["checks"].split(",") if c.strip()]
        if not checks:
            raise ConfigError("no checks enabled")
        bad = set(checks) - set(CHECKS)
        if bad:
            raise ConfigError(f"unknown checks: {sorted(bad)}")
        band = _floats(cp["ims_band"])
        if len(band) != 2 or band[0] >= band[1]:
            raise ConfigError("ims_band must be 'lo,hi' with lo < hi")

        cfg = RunConfig(
            escape=order("escape"), escape_alt=order("escape_alt"),
            truncation=trunc, checks=checks,
            E=_float(cp["e"]), beta=_float(cp["beta"]),
            disk_b=_float(cp["disk_b"]),
            alpha_grid=list(_floats(cp["alpha_grid"])),
            floor=_float(cp["floor"]), h=_float(cp["h"]),
            seed=int(cp["seed"]), escape_samples=int(cp["escape_samples"]),
            ims_j_max=int(cp["ims_j_max"]), ims_band=(band[0], band[1]),
            coherent_h_list=list(_floats(cp["coherent_h"])),
            residual_tol=residual_tol, cluster_radius=cluster_radius,
            out_dir=merged["output"]["out_dir"],
            model=model, text=text)
    except ConfigError:
        raise
    except (KeyError, ValueError, TruncationTooSmall) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if cfg.beta <= 0 or cfg.h <= 0:
        raise ConfigError("beta and h must be positive")
    if any(a <= 0 for a in cfg.alpha_grid):
        raise ConfigError("alpha_grid entries must be positive")
    if any(h <= 0 for h in cfg.coherent_h_list):
        raise ConfigError("coherent_h entries must be positive")
    points = default_symbol_points(model)
    for h in cfg.coherent_h_list:
        # a cutoff that overflows on the way is over the ceiling too
        try:
            with np.errstate(over="raise"):
                fine = coherent_k_max(points, h) <= COHERENT_K_CEILING
        except (FloatingPointError, OverflowError):
            fine = False
        if not fine:
            raise ConfigError(
                f"coherent_h = {h:g} needs a frequency cutoff above {COHERENT_K_CEILING}; "
                "use a larger coherent_h")
    if cfg.escape_samples < 1:
        raise ConfigError("escape_samples must be at least 1")
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
