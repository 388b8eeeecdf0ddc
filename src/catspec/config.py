"""Run configuration: strict INI schema, defaults and hashing.

Sections and keys are whitelisted; unknown keys are rejected so a config
file cannot silently misspell a knob.  The SHA-256 of the canonical file
text is stamped into every output artifact.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .errors import ConfigError, TruncationTooSmall
from .escape import OrderParams
from .harness import CHECKS
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

_SCHEMA = {
    "model": {"a11", "a12", "a21", "a22", "c0", "c_cos", "c_sin"},
    "escape": {"u", "n0", "s", "t_avg", "aperture", "radius", "symmetric"},
    "escape_alt": {"u", "n0", "s", "t_avg", "aperture", "radius", "symmetric"},
    "solver": {"k_max", "p_max", "j_max", "j_buffer", "flux_penalty",
               "edge_guard", "residual_tol", "cluster_radius"},
    "campaign": {"checks", "e", "beta", "disk_b", "alpha_grid", "floor", "h",
                 "seed", "escape_samples", "ims_j_max", "ims_band",
                 "coherent_h"},
    "output": {"out_dir"},
}


@dataclass
class RunConfig:
    escape: OrderParams
    escape_alt: OrderParams
    truncation: Truncation
    checks: list
    E: float = 1.0
    beta: float = 1.0
    disk_b: float = 2.5
    alpha_grid: list = field(default_factory=lambda: [10.0, 20.0, 40.0, 80.0, 160.0])
    floor: float = -1.0
    h: float = 0.05
    seed: int = 1234
    escape_samples: int = 10000
    ims_j_max: int = 96
    ims_band: tuple = (2.0, 10.0)
    coherent_h_list: list = field(default_factory=lambda: [0.1, 0.05, 0.025, 0.0125])
    residual_tol: float = 1e-10
    cluster_radius: float = 1e-7
    out_dir: str = "out"
    model_ints: tuple = (2, 1, 1, 1)
    c0: float = 1.0
    c_cos: tuple = (0.2,)
    c_sin: tuple = ()
    text: str = ""

    def flow(self) -> MappingTorusFlow:
        cat = CatMap(*self.model_ints)
        return MappingTorusFlow(cat=cat,
                                time_change=TimeChange(self.c0, self.c_cos,
                                                       self.c_sin))

    def sha(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def _floats(raw):
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(float(v) for v in raw.split(","))


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
        model_ints = tuple(int(m[k]) for k in ("a11", "a12", "a21", "a22"))
        c0 = float(m["c0"])
        c_cos = _floats(m["c_cos"])
        c_sin = _floats(m["c_sin"])

        def order(section):
            s = merged[section]
            return OrderParams(
                u=float(s["u"]), n0=float(s["n0"]), s=float(s["s"]),
                t_avg=float(s["t_avg"]), aperture=float(s["aperture"]),
                radius=float(s.get("radius", "10.0")),
                symmetric=s.get("symmetric", "true").lower() in ("1", "true", "yes"))

        sv = merged["solver"]
        trunc = Truncation(
            k_max=int(sv["k_max"]), p_max=int(sv["p_max"]),
            j_max=int(sv["j_max"]), j_buffer=int(sv["j_buffer"]),
            flux_penalty=float(sv["flux_penalty"]),
            edge_guard=int(sv["edge_guard"]))
        residual_tol = float(sv["residual_tol"])
        cluster_radius = float(sv["cluster_radius"])
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
            E=float(cp["e"]), beta=float(cp["beta"]),
            disk_b=float(cp["disk_b"]),
            alpha_grid=list(_floats(cp["alpha_grid"])),
            floor=float(cp["floor"]), h=float(cp["h"]),
            seed=int(cp["seed"]), escape_samples=int(cp["escape_samples"]),
            ims_j_max=int(cp["ims_j_max"]), ims_band=(band[0], band[1]),
            coherent_h_list=list(_floats(cp["coherent_h"])),
            residual_tol=residual_tol, cluster_radius=cluster_radius,
            out_dir=merged["output"]["out_dir"],
            model_ints=model_ints, c0=c0, c_cos=c_cos, c_sin=c_sin,
            text=text)
        cfg.flow()                  # CatMap and TimeChange reject a bad model
    except ConfigError:
        raise
    except (KeyError, ValueError, TruncationTooSmall) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if cfg.beta <= 0 or cfg.h <= 0:
        raise ConfigError("beta and h must be positive")
    if cfg.escape_samples < 1:
        raise ConfigError("escape_samples must be at least 1")
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
