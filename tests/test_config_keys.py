"""Every config key moves an output: one sweep over the config schema.

Each key gets a moving value and one or more named check payload fields.
The sweep runs a small campaign once with every check, then the named
checks alone with the key moved, and each field must change.  A
threshold key gets a value across its threshold; a cat-matrix entry
moves with a partner so that the determinant stays 1.
"""

import configparser
import time
from dataclasses import replace

from catspec import config
from catspec import harness as hs

#: the small campaign of the sweep, on top of DEFAULT_CONFIG
SMALL = {"solver": {"k_max": "3"},
         "campaign": {"coherent_h": "0.14,0.1", "escape_samples": "1000"}}

#: (section, key) -> (the moved values of that section, [(check, payload field)])
MOVES = {
    ("model", "a11"): ({"a11": "3", "a12": "2"}, [("upper_half", "total_multiplicity")]),
    ("model", "a12"): ({"a12": "3", "a22": "2"}, [("upper_half", "total_multiplicity")]),
    ("model", "a21"): ({"a21": "3", "a22": "2"}, [("upper_half", "total_multiplicity")]),
    ("model", "a22"): ({"a22": "3", "a12": "5"}, [("upper_half", "total_multiplicity")]),
    ("model", "c0"): ({"c0": "1.2"}, [("counting", "table")]),
    ("model", "c_cos"): ({"c_cos": "0.3"}, [("disk", "n_in_box")]),
    ("model", "c_sin"): ({"c_sin": "0.1"}, [("upper_half", "max_im")]),
    ("escape", "u"): ({"u": "-6"}, [("escape", "decay_bound")]),
    ("escape", "n0"): ({"n0": "1"}, [("escape", "doubling_ratio")]),
    ("escape", "s"): ({"s": "6"}, [("escape", "decay_bound")]),
    ("escape", "t_avg"): ({"t_avg": "6"}, [("escape", "c_measured")]),
    ("escape", "aperture"): ({"aperture": "0.12"}, [("escape", "c_measured")]),
    ("escape", "radius"): ({"radius": "20"}, [("escape", "c_measured")]),
    ("escape_alt", "n0"): ({"n0": "0.5"}, [("intrinsic", "cross_distance")]),
    ("solver", "k_max"): ({"k_max": "4"}, [("upper_half", "total_multiplicity")]),
    ("solver", "p_max"): ({"p_max": "3"}, [("upper_half", "total_multiplicity")]),
    ("solver", "j_max"): ({"j_max": "30"}, [("upper_half", "entries")]),
    ("solver", "j_buffer"): ({"j_buffer": "1"}, [("upper_half", "entries"),
                                                 ("coherent", "errors")]),
    ("solver", "flux_penalty"): ({"flux_penalty": "0.5"}, [("counting", "table"),
                                                         ("coherent", "errors")]),
    ("solver", "edge_guard"): ({"edge_guard": "2"}, [("upper_half", "entries")]),
    ("solver", "residual_tol"): ({"residual_tol": "1e-15"}, [("upper_half", "entries")]),
    ("solver", "cluster_radius"): ({"cluster_radius": "2"}, [("upper_half", "entries")]),
    ("campaign", "e"): ({"e": "1.5"}, [("counting", "table")]),
    ("campaign", "beta"): ({"beta": "2"}, [("counting", "table")]),
    ("campaign", "disk_b"): ({"disk_b": "3"}, [("disk", "radius")]),
    ("campaign", "alpha_grid"): ({"alpha_grid": "10,20"}, [("counting", "table")]),
    ("campaign", "floor"): ({"floor": "-3"}, [("intrinsic", "cross_pairs")]),
    ("campaign", "h"): ({"h": "0.04"}, [("garding", "sweep")]),
    ("campaign", "seed"): ({"seed": "7"}, [("escape", "c_measured")]),
    ("campaign", "escape_samples"): ({"escape_samples": "500"}, [("escape", "c_measured")]),
    ("campaign", "ims_j_max"): ({"ims_j_max": "64"}, [("ims", "residuals")]),
    ("campaign", "ims_band"): ({"ims_band": "2,8"}, [("ims", "residuals")]),
    ("campaign", "coherent_h"): ({"coherent_h": "0.14,0.12"}, [("coherent", "errors")]),
}


def _ini(section=None, values=(), checks=()):
    """The INI text of SMALL with ``values`` set in ``section`` and, given
    ``checks``, only those checks enabled."""
    sections = {name: dict(keys) for name, keys in SMALL.items()}
    if section:
        sections.setdefault(section, {}).update(values)
    if checks:
        sections["campaign"]["checks"] = ",".join(checks)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def dead_keys():
    """The keys whose moving value leaves a named field unchanged, or makes
    its check raise, each with that check and field."""
    base = hs.run_campaign(config.parse_config(_ini()))["checks"]
    dead = []
    for (section, key), (values, fields) in MOVES.items():
        checks = [check for check, _ in fields]
        moved = hs.run_campaign(config.parse_config(_ini(section, values, checks)))["checks"]
        for check, name in fields:
            if name not in moved[check] or moved[check][name] == base[check][name]:
                dead.append(f"[{section}] {key}: {check}.{name}")
    return dead


def test_every_schema_key_has_a_moving_value():
    assert set(MOVES) == set(config.KEYS) - {("campaign", "checks"), ("output", "out_dir")}


def test_key_table_is_the_default_config():
    # one row per key of DEFAULT_CONFIG, and every default passes its rule
    defaults = configparser.ConfigParser(interpolation=None)
    defaults.read_string(config.DEFAULT_CONFIG)
    assert set(config.KEYS) == {(section, key) for section in defaults.sections()
                                for key in defaults[section]}
    for (section, key), (reader, rule, _) in config.KEYS.items():
        assert rule is None or rule(reader(defaults[section][key])), (section, key)


def test_every_key_moves_its_output():
    t0 = time.perf_counter()
    assert dead_keys() == []
    assert time.perf_counter() - t0 < 20.0


def test_sweep_names_a_key_the_parser_ignores(monkeypatch):
    # negative control: a parser that drops [campaign] escape_samples
    parse = config.parse_config
    default = parse("").escape_samples
    monkeypatch.setattr(config, "parse_config",
                        lambda text: replace(parse(text), escape_samples=default))
    assert dead_keys() == ["[campaign] escape_samples: escape.c_measured"]
