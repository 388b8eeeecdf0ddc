import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import catspec
from catspec import config, errors
from catspec import harness as hs
from catspec import operator as op
from catspec.cli import main
from catspec.config import DEFAULT_CONFIG, parse_config
from catspec.errors import ConfigError
from catspec.escape import EscapeFunction
from test_config_keys import MOVES


def test_default_config_parses():
    cfg = parse_config(DEFAULT_CONFIG)
    assert cfg.escape.u == -8.0 and cfg.escape.s == 8.0
    assert cfg.truncation.k_max == 6
    assert cfg.alpha_grid == [10.0, 20.0, 40.0, 80.0, 160.0]
    assert cfg.checks[0] == "escape"
    flow = cfg.flow()
    assert flow.cat.lambda_u == pytest.approx((3 + np.sqrt(5)) / 2)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("[model]\nwhatever = 3\n")
    with pytest.raises(ConfigError):
        parse_config("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[campaign]\nchecks = escape,telepathy\n")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("[campaign]\nbeta = -1.0\n")
    with pytest.raises(ConfigError):
        parse_config("[solver]\nresidual_tol = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[campaign]\nims_band = 5.0,1.0\n")
    with pytest.raises(ConfigError):
        parse_config("[model]\na11 = fish\n")
    with pytest.raises(ConfigError):
        parse_config("[campaign]\nchecks =\n")
    with pytest.raises(ConfigError):
        parse_config("[solver]\nk_max = 0\n")


@pytest.mark.parametrize("section,key", [
    ("campaign", "floor"), ("campaign", "h"), ("campaign", "beta"),
    ("campaign", "e"), ("solver", "flux_penalty"), ("escape", "u"),
    ("campaign", "alpha_grid"), ("model", "c_cos"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_values(section, key, value):
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_config_rejects_non_positive_alpha():
    with pytest.raises(ConfigError, match="alpha_grid"):
        parse_config("[campaign]\nalpha_grid = -1,10\n")
    with pytest.raises(ConfigError, match="alpha_grid"):
        parse_config("[campaign]\nalpha_grid = 0,10\n")


@pytest.mark.parametrize("value", ["0", "-0.1"])
def test_cli_non_positive_coherent_h_is_a_config_error(tmp_path, capsys, value):
    # the coherent check ended with an OverflowError (h = 0) or a
    # ValueError (h < 0) from its frequency cutoff
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[campaign]\nchecks = coherent\ncoherent_h = 0.1,{value}\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfgfile), "--out", str(out), "campaign"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "coherent_h" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e-300", "5e-324", "0.0036"])
def test_cli_too_fine_coherent_h_is_a_config_error(tmp_path, value):
    # at coherent_h = 1e-300 the cutoff is about 3e299 and the campaign
    # never finished enumerating its orbits; at 5e-324 the cutoff overflows
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[campaign]\nchecks = coherent\ncoherent_h = 0.1,{value}\n")
    src = str(Path(catspec.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-m", "catspec.cli", "--config", str(cfgfile),
                           "--out", str(tmp_path / "o"), "campaign"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:") and "coherent_h" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_coherent_h_ceiling_is_on_the_cutoff():
    points = hs.default_symbol_points(parse_config(DEFAULT_CONFIG).flow())
    assert hs.coherent_k_max(points, 0.0125) == 35
    assert hs.coherent_k_max(points, 0.0037) <= hs.COHERENT_K_CEILING
    assert hs.coherent_k_max(points, 0.0036) > hs.COHERENT_K_CEILING
    assert parse_config("[campaign]\ncoherent_h = 0.1,0.0037\n").coherent_h_list == [0.1, 0.0037]


def test_smallest_coherent_h_of_the_readme(tmp_path, capsys):
    # 0.0037 has coherent_k_max 100, the ceiling, and parses; 0.00366 needs
    # 101 and ends as a config error, not as a campaign
    assert parse_config("[campaign]\ncoherent_h = 0.0037\n").coherent_h_list == [0.0037]
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[campaign]\nchecks = coherent\ncoherent_h = 0.1,0.00366\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfgfile), "--out", str(out), "campaign"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: coherent_h = 0.00366 needs") and not out.exists()


def test_cli_non_finite_floor_is_a_config_error(tmp_path, capsys):
    # at floor = nan the intrinsic check compared no entries and passed
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[campaign]\nchecks = intrinsic\nfloor = nan\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfgfile), "--out", str(out), "campaign"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_config_hash_changes_with_text():
    a = parse_config(DEFAULT_CONFIG)
    b = parse_config(DEFAULT_CONFIG + "\n# trailing comment\n")
    assert a.sha() != b.sha()


def test_cli_seed_override_changes_the_config_sha(tmp_path, monkeypatch):
    # the header's SHA tells seeds apart, whether --seed or CATSPEC_SEED
    # sets them; without an override, or with the config's own seed, it
    # stays the SHA of the config text
    cfgfile = tmp_path / "fast.ini"
    text = "[campaign]\nescape_samples = 200\n"
    cfgfile.write_text(text)

    def header(*flags):
        out = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
        assert main(["--config", str(cfgfile), "--out", str(out), *flags,
                     "verify-escape"]) == 0
        return (out / "escape.csv").read_text().splitlines()[0]

    plain = header()
    assert plain == f"# config_sha256={parse_config(text).sha()}"
    assert header("--seed", "1234") == plain
    seven = header("--seed", "7")
    assert seven != plain and header("--seed", "8") not in (plain, seven)
    monkeypatch.setenv("CATSPEC_SEED", "7")
    assert header() == seven
    # the default config's SHA, in every default output header
    assert parse_config(DEFAULT_CONFIG).sha() == (
        "61ff078ebe153f05c2a691724c360d93f2a0d28bcc981248fcee6d6f269ef7d8")


def test_cli_model_info(capsys):
    assert main(["model-info"]) == 0
    out = capsys.readouterr().out
    assert "lambda_u          2.61803398874989" in out
    assert "return time" in out


@pytest.mark.parametrize("command", ["model-info", "spectrum", "verify-escape"])
@pytest.mark.parametrize("text", [
    "[solver]\nnope = 1\n",
    "[model]\na11 = 1\na12 = 0\na21 = 0\na22 = 1\n",   # not hyperbolic
    "[model]\nc0 = 0.1\nc_cos = 0.5\n",                # c(tau) < 0 somewhere
    "[solver]\nflux_penalty = -1\n",
    "[campaign]\nescape_samples = 0\n",
    "[solver]\nk_max = 2\nj_max = -1\n",
    "[solver]\np_max = 1\n",
    "[campaign]\nseed = -3\n",
    "[campaign]\nims_j_max = -1\n",
    "[campaign]\ne = 0\n",                         # the excluded counting box
    "[solver]\nk_max = 3\nedge_guard = 40\n",       # the orbit window would be empty
    "[solver]\nk_max = 3\nedge_guard = -3\n",       # it would hold the edge artefacts
    "[solver]\nj_buffer = -5\n",                    # not "automatic", which is 0
    "[escape]\nsymmetric = false\n",                # a flag that would move no output
    "[escape_alt]\nu = -3\n",                       # only n0 of that set reaches a spectrum
    "[solver]\nk_max = 0\n",
    "[solver]\nflux_penalty = 0\n",
    "[campaign]\nalpha_grid = 10,-1\n",
    "[model]\nc0 = 1%\n",                          # a '%' is no interpolation syntax
    "[DEFAULT]\nc0 = 2\n",                         # a key in every section
], ids=["unknown_key", "identity_matrix", "negative_time_change",
        "negative_flux", "no_escape_samples", "negative_j_max", "p_max_1",
        "negative_seed", "negative_ims_j_max", "zero_e", "edge_guard_above_j_max",
        "negative_edge_guard", "negative_j_buffer", "removed_symmetric",
        "removed_escape_alt_u", "zero_k_max", "zero_flux_penalty", "negative_alpha",
        "percent_sign", "default_section"])
def test_cli_bad_config_exit_code(tmp_path, capsys, text, command):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["--config", str(bad), "--out", str(tmp_path / "o"),
                 command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_config_reads_a_percent_sign_literally():
    assert parse_config("[output]\nout_dir = 100%\n").out_dir == "100%"


@pytest.mark.parametrize("entry", ["e = 1e6", "ims_j_max = 1000000", "alpha_grid = 10,1e5"])
def test_cli_campaign_past_the_dense_ceiling_exits_1(tmp_path, capsys, entry):
    # each asked numpy for 28.9 GiB to 280 TiB and ended with a MemoryError
    t0 = time.perf_counter()
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[campaign]\nchecks = counting,ims\n{entry}\n[solver]\nk_max = 3\n")
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "campaign"]) == 1
    assert time.perf_counter() - t0 < 5.0
    checks = json.loads((tmp_path / "o" / "campaign.json").read_text())["checks"]
    assert [payload["error"] for payload in checks.values() if "error" in payload] == [
        f"TruncationTooLarge: a dense block of dimension {n} is above {op.DENSE_DIM_CEILING}"
        for n in {"e": [4385829], "ims_j_max": [2000033], "alpha_grid": [44031]}[entry.split()[0]]]
    assert "Traceback" not in capsys.readouterr().err


def _run_keeping_the_exit_promise(tmp_path, text, command):
    """`command` run on the config `text` in a subprocess, which has ended
    with 0, 1 or 2 within 20 s (2 exactly on a config error) and has
    printed no traceback and no RuntimeWarning."""
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    src = str(Path(catspec.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-m", "catspec.cli", "--config", str(cfgfile),
                           "--out", str(tmp_path / "o"), command],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert (proc.returncode == 2) == proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    return proc


@pytest.mark.parametrize("text", [
    "[model]\nc0 = 5\n",
    "[model]\nc0 = 10\n",
    "[model]\nc0 = 1e6\n",
    "[model]\nc0 = 1e300\n",
    "[escape]\nt_avg = 1e300\n",
    "[solver]\nflux_penalty = 1e300\n",
    "[solver]\nflux_penalty = 1e308\n",            # the neutral block's 2-norm overflows
], ids=["c0_5", "c0_10", "c0_1e6", "c0_1e300", "t_avg_1e300", "flux_penalty_1e300",
        "flux_penalty_1e308"])
def test_cli_large_values_keep_the_exit_promise(tmp_path, text):
    # large values of three keys: model-info and spectrum each end with 0, 1
    # or 2 within 20 s, with no traceback and no RuntimeWarning, and the
    # hyperbolicity fit stays within 5% of its target
    runs = {command: _run_keeping_the_exit_promise(tmp_path, text, command)
            for command in ("model-info", "spectrum")}
    # model-info ends with "hyperbolicity fit c_hyp=... theta=FIT (target TARGET)"
    words = runs["model-info"].stdout.split()
    fit, target = float(words[-3].split("=")[1]), float(words[-1].rstrip(")"))
    assert runs["model-info"].returncode == 0 and abs(fit - target) <= 0.05 * target


@pytest.mark.parametrize("value", ["1e306", "1e308"])
def test_cli_campaign_at_a_huge_flux_penalty_keeps_the_exit_promise(tmp_path, value):
    # the weighted blocks leave the double range: the checks that build them
    # fail (garding by its verdict at 1e306, by WeightOverflow at 1e308)
    # and the campaign exits 1, with no RuntimeWarning on the way
    proc = _run_keeping_the_exit_promise(
        tmp_path, f"[solver]\nk_max = 4\nflux_penalty = {value}\n", "campaign")
    assert proc.returncode == 1
    report = json.loads((tmp_path / "o" / "campaign.json").read_text())
    assert report["verdicts"]["garding"] is False and report["verdicts"]["weyl"] is False


@pytest.mark.parametrize("entry,code", [("e = 0", 2), ("ims_j_max = 0", 1)],
                         ids=["zero_e", "zero_ims_j_max"])
def test_cli_campaign_zero_values_keep_the_exit_promise(tmp_path, entry, code):
    # e = 0 is the excluded counting box, a config error.  At ims_j_max = 0
    # the residual of the smallest h is 0.0: the ims verdict fails, the
    # ratio over it is null, and nothing divides by it
    proc = _run_keeping_the_exit_promise(
        tmp_path, f"[campaign]\nchecks = counting,ims\n{entry}\n[solver]\nk_max = 3\n",
        "campaign")
    assert proc.returncode == code
    if code == 1:
        report = json.loads((tmp_path / "o" / "campaign.json").read_text())
        assert report["verdicts"] == {"counting": True, "ims": False}
        ims = report["checks"]["ims"]
        assert ims["residuals"]["0.0125"] == 0.0 and ims["ratios"][2] is None
        assert all(r > 0.0 for r in ims["ratios"][:2])


#: every key of config.KEYS with four values: the legal value at the edge of
#: its range, the first illegal value past that edge, a large value and a tiny
#: one.  A matrix entry with the others at their defaults is legal only at its
#: default, and j_max only from edge_guard = 6 up; an integer key's tiny value
#: is not an integer.  Without the dense ceiling, the large j_max, j_buffer,
#: e, alpha_grid and ims_j_max ask numpy for up to 280 TiB.  The large k_max,
#: 100, enumerates its orbits in about 0.2 s: how long
#: `operator.enumerate_orbits` takes at a huge k_max is not bounded.  Any
#: out_dir parses; {run} is the case's own directory
KEY_VALUES = {
    ("model", "a11"): ["2", "3", "100000000000000000000", "1"],
    ("model", "a12"): ["1", "2", "100000000000000000000", "0"],
    ("model", "a21"): ["1", "2", "100000000000000000000", "0"],
    ("model", "a22"): ["1", "2", "100000000000000000000", "0"],
    ("model", "c0"): ["0.20000000000000004", "0.2", "1e300", "1e-300"],
    ("model", "c_cos"): ["0.9999999999999999", "1", "1e300", "1e-300"],
    ("model", "c_sin"): ["0.9797959814052203", "0.9797959814052204", "1e300", "1e-300"],
    ("escape", "u"): ["-5e-324", "0", "-1e300", "1e-300"],
    ("escape", "n0"): ["-7.999999999999999", "-8", "7.999999999999999", "1e-300"],
    ("escape", "s"): ["5e-324", "0", "1e300", "1e-300"],
    ("escape", "t_avg"): ["5e-324", "0", "1e300", "1e-300"],
    ("escape", "aperture"): ["1.5e-154", "1.4e-154", "0.7853981633974482", "1e-9"],
    ("escape", "radius"): ["1.0000000000000002", "1", "1e300", "1e-300"],
    ("escape_alt", "n0"): ["-7.999999999999999", "-8", "7.999999999999999", "1e-300"],
    ("solver", "k_max"): ["1", "0", "100", "0.001"],
    ("solver", "p_max"): ["2", "1", "1000", "0.001"],
    ("solver", "j_max"): ["6", "5", "1000000", "0.001"],
    ("solver", "j_buffer"): ["0", "-1", "1000000", "0.001"],
    ("solver", "flux_penalty"): ["5e-324", "0", "1e308", "1e-300"],
    ("solver", "edge_guard"): ["24", "25", "1000000", "0.001"],
    ("solver", "residual_tol"): ["5e-324", "0", "1e308", "1e-300"],
    ("solver", "cluster_radius"): ["5e-324", "0", "1e308", "1e-300"],
    ("campaign", "checks"): ["disk", "", ",".join(hs.CHECKS), "garding, escape"],
    ("campaign", "e"): ["5e-324", "0", "1e6", "1e-300"],
    ("campaign", "beta"): ["5e-324", "0", "1e308", "1e-300"],
    ("campaign", "disk_b"): ["-1.7976931348623157e308", "-inf", "1.7976931348623157e308",
                             "1e-300"],
    ("campaign", "alpha_grid"): ["5e-324", "0", "10,1e5", "10,1e-300"],
    ("campaign", "floor"): ["-1.7976931348623157e308", "-inf", "1.7976931348623157e308",
                            "1e-300"],
    ("campaign", "h"): ["5e-324", "0", "1e308", "1e-300"],
    ("campaign", "seed"): ["0", "-1", "18446744073709551616", "0.001"],
    ("campaign", "escape_samples"): ["1", "0", "40000", "0.001"],
    ("campaign", "ims_j_max"): ["0", "-1", "1000000", "0.001"],
    ("campaign", "ims_band"): ["2,2.0000000000000004", "2,2", "0,1e308", "0,1e-300"],
    ("campaign", "coherent_h"): ["0.0036616507675396753", "0.003661650767539675", "1e300",
                                 "1e-300"],
    ("output", "out_dir"): ["{run}/o", "{run}/c.ini", "{run}/" + "x" * 300, "{run}"],
}


def test_every_key_keeps_the_exit_promise(tmp_path, capsys):
    # campaign in process on each value, at k_max = 3 with the checks that
    # MOVES names for the key (escape for out_dir): exit 0, 1 or 2, 2 exactly
    # on a config error (always on the first illegal value, never on the edge
    # value), no traceback, no RuntimeWarning, and a check that raised names a
    # CatspecError
    assert set(KEY_VALUES) == set(config.KEYS)
    t0 = time.perf_counter()
    for (section, key), values in KEY_VALUES.items():
        checks = [check for check, _ in MOVES.get((section, key), ({}, [("escape", None)]))[1]]
        for k, value in enumerate(values):
            run = tmp_path / f"{section}.{key}{k}"
            run.mkdir()
            sections = {"solver": {"k_max": "3"}, "campaign": {"checks": ",".join(checks)}}
            sections.setdefault(section, {})[key] = value.format(run=run)
            (run / "c.ini").write_text("".join(
                f"[{name}]\n" + "".join(f"{option} = {text}\n" for option, text in keys.items())
                for name, keys in sections.items()))
            out = [] if section == "output" else ["--out", str(run / "o")]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                status = main(["--config", str(run / "c.ini"), *out, "campaign"])
            err = capsys.readouterr().err
            case = f"[{section}] {key} = {value}: {err}"
            assert status in (0, 1, 2), case
            assert (status == 2) == err.startswith("config error:"), case
            if k < 2 and section != "output":   # the edge value parses, the illegal one not
                assert (status == 2) == (k == 1), case
            assert "Traceback" not in err and "RuntimeWarning" not in err, case
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], case
            report = run / "o" / "campaign.json"
            payloads = json.loads(report.read_text())["checks"] if report.exists() else {}
            for payload in payloads.values():
                if "error" in payload:
                    name = payload["error"].split(":")[0]
                    assert issubclass(getattr(errors, name, type(None)), errors.CatspecError), case
    assert time.perf_counter() - t0 < 15.0


def test_cli_campaign_logs_a_failed_shared_build_once(tmp_path, capsys):
    # c0 = 1e6: the escape function every check needs overflows.  It is
    # built once, each of the ten checks fails with the same error payload,
    # and the frames of the failure are on stderr once
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[model]\nc0 = 1e6\n")
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "campaign"]) == 1
    err = capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "campaign.json").read_text())
    assert len(report["verdicts"]) == 10 and not any(report["verdicts"].values())
    errors = {payload["error"] for payload in report["checks"].values()}
    assert len(errors) == 1 and errors.pop().startswith("WeightOverflow:")
    assert err.count("raise WeightOverflow(") == 1
    assert err.count("in __init__") == 1
    assert err.count(" raised") == 10 and err.count("raised as above") == 9


def test_cli_negative_seed_override_exit_code(tmp_path, capsys, monkeypatch):
    # a negative --seed or CATSPEC_SEED is a config error, not numpy's frames
    out = str(tmp_path / "o")
    assert main(["--out", out, "--seed", "-3", "verify-escape"]) == 2
    monkeypatch.setenv("CATSPEC_SEED", "-3")
    assert main(["--out", out, "verify-escape"]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: seed must be non-negative") == 2
    assert "Traceback" not in err


def test_cli_spectrum_writes_csv(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["--out", str(out), "spectrum"])
    assert code == 0
    text = (out / "spectrum.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "sector_key,re,im,residual,multiplicity"
    assert any(line.startswith("neutral,") for line in lines[2:])


def test_cli_verify_escape(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "fast.ini"
    cfgfile.write_text("[campaign]\nescape_samples = 800\n")
    code = main(["--config", str(cfgfile), "--out", str(tmp_path / "o"),
                 "verify-escape"])
    assert code == 0
    header = (tmp_path / "o" / "escape.csv").read_text().splitlines()[0]
    assert header.startswith("# config_sha256=")

    # violating samples: exit 1 with the count, and the CSV is still written
    monkeypatch.setattr(EscapeFunction, "escape_derivative_adapted",
                        lambda self, a, orders=None:
                        np.ones((len(orders),) + np.shape(a)[:-1]))
    code = main(["--config", str(cfgfile), "--out", str(tmp_path / "bad"),
                 "verify-escape"])
    assert code == 1
    assert "800 samples violate" in capsys.readouterr().err
    assert (tmp_path / "bad" / "escape.csv").exists()


def test_cli_campaign_subset_and_failure_exit(tmp_path, capsys):
    ok_cfg = tmp_path / "ok.ini"
    ok_cfg.write_text("[campaign]\nchecks = upper_half,symmetry,disk\n"
                      "[solver]\nk_max = 3\n")
    out = tmp_path / "o1"
    assert main(["--config", str(ok_cfg), "--out", str(out), "campaign"]) == 0
    report = json.loads((out / "campaign.json").read_text())
    assert report["passed"] is True
    assert set(report["verdicts"]) == {"upper_half", "symmetry", "disk"}
    assert report["config_sha256"]

    # a violated disk hypothesis is a machine-readable check failure
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[campaign]\nchecks = disk\ndisk_b = 1.0\n"
                       "[solver]\nk_max = 3\n")
    code = main(["--config", str(bad_cfg), "--out", str(tmp_path / "o2"),
                 "campaign"])
    assert code == 1
    out_text = capsys.readouterr().out
    assert '"failed_checks": ["disk"]' in out_text


@pytest.mark.parametrize("name,text,payload", [
    # every sector is over the 500-dim audit limit: nothing is audited
    ("weyl", "[solver]\nk_max = 1\nj_max = 250\n[campaign]\nchecks = weyl\n",
     {"sectors_audited": 0, "worst_margin": None}),
    # a weighted entry leaves the double range: the check raises inside
    ("garding", "[campaign]\nchecks = garding\n[solver]\nk_max = 4\nflux_penalty = 1e308\n",
     {"error": "WeightOverflow: a weighted entry leaves the double range: "
               "overflow encountered in multiply"}),
], ids=["weyl_empty_audit", "garding_weight_overflow"])
def test_cli_campaign_check_failure_is_reported(tmp_path, capsys, name, text,
                                                payload):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    out = tmp_path / "o"
    assert main(["--config", str(cfgfile), "--out", str(out), "campaign"]) == 1
    report = json.loads((out / "campaign.json").read_text())
    assert report["passed"] is False and report["verdicts"] == {name: False}
    assert report["checks"][name].items() >= payload.items()
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert f'"failed_checks": ["{name}"]' in captured.out
    assert not (out / "counts.csv").exists()


def test_cli_campaign_logs_the_raising_frame(tmp_path, capsys):
    # the guard keeps the run going and logs the frames to stderr only
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[campaign]\nchecks = garding\n[solver]\nk_max = 4\nflux_penalty = 1e308\n")
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o"),
                 "campaign"]) == 1
    captured = capsys.readouterr()
    assert "check garding raised" in captured.err
    assert "in conjugate_by_diagonal" in captured.err
    assert 'raise WeightOverflow(f"a weighted entry leaves the double range' in captured.err
    assert "conjugate_by_diagonal" not in captured.out
    report = (tmp_path / "o" / "campaign.json").read_text()
    assert "conjugate_by_diagonal" not in report


@pytest.mark.parametrize("text,check,field", [
    ("[campaign]\nchecks = coherent\ncoherent_h = 0.14\n", "coherent", "powers"),
    ("[campaign]\nchecks = counting\nalpha_grid = 10\n[solver]\nk_max = 3\n",
     "counting", "exponent"),
], ids=["coherent_one_h", "counting_one_alpha"])
def test_cli_fit_from_one_abscissa_fails_as_undefined(tmp_path, capsys, text, check, field):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "campaign"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out.splitlines()[-1]) == {"failed_checks": [check]}
    assert "Polyfit" not in captured.err
    payload = json.loads((tmp_path / "o" / "campaign.json").read_text())["checks"][check]
    assert payload[field] in (None, [None] * 10)


@pytest.mark.parametrize("command,text,message", [
    ("spectrum", "[campaign]\nh = 1e300\n[solver]\nk_max = 3\n",
     "WeightOverflow: escape weight at h = 1e+300 overflows"),
], ids=["spectrum_huge_h"])
def test_cli_subcommand_failure_exits_1_without_traceback(tmp_path, capsys, command,
                                                          text, message):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o"),
                 command]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_subcommand_exception_is_logged_with_its_frames(tmp_path, capsys, monkeypatch):
    # an exception that is not a CatspecError: exit 1, its frames on stderr
    def broken(*args):
        raise ValueError("broken extraction")

    monkeypatch.setattr(hs, "extract_resonances", broken)
    assert main(["--out", str(tmp_path / "o"), "spectrum"]) == 1
    captured = capsys.readouterr()
    assert "spectrum raised" in captured.err
    assert "in broken" in captured.err and "ValueError: broken extraction" in captured.err
    assert "Traceback" not in captured.out + captured.err


_NO_SCIPY = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "mpmath"):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from catspec import cli

code = cli.main(["--config", sys.argv[1], "--out", sys.argv[2], "campaign"])
assert code == 0, code
loaded = [m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")]
assert not loaded, loaded
print("no scipy")
"""


def test_cli_runs_without_scipy(tmp_path):
    # eig (symmetry, intrinsic), the matching, the SVD and the exact oracle
    # (weyl) with any import of scipy or mpmath made to fail
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[campaign]\nchecks = symmetry,intrinsic,weyl\n"
                       "[solver]\nk_max = 3\n")
    src = str(Path(catspec.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY,
                           str(cfgfile), str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "no scipy"
    report = json.loads((tmp_path / "o" / "campaign.json").read_text())
    assert report["verdicts"] == {"symmetry": True, "intrinsic": True, "weyl": True}
    assert report["checks"]["weyl"]["random_oracle_ok"] is True


def test_cli_counting_uses_configured_tolerances(tmp_path):
    # residual_tol = 1e-18 drops every neutral eigenpair but the exact zero
    # mode; they carry all the box counts of the default config (1, 1, 2, 3, 5)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[solver]\nresidual_tol = 1e-18\n"
                       "[campaign]\nchecks = counting\n")
    codes = {}
    for command in ("campaign", "spectrum"):
        codes[command] = main(["--config", str(cfgfile), "--out", str(tmp_path / command),
                               command])
    rows = (tmp_path / "campaign" / "counts.csv").read_text().splitlines()[2:]
    assert [int(r.split(",")[1]) for r in rows] == [0, 0, 0, 0, 0]
    # with every count zero there is no exponent to bound: counting fails
    assert codes == {"campaign": 1, "spectrum": 0}
    report = json.loads((tmp_path / "campaign" / "campaign.json").read_text())
    assert report["verdicts"] == {"counting": False}
    assert report["checks"]["counting"]["undefined"] is True
    assert report["checks"]["counting"]["exponent"] is None
    spectrum = (tmp_path / "spectrum" / "spectrum.csv").read_text().splitlines()
    assert [r for r in spectrum if r.startswith("neutral,")] == ["neutral,0,0,0,1"]


def test_cli_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("CATSPEC_OUT", str(tmp_path / "envout"))
    assert main(["spectrum"]) == 0
    assert (tmp_path / "envout" / "spectrum.csv").exists()

    # a malformed integer in the environment is a usage error (exit 2)
    monkeypatch.setenv("CATSPEC_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["print-config"])
    assert exc.value.code == 2


def test_cli_campaign_that_compares_nothing_fails(tmp_path, capsys):
    # residual_tol = 1e-18 keeps one spectrum entry (the zero mode), and no
    # entry lies above floor = 10 or in the disk box: intrinsic matches no
    # pair and disk counts no entry, so both fail instead of passing
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[solver]\nresidual_tol = 1e-18\n[campaign]\nfloor = 10\n"
                       "checks = upper_half,symmetry,intrinsic,disk\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfgfile), "--out", str(out), "campaign"]) == 1
    assert '"failed_checks": ["disk", "intrinsic"]' in capsys.readouterr().out
    report = json.loads((out / "campaign.json").read_text())
    assert report["verdicts"] == {"upper_half": True, "symmetry": True,
                                  "intrinsic": False, "disk": False}
    assert report["checks"]["upper_half"]["entries"] == 1
    assert report["checks"]["intrinsic"]["cross_pairs"] == 0
    assert report["checks"]["intrinsic"]["drift_pairs"] == 0
    assert report["checks"]["disk"]["n_in_box"] == 0


def test_cli_common_flags_before_or_after_the_subcommand(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[campaign]\nchecks = upper_half,symmetry,disk\n"
                       "[solver]\nk_max = 3\n")
    runs = {"before": ["--config", str(cfgfile), "--out", str(tmp_path / "before"),
                       "--seed", "3", "--threads", "1", "campaign"],
            "after": ["campaign", "--config", str(cfgfile), "--out",
                      str(tmp_path / "after"), "--seed", "3", "--threads", "1"],
            "mixed": ["--config", str(cfgfile), "--seed", "3", "campaign",
                      "--out", str(tmp_path / "mixed")],
            # given before and after the command, the later value wins
            "twice": ["--config", str(cfgfile), "--out", str(tmp_path / "A"),
                      "--seed", "9", "campaign", "--out", str(tmp_path / "twice"),
                      "--seed", "3"]}
    for argv in runs.values():
        assert main(argv) == 0
    first = (tmp_path / "before" / "campaign.json").read_bytes()
    assert json.loads(first)["config_echo"]["seed"] == 3
    for name in ("after", "mixed", "twice"):
        assert (tmp_path / name / "campaign.json").read_bytes() == first
    assert not (tmp_path / "A").exists()


def test_cli_plotdata_is_not_a_command(capsys):
    # spectrum writes its spectrum.csv, a checks = counting campaign its counts.csv
    with pytest.raises(SystemExit) as exc:
        main(["plotdata"])
    assert exc.value.code == 2
    assert "invalid choice: 'plotdata'" in capsys.readouterr().err


def test_cli_threads_accepts_only_one(capsys):
    assert main(["--threads", "1", "print-config"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "campaign"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --threads: invalid choice: 2" in err
    assert "Traceback" not in err


def test_cli_idempotent_outputs(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[solver]\nk_max = 3\n")
    out = tmp_path / "o"
    main(["--config", str(cfgfile), "--out", str(out), "spectrum"])
    first = (out / "spectrum.csv").read_bytes()
    main(["--config", str(cfgfile), "--out", str(out), "spectrum"])
    assert (out / "spectrum.csv").read_bytes() == first


def _campaign_process(cfgfile, out, **env):
    """`catspec campaign` on cfgfile in a fresh process with env added to
    the environment; returns the output directory."""
    src = str(Path(catspec.__file__).parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-m", "catspec.cli", "--config", str(cfgfile),
                           "--out", str(out), "campaign"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def test_cli_campaign_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # two processes with different str hashes (set and dict orders) write the
    # same campaign.json and counts.csv; an in-process re-run cannot see this
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[solver]\nk_max = 3\n[campaign]\ncoherent_h = 0.1,0.05\n")
    outputs = []
    for hash_seed in ("1", "2"):
        out = _campaign_process(cfgfile, tmp_path / f"hash{hash_seed}",
                                PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1")
        outputs.append([(out / name).read_bytes() for name in ("campaign.json", "counts.csv")])
    assert outputs[0] == outputs[1]


def test_cli_coherent_payload_does_not_depend_on_the_blas_thread_count(tmp_path):
    # a re-run and a run on two BLAS threads write the same coherent payload
    # bytes: the orbit-sector sums are einsum contractions, not level-3 BLAS
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[campaign]\nchecks = coherent\ncoherent_h = 0.14,0.1\n")
    payloads = []
    for i, threads in enumerate(("1", "1", "2")):
        out = _campaign_process(cfgfile, tmp_path / f"run{i}", OPENBLAS_NUM_THREADS=threads)
        payload = json.loads((out / "campaign.json").read_text())["checks"]["coherent"]
        payloads.append(json.dumps(payload).encode())
    assert payloads[0] == payloads[1] == payloads[2]


def test_cli_print_config(capsys):
    assert main(["print-config"]) == 0
    assert capsys.readouterr().out == DEFAULT_CONFIG
