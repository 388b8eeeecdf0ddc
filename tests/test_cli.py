import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catspec
from catspec.cli import main
from catspec.config import DEFAULT_CONFIG, parse_config
from catspec.errors import ConfigError
from catspec.escape import EscapeFunction


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
    from catspec import harness as hs
    points = hs.default_symbol_points(parse_config(DEFAULT_CONFIG).flow())
    assert hs.coherent_k_max(points, 0.0125) == 35
    assert hs.coherent_k_max(points, 0.0037) <= hs.COHERENT_K_CEILING
    assert hs.coherent_k_max(points, 0.0036) > hs.COHERENT_K_CEILING
    assert parse_config("[campaign]\ncoherent_h = 0.1,0.0037\n").coherent_h_list == [0.1, 0.0037]


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
        "cdf4bdc3a6be4ba51bb99b6b04dc967dc16810d3920670701169a5fab63b3db1")


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
], ids=["unknown_key", "identity_matrix", "negative_time_change",
        "negative_flux", "no_escape_samples", "negative_j_max", "p_max_1"])
def test_cli_bad_config_exit_code(tmp_path, capsys, text, command):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["--config", str(bad), "--out", str(tmp_path / "o"),
                 command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


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
    # E = 0 is the excluded counting box: the check raises inside
    ("counting", "[campaign]\nchecks = counting\ne = 0\n",
     {"error": "ValueError: E = 0 is excluded"}),
], ids=["weyl_empty_audit", "counting_e0"])
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
    cfgfile.write_text("[campaign]\nchecks = counting\ne = 0\n")
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o"),
                 "campaign"]) == 1
    captured = capsys.readouterr()
    assert "check counting raised" in captured.err
    assert "in __post_init__" in captured.err
    assert 'raise ValueError("E = 0 is excluded")' in captured.err
    assert "__post_init__" not in captured.out
    report = (tmp_path / "o" / "campaign.json").read_text()
    assert "__post_init__" not in report


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
    ("plotdata", "[campaign]\ne = 0\nalpha_grid = 10\n[solver]\nk_max = 3\n",
     "ValueError: E = 0 is excluded"),
    ("spectrum", "[campaign]\nh = 1e300\n[solver]\nk_max = 3\n",
     "WeightOverflow: escape weight at h = 1e+300 overflows"),
    ("plotdata", "[campaign]\nh = 1e300\n[solver]\nk_max = 3\n",
     "WeightOverflow: escape weight at h = 1e+300 overflows"),
], ids=["plotdata_e0", "spectrum_huge_h", "plotdata_huge_h"])
def test_cli_subcommand_failure_exits_1_without_traceback(tmp_path, capsys, command,
                                                          text, message):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o"),
                 command]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_subcommand_exception_is_logged_with_its_frames(tmp_path, capsys):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[campaign]\ne = 0\nalpha_grid = 10\n[solver]\nk_max = 3\n")
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "o"),
                 "plotdata"]) == 1
    err = capsys.readouterr().err
    assert "plotdata raised" in err
    assert "in scaling_study" in err and "in __post_init__" in err


_NO_SCIPY = """
import importlib.abc
import sys

import numpy as np


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from catspec import cli, operator

code = cli.main(["--config", sys.argv[1], "--out", sys.argv[2], "campaign"])
assert code == 0, code
top = operator.numerical_range_top(np.array([[0.0, 2.0], [0.0, 0.0]]))
assert abs(top - 1.0) < 1e-12, top
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
print("no scipy")
"""


def test_cli_runs_without_scipy(tmp_path):
    # eig (symmetry, intrinsic), the matching and the SVD (weyl) with any
    # import of scipy made to fail
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


def test_cli_counting_uses_configured_tolerances(tmp_path):
    # residual_tol = 1e-18 drops every neutral eigenpair but the exact zero
    # mode; they carry all the box counts of the default config (1, 1, 2, 3, 5)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[solver]\nresidual_tol = 1e-18\n"
                       "[campaign]\nchecks = counting\n")
    codes = {}
    for command in ("campaign", "plotdata"):
        out = tmp_path / command
        codes[command] = main(["--config", str(cfgfile), "--out", str(out), command])
        rows = (out / "counts.csv").read_text().splitlines()[2:]
        assert [int(r.split(",")[1]) for r in rows] == [0, 0, 0, 0, 0]
    # with every count zero there is no exponent to bound: counting fails
    assert codes == {"campaign": 1, "plotdata": 0}
    report = json.loads((tmp_path / "campaign" / "campaign.json").read_text())
    assert report["verdicts"] == {"counting": False}
    assert report["checks"]["counting"]["undefined"] is True
    assert report["checks"]["counting"]["exponent"] is None
    spectrum = (tmp_path / "plotdata" / "spectrum.csv").read_text().splitlines()
    assert [r for r in spectrum if r.startswith("neutral,")] == ["neutral,0,0,0,1"]


def test_cli_plotdata(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text("[solver]\nk_max = 3\n"
                       "[campaign]\nalpha_grid = 10,20,40\n")
    out = tmp_path / "plots"
    assert main(["--config", str(cfgfile), "--out", str(out), "plotdata"]) == 0
    counts = (out / "counts.csv").read_text().splitlines()
    assert counts[1] == "alpha,count"
    assert len(counts) == 5
    assert (out / "spectrum.csv").exists()


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
                      "--out", str(tmp_path / "mixed")]}
    for argv in runs.values():
        assert main(argv) == 0
    first = (tmp_path / "before" / "campaign.json").read_bytes()
    assert json.loads(first)["config_echo"]["seed"] == 3
    for name in ("after", "mixed"):
        assert (tmp_path / name / "campaign.json").read_bytes() == first


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


def test_cli_print_config(capsys):
    assert main(["print-config"]) == 0
    assert capsys.readouterr().out == DEFAULT_CONFIG
