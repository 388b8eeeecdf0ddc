import json

import numpy as np
import pytest

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


def test_config_hash_changes_with_text():
    a = parse_config(DEFAULT_CONFIG)
    b = parse_config(DEFAULT_CONFIG + "\n# trailing comment\n")
    assert a.sha() != b.sha()


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
                        lambda self, a, step=1e-4: np.ones(np.shape(a)[:-1]))
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
    for name in ("CATSPEC_THREADS", "CATSPEC_SEED"):
        with monkeypatch.context() as env:
            env.setenv(name, "abc")
            with pytest.raises(SystemExit) as exc:
                main(["print-config"])
            assert exc.value.code == 2


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
