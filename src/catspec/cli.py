"""Command-line entry point.

Subcommands: model-info, verify-escape, spectrum, campaign, plotdata.
Flags --config/--out/--seed go before or after the subcommand and can
also be set through the environment as CATSPEC_CONFIG, CATSPEC_OUT,
CATSPEC_SEED.  --threads accepts only 1: the campaign runs on one thread,
and the flag is kept so that existing command lines that pass --threads 1
still parse.
Exit status: 0 all enabled checks pass, 1 check failures or a command that
raised, 2 config errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import harness as hs
from .config import DEFAULT_CONFIG, RunConfig, load_config, parse_config
from .errors import CatspecError, ConfigError
from .escape import EscapeFunction, verify_escape_estimates


class _StderrLog(logging.Handler):
    """The package's log records on the current ``sys.stderr``.  A logged
    exception shows its frames and message without the "Traceback" banner:
    the run goes on, and the CLI promises to end without a traceback."""

    def emit(self, record):
        text = record.getMessage()
        if record.exc_info:
            _, exc, tb = record.exc_info
            text += "\n" + "".join(traceback.format_tb(tb)
                                   + traceback.format_exception_only(exc)).rstrip()
        print(text, file=sys.stderr)


def _common_flags(p, config, out, threads, seed):
    p.add_argument("--config", default=config,
                   help="path to INI config (defaults to built-in config)")
    p.add_argument("--out", default=out,
                   help="output directory (overrides config)")
    p.add_argument("--threads", type=int, choices=(1,), default=threads,
                   help="only 1: the campaign runs on one thread")
    p.add_argument("--seed", type=int, default=seed)


def _parser():
    """The common flags go before or after the subcommand.  The subcommands
    share a parent parser whose defaults are suppressed, so a flag given
    after the subcommand wins and one not given there keeps the top-level
    value (environment or default)."""
    p = argparse.ArgumentParser(prog="catspec")
    _common_flags(p, os.environ.get("CATSPEC_CONFIG"), os.environ.get("CATSPEC_OUT"),
                  1, os.environ.get("CATSPEC_SEED"))
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, *[argparse.SUPPRESS] * 4)
    sub = p.add_subparsers(dest="command", required=True)
    for name, text in (
            ("model-info", "print eigen-data, return time, hyperbolicity fit"),
            ("verify-escape", "run the escape estimate suite, write CSV"),
            ("spectrum", "compute the resonance spectrum, write CSV"),
            ("campaign", "run all enabled theorem checks, write JSON"),
            ("plotdata", "write plot-ready spectrum and box-count CSV"),
            ("print-config", "print the default config file")):
        sub.add_parser(name, help=text, parents=[common])
    return p


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else parse_config(DEFAULT_CONFIG)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None and int(args.seed) != cfg.seed:
        cfg.seed = int(args.seed)
        # in the hashed text, so the output headers tell the seeds apart
        cfg.text += f"\n# seed override: {cfg.seed}\n"
    return cfg


def _header(cfg):
    return f"# config_sha256={cfg.sha()}\n"


def _write(cfg, name, payload):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(payload)
    return path


def _spectrum_csv(cfg, res):
    lines = [_header(cfg).rstrip("\n"), "sector_key,re,im,residual,multiplicity"]
    for e in res.entries:
        lines.append(f"{e.sector_key},{e.value.real:.17g},{e.value.imag:.17g},"
                     f"{e.residual:.17g},{e.multiplicity}")
    return "\n".join(lines) + "\n"


def cmd_model_info(cfg):
    flow = cfg.flow()
    cat = flow.cat
    c_hyp, theta_fit = flow.measure_hyperbolicity(seed=cfg.seed)
    print(f"matrix            [[{cat.matrix[0,0]}, {cat.matrix[0,1]}], "
          f"[{cat.matrix[1,0]}, {cat.matrix[1,1]}]]")
    print(f"lambda_u          {cat.lambda_u:.15g}")
    print(f"lambda_s          {cat.lambda_s:.15g}")
    print(f"unstable dir      ({cat.e_u[0]:.12g}, {cat.e_u[1]:.12g})")
    print(f"stable dir        ({cat.e_s[0]:.12g}, {cat.e_s[1]:.12g})")
    print(f"return time       {flow.period:.15g}")
    print(f"theta             {flow.theta:.15g}")
    print(f"hyperbolicity fit c_hyp={c_hyp:.6g} theta={theta_fit:.6g} "
          f"(target {flow.theta:.6g})")
    return 0


def cmd_verify_escape(cfg):
    escape = EscapeFunction(cfg.flow(), cfg.escape)
    rep = verify_escape_estimates(escape, sample_count=cfg.escape_samples,
                                  seed=cfg.seed)
    path = _write(cfg, "escape.csv", _header(cfg) + rep.to_csv())
    print(f"escape estimates: c={rep.c_measured:.6g} decay bound="
          f"{rep.decay_bound:.6g} max X(G)={rep.max_everywhere:.3e} "
          f"violations={rep.violations}")
    print(f"wrote {path}")
    if rep.violations:
        print(f"FAIL escape estimates: {rep.violations} samples violate "
              f"the escape estimates", file=sys.stderr)
        return 1
    return 0


def _counts_csv(cfg, table):
    rows = [_header(cfg).rstrip("\n"), "alpha,count"]
    rows += [f"{a:.17g},{n}" for a, n in table]
    return "\n".join(rows) + "\n"


def cmd_spectrum(cfg):
    res = hs.CampaignContext(cfg).base
    path = _write(cfg, "spectrum.csv", _spectrum_csv(cfg, res))
    print(f"{len(res.entries)} entries (total multiplicity "
          f"{res.total_multiplicity()}); wrote {path}")
    return 0


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON-able: {type(obj)}")


def cmd_campaign(cfg):
    report = hs.run_campaign(cfg, progress=lambda n: print(f"check: {n}"))
    report["config_sha256"] = cfg.sha()
    payload = json.dumps(report, indent=2, sort_keys=True,
                         default=_json_default) + "\n"
    path = _write(cfg, "campaign.json", payload)
    counting = report["checks"].get("counting", {})
    if "table" in counting:
        _write(cfg, "counts.csv", _counts_csv(cfg, counting["table"]))
    failures = sorted(k for k, v in report["verdicts"].items() if not v)
    print(f"wrote {path}")
    if failures:
        print(json.dumps({"failed_checks": failures}))
        return 1
    print("all checks passed")
    return 0


def cmd_plotdata(cfg):
    _write(cfg, "spectrum.csv", _spectrum_csv(cfg, hs.CampaignContext(cfg).base))
    study = hs.scaling_study(cfg.flow(), cfg.escape, cfg.truncation, cfg.E,
                             cfg.alpha_grid, cfg.beta,
                             residual_tol=cfg.residual_tol,
                             cluster_radius=cfg.cluster_radius)
    _write(cfg, "counts.csv", _counts_csv(cfg, zip(study.alphas, study.counts)))
    print(f"wrote spectrum.csv and counts.csv to {cfg.out_dir}")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    log = logging.getLogger("catspec")
    if not log.handlers:
        log.addHandler(_StderrLog())
    if args.command == "print-config":
        print(DEFAULT_CONFIG, end="")
        return 0
    try:
        cfg = _load(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "model-info":
            return cmd_model_info(cfg)
        if args.command == "verify-escape":
            return cmd_verify_escape(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "campaign":
            return cmd_campaign(cfg)
        if args.command == "plotdata":
            return cmd_plotdata(cfg)
    except CatspecError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - any parsed config ends in 0, 1 or 2
        log.exception("%s raised", args.command)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
