"""The benchmark's correctness gate on every workload, in Tier-1.

perfbench/run.py holds each workload's payload against
perfbench/reference/<workload>.json: `coherent` to 1e-12 relative, the
others to its default tolerance.  This runs each workload config in
process at campaign seed 0 and applies run.py's own `gate` (run.py is
imported by path and only read), so a payload that moves past the
tolerance fails the tests, not only a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from catspec import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload, settings", [
    ("coherent", {"checks": "coherent", "coherent_h": "0.14,0.1"}),
    ("spectral", {"checks": "upper_half,symmetry,weyl,ims,counting,disk"}),
    ("escape", {"checks": "escape", "escape_samples": "20000"}),
], ids=["coherent", "spectral", "escape"])
def test_workload_passes_the_benchmark_gate(tmp_path, capsys, workload, settings):
    run = _perfbench_run()
    config = tmp_path / f"{workload}.ini"
    config.write_text(run.render_ini(workload, 0))
    assert run.WORKLOADS[workload] == settings
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), "--threads", "1",
                     "campaign"]) == 0
    report = json.loads((out / "campaign.json").read_text())
    reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())["0"]
    assert run.gate(report, reference) == []
    # negative control: the reference with one number moved by 1e-6 relative
    perturbed, path = run.perturbed(reference)
    assert path.split(".")[1] in run.checks_of(workload) and run.gate(report, perturbed)
