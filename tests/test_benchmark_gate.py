"""The benchmark's correctness gate on the `coherent` workload, in Tier-1.

perfbench/run.py holds the `coherent` payload to 1e-12 relative against
perfbench/reference/coherent.json.  This runs the same workload config in
process and applies run.py's own `gate` (run.py is imported by path and
only read), so a payload that moves past the tolerance fails the tests,
not only a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

from catspec import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_coherent_workload_passes_the_benchmark_gate(tmp_path, capsys):
    run = _perfbench_run()
    config = tmp_path / "coherent.ini"
    config.write_text(run.render_ini("coherent", 0))
    assert run.WORKLOADS["coherent"] == {"checks": "coherent", "coherent_h": "0.14,0.1"}
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), "--threads", "1",
                     "campaign"]) == 0
    report = json.loads((out / "campaign.json").read_text())
    reference = json.loads((PERFBENCH / "reference" / "coherent.json").read_text())["0"]
    assert run.gate(report, reference) == []
    # negative control: the reference with one number moved by 1e-6 relative
    perturbed, path = run.perturbed(reference)
    assert path.startswith("checks.coherent.") and run.gate(report, perturbed)
