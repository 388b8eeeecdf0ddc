"""The benchmark's span tracer (perfbench/spans.py) still fits the package.

The tracer wraps catspec functions by name and reads block attributes in
its counter hooks, so a rename in catspec would otherwise only show inside
a benchmark run.  The traced run happens in a subprocess because the
tracer replaces module attributes for the rest of the process.
"""

import json
import subprocess
import sys
from pathlib import Path

import catspec
from catspec.cli import ESCAPE_CSV_ROWS
from catspec.escape import AUDIT_SAMPLES

SRC = Path(catspec.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import catspec
import catspec.cli                      # imports every traced module
import spans

tracer = spans.Tracer()
tracer.install(catspec)
from dataclasses import replace
from catspec import operator as op
from catspec.config import parse_config
from catspec.escape import EscapeFunction

cfg = parse_config("")
flow = cfg.flow()
tr = replace(cfg.truncation, k_max=3, p_max=2, j_max={j_max})
block = op.build_generator(flow, op.enumerate_orbits(flow.cat, 3, 2)[0], tr)
op.apply_weight(block, EscapeFunction(flow, cfg.escape), 0.1)
neutral = op.build_generator(flow, op.NeutralSector(), tr)
op.PacketProfile(op.TauGrid(flow), (0.5, 0.5, 0.5), (1.0, 0.5, 0.3), 0.1).project(flow, neutral)
print(json.dumps({{"dim": block.dim, "neutral_dim": neutral.dim, "metrics": tracer.metrics()}}))
"""

ESCAPE_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import catspec
import catspec.cli                      # imports every traced module
import spans

tracer = spans.Tracer()
tracer.install(catspec)
from catspec.config import parse_config
from catspec.escape import EscapeFunction, verify_escape_estimates

cfg = parse_config("")
escape = EscapeFunction(cfg.flow(), cfg.escape)
verify_escape_estimates(escape, sample_count={samples}, seed=0, keep_rows={keep_rows},
                        orders=[cfg.escape])
print(json.dumps(tracer.metrics()))
"""

CHECKS_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import catspec
import catspec.cli                      # imports every traced module
import spans

tracer = spans.Tracer()
tracer.install(catspec)
from catspec import harness as hs, operator as op
from catspec.config import parse_config

cfg = parse_config("[campaign]\\nchecks = weyl,ims\\n[solver]\\nk_max = 3\\n")
ctx = hs.CampaignContext(cfg)
verdicts = [hs.CHECKS[name](ctx)[0] for name in ("weyl", "ims")]
n_orbit = len(op.enumerate_orbits(cfg.flow().cat, 3, cfg.truncation.p_max))
print(json.dumps({{"verdicts": verdicts, "n_orbit": n_orbit, "metrics": tracer.metrics()}}))
"""


def _traced(script):
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_tracer_installs_and_counts_one_sector():
    j_max = 4
    out = _traced(SCRIPT.format(src=str(SRC), perfbench=str(PERFBENCH), j_max=j_max))
    m = out["metrics"]
    assert m["operator.build_generator.calls"] == 2
    assert m["operator.build_generator.dim_sum"] == out["dim"] + out["neutral_dim"]
    assert m["operator.build_generator.dim_max"] == max(out["dim"], out["neutral_dim"])
    assert m["operator.apply_weight.modes"] == out["dim"]
    # one stacked coframe solve per weighting
    assert m["cotangent.horizontal_components.calls"] == 1
    # project() takes the neutral block only; the hook counts one phase
    # row per basis mode
    assert m["operator.PacketProfile.project.calls"] == 1
    assert m["operator.PacketProfile.project.phase_bytes"] == out["neutral_dim"] * 4096 * 16


def test_tracer_counts_escape_points():
    # the hooks read the batch as the second positional argument of
    # escape_value and escape_derivative_adapted
    samples = 600
    keep_rows = ESCAPE_CSV_ROWS
    m = _traced(ESCAPE_SCRIPT.format(src=str(SRC), perfbench=str(PERFBENCH),
                                     samples=samples, keep_rows=keep_rows))
    assert m["escape.EscapeFunction.calls"] == 1
    assert m["escape.escape_derivative_adapted.points"] == samples
    # escape_value serves only the audit's four shifted passes; the kept CSV
    # rows take their m and G from one profile pass outside it
    assert keep_rows > 0
    assert m["escape.escape_value.calls"] == 4
    assert m["escape.escape_value.points"] == 4 * AUDIT_SAMPLES


def test_tracer_counts_the_dense_checks():
    # the Weyl sector audits weigh, scale and shift their blocks in place
    # and hand them to singular_values as its first argument: one call for
    # the neutral sector, one per time-reversal pair of k0, -k0 pairs (the
    # other pair is certified) and one per random matrix; only the ims
    # check weighs through apply_weight, once per h
    out = _traced(CHECKS_SCRIPT.format(src=str(SRC), perfbench=str(PERFBENCH)))
    m = out["metrics"]
    assert out["verdicts"] == [True, True]
    assert m["operator.singular_values.calls"] == 1 + out["n_orbit"] // 4 + 20
    assert m["harness.weyl_audit.calls"] == 20
    assert m["operator.apply_weight.calls"] == 4
