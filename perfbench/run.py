"""Campaign benchmark for catspec.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload coherent [--seed N] [--seconds S]
                             [--trace 0|1] [--negative-control]
    python3 perfbench/run.py --workload coherent --record-reference

Each repetition is a fresh process (perfbench/child.py) that imports
catspec from the checkout's ``src``, loads the workload's INI file and
runs ``catspec.cli.main([... "campaign"])`` with BLAS/OpenMP pinned to
one thread and ``--threads 1``.  Repetitions run until ``--seconds`` are
used (at least MIN_ROUNDS), and every repetition's ``campaign.json`` is
checked against the reference recorded for its campaign seed and for
byte-identity with the first repetition.  Medians are reported; the
times are rescaled to a reference host speed by the probe in child.py.

``--trace 1`` alternates untraced and traced repetitions, prints the
end-to-end and the per-layer table, and reports the per-layer metrics of
BENCHMARK.json in the result line.  Every metric is printed with its
unit; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Partial INI files on top of catspec's DEFAULT_CONFIG.  Each splits off
# one heavy part of the default campaign at a reduced size; see README.md.
WORKLOADS = {
    "coherent": {"checks": "coherent", "coherent_h": "0.14,0.1"},
    "spectral": {"checks": "upper_half,symmetry,weyl,ims,counting,disk"},
    "escape": {"checks": "escape", "escape_samples": "20000"},
}

# The workload seed picks one of POOL campaign seeds, so that every run
# can be checked against a reference recorded for exactly its inputs.
POOL = 8

# (relative, absolute) tolerance per check for float fields.  coherent
# holds errors and fitted powers to 1e-12 relative.  The other checks allow
# reordered floating-point sums in the dense kernels; the absolute floor
# covers fields that sit at round-off level, such as the symmetry distance
# (8e-13) and the Weyl margin (-1e-12), whose gates are at 1e-6 and 0.
TOLERANCE = {"coherent": (1e-12, 0.0)}
DEFAULT_TOLERANCE = (1e-9, 1e-10)
PERTURBATION = 1e-6

PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}
MIN_ROUNDS = 3          # untraced repetitions per run with --trace 0
HARD_LIMIT = 165.0      # seconds; the run must end within 180


def render_ini(workload, campaign_seed):
    lines = ["[campaign]"]
    lines += [f"{k} = {v}" for k, v in WORKLOADS[workload].items()]
    lines.append(f"seed = {campaign_seed}")
    return "\n".join(lines) + "\n"


def checks_of(workload):
    return WORKLOADS[workload]["checks"].split(",")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _diff(path, got, want, tol):
    """Mismatches between a report value and its reference value.

    Fields present only in the report are ignored, so added fields such
    as a schema bump do not count as failures.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        return [d for key, value in want.items()
                for d in (_diff(f"{path}.{key}", got[key], value, tol)
                          if key in got else [f"{path}.{key}: missing"])]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _diff(f"{path}[{i}]", g, w, tol)]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        rel, abs_ = tol
        if math.isnan(want) and math.isnan(got):
            return []
        if math.isclose(got, want, rel_tol=rel, abs_tol=abs_):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def gate(report, reference):
    """Compare checks.<name> fields and verdicts.<name> to the reference."""
    out = []
    for name, fields in reference["checks"].items():
        tol = TOLERANCE.get(name, DEFAULT_TOLERANCE)
        out += _diff(f"checks.{name}", report.get("checks", {}).get(name),
                     fields, tol)
    for name, verdict in reference["verdicts"].items():
        out += _diff(f"verdicts.{name}",
                     report.get("verdicts", {}).get(name), verdict, (0, 0))
    return out


def reference_entry(report, workload):
    names = checks_of(workload)
    return {"checks": {n: report["checks"][n] for n in names},
            "verdicts": {n: report["verdicts"][n] for n in names}}


def perturbed(reference):
    """Copy of a reference with its first float field scaled by 1 + 1e-6."""
    ref = json.loads(json.dumps(reference))

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, float) and math.isfinite(value) and value:
                node[key] = value * (1.0 + PERTURBATION)
                return f"{path}.{key}"
            if isinstance(value, (dict, list)):
                found = walk(value, f"{path}.{key}")
                if found:
                    return found
        return None

    return ref, walk(ref["checks"], "checks")


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def child_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CATSPEC_")}
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_rep(root, config, out_dir, traced, timeout, reference, first_bytes):
    """Run one campaign; return (child result or None, failure reasons)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(out_dir),
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [f"timeout after {timeout:.0f} s"]
    if proc.returncode != 0:
        return None, [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, ["no result line from the repetition"]
    reasons = []
    if result["status"] != 0:
        reasons.append(f"campaign exit status {result['status']}")
    if not Path(result["catspec_file"]).resolve().is_relative_to(root / "src"):
        reasons.append(f"imported catspec from {result['catspec_file']}")
    report_path = out_dir / "campaign.json"
    if not report_path.is_file():
        return result, reasons + ["no campaign.json written"]
    payload = report_path.read_bytes()
    result["campaign_bytes"] = payload
    if first_bytes is not None and payload != first_bytes:
        reasons.append("campaign.json differs from the first repetition")
    if reference is not None:
        try:
            reasons += gate(json.loads(payload), reference)
        except ValueError:
            reasons.append("campaign.json is not valid JSON")
    return result, reasons


def environment(root, child):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), **child["environment"],
            "thread_env": PINNED, "threads": child["threads"],
            "git_commit": commit, "config_sha256": child["config_sha256"]}


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def print_table(title, specs, values):
    print(f"# {title}")
    for spec in specs:
        print(f"{spec['name']:<46} {values[spec['name']]:>16.6f} {spec['unit']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--negative-control", action="store_true",
                   help="gate against a reference with one perturbed number")
    p.add_argument("--record-reference", action="store_true",
                   help="record the reference for every campaign seed")
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    bench_file = root / "BENCHMARK.json"
    if not (root / "src" / "catspec" / "__init__.py").is_file():
        print("no catspec sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text())
    ref_path = HERE / "reference" / f"{args.workload}.json"
    campaign_seed = args.seed % POOL
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            return record_reference(root, work, args.workload, ref_path)
        reference = json.loads(ref_path.read_text())[str(campaign_seed)]
        control_path = None
        if args.negative_control:
            reference, control_path = perturbed(reference)
        config = work / "workload.ini"
        config.write_text(render_ini(args.workload, campaign_seed))
        return measure(root, work, config, reference, spec, args,
                       campaign_seed, control_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_reference(root, work, workload, ref_path):
    refs = {}
    for campaign_seed in range(POOL):
        config = work / "workload.ini"
        config.write_text(render_ini(workload, campaign_seed))
        result, reasons = run_rep(root, config, work / "out", False,
                                  HARD_LIMIT, None, None)
        if reasons:
            print(f"campaign seed {campaign_seed}: {reasons}", file=sys.stderr)
            return 1
        refs[str(campaign_seed)] = reference_entry(
            json.loads(result["campaign_bytes"]), workload)
        print(f"campaign seed {campaign_seed}: {result['campaign_s']:.2f} s")
    ref_path.parent.mkdir(exist_ok=True)
    ref_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ref_path}")
    return 0


def measure(root, work, config, reference, spec, args, campaign_seed,
            control_path):
    modes = (False, True) if args.trace else (False,)
    min_rounds = 1 if args.trace else MIN_ROUNDS
    start = time.perf_counter()
    reps = []
    first_bytes = None
    rounds = 0
    while True:
        for traced in modes:
            timeout = max(1.0, HARD_LIMIT - (time.perf_counter() - start))
            result, reasons = run_rep(root, config, work / "out", traced,
                                      timeout, reference, first_bytes)
            if result is not None and first_bytes is None:
                first_bytes = result.get("campaign_bytes")
            reps.append((traced, result, reasons))
            for reason in reasons[:5]:
                print(f"FAIL rep {len(reps)}: {reason}", file=sys.stderr)
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        if elapsed + per_round > HARD_LIMIT:
            break
        if rounds >= min_rounds and elapsed + per_round > args.seconds:
            break

    plain = [r for traced, r, _ in reps if r is not None and not traced]
    with_trace = [r for traced, r, _ in reps if r is not None and traced]
    if not plain or (args.trace and not with_trace):
        print("no repetition produced a measurement", file=sys.stderr)
        return 1
    failed = sum(1 for _, _, reasons in reps if reasons)

    end_to_end = {"setup_s": median_of(plain, "setup_s"),
                  "campaign_s": median_of(plain, "campaign_s"),
                  "peak_rss_mb": median_of(plain, "peak_rss_mb")}
    print_table(f"{args.workload}: end to end, median of {len(plain)} "
                f"repetitions", spec["end_to_end"], end_to_end)
    layers = None
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in with_trace)
                  for name in with_trace[0]["layers"]}
        print_table(f"{args.workload}: per layer, median of {len(with_trace)} "
                    f"traced repetitions", spec["per_layer"], layers)

    record = {
        "workload": args.workload, "seed": args.seed,
        "campaign_seed": campaign_seed, "seconds": args.seconds,
        "repetitions": len(reps), "failed": failed,
        "campaign_s_each": [r["campaign_s"] for r in plain],
        "campaign_wall_s_each": [r["campaign_wall_s"] for r in plain],
        "campaign_wall_s": median_of(plain, "campaign_wall_s"),
        "setup_wall_s": median_of(plain, "setup_wall_s"),
        "speed": median_of(plain, "speed"),
        "process_cpu_s": median_of(plain, "cpu_s"),
        "negative_control": control_path,
        "traced_minus_untraced_s": (median_of(with_trace, "campaign_s")
                                    - end_to_end["campaign_s"]
                                    if args.trace else None),
        "environment": environment(root, plain[0]),
    }
    print("# recorded, not gated: raw wall times, host speed, process CPU")
    for name, unit in (("campaign_wall_s", "s"), ("setup_wall_s", "s"),
                       ("speed", "x"), ("process_cpu_s", "s")):
        print(f"{name:<46} {record[name]:>16.6f} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in chosen}
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
