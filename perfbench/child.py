"""One measured campaign in a fresh process.

Usage: python3 perfbench/child.py CONFIG OUT_DIR TRACE

Times the set-up (importing the catspec package, loading CONFIG and
building the flow), then ``catspec.cli.main([... "campaign"])`` with
``--threads 1`` and outputs under OUT_DIR.  With TRACE = 1 the layer
boundaries listed in spans.py are traced from before the config load
on.  Prints one JSON line with the timings, the exit status, the peak
RSS, the environment and, when traced, the per-layer metrics.  catspec
comes from the checkout's ``src`` on PYTHONPATH; run.py sets it.

Both timed sections run under a SpeedProbe, which samples how fast the
machine executes a fixed interpreter loop while the section runs.  The
reported times are wall times rescaled to a fixed reference speed; the
raw wall times are reported beside them.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time

THREADS = 1
PROBE_PERIOD = 0.02     # seconds between speed samples
PROBE_LOOP = 2000       # iterations of the fixed probe loop
PROBE_REF = 1.4e-4      # probe seconds at the reference speed


class SpeedProbe:
    """Samples the machine's speed while a timed section runs.

    The host this benchmark runs on drifts by tens of percent within a
    minute, and a calibration run before or after a section does not track
    it.  So every PROBE_PERIOD a SIGALRM handler times a fixed interpreter
    loop in the same process, on the same CPU, during the section.  The
    section's wall time, minus the time spent probing, is rescaled by
    PROBE_REF over the median probe time.  The campaign runs single
    threaded, so the probe mostly measures the host.  Samples that fall
    due during a long numpy call are taken right after it, so it also
    follows the program by up to about 5% (see README.md).
    """

    def __init__(self):
        self.samples = []
        self.start = 0.0
        self.wall = 0.0

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        acc = 0
        for k in range(PROBE_LOOP):
            acc += k * k
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()       # at least one sample for very short sections

    def seconds(self):
        """Wall time less probing, at the reference speed."""
        probing = sum(self.samples[:-1])
        return (self.wall - probing) * PROBE_REF / statistics.median(self.samples)


def _environment(np, scipy):
    try:
        import mpmath
        mp_version = mpmath.__version__
    except ImportError:
        mp_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mp_version,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
    }


def main(config, out_dir, trace):
    with SpeedProbe() as setup:
        import catspec
        from catspec import cli, config as catspec_config

        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
            tracer.install(catspec)
        cfg = catspec_config.load_config(config)
        cfg.flow()

    with SpeedProbe() as campaign:
        status = cli.main(["--config", config, "--out", out_dir,
                           "--threads", str(THREADS), "campaign"])

    import numpy as np
    import scipy

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "status": status,
        "setup_s": setup.seconds(),
        "campaign_s": campaign.seconds(),
        "setup_wall_s": setup.wall,
        "campaign_wall_s": campaign.wall,
        "speed": PROBE_REF / statistics.median(campaign.samples),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "threads": THREADS,
        "config_sha256": cfg.sha(),
        "catspec_file": catspec.__file__,
        "environment": _environment(np, scipy),
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.output_bytes"] = float(sum(
            f.stat().st_size for f in os.scandir(out_dir) if f.is_file()))
        layers["trace.overhead_s"] = tracer.overhead_s()
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
