"""One benchmark process: import fbrate, build a workload, warm up, run, check.

``run.py`` starts this file in a fresh interpreter with ``src`` on the path.
It prints one ``{"event": "ready", ...}`` line once set-up is done, so the
parent can time launch-to-ready, and (unless ``--setup-only``) one
``{"event": "result", ...}`` line at the end.  Every request's output is
checked: fig-sweep, mc and high-mult against the stored oracle, cross-grid
against the ``fbrate validate`` gate (``run_cross_check(block).passed``).

Work per run is fixed by (workload, seed, seconds), never by a clock, so two
runs of the same seed issue the same requests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import points as P  # noqa: E402

#: Relative tolerance against the oracle (``fbrate.crosscheck.CROSS_REL_TOL``).
REL_TOL = 1e-6
#: Monte-Carlo z-score limit (``fbrate.crosscheck.MC_Z_LIMIT``).
Z_LIMIT = 4.0
MC_SAMPLES = 1_000_000

#: Throughput at this commit, on two cores, used only to size the fixed work
#: of a run to roughly ``--seconds``.
FIG_SWEEPS_PER_S = 5.5
GRID_SHAPES_PER_S = 3.5
MC_CONFIGS_PER_S = 4.6
HM_PASS_S = 5.0
FIG_DISTINCT = 40
GRID_PASSES = 2

WORKLOADS = ("fig-sweep", "cross-grid", "mc", "high-mult")


class Outcome:
    """What one request produced: completed points and any failures by kind."""

    __slots__ = ("points", "failures", "samples")

    def __init__(self):
        self.points = 0
        self.samples = 0
        self.failures: list[dict] = []

    def fail(self, kind, **detail):
        self.failures.append(dict(kind=kind, **detail))


def classify(exc: BaseException, fbrate_error) -> str:
    return "fbrate_error" if isinstance(exc, fbrate_error) else "other_exception"


def check_j(out: Outcome, j: float, ref: float, where: dict):
    """Range check then relative check against the oracle."""
    if not 0.0 < j <= 1.0:
        out.fail("out_of_range", j=j, ref=ref, **where)
    elif abs(j - ref) > REL_TOL * ref:
        out.fail("off_reference", j=j, ref=ref, rel_err=abs(j - ref) / ref, **where)


# --- workloads ---------------------------------------------------------------
#
# Each builder takes the imported ``fbrate`` package as ``fb`` and returns
# (requests, warm_up, passes, execute); execute(request)
# is the timed call and returns (outcome, check) where check() fills in the
# failures after the timer has stopped.


def build_fig_sweep(fb, oracle, seed, seconds):
    cli = fb.cli
    refs = oracle["fig-sweep"]

    def argv(sweep, offset):
        spec = P.FIG_SWEEPS[sweep]
        start = P.FIG_SNR_START + offset
        stop = start + P.FIG_SNR_POINTS - 1
        return ["er", "--mu", f"{spec['mu']!r}", "--m", f"{P.FIG_FIXED['m']!r}",
                "--kappa", f"{P.FIG_FIXED['kappa']!r}", "--eta", f"{P.FIG_FIXED['eta']!r}",
                "--rho2", f"{P.FIG_FIXED['rho2']!r}", "--A", f"{P.A_FIG!r}",
                f"--snr-db={start!r}:{stop!r}:1", "--vary", spec["vary"],
                "--vary-values", ",".join(f"{v!r}" for v in spec["values"]),
                "--format", "jsonl"]

    def execute(request):
        sweep, offset = request
        buf = io.StringIO()
        out = Outcome()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv(sweep, offset))

        def check():
            if code != 0:
                out.fail("cli_exit", code=code, sweep=sweep, offset=offset)
                return
            rows = [json.loads(line) for line in buf.getvalue().splitlines()]
            expected = [(snr, v) for snr in P.fig_snr_grid(offset)
                        for v in P.FIG_SWEEPS[sweep]["values"]]
            if len(rows) != len(expected):
                out.fail("wrong_shape", rows=len(rows), sweep=sweep, offset=offset)
                return
            for row, (snr, v) in zip(rows, expected):
                where = dict(sweep=sweep, snr_db=snr, vary=v)
                if abs(row["snr_db"] - snr) > 1e-9 or row["vary"] != v:
                    out.fail("wrong_shape", row=row, **where)
                    continue
                out.points += 1
                check_j(out, row["j"], float(refs[P.fig_key(sweep, snr, v)]), where)

        return out, check

    passes = max(1, round(seconds * FIG_SWEEPS_PER_S / FIG_DISTINCT))
    return P.draw_fig_requests(seed, FIG_DISTINCT), ("fig-1", 0.0), passes, execute


def build_cross_grid(fb, oracle, seed, seconds):
    crosscheck = fb.crosscheck
    ChannelParams = fb.ChannelParams
    fbrate_error = fb.FbrateError

    def block(shape):
        return [(ChannelParams(**p), a) for p, a in P.grid_block(shape)]

    def execute(request):
        shape, pts = request
        out = Outcome()
        error = None
        try:
            report = crosscheck.run_cross_check(pts)
        except Exception as exc:  # every failure is counted, none stops the run
            error = exc

        def check():
            if error is not None:
                out.fail(classify(error, fbrate_error), error=repr(error), **shape)
                return
            out.points = report.n_configs
            if not report.passed:
                out.fail("gate", max_rel_diff=report.max_rel_diff,
                         worst=repr(report.worst), **shape)

        return out, check

    per_stratum = min(6, max(1, round(seconds * GRID_SHAPES_PER_S / 27 / GRID_PASSES)))
    requests = [(s, block(s)) for s in P.draw_grid_shapes(seed, per_stratum)]
    warm = dict(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1)  # reaches the mpmath re-run
    return requests, (warm, block(warm)), GRID_PASSES, execute


def _er_executor(fb, method, mc_config=None):
    """execute() for one er_auto point; checks J against the oracle (or z for MC)."""
    rate = fb.rate
    ChannelParams = fb.ChannelParams
    ErRequest = fb.ErRequest
    fbrate_error = fb.FbrateError

    def execute(request):
        where, params, a, ref = request
        out = Outcome()
        result = error = None
        try:
            result = rate.er_auto(ErRequest(params=ChannelParams(**params),
                                            a_exponent=a, method=method),
                                  mc_config=mc_config)
        except Exception as exc:  # every failure is counted, none stops the run
            error = exc

        def check():
            if error is not None:
                out.fail(classify(error, fbrate_error), error=repr(error), **where)
                return
            out.points = 1
            j = result.expectation_j
            if method != "monte_carlo":
                check_j(out, j, ref, where)
                return
            out.samples = MC_SAMPLES
            z = (j - ref) / result.error_estimate
            if not 0.0 < j <= 1.0:
                out.fail("out_of_range", j=j, ref=ref, **where)
            elif not abs(z) <= Z_LIMIT:
                out.fail("off_reference", j=j, ref=ref, z=z, **where)

        return out, check

    return execute


def build_mc(fb, oracle, seed, seconds):
    configs = []
    for i, c in enumerate(oracle["mc"]):
        params = {k: float(c[k]) for k in ("mu", "m", "kappa", "eta", "rho2", "gamma_bar")}
        configs.append((dict(config=i, **params, a=c["a"]), params, c["a"], float(c["j"])))
    requests = [configs[i] for i in P.mc_order(seed, len(configs))]
    mc_config = fb.McConfig(n_samples=MC_SAMPLES, seed=seed % 2**64)
    passes = max(1, round(seconds * MC_CONFIGS_PER_S / len(configs)))
    return requests, configs[0], passes, _er_executor(fb, "monte_carlo", mc_config)


def build_high_mult(fb, oracle, seed, seconds):
    refs = oracle["high-mult"]

    def request(p):
        key = P.hm_key(p["mu"], p["m"], p["snr_db"], p["a"])
        params = P.hm_point(p["mu"], p["m"], p["snr_db"], p["a"])
        a = params.pop("a")
        return dict(p, kappa=P.HM_FIXED["kappa"], eta=P.HM_FIXED["eta"],
                    rho2=P.HM_FIXED["rho2"]), params, a, float(refs[key])

    requests = [request(p) for p in P.draw_hm_points(seed)]
    warm = request(dict(mu=2.0, m=10.0, snr_db=10.0, a=2.0))
    passes = max(1, round(seconds / HM_PASS_S))
    return requests, warm, passes, _er_executor(fb, "auto")


BUILDERS = {"fig-sweep": build_fig_sweep, "cross-grid": build_cross_grid,
            "mc": build_mc, "high-mult": build_high_mult}


# --- run ---------------------------------------------------------------------


def emit(event, **fields):
    print(json.dumps(dict(event=event, **fields)), flush=True)


def timed(execute, request):
    t0 = time.perf_counter()
    out, check = execute(request)
    latency = time.perf_counter() - t0
    check()
    return out, latency


def tail_percentile(latencies):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="gzip CSV of spans (traced run)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import fbrate
    import fbrate.cli
    import fbrate.crosscheck
    import fbrate.rate
    import_s = time.perf_counter() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(fbrate.__file__).resolve().parents:
        print(f"error: imported fbrate from {fbrate.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    oracle = json.loads((BENCH_DIR / "oracle.json").read_text())
    requests, warm, passes, execute = BUILDERS[args.workload](
        fbrate, oracle, args.seed, args.seconds)
    inputs_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    timed(execute, warm)
    warmup_s = time.perf_counter() - t0
    emit("ready", import_s=import_s, inputs_s=inputs_s, warmup_s=warmup_s)
    if args.setup_only:
        return 0

    tracer = None
    untraced_s = traced_s = 0.0
    if args.trace:
        from tracing import Tracer
        # overhead probe: each of the first quarter of the requests untraced,
        # then at once traced, so both sides see the same host speed
        probe = Tracer()
        for request in requests[:max(1, len(requests) // 4)]:
            untraced_s += timed(execute, request)[1]
            probe.install()
            traced_s += timed(execute, request)[1]
            probe.uninstall()
        tracer = Tracer()
        tracer.install()
        passes = 1  # per-layer figures are per pass over the distinct requests

    latencies = [[] for _ in requests]
    attempted = failed = points = mc_samples = 0
    failures = []
    for pass_index in range(passes):
        for i, request in enumerate(requests):
            if tracer:
                tracer.begin_request(pass_index * len(requests) + i)
            out, latency = timed(execute, request)
            latencies[i].append(latency)
            attempted += 1
            points += out.points
            mc_samples += out.samples
            if out.failures:
                failed += 1
                failures.extend(dict(f, request=i, pass_=pass_index) for f in out.failures)
    if tracer:
        tracer.uninstall()

    # Every timed execution is one latency sample.  The host switches between
    # a fast and a slow speed many times a second, in a ratio that drifts over
    # tens of seconds; percentiles over all executions varied less from run to
    # run than those over each request's mean or fastest pass.
    samples_s = [x for ls in latencies for x in ls]
    busy_s = sum(samples_s)
    tail_s, tail_pct = tail_percentile(samples_s)
    result = dict(
        workload=args.workload, seed=args.seed, passes=passes,
        distinct_requests=len(requests), attempted=attempted, failed=failed,
        failed_points_by_kind=Counter(f["kind"] for f in failures), failures=failures,
        points=points, busy_s=busy_s, latencies_s=latencies,
        points_per_s=points / busy_s,
        request_ms_p50=1e3 * statistics.median(samples_s),
        request_ms_tail=1e3 * tail_s, tail_percentile=tail_pct,
        tail_samples=len(samples_s),
        msamples_per_s=mc_samples / busy_s / 1e6,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        import_s=import_s, inputs_s=inputs_s, warmup_s=warmup_s,
    )
    if tracer:
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        layers["specfun.gauss_laguerre.rules_built"] = len(
            getattr(fbrate.specfun, "_RULE_CACHE", ()))
        result["layers"] = layers
        result["unwrapped"] = tracer.missing
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
