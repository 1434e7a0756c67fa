"""USP benchmark: one workload per process, seeded, correctness-gated.

    python3 perfbench/run.py --workload ens16-online --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` is a separate run that wraps the ``repro`` layers from the
outside and reports per-layer self times, counts and index health; it also
writes every span to ``perfbench/out/``. ``--smoke`` runs a test-scale
version in seconds. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when any correctness check or request failed. Run from the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# qps is timed over consecutive stretches of the request list holding about
# this many queries (tens of ms), each stretch at its fastest replay.
STRETCH_QUERIES = 50

E2E_UNITS = {
    "setup_s": "s", "request_ms_p50": "ms", "qps": "1/s",
    "recall_at_10": "frac", "candidates_mean": "count", "sweep_s": "s", "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    """Before numpy starts: one BLAS thread, and ``repro`` importable."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def ref_kernel_ms() -> float:
    """A fixed numpy + Python kernel: a host-speed diagnostic, never used to
    scale or drop a measurement."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    t = time.perf_counter()
    for _ in range(10):
        a = np.tanh(a @ a / 160.0)
    s = 0
    for i in range(50_000):
        s += i
    return (time.perf_counter() - t) * 1e3


def environment(args) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
        commit = r.stdout.strip() if r.returncode == 0 else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": "smoke" if args.smoke else "bench",
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
    }


# -- serving ------------------------------------------------------------------
def serve_pass(wl, lat: list, outs: list, on_request=None) -> list[float]:
    """One closed-loop pass over the request list: one client, no think time.
    Returns the clock at the start of every request and at the pass's end."""
    stamps = []
    for r in range(len(wl.queries)):
        stamps.append(time.perf_counter())
        if on_request:
            on_request(r)
        t = time.perf_counter()
        try:
            out = wl.serve(r)
        except Exception:  # a failed request is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        lat[r].append(time.perf_counter() - t)
        outs[r].append(out)
    stamps.append(time.perf_counter())
    return stamps


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest of p95/p90/p75 with at least ten
    samples beyond it; the median when there are too few samples."""
    import numpy as np

    for p in (95.0, 90.0, 75.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.median(values))


def evaluate(wl, outs: list) -> dict:
    """Untimed: correctness of every execution, recall@10 against the
    brute-force ground truth, and the rows each query examined."""
    import numpy as np

    from workloads import K

    bad = attempted = hits = 0
    sizes = []
    for r, runs in enumerate(outs):
        cands = wl.candidates(r)
        sizes += [len(c) for c in cands]
        first = runs[0]
        ok = first is not None and wl.expected(r, first, cands)
        for o in runs:
            attempted += 1
            bad += not (ok and o is not None and np.array_equal(o, first))
        if first is not None:
            hits += sum(len(set(a[a >= 0].tolist()) & set(g.tolist()))
                        for a, g in zip(first, wl.gt[r]))
    sizes = np.asarray(sizes, dtype=np.float64)
    return {"bad": bad, "attempted": attempted, "hits": hits, "sizes": sizes,
            "recall": hits / (len(sizes) * K)}


def run_checks(wl) -> dict[str, bool]:
    try:
        return {k: bool(v) for k, v in wl.checks().items()}
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {"checks_completed": False}


def median(values) -> float:
    import numpy as np

    return float(np.median(values))


# -- the two kinds of run -------------------------------------------------------
def run_untraced(wl, scale, seconds: float, host_ref: list) -> dict:
    import numpy as np

    n_req, batch = wl.queries.shape[:2]
    lat, outs = [[] for _ in range(n_req)], [[] for _ in range(n_req)]
    # The number of rounds follows from --seconds and a constant, never from
    # how fast the code runs, so every estimator below has the same sample
    # count on every commit. Set-ups and rounds of one serve pass plus one
    # sweep interleave, so each metric's samples spread over the whole run
    # rather than sharing one stretch of host speed.
    rounds = max(1, round(seconds / scale.setup_reps / scale.round_s[wl.name]))
    edges = list(range(0, n_req, max(1, STRETCH_QUERIES // batch))) + [n_req]
    setup, stretch_s, sweep = [], [], []
    for _ in range(scale.setup_reps):
        host_ref.append(ref_kernel_ms())
        t = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t)
        wl.serve(0)  # untimed warm-up request
        for _ in range(rounds):
            stamps = np.asarray(serve_pass(wl, lat, outs))
            stretch_s.append(np.diff(stamps[edges]))
            t = time.perf_counter()
            wl.sweep()
            sweep.append(time.perf_counter() - t)
    host_ref.append(ref_kernel_ms())

    t = time.perf_counter()
    ev = evaluate(wl, outs)
    print(f"evaluate took {time.perf_counter() - t:.2f} s", file=sys.stderr)
    # The host's speed drifts by 30-50% for seconds to minutes; the fastest of
    # several executions spread over the run is what repeats from run to run.
    per_request = np.array([min(v) for v in lat]) * 1e3
    pass_s = np.sum(stretch_s, axis=1)
    print(f"{n_req} requests x {len(pass_s)} passes; "
          f"pass_s {np.round(pass_s, 3).tolist()}; setup_s {np.round(setup, 3).tolist()}; "
          f"sweep_s {np.round(sweep, 3).tolist()}; host.ref_ms {np.round(host_ref, 1).tolist()}",
          file=sys.stderr)
    metrics = {
        "setup_s": median(setup),
        "request_ms_p50": float(np.median(per_request)),
        # Wall time of the serve loop, request bookkeeping included: the sum
        # over stretches of the list of each stretch's fastest pass.
        "qps": batch * n_req / float(np.min(stretch_s, axis=0).sum()),
        "recall_at_10": ev["recall"],
        "candidates_mean": float(ev["sizes"].mean()),
        "sweep_s": min(sweep),
    }
    return {"metrics": metrics, "eval": ev, "units": E2E_UNITS}


def run_traced(wl, scale, host_ref: list) -> dict:
    """Setup, serve and sweep with spans; the same work untraced alongside
    gives the tracing overhead."""
    import numpy as np

    from spans import Tracer, aggregate, coverage, install_repro_spans

    tracer = Tracer()

    def tracing(on: bool) -> None:
        tracer.uninstall()
        if on:
            install_repro_spans(tracer)

    host_ref.append(ref_kernel_ms())
    t = time.perf_counter()
    wl.setup()
    plain = {"setup": time.perf_counter() - t, "serve": 0.0}
    host_ref.append(ref_kernel_ms())
    tracing(True)
    t = time.perf_counter()
    with tracer.span("phase.setup"):
        wl.setup()
    traced = {"setup": time.perf_counter() - t, "serve": 0.0}

    tracing(False)
    host_ref.append(ref_kernel_ms())
    wl.serve(0)
    n_req = len(wl.queries)
    lat, outs = [[] for _ in range(n_req)], [[] for _ in range(n_req)]

    def on_request(r: int) -> None:
        tracer.request = r

    n_traced = 2
    for _ in range(n_traced):
        t = time.perf_counter()
        serve_pass(wl, lat, outs)
        plain["serve"] += time.perf_counter() - t
        tracing(True)
        t = time.perf_counter()
        with tracer.span("phase.serve"):
            serve_pass(wl, [[] for _ in range(n_req)], outs, on_request)
        traced["serve"] += time.perf_counter() - t
        tracer.request = None
        tracing(False)
    tracing(True)
    wl.sweep()
    tracing(False)

    ev = evaluate(wl, outs)
    agg = aggregate(tracer.spans)
    setup, serve, sweep = (agg.get(p, {"self": {}, "calls": {}, "rows": {}})
                           for p in ("phase.setup", "phase.serve", "phase.sweep"))

    def self_s(*names: str) -> float:
        return sum(setup["self"].get(n, 0.0) + serve["self"].get(n, 0.0) / n_traced
                   + sweep["self"].get(n, 0.0) for n in names)

    def count(kind: str, name: str) -> float:
        return setup[kind].get(name, 0) + serve[kind].get(name, 0) / n_traced

    searched = serve["calls"].get("scann.rerank", 0)
    health = wl.health()
    bins, models = health["bins"], health["models"]
    raw = np.concatenate([np.asarray(v) for v in lat]) * 1e3
    pct, tail_ms = tail(np.array([min(v) for v in lat]) * 1e3)
    rerank = getattr(wl, "RERANK", 0)
    metrics = {
        "knn.matrix_s": (self_s("knn.matrix"), "s"),
        "knn.matrix_calls": (count("calls", "knn.matrix"), "count"),
        "knn.rows": (count("rows", "knn.matrix"), "count"),
        "nn.forward_eval_s": (self_s("nn.forward_eval"), "s"),
        "nn.eval_rows": (count("rows", "nn.forward_eval"), "count"),
        "nn.forward_train_s": (self_s("nn.forward_train"), "s"),
        "nn.backward_s": (self_s("nn.backward"), "s"),
        "nn.adam_step_s": (self_s("nn.adam_step"), "s"),
        "nn.adam_steps": (count("calls", "nn.adam_step"), "count"),
        "core.train_self_s": (self_s("core.train"), "s"),
        "core.loss_s": (self_s("core.loss"), "s"),
        "core.targets_s": (self_s("core.targets"), "s"),
        "core.weights_s": (self_s("core.weights"), "s"),
        "core.route_s": (self_s("core.route"), "s"),
        "core.probe_s": (self_s("core.probe", "core.leaf_probs"), "s"),
        "core.probe_calls": (count("calls", "core.probe"), "count"),
        "core.probe_rows": (count("rows", "core.probe"), "count"),
        "index.lookup_s": (self_s("index.lookup"), "s"),
        "index.gather_s": (self_s("index.gather"), "s"),
        "index.topk_s": (self_s("index.topk"), "s"),
        "index.sweep.gather_s": (self_s("index.sweep.gather"), "s"),
        "index.sweep.topk_s": (self_s("index.sweep.topk"), "s"),
        "index.sweep.accuracy_s": (self_s("index.sweep.accuracy"), "s"),
        "scann.pq_fit_s": (self_s("scann.pq_fit"), "s"),
        "scann.adc_s": (self_s("scann.adc"), "s"),
        "scann.rerank_s": (self_s("scann.rerank"), "s"),
        "scann.batch_self_s": (self_s("scann.batch"), "s"),
        "scann.adc_rows_per_query": (serve["rows"].get("scann.adc", 0) / max(searched, 1), "count"),
        "scann.rerank_rows_per_query": (serve["rows"].get("scann.rerank", 0) / max(searched, 1), "count"),
        "index.candidate_yield": (ev["hits"] / ev["sizes"].sum(), "frac"),
        "scann.rerank_yield": (ev["hits"] / np.minimum(ev["sizes"], rerank).sum() if rerank else 0.0, "frac"),
        "index.candidates_p50": (float(np.percentile(ev["sizes"], 50)), "count"),
        "index.candidates_p99": (float(np.percentile(ev["sizes"], 99)), "count"),
        "health.empty_bins": (sum(b["empty_bins"] for b in bins), "count"),
        "health.max_ideal_load": (max(b["max_ideal_load"] for b in bins), "ratio"),
        "health.final_u": (float(np.mean([m["final_u"] for m in models])), "loss"),
        "health.final_s": (float(np.mean([m["final_s"] for m in models])), "loss"),
        "core.member_share_max": (max(health["member_share"]), "frac"),
        "serve.tail_ms": (tail_ms, "ms"),
        "serve.raw_ms_p99": (float(np.percentile(raw, 99)), "ms"),
        "serve.requests": (n_req, "count"),
        "serve.tail_pct": (pct, "%"),
        "trace.overhead_frac": ((traced["setup"] + traced["serve"])
                                / (plain["setup"] + plain["serve"]) - 1.0, "frac"),
        "trace.setup_coverage": (coverage(agg, "phase.setup"), "frac"),
        "trace.serve_coverage": (coverage(agg, "phase.serve"), "frac"),
    }
    units = {k: u for k, (_, u) in metrics.items()}
    return {"metrics": {k: v for k, (v, _) in metrics.items()}, "eval": ev, "units": units,
            "health": health, "spans": tracer.spans}


# -- entry point ----------------------------------------------------------------
def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ens16-online", "hier64-scann-batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="nominal time of the serve and sweep rounds, split over the set-ups")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="test-scale inputs")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()

    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.BENCH
    host_ref = [ref_kernel_ms()]
    env = environment(args)
    print("env " + json.dumps(env), file=sys.stderr)
    t = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](scale, args.seed)
    print(f"data and ground truth took {time.perf_counter() - t:.2f} s", file=sys.stderr)
    res = (run_traced(wl, scale, host_ref) if args.trace
           else run_untraced(wl, scale, args.seconds, host_ref))
    checks = run_checks(wl)

    ev = res["eval"]
    recall_ok = ev["recall"] >= scale.recall_floor
    failed = ev["bad"] + sum(not ok for ok in checks.values()) + (not recall_ok)
    attempted = ev["attempted"] + len(checks) + 1
    checks["recall_at_10_above_floor"] = recall_ok
    print("checks " + json.dumps(checks), file=sys.stderr)
    metrics = res["metrics"]
    if args.trace:
        metrics["host.ref_ms"] = median(host_ref)
        metrics["failed_frac"] = failed / attempted
        res["units"].update({"host.ref_ms": "ms", "failed_frac": "frac"})
        write_trace(args, env, res, checks)
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def write_trace(args, env: dict, res: dict, checks: dict) -> None:
    """All spans (times relative to the first), health and per-layer metrics."""
    spans = res["spans"]
    t0 = spans[0][1] if spans else 0.0
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as f:
        json.dump({
            "env": env, "checks": checks, "health": res["health"], "metrics": res["metrics"],
            "span_fields": ["name", "start_s", "end_s", "parent", "request", "rows"],
            "spans": [[s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]] for s in spans],
        }, f)
    print(f"trace written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
