"""Benchmark for sememevec: three deterministic synthetic workloads.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1          # every workload, one process each

A run generates its inputs from --seed (several times, timing each as
set-up), then repeats the workload's iteration as a closed loop with one
client for about --seconds, checking every iteration's outputs. With
--trace 0 it reports the end-to-end metrics, measured with tracing off. With
--trace 1 it alternates untraced and traced iterations and reports the
per-layer metrics; trace.overhead_s is the difference of their medians.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Inputs, outputs, the result record and the
spans of a traced run go to .bench_out/ at the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Every workload process runs with one BLAS thread, because the tagger's
# trained weights depend on the BLAS thread count and one is at most nproc on
# any machine, and with a fixed string-hash seed, because per-process hash
# randomisation changes dict and set layout and moved wall time by up to 20%
# between runs on identical inputs.
BLAS_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONHASHSEED": "0",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("pipeline", "rare-revise", "tag-stream")

# Measured-baseline rows of ROADMAP.md, shown beside the traced figures.
ROADMAP_BASELINE = (
    ("word embedding tokens/s", "embedding.word.tokens_per_s",
     "skip-gram 4.0k, CBOW 22k tokens/s on a 30k-token Zipf corpus"),
    ("time per revised word", "revise.rare_words_per_s", "90 ms per rare word at V = 3.2k"),
    ("logreg loss evaluations", "tagger.loss_evals", "1201 per fit, unconverged"),
    ("tagging tokens/s", "tagger.tag_tokens_per_s", "44k tokens/s, context only"),
    ("space load rows/s", "embedding.load_rows_per_s", "3.2k rows in 0.09 s"),
)


def import_library():
    """Import the package from this checkout's src/, never an installed copy."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401
        import sememevec
    except ImportError as exc:
        sys.exit(f"bench: cannot import sememevec from {SRC}: {exc}")
    if not os.path.abspath(sememevec.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: sememevec resolved outside {SRC}")
    import workloads  # noqa: F401  (imports the library modules it calls)
    return time.perf_counter() - start


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = {}
    return {
        "blas_threads": BLAS_THREADS,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_all(args):
    """Each workload in its own process; prints each one's final line."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else proc.stderr.strip()}")
        status = status or proc.returncode
    return status


def measure(wl, inp, seconds, trace, outdir):
    """Repeat the workload's iteration for about ``seconds``.

    Closed loop with one client. A further iteration starts only if the
    previous one, repeated, would end within ``seconds``; there is always at
    least one. With ``trace`` each untraced iteration is followed by a traced
    one. Every iteration's outputs are checked, outside the timed region.
    """
    import tracing

    res = {"walls": [], "traced_walls": [], "layers": [], "checks": [], "scores": []}
    tracer = tracing.Tracer() if trace else None

    def checked(out):
        result, scores = wl.check(inp, out)
        res["checks"] += result
        res["scores"].append(scores)

    wl.prepare(inp)
    began = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        out = wl.iteration(inp, tracing.NullTracer(), outdir)
        res["walls"].append(time.perf_counter() - round_start)
        checked(out)
        if tracer is not None:
            tracer.new_run()
            start = time.perf_counter()
            with tracer.span("bench.iteration"), tracer.library():
                out = wl.iteration(inp, tracer, outdir)
            res["traced_walls"].append(time.perf_counter() - start)
            res["layers"].append(tracing.layer_metrics(tracer.totals(tracer.run_id),
                                                       tracer.counts[tracer.run_id]))
            checked(out)
        now = time.perf_counter()
        if now - began + (now - round_start) > seconds:
            return res, tracer


def median_scores(res):
    return {k: statistics.median(s[k] for s in res["scores"]) for k in res["scores"][0]}


def end_to_end_metrics(wl, res, import_s, setup_times):
    return {
        "wall_s": (statistics.median(res["walls"]), "s"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "quality": (median_scores(res)[wl.QUALITY], "score"),
    }


def per_layer_metrics(res, properties, env):
    """Medians over the traced iterations, plus tracing overhead and inputs."""
    m = {key: (statistics.median([run[key] for run in res["layers"]]), unit_of(key))
         for key in res["layers"][0]}
    traced, untraced = statistics.median(res["traced_walls"]), statistics.median(res["walls"])
    m["trace.wall_s"] = (traced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    for key, value in properties.items():
        m[f"workload.{key}"] = (value, unit_of(key))
    m["env.blas_threads"] = (env["blas_threads"], "count")
    m["env.nproc"] = (env["nproc"], "count")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)

    import_s = import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    indir = os.path.join(OUT, tag, "inputs")
    outdir = os.path.join(OUT, tag, "outputs")
    os.makedirs(indir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inp = wl.generate(args.seed, indir)
        setup_times.append(time.perf_counter() - start)
    inp["seed"] = args.seed

    res, tracer = measure(wl, inp, args.seconds, args.trace, outdir)
    env = environment()
    if args.trace:
        metrics = per_layer_metrics(res, inp["properties"], env)
        tracer.save(os.path.join(OUT, tag, "spans.npz"))
        print_baseline(args.workload, metrics)
    else:
        metrics = end_to_end_metrics(wl, res, import_s, setup_times)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    failed = [name for name, ok in res["checks"] if not ok]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "walls_s": res["walls"], "traced_walls_s": res["traced_walls"],
        "setup_times_s": setup_times, "import_s": import_s, "scores": median_scores(res),
        "properties": inp["properties"], "environment": env,
        "failed_checks": failed[:20], "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("scores " + json.dumps(median_scores(res), sort_keys=True))
    print("properties " + json.dumps(inp["properties"], sort_keys=True))
    print("environment " + json.dumps(env, sort_keys=True))
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    for name in failed[:20]:
        print(f"FAILED {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(res["checks"]),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def peak_rss_mb():
    import resource

    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(key):
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if "share" in key or "coverage" in key:
        return "share"
    if key.endswith("gnorm"):
        return "norm"
    return "count"


def print_baseline(workload, metrics):
    """ROADMAP's measured-baseline rows beside this run's figures."""
    print(f"ROADMAP baseline | {workload}")
    for label, key, baseline in ROADMAP_BASELINE:
        value = metrics[key][0]
        if not value:
            continue
        if key == "revise.rare_words_per_s":
            shown = f"{1000.0 / value:.3g} ms per rare word"
        else:
            shown = f"{value:.4g} {metrics[key][1]}"
        print(f"  {label}: {baseline} | {shown}")


def pin_environment():
    """Re-execute this script under PINNED_ENV unless it already runs so.

    The hash seed is read at interpreter start and BLAS reads its thread
    count when numpy is first imported, so neither can be set later.
    """
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  {**os.environ, **PINNED_ENV})


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
