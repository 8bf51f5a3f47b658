#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ against ../src and runs one
workload through the public ScanRawManager API.

    python3 perfbench/run.py --workload raw_cold --seed 7 --seconds 25 --trace 0

Run it from the repository root. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Every metric is printed with
its median, quartiles and sample count; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. Build output goes to
stderr. The build lives in $CARGO_TARGET_DIR (default .bench_build).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("raw_cold", "spec_sequence", "restart_quoted")
RUN_TIMEOUT_S = 160
# Previous runs compared for the between-run spread.
HISTORY_RUNS = 10
MIN_HISTORY_RUNS = 4
# Metrics that need two CPUs to mean anything.
MULTICORE_ONLY = ("tokenize.par_speedup", "pool.roundtrip_us")
TAIL_BLOCK = 100


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the Release binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


# ---- the one estimator -----------------------------------------------------

def summarize(values):
    """(median, q1, q3, n) of a sample list."""
    v = sorted(values)
    if len(v) < 2:
        return v[0], v[0], v[0], len(v)
    q1, _, q3 = statistics.quantiles(v, n=4)
    return statistics.median(v), q1, q3, len(v)


def tail(values):
    """The highest percentile with ten samples beyond it, taken in each
    block of TAIL_BLOCK consecutive samples (so p90), median over blocks.

    Over a whole run the ten slowest samples are whatever one burst of host
    contention produced, and that figure moves by a fifth between runs; the
    median over blocks ignores a burst that covers less than half of them.
    Returns (value, percentile, blocks, block size)."""
    blocks = [sorted(values[i:i + TAIL_BLOCK])
              for i in range(0, len(values) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    if not blocks:  # too short a run: the whole sample is one block
        blocks = [sorted(values)]
    tails = [b[max(0, len(b) - 11)] for b in blocks]
    pct = 100 * (len(blocks[0]) - 10) / len(blocks[0])
    return statistics.median(tails), pct, len(blocks), len(blocks[0])


def spread(values):
    """Quartile distance as a share of the median."""
    med, q1, q3, _ = summarize(values)
    return (q3 - q1) / med if med else 0.0


# ---- metrics ---------------------------------------------------------------

def end_to_end(samples):
    """name -> (value, note)."""
    out = {}
    for name in ("setup_s", "first_query_s", "session_s", "scan_mb_s",
                 "cpu_s_per_gb", "peak_rss_mb"):
        med, q1, q3, n = summarize(samples[name])
        out[name] = (med, "median, IQR [%.6g, %.6g], n=%d" % (q1, q3, n))
    med, q1, q3, n = summarize(samples["query_s"])
    by_label = ", ".join(
        "%s p50 %.6g (n=%d)" % (k.split(".", 1)[1], summarize(v)[0], len(v))
        for k, v in sorted(samples.items()) if k.startswith("query_s."))
    out["query_p50_s"] = (med, "median, IQR [%.6g, %.6g], n=%d; %s"
                          % (q1, q3, n, by_label))
    value, pct, blocks, size = tail(samples["query_s"])
    out["query_tail_s"] = (value, "p%.0f with 10 samples beyond it, median "
                           "over %d block(s) of %d queries"
                           % (pct, blocks, size))
    return out


def per_layer(names, samples, nproc, workers):
    out = {}
    for name in names:
        if name in MULTICORE_ONLY and nproc < 2:
            out[name] = (0.0, "not measurable on this host (nproc %d); "
                              "0 is a placeholder" % nproc)
            continue
        if name not in samples:
            raise KeyError("the traced run produced no samples for " + name)
        med, q1, q3, n = summarize(samples[name])
        note = "median, IQR [%.6g, %.6g], n=%d" % (q1, q3, n)
        if name in MULTICORE_ONLY:
            note += "; nproc %d, workers %d" % (nproc, workers)
        out[name] = (med, note)
    return out


# ---- history: spread between runs ------------------------------------------

def build_id(binary):
    with open(binary, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()[:16]


def between_runs(bdir, key, build, seed, values):
    """Appends this run and returns {name: (spread, runs)} over the latest
    run per seed of this build."""
    hdir = os.path.join(bdir, "history")
    os.makedirs(hdir, exist_ok=True)
    path = os.path.join(hdir, key + ".jsonl")
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    runs.append({"build": build, "seed": seed, "values": values})
    with open(path, "w") as f:
        for r in runs[-200:]:
            f.write(json.dumps(r) + "\n")
    latest = {}
    for r in runs:
        if r["build"] == build:
            latest[r["seed"]] = r["values"]
    recent = list(latest.values())[-HISTORY_RUNS:]
    out = {}
    for name in values:
        series = [r[name] for r in recent if name in r]
        out[name] = (spread(series) if len(series) >= 2 else None,
                     len(series))
    return out


def fingerprint_report(bdir, workload, seed, fingerprints):
    """Prints the chunk-source fingerprint and flags any disagreement
    between this run's cycles or with the previous run of this seed."""
    if not fingerprints:
        return
    modal = max(fingerprints, key=fingerprints.get)
    cycles = sum(fingerprints.values())
    print("provenance fingerprint (seed %d, %d of %d cycles):"
          % (seed, fingerprints[modal], cycles))
    print("  " + modal)
    if len(fingerprints) > 1:
        print("  FLAGGED: %d distinct fingerprints across this run's cycles"
              % len(fingerprints))
        for fp, count in sorted(fingerprints.items(), key=lambda x: -x[1]):
            if fp != modal:
                print("    %d cycle(s): %s" % (count, fp))
    fdir = os.path.join(bdir, "fingerprints")
    os.makedirs(fdir, exist_ok=True)
    path = os.path.join(fdir, "%s-%d.txt" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            previous = f.read()
        if previous != modal:
            print("  FLAGGED: differs from the previous run of this seed:")
            print("    " + previous)
    with open(path, "w") as f:
        f.write(modal)


def main():
    # A terminated runner still stops and reaps the measuring program:
    # subprocess.run kills its child when an exception unwinds through it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bdir = build_root()
    try:
        binary = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    workdir = os.path.join(bdir, "work", "%s-%d-%d"
                           % (args.workload, args.seed, args.trace))
    tdir = os.path.join(bdir, "traces")
    os.makedirs(tdir, exist_ok=True)
    trace_out = os.path.join(tdir, "%s-seed%d.json"
                             % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: measuring program failed (exit %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    samples = raw["samples"]
    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0 and attempted > 0

    print("queries attempted %d, failed %d, query_error_rate %.6g"
          % (attempted, failed, failed / attempted if attempted else 1.0))
    for message in raw["failures"]:
        print("  FAILED: " + message)
    fingerprint_report(bdir, args.workload, args.seed, raw["fingerprints"])
    if args.trace == 0:
        share, _, _, n = summarize(samples["cpu_share_of_session"])
        print("process CPU / session wall: %.3f (median of %d cycles)"
              % (share, n))
    else:
        share, _, _, n = summarize(samples["conversion_share_of_session"])
        print("TOKENIZE + PARSE busy time / session wall: %.3f (median of %d "
              "traced cycles)" % (share, n))

    group = "per_layer" if args.trace else "end_to_end"
    declared = spec[group]
    try:
        if args.trace:
            results = per_layer([m["name"] for m in declared], samples,
                                raw["nproc"], raw["workers"])
        else:
            results = end_to_end(samples)
    except KeyError as e:
        log("perfbench: %s" % e)
        return 1

    # Within-run noise per metric, then its spread across this build's runs.
    key = "%s-trace%d" % (args.workload, args.trace)
    history = between_runs(bdir, key, build_id(binary), args.seed,
                           {m["name"]: results[m["name"]][0]
                            for m in declared})
    print("%s metrics (%s, %d cycles, seed %d):"
          % (group, args.workload, raw["cycles"], args.seed))
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        value, note = results[name]
        metrics[name] = {"value": value, "unit": unit}
        between, runs = history[name]
        if "bound" not in m:
            verdict = ""
        elif between is None or runs < MIN_HISTORY_RUNS:
            verdict = ("unresolved: %d run(s) of this build, need %d"
                       % (runs, MIN_HISTORY_RUNS))
        elif between > m["bound"]:
            verdict = ("unresolved: spread %.1f%% over %d runs exceeds the "
                       "%.0f%% bound" % (100 * between, runs,
                                         100 * m["bound"]))
        else:
            verdict = ("resolved: spread %.1f%% over %d runs within the "
                       "%.0f%% bound" % (100 * between, runs,
                                         100 * m["bound"]))
        print("  %-36s %12.6g %-6s %s" % (name, value, unit, note))
        if verdict:
            print("  %-36s noise floor: %s" % ("", verdict))
    if args.trace:
        print("spans: " + trace_out)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
