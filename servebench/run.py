#!/usr/bin/env python3
"""Serving benchmark for doinn_serve.

Run from the repository root:

    python3 servebench/run.py --workload tile_closed --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --self-test

The first run builds doinn_serve and the benchmark tool (servebench/src)
into .bench_build. Every run then makes its inputs from --seed (a seeded
DoinnConfig::small() checkpoint, 32 tiles of 128 px, 4 masks of 512 px, and
the op-walk reference reply of each), and:

  --trace 0  spawns `doinn_serve --listen 0 --threads 2` three times (each
             timed from spawn to the end of warm-up), drives the workload's
             traffic against the last one for --seconds, byte-checks every
             reply, and prints the end-to-end metrics;
  --trace 1  runs the workload once against a traced server (--trace-out),
             checks that no plan was built after warm-up, then times each
             layer's public functions in-process, and prints the per-layer
             metrics.

The last stdout line is the result JSON; lines before it starting with '#'
carry the host record and the sample counts. See servebench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SBTOOL = os.path.join(BUILD, "sbtool")
SERVER = os.path.join(BUILD, "doinn", "doinn_serve")

TILE, LARGE = 0, 1
OK, MISMATCH, BUSY, ERROR, LOST = range(5)
PIXEL_UM = 0.016
AREA_UM2 = {TILE: (128 * PIXEL_UM) ** 2, LARGE: (512 * PIXEL_UM) ** 2}

# The timed window is cut into INTERVALS equal parts, and throughput, p50
# and tail are each the best value over the parts. Other tenants of a shared
# host slow it in bursts of seconds to minutes; a burst that spares one part
# then leaves the figures alone (see servebench/README.md for the spreads
# that led here and what this hides).
INTERVALS = 3
# Primary request class and fixed tail percentile per workload: the highest
# of p90/p95/p98/p99 that keeps at least 10 samples beyond it in one
# 13.3 s part of a 40 s window (tile_closed 1100-2300 tiles even when the
# host runs 2x slow, mixed_open 533 tiles).
WORKLOADS = {
    "tile_closed": (TILE, 99.0),
    "mixed_open": (TILE, 98.0),
}
SETUPS = 3
# Events per thread ring in the traced pass. The packed-GEMM column-block
# spans run at ~23k/s per engine thread in the timed window, and the
# autotuner's trial GEMMs during warm-up add more; a 10 s traced window
# wrapped two rings of a quiet host's tile_closed run, a 5 s one does not.
TRACE_RING = 1 << 19
TRACED_WINDOW_S = 5.0
SUBPROCESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, env=None, timeout=SUBPROCESS_TIMEOUT_S):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("command failed (%d): %s" % (proc.returncode,
                                                      " ".join(cmd)))


def child_env(extra=None):
    env = dict(os.environ)
    env["DOINN_NUM_THREADS"] = "2"
    # Compiler temporaries stay inside the checkout too.
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    env.pop("DOINN_TRACE_BUFFER", None)
    env.update(extra or {})
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("repository sources not found next to servebench/")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            env=child_env(), timeout=600)
    run(["cmake", "--build", BUILD, "-j", "4", "--target", "sbtool",
         "doinn_serve"], env=child_env(), timeout=900)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def host_record():
    rec = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            rec["cpu"] = next((l.split(":", 1)[1].strip() for l in f
                               if l.startswith("model name")), "unknown")
        with open("/proc/loadavg") as f:
            rec["loadavg"] = [float(x) for x in f.read().split()[:3]]
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"(CMAKE_BUILD_TYPE|DOINN_NATIVE_ARCH|DOINN_TRACING)"
                             r":\w+=(.*)", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    rec["build_type"] = cache.get("CMAKE_BUILD_TYPE", "unknown")
    rec["native_arch"] = cache.get("DOINN_NATIVE_ARCH", "OFF")
    rec["tracing"] = cache.get("DOINN_TRACING", "ON")
    try:
        rec["git_rev"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        rec["git_rev"] = "none"
    # Checkouts without git metadata are identified by their sources.
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "apps", "servebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    rec["source_sha256"] = digest.hexdigest()[:16]
    return rec


def tally(records):
    counts = [0] * 5
    for r in records:
        counts[r[1]] += 1
    return counts


def latencies(records, cls):
    return sorted(r[3] - r[2] for r in records if r[0] == cls and r[1] == OK)


def end_to_end(workload, serve):
    cls, tail_p = WORKLOADS[workload]
    records = serve["records"]
    if not records:
        raise BenchError("the timed window sent no requests")
    counts = tally(records)
    part_ms = serve["window_s"] * 1000.0 / INTERVALS
    throughput, p50, tail, beyond = [], [], [], []
    for k in range(INTERVALS):
        lo, hi = k * part_ms, (k + 1) * part_ms
        area = sum(AREA_UM2[r[0]] for r in records
                   if r[1] == OK and lo <= r[3] < hi)
        lat = latencies([r for r in records if lo <= r[2] < hi], cls)
        if not lat:
            raise BenchError("no successful reply in part %d of the window"
                             % k)
        throughput.append(area / (part_ms / 1000.0))
        p50.append(percentile(lat, 50.0))
        tail.append(percentile(lat, tail_p))
        beyond.append(len(lat) - math.ceil(tail_p / 100.0 * len(lat)))
    metrics = {
        "throughput_um2_s": max(throughput),
        "latency_p50_ms": min(p50),
        "latency_tail_ms": min(tail),
        "ok_share": counts[OK] / len(records),
        "setup_s": statistics.median(s["load_s"] + s["warm_s"]
                                     for s in serve["setups"]),
        "rss_mb": serve["rss_kb"] / 1024.0,
    }
    note = {
        "workload": workload, "attempted": len(records),
        "ok": counts[OK], "mismatch": counts[MISMATCH], "busy": counts[BUSY],
        "error": counts[ERROR], "lost": counts[LOST],
        "primary_samples": len(latencies(records, cls)),
        "tail_percentile": tail_p, "samples_beyond_tail": min(beyond),
        "parts": {"throughput_um2_s": throughput, "latency_p50_ms": p50,
                  "latency_tail_ms": tail},
        "setups_s": [round(s["load_s"] + s["warm_s"], 4)
                     for s in serve["setups"]],
    }
    if workload == "mixed_open":
        late = sorted(r[4] for r in records)
        note["gen_late_ms"] = {"p99": percentile(late, 99.0),
                               "max": late[-1]}
        large = latencies(records, LARGE)
        if large:
            note["large_latency_ms"] = {"p50": percentile(large, 50.0),
                                        "max": large[-1],
                                        "samples": len(large)}
    return metrics, note


def serve_is_correct(serve):
    counts = tally(serve["records"])
    return (serve["warm_failed"] == 0 and serve["server_exit"] == 0
            and counts[MISMATCH] == 0 and counts[ERROR] == 0)


def scan_trace(path, warm_requests):
    """Plan spans that started after warm-up, and rings that wrapped."""
    first_timed = "\"req\":%d}" % (warm_requests + 1)
    tid_re = re.compile(r'"tid":(\d+)')
    ts_re = re.compile(r'"ts":([0-9.]+)')
    per_tid = {}
    plan_ts = []
    timed_start = None
    with open(path) as f:
        for line in f:
            m = tid_re.search(line)
            if not m or '"ph":"M"' in line:
                continue
            per_tid[m.group(1)] = per_tid.get(m.group(1), 0) + 1
            if '"name":"exec.capture"' in line or '"name":"exec.plan"' in line:
                plan_ts.append(float(ts_re.search(line).group(1)))
            elif ('"name":"serve.ingest"' in line and timed_start is None
                  and first_timed in line):
                timed_start = float(ts_re.search(line).group(1))
    if timed_start is None:
        raise BenchError("trace has no ingest span for the first timed request")
    wrap_at = TRACE_RING - TRACE_RING // 8
    wrapped = sum(1 for n in per_tid.values() if n >= wrap_at)
    late = sum(1 for ts in plan_ts if ts >= timed_start)
    return late, wrapped, len(plan_ts)


def per_layer(serve, traced_throughput, trace, layers):
    late, wrapped, plan_spans = trace
    p = layers["probes"]
    passes = layers["passes"]

    def p50(name):
        return percentile(latencies(passes[name]["records"], TILE), 50.0)

    sched_tile = passes["sched_tile"]["sched"]
    batch = sched_tile["batched_requests"] / max(1, sched_tile["batches"])
    workload_sched = passes["net_workload"]["sched"]
    workload_server = passes["net_workload"]["server"]
    mixed = latencies(passes["sched_mixed"]["records"], TILE)
    m = {
        "serve.load_s": serve["setups"][0]["load_s"],
        "serve.warm_s": serve["setups"][0]["warm_s"],
        "serve.traced_throughput_um2_s": traced_throughput,
        "trace.late_plan_spans": late,
        "trace.plan_spans": plan_spans,
        "trace.wrapped_rings": wrapped,
        "net.self_ms.p50":
            p50("net_tile") - passes["net_tile"]["sched"]["latency_ms_p50"],
        "net.busy_rejected": workload_server["busy_rejected"],
        "net.dropped_replies": workload_server["dropped_replies"],
        "sched.avg_batch": (workload_sched["batched_requests"] /
                            max(1, workload_sched["batches"])),
        "sched.max_queue_depth": workload_sched["max_queue_depth"],
        "sched.self_ms.p50": p50("sched_tile") - p[
            "engine.batch_ms.b%d" % min(8, max(1, round(batch)))],
        # The replay is 20 s (800 tiles): p98 keeps 16 samples beyond it.
        "sched.tile_tail_ms": percentile(mixed, 98.0),
    }
    # The remaining metrics are the probes' own numbers.
    for name in metric_units("per_layer"):
        if name not in m and name in p:
            m[name] = p[name]
    return m


def metric_units(kind):
    """Metric name -> unit of BENCHMARK.json's end_to_end or per_layer list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def gemm_shapes():
    prefix = "gemm.gflops."
    return [name[len(prefix):] for name in metric_units("per_layer")
            if name.startswith(prefix)]


def emit(kind, correct, attempted, failed, metrics, note):
    units = metric_units(kind)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError("no value for " + ", ".join(missing))
    print("# " + json.dumps(note, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)


def bench(args, work):
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    run([SBTOOL, "prepare", "--seed", str(args.seed), "--dir", inputs],
        env=child_env())
    serve_out = os.path.join(work, "serve.json")
    common = ["--dir", inputs, "--workload", args.workload,
              "--seed", str(args.seed)]
    if not args.trace:
        run([SBTOOL, "serve", "--server", SERVER, "--setups", str(SETUPS),
             "--seconds", str(args.seconds), "--out", serve_out] + common,
            env=child_env())
        with open(serve_out) as f:
            serve = json.load(f)
        metrics, note = end_to_end(args.workload, serve)
        if note["samples_beyond_tail"] < 10:
            log("warning: only %d samples beyond p%g"
                % (note["samples_beyond_tail"], note["tail_percentile"]))
        counts = tally(serve["records"])
        emit("end_to_end", serve_is_correct(serve), len(serve["records"]),
             len(serve["records"]) - counts[OK], metrics, note)
        return

    trace_path = os.path.join(work, "trace.json")
    run([SBTOOL, "serve", "--server", SERVER, "--setups", "1",
         "--seconds", str(min(args.seconds / 2.0, TRACED_WINDOW_S)),
         "--out", serve_out,
         "--trace-out", trace_path] + common,
        env=child_env({"DOINN_TRACE_BUFFER": str(TRACE_RING)}))
    with open(serve_out) as f:
        serve = json.load(f)
    trace = scan_trace(trace_path, serve["warm_requests"])
    os.remove(trace_path)
    layers_out = os.path.join(work, "layers.json")
    run([SBTOOL, "layers", "--seconds", str(args.seconds), "--out", layers_out,
         "--gemm", ",".join(gemm_shapes())] + common, env=child_env())
    with open(layers_out) as f:
        layers = json.load(f)
    records = serve["records"] + [r for p in layers["passes"].values()
                                  for r in p["records"]]
    counts = tally(records)
    serve_metrics, note = end_to_end(args.workload, serve)
    metrics = per_layer(serve, serve_metrics["throughput_um2_s"], trace,
                        layers)
    note["layer_mismatches"] = layers["mismatches"]
    note["conv_shapes_by_flops"] = layers["conv_shapes"][:6]
    if trace[1]:
        log("warning: %d trace rings wrapped; trace counts are incomplete"
            % trace[1])
    if trace[0]:
        log("warning: %d plan builds started after warm-up" % trace[0])
    correct = (serve_is_correct(serve) and not layers["mismatches"]
               and counts[MISMATCH] == 0 and counts[ERROR] == 0)
    emit("per_layer", correct, len(records), len(records) - counts[OK],
         metrics, note)


def self_test(work):
    """One corrupted reference byte must lower ok_share and clear correct."""
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    run([SBTOOL, "prepare", "--seed", "1", "--dir", inputs], env=child_env())
    shares = {}
    for corrupt in (False, True):
        out = os.path.join(work, "serve-%d.json" % corrupt)
        run([SBTOOL, "serve", "--server", SERVER, "--setups", "1",
             "--seconds", "3", "--dir", inputs, "--workload", "tile_closed",
             "--seed", "1", "--out", out] + (["--corrupt-ref"] if corrupt else []),
            env=child_env())
        with open(out) as f:
            serve = json.load(f)
        metrics, _ = end_to_end("tile_closed", serve)
        shares[corrupt] = (metrics["ok_share"], serve_is_correct(serve))
    log("self-test: clean ok_share=%.4f correct=%s; corrupted ok_share=%.4f "
        "correct=%s" % (shares[False] + shares[True]))
    if shares[False] != (1.0, True) or not (shares[True][0] < 1.0
                                            and not shares[True][1]):
        raise BenchError("self-test failed")
    print("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    started = time.time()
    work = None
    try:
        build()
        print("# host " + json.dumps(host_record(), sort_keys=True))
        work = os.path.join(BUILD, "run-%d" % os.getpid())
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        if args.self_test:
            self_test(work)
        else:
            bench(args, work)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("servebench: %s" % e)
        return 1
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)
        log("servebench: %.1f s" % (time.time() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
