#!/usr/bin/env python3
"""Repository benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload drive_decode --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds perfbench/ (a CMake
project over ../src) into $CARGO_TARGET_DIR or .bench_build, pins the
environment for the workload, runs the ros_perfbench harness, checks its
outputs, and prints every metric named in BENCHMARK.json by name with its
unit and direction. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end_to_end metrics, --trace 1 the per_layer ledger.

Workloads, per-workload metric meanings, seeds and the layer -> metric
predictions live in perfbench/spec.json.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
HARNESS_TIMEOUT_S = 170
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

# Decode-mode layers run on every workload; the rest only where the
# workload exercises them (full mode: detect..classify_decode; decode
# mode: spotlight, decode), so only their shares and work are reported
# for every workload.
COMMON_LAYERS = ("scene.frame_returns", "radar.tone", "radar.noise",
                 "radar.range_fft", "pipeline.track")
OTHER_LAYERS = ("radar.detect_points", "pipeline.cloud", "pipeline.dbscan",
                "pipeline.classify_decode", "pipeline.spotlight", "tag.decode")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Linear interpolation between order statistics (q in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, beyond=10, ladder=TAIL_LADDER):
    """Highest ladder percentile with at least `beyond` samples above it.

    Returns (q, value, n), or (None, None, n) when not even the median
    has `beyond` samples above it.
    """
    best = (None, None, len(values))
    for q in ladder:
        value = percentile(values, q) if values else None
        if values and sum(1 for v in values if v > value) >= beyond:
            best = (q, value, len(values))
    return best


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "ros_perfbench"


def pinned_env(threads):
    """The process environment with every ROS_* switch cleared: decoder
    routing, probes, exporters, trace files, alloc counting and the
    flight recorder reroute the decoder or add measured work, and
    ROS_SIMD stays at the dispatch default. Only ROS_THREADS is set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROS_")}
    env["ROS_THREADS"] = str(threads)
    return env


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        top, head = out.stdout.split()
        if Path(top).resolve() == ROOT:
            return head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    # Not a git checkout: identify the sources by content.
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_harness(binary, args, threads):
    proc = subprocess.run([str(binary)] + args, env=pinned_env(threads),
                          stdout=subprocess.PIPE, timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"ros_perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(raw):
    op_ms = raw["op_ms"]
    ops = raw["ops_completed"]
    num, den = raw["quality"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p90": percentile(op_ms, 90),
        "ops_per_s": ratio(ops, raw["wall_s"]),
        "ops_per_cpu_s": ratio(ops, raw["cpu_s"]),
        "accuracy": ratio(num, den),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    led = raw["ledger"]
    ops = max(led["ops"], 1)
    traced_total = sum(led["traced_ms"])
    layers = led["layers"]
    m = {}
    for name in COMMON_LAYERS + OTHER_LAYERS:
        ms, work = layers[name]["ms"], layers[name]["work"]
        m[f"{name}.share"] = ratio(ms, traced_total)
        m[f"{name}.work_per_op"] = work / ops
        if name in COMMON_LAYERS:
            m[f"{name}.ms_per_op"] = ms / ops
            m[f"{name}.ns_per_unit"] = ratio(ms * 1e6, work)
    r = led["ratios"]
    m["radar.range_fft.bins_used_frac"] = ratio(r["bins_read"], r["bins_computed"])
    m["pipeline.dbscan.clustered_frac"] = ratio(r["points_clustered"], r["points_total"])
    m["pipeline.classify_decode.tag_clusters_frac"] = ratio(r["clusters_tag"], r["clusters_total"])
    unattributed = traced_total - sum(v["ms"] for v in layers.values())
    m["ledger.traced_op_ms"] = traced_total / ops
    m["ledger.untraced_op_ms"] = statistics.mean(led["untraced_ms"]) if led["untraced_ms"] else 0.0
    m["ledger.unattributed.ms_per_op"] = unattributed / ops
    m["ledger.unattributed.share"] = ratio(unattributed, traced_total)
    m["ledger.trace_overhead_ms"] = (statistics.median(led["traced_ms"]) -
                                     statistics.median(led["untraced_ms"])) if led["traced_ms"] else 0.0
    m["ledger.sampled_ops"] = float(led["ops"])
    figs, series = raw["figures"], raw["series"]
    frames = series.get("corridor.tick_frames", [])
    m["corridor.tick.frames_per_tick"] = statistics.mean(frames) if frames else 0.0
    active = series.get("corridor.tick_active", [])
    m["corridor.sessions.active_mean"] = statistics.mean(active) if active else 0.0
    m["corridor.sessions.peak"] = figs.get("corridor.sessions.peak", 0.0)
    m["corridor.sessions.recycle_frac"] = figs.get("corridor.sessions.recycle_frac", 0.0)
    m["exec.parallel_efficiency"] = figs["exec.parallel_efficiency"]
    return m, unattributed


def declared(bench, trace):
    return {e["name"]: e for e in bench["per_layer" if trace else "end_to_end"]}


def show(name, value, unit, better, alias=""):
    label = f"{name} ({alias})" if alias and alias != name else name
    print(f"  {label:<48} {value:>14.6g} {unit:<8} {better} is better")


def report_ledger(raw, unattributed):
    led = raw["ledger"]
    ops = max(led["ops"], 1)
    total = sum(led["traced_ms"]) / ops
    print(f"# ledger over {led['ops']} traced operations ({total:.3f} ms each):")
    print(f"  {'layer':<26} {'ms/op':>9} {'share':>7} {'work/op':>12} {'unit':<15} {'ns/unit':>9}")
    for name, t in led["layers"].items():
        ms = t["ms"] / ops
        work = t["work"] / ops
        ns = ratio(t["ms"] * 1e6, t["work"])
        print(f"  {name:<26} {ms:9.4f} {ratio(ms, total):7.2%} {work:12.6g} {t['work_unit']:<15} {ns:9.4g}")
    print(f"  {'ledger.unattributed':<26} {unattributed / ops:9.4f} {ratio(unattributed / ops, total):7.2%}")
    layer_sum = sum(t["ms"] for t in led["layers"].values()) / ops
    print(f"  sum law: layers {layer_sum:.4f} + unattributed {unattributed / ops:.4f} "
          f"= traced {total:.4f} ms/op")
    tick_ms = raw["series"].get("corridor.tick_ms")
    if tick_ms:
        for q in (50, 95):
            print(f"  corridor.tick.ms_p{q:<20} {percentile(tick_ms, q):9.4f} ms (n={len(tick_ms)})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs for self-tests; figures are not comparable")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = SPEC["workloads"][args.workload]
    t_build = time.monotonic()
    binary = build()
    log(f"perfbench: build ready in {time.monotonic() - t_build:.1f} s")

    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        harness_args.append("--smoke")
    raw = run_harness(binary, harness_args, wl["threads"])

    prov = raw["provenance"]
    print(f"# workload {args.workload} seed={args.seed} trace={args.trace} "
          f"loop='{wl['loop']}' ROS_THREADS={prov['ros_threads']} "
          f"nproc={prov['hardware_threads']} simd={prov['simd_backend']} "
          f"compiler='{prov['compiler']}' build={prov['build_type']} commit={commit()}")

    problems = [name for name, ok in raw["checks"].items() if not ok]
    if args.trace:
        metrics, unattributed = per_layer(raw)
        report_ledger(raw, unattributed)
        led = raw["ledger"]
        if led["replay_mismatch"]:
            problems.append("replay guard: " + led["replay_mismatch"])
        if led["ops"] < 1:
            problems.append("no traced operation completed")
        # Sum law: the layers are timed inside the traced operation, so
        # they can never add up to more than it.
        if unattributed < -1e-6 * max(1.0, sum(led["traced_ms"])):
            problems.append("sum law: layers exceed the traced total")
    else:
        metrics = end_to_end(raw)
        if raw["ops_completed"] < 1:
            problems.append("no operation completed")
        elif not args.smoke and metrics["accuracy"] < wl["accuracy_floor"]:
            problems.append(f"accuracy {metrics['accuracy']:.4f} below floor {wl['accuracy_floor']}")
        q, value, n = tail_percentile(raw["op_ms"])
        print(f"# op latency: n={n}, tail p{q} = {value} ms "
              "(highest percentile with >= 10 samples beyond it)")
        if q is None or q < 90:
            print(f"# note: op_ms_p90 rests on fewer than 10 samples beyond it (n={n})")

    spec = declared(bench, args.trace)
    if set(metrics) != set(spec):
        raise RuntimeError("emitted metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(spec))}")
    aliases = wl.get("aliases", {})
    print("# metrics:")
    for name, e in spec.items():
        show(name, metrics[name], e["unit"], e["better"], aliases.get(name, ""))
    for name, v in raw["figures"].items():
        print(f"  figure {name:<41} {v:>14.6g}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"# operations: attempted={attempted} failed={failed} "
          f"ops_failed_frac={ratio(failed, attempted):.6g} "
          f"first_failure={raw['first_failure']!r}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": e["unit"]}
                    for name, e in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        sys.exit(1)
