#!/usr/bin/env python3
"""Benchmark runner for the simulated Madeleine II stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

It builds perfbench/bench.exe with dune (into .bench_build), then runs the
workload's fixed simulated work again and again, each time in a fresh
process, until S seconds have passed. Host metrics are medians over those
runs; simulated metrics must come out identical in every run of a seed
(same sim_digest), which is checked. With --trace 1 the runs alternate
between untraced and traced ones; the traced ones give the per-layer
metrics, the difference gives the tracing overhead, and the first traced run
leaves a Chrome trace and a per-layer table in .bench_out. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 when every delivery check passed, 1 when one failed and
2 when the benchmark could not run. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["pingpong", "forward", "flows", "lossy"]
MIN_RUNS = 3
RUN_TIMEOUT_S = 60

# (name, unit, direction); see README.md for what each one means. The
# host metrics gated by BENCHMARK.json, then the raw host time, which is
# printed but drifts too much between runs on a shared host to gate.
HOST_GATED = [
    ("setup_s", "s", "lower"),
    ("host_wall_rel", "ratio", "lower"),
    ("host_heap_peak_mb", "MB", "lower"),
]
HOST = HOST_GATED + [("host_wall_s", "s", "lower")]

# Simulated metrics, in simulated time: the same in every run of a seed.
# All but paper_rel_err apply to every workload and are gated;
# paper_rel_err only exists where the workload measures a paper point
# and is reported with the per-layer metrics.
SIM_GATED = [
    ("sim_lat_p50_us", "sim_us", "lower"),
    ("sim_lat_p99_us", "sim_us", "lower"),
    ("sim_bw_mb_s", "MB/sim_s", "higher"),
    ("sim_goodput_msg_s", "msg/sim_s", "higher"),
]
SIM = SIM_GATED + [("paper_rel_err", "ratio", "lower")]
SIM_NAMES = {n for n, _, _ in SIM}

END_TO_END = HOST_GATED + SIM_GATED

# Per-layer metrics, grouped by the layer they measure. Simulated times
# are in sim_us, host times in ns or s.
PER_LAYER = [
    ("marcel", [("marcel.events", "count"), ("marcel.host_ns_per_event", "ns")]),
    ("ocaml runtime", [("gc.minor_words_per_msg", "words"), ("gc.promoted_words", "words"),
                       ("gc.major_collections", "count")]),
    ("api", [("api.send_sim_us.p50", "sim_us"), ("api.send_sim_us.p99", "sim_us"),
             ("api.recv_wait_sim_us.p50", "sim_us"), ("api.recv_wait_sim_us.p99", "sim_us"),
             ("api.unpack_sim_us.p50", "sim_us"), ("api.unpack_sim_us.p99", "sim_us"),
             ("api.send_host_ns", "ns"), ("api.recv_host_ns", "ns"), ("api.samples", "count")]),
    ("channel/tm", [("tm.packets", "count"), ("tm.bytes_per_packet", "B"), ("tm.tm0_share", "ratio")]),
    ("simnet", [("simnet.gw_pci_util", "ratio"), ("simnet.link_util", "ratio")]),
    ("vchannel", [("vchannel.send_sim_us.p50", "sim_us"), ("vchannel.send_sim_us.p99", "sim_us"),
                  ("vchannel.recv_wait_sim_us.p50", "sim_us"), ("vchannel.recv_wait_sim_us.p99", "sim_us"),
                  ("vchannel.unpack_sim_us.p50", "sim_us"), ("vchannel.unpack_sim_us.p99", "sim_us"),
                  ("vchannel.send_host_ns", "ns"), ("vchannel.recv_host_ns", "ns"),
                  ("vchannel.samples", "count"), ("vchannel.fwd_packets", "count"),
                  ("vchannel.fwd_bytes_per_packet", "B"), ("vchannel.assembler_peak_bytes", "B"),
                  ("vchannel.gw_pool_peak", "count")]),
    ("sched", [("sched.frames", "count"), ("sched.aggregates", "count"), ("sched.mean_frames", "ratio"),
               ("sched.flush_full", "count"), ("sched.flush_deadline", "count"),
               ("sched.flush_flow", "count")]),
    ("reliability", [("vchannel.reemitted", "count"), ("vchannel.reemit_ratio", "ratio"),
                     ("vchannel.dup_drops", "count"), ("tcpnet.retransmissions", "count"),
                     ("tcpnet.crc_rejects", "count"), ("tcpnet.inbox_peak", "B"),
                     ("tcpnet.sendq_peak", "count")]),
    ("credits/sentinel/faults", [("credits.stalls", "count"), ("credits.grants", "count"),
                                 ("credits.probes", "count"), ("sentinel.suspicions", "count"),
                                 ("faults.frames_dropped", "count"), ("faults.drop_share", "ratio")]),
    ("load generator", [("gen.late_p99_us", "sim_us")]),
    ("paper calibration", [("paper_rel_err", "ratio")]),
    ("tracing", [("trace.spans", "count"), ("trace.overhead_s", "s")]),
]

# Metrics of the reliable vchannel plane, which no workload arms yet (see
# README.md, "Known defect"). The table shows them as n/a; the JSON result
# leaves them out rather than report a zero that was never measured.
UNARMED = {"vchannel.reemitted", "vchannel.reemit_ratio", "vchannel.dup_drops",
           "sentinel.suspicions"}


class BenchError(Exception):
    pass


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        raise BenchError("run from the root of a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stderr[-4000:])


def one_run(workload, seed, traced, export=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if export:
        cmd += ["--out", OUT_DIR]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: run exceeded {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_for(workload, seed, seconds, trace):
    """Fresh-process runs until [seconds] have passed; traced runs
    alternate with untraced ones when [trace]."""
    os.makedirs(OUT_DIR, exist_ok=True)
    plain, traced = [], []
    start = time.monotonic()
    while (time.monotonic() - start < seconds or len(plain) < MIN_RUNS
           or (trace and len(traced) < MIN_RUNS)):
        plain.append(one_run(workload, seed, False))
        if trace:
            traced.append(one_run(workload, seed, True, export=not traced))
    return plain, traced


def value(run, key):
    """A run's value of [key]; host_wall_rel is the run's host time over
    its calibration kernel's time (see bench.ml, [calibrate])."""
    if key == "host_wall_rel":
        return run["host_wall_s"] / run["calib_s"]
    if key in SIM_NAMES:
        return float(run["sim"][key])
    return float(run[key])


def median(runs, key):
    return statistics.median(value(r, key) for r in runs)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(runs):
    """(correct, attempted, failed, problems) over every run."""
    problems = []
    digests = {r["sim_digest"] for r in runs}
    if len(digests) != 1:
        problems.append(f"sim_digest differs between runs of one seed: {sorted(digests)}")
    for r in runs:
        if r["error"] is not None:
            problems.append("run raised " + r["error"])
        if r["span_violations"]:
            problems.append(f"{r['span_violations']} messages whose spans do not sum to their latency")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if failed:
        problems.append(f"{failed} of {attempted} messages not delivered exactly once, intact and in order")
    return not problems, attempted, failed, problems


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.6g}"
    return str(int(v)) if isinstance(v, (int, float)) else str(v)


def layer_metrics(plain, traced):
    """Per-layer values: counters and span statistics from the traced runs
    (medians for host-time ones), runtime figures from the untraced ones."""
    names = [n for _, group in PER_LAYER for n, _ in group]
    out = {}
    for n in names:
        vals = [r["layers"][n] for r in traced if n in r["layers"]]
        if vals:
            out[n] = statistics.median(vals)
    wall = median(plain, "host_wall_s")
    events = plain[0]["events"]
    msgs = plain[0]["attempted"]
    out["marcel.events"] = float(events)
    out["marcel.host_ns_per_event"] = wall * 1e9 / max(1, events)
    out["gc.minor_words_per_msg"] = median(plain, "gc_minor_words") / max(1, msgs)
    out["gc.promoted_words"] = median(plain, "gc_promoted_words")
    out["gc.major_collections"] = median(plain, "gc_major_collections")
    out["trace.overhead_s"] = median(traced, "host_wall_s") - wall
    if plain[0]["sim"]["paper_rel_err"] is not None:
        out["paper_rel_err"] = float(plain[0]["sim"]["paper_rel_err"])
    return out


def report(workload, seed, plain, traced, elapsed):
    lines = []
    first = plain[0]
    lines.append(f"perfbench {workload} seed {seed}: {len(plain)} untraced"
                 + (f" + {len(traced)} traced" if traced else "")
                 + f" fresh-process runs in {elapsed:.1f} s")
    lines.append("end-to-end, host (median of runs; quartiles):")
    for name, unit, better in HOST:
        vals = [value(r, name) for r in plain]
        q1, q3 = quartiles(vals)
        lines.append(f"  {name:<22} {fmt(statistics.median(vals)):>14} {unit:<6} "
                     f"{better:<6} [{fmt(q1)} .. {fmt(q3)}]")
    lines.append("end-to-end, simulated (identical in every run of the seed; "
                 "means over the workload's phases, listed below):")
    sim = first["sim"]
    for name, unit, better in SIM:
        extra = ""
        if name == "sim_lat_p50_us":
            extra = f"({sim['sim_lat_samples']} samples in {sim['sim_lat_phases']} phases)"
        elif name == "sim_lat_p99_us":
            extra = f"(p{sim['sim_lat_tail_pct']:g} or above in every phase)"
        lines.append(f"  {name:<22} {fmt(sim[name]):>14} {unit:<9} {better:<6} {extra}")
    lines.append(f"  {'fail_ratio':<22} {first['failed'] / max(1, first['attempted']):>14g} "
                 f"{'ratio':<6} {'lower':<6} ({first['failed']} of {first['attempted']} per run)")
    lines.append(f"  {'sim_digest':<22} {first['sim_digest']}")
    lines.append("phases:")
    lines.append(f"  {'phase':<16} {'msgs':>6} {'lat_p50_us':>12} {'lat_tail_us':>12} "
                 f"{'tail':>6} {'bw_MB/s':>9} {'msg/s':>10}  paper")
    for ph in first["phases"]:
        paper = "; ".join(f"{c['label']} {c['measured']:.4g} vs "
                          f"{'<=' if c['at_most'] else ''}{c['paper']:g} (err {c['rel_err']:.3f})"
                          for c in ph["paper"])
        lines.append(f"  {ph['name']:<16} {ph['msgs']:>6} {ph['sim_lat_p50_us']:>12.3f} "
                     f"{ph['sim_lat_p99_us']:>12.3f} p{ph['sim_lat_tail_pct']:<5g} "
                     f"{ph['sim_bw_mb_s']:>9.3f} {ph['sim_goodput_msg_s']:>10.1f}  {paper}")
    return lines


def layer_table(layers):
    lines = ["per-layer (traced runs; counters and simulated spans are exact, host ones medians):"]
    for group, metrics in PER_LAYER:
        lines.append(f"  [{group}]")
        for name, unit in metrics:
            note = " (reliable vchannel not armed)" if name in UNARMED else ""
            lines.append(f"    {name:<34} {fmt(layers.get(name)):>16} {unit}{note}")
    return lines


def bench(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    build()
    start = time.monotonic()
    plain, traced = run_for(args.workload, args.seed, args.seconds, args.trace == 1)
    elapsed = time.monotonic() - start
    correct, attempted, failed, problems = verdict(plain + traced)
    lines = report(args.workload, args.seed, plain, traced, elapsed)
    if args.trace == 1:
        layers = layer_metrics(plain, traced)
        table = layer_table(layers)
        lines += table
        with open(os.path.join(OUT_DIR, f"layers-{args.workload}.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
        lines.append(f"wrote {OUT_DIR}/trace-{args.workload}.json (Chrome trace-event JSON) "
                     f"and {OUT_DIR}/layers-{args.workload}.txt")
        # Every listed metric needs a number; one whose layer this workload
        # does not drive (n/a in the table) is reported as 0.
        units = {n: u for _, group in PER_LAYER for n, u in group if n not in UNARMED}
        metrics = {n: {"value": layers.get(n, 0.0), "unit": units[n]} for n in units}
    else:
        metrics = {n: {"value": median(plain, n), "unit": u} for n, u, _ in END_TO_END}
    for p in problems:
        lines.append("DELIVERY CHECK FAILED: " + p)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def selftest(args):
    """Every message's simulated send, wait and unpack spans sum exactly to
    its one-way latency, and two runs of one seed give one sim_digest."""
    build()
    ok = True
    for w in WORKLOADS:
        a = one_run(w, args.seed, True)
        b = one_run(w, args.seed, True)
        good, _, _, problems = verdict([a, b])
        print(f"selftest {w:<9} seed {args.seed}: digest {a['sim_digest']} "
              f"spans checked {a['attempted']} messages: {'ok' if good else 'FAIL'}")
        for p in problems:
            print("  " + p)
        ok = ok and good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="pingpong")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        return selftest(args) if args.selftest else bench(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
