#!/usr/bin/env python3
"""The simulator benchmark: build pmbench, run one workload, check it.

    python3 simbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds simbench/ (and the simulator
sources in src/) into .bench_build/simbench, runs the paper-anchor
check and then the workload in separate processes, checks every pass
against the committed reference digest, and prints the metrics. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the run's spans as Chrome trace-event JSON to .bench_out/.
A failed point (a panic, a watchdog trip, an undelivered or corrupted
message, an anchor off the paper or a digest off the reference) makes
`correct` false and the exit code 1.

Other modes:
    --self-check   show that a corrupted reference digest is caught
    --record       store this run's digest as the reference for its
                   input class (only after a reviewed model change)
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("bidir-stream", "ring-4cluster", "matmult-node")
# Per-process limit; a run must end within 180 s.
PROCESS_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_us_per_s": "us/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit. Counts and simulated quantities come from
# public sim::Scalars and repeat exactly; *_s and ns_* are host time.
PER_LAYER = {
    "sim.events": "count",
    "sim.cancelled": "count",
    "sim.slab_slots": "count",
    "sim.ns_per_event": "ns",
    "sim.probe_ns_per_event": "ns",
    "mem.pio_beats": "count",
    "mem.bus_transactions": "count",
    "mem.snoop_probes": "count",
    "mem.addr_phase_util": "ratio",
    "mem.addr_wait_mean_ns": "ns",
    "mem.ns_per_pio_beat": "ns",
    "mem.ns_per_bus_txn": "ns",
    "mem.l1_accesses": "count",
    "mem.l1_miss_ratio": "ratio",
    "mem.l2_misses": "count",
    "mem.ns_per_l1_access": "ns",
    "cpu.loads": "count",
    "cpu.stores": "count",
    "cpu.tlb_misses": "count",
    "cpu.miss_stall_ticks": "ticks",
    "ni.words_sent": "count",
    "ni.words_received": "count",
    "ni.crc_errors": "count",
    "net.routes": "count",
    "net.symbols": "count",
    "net.route_conflicts": "count",
    "msg.system_ctor_s": "s",
    "node.node_ctor_s": "s",
    "msg.reset_for_run_s": "s",
    "node.reset_s": "s",
    "msg.system_dtor_s": "s",
    "node.node_dtor_s": "s",
    "msg.messages_sent": "count",
    "msg.messages_received": "count",
    "msg.acks_sent": "count",
    "msg.retransmits": "count",
    "msg.useful_ratio": "ratio",
    "msg.sim_bidir_mbps": "MB/s",
    "msg.sim_end_us": "us",
    "workloads.mflops": "MFLOPS",
    "self.bench_s": "s",
    "self.msg_s": "s",
    "self.node_s": "s",
    "self.sim_s": "s",
    "self.workloads_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Per-layer metrics that no public call exposes on a workload: the
# Figure 12 probe owns its PmComm endpoints and destroys their
# counters before returning.
NOT_EXPOSED = {
    "bidir-stream": ["msg.messages_sent", "msg.messages_received",
                     "msg.acks_sent", "msg.retransmits",
                     "msg.useful_ratio"],
}

# Traced span -> per-layer timing metric.
SPAN_METRICS = {
    "msg.System()": "msg.system_ctor_s",
    "node.Node()": "node.node_ctor_s",
    "msg.resetForRun": "msg.reset_for_run_s",
    "node.reset": "node.reset_s",
    "msg.~System": "msg.system_dtor_s",
    "node.~Node": "node.node_dtor_s",
}


def die(msg):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build pmbench; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the simulator sources (src/) are not next to simbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "--target", "pmbench",
                       "-j", "4"], stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(BUILD, "pmbench")


def run_json(cmd):
    """Run one pmbench process; return (exit code, last-line JSON)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def median(values):
    return statistics.median(values) if values else 0.0


def host_record(result):
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            src.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                src.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "compiler": result.get("compiler"),
        "build_type": result.get("build_type"),
        "cxx_flags": result.get("cxx_flags"),
        "git_revision": rev.stdout.strip() if rev.returncode == 0
        else "none (not a git checkout)",
        "src_sha256": src.hexdigest(),
    }


def end_to_end(result):
    """The run's end-to-end metrics and the samples behind them.

    Each host time is the median over the run's untraced passes (set-up
    also over the set-up-only samples), with its sample count and the
    fastest pass beside it in the info line.
    """
    passes = [p for p in result["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in passes]
    rates = [p["sim_us"] / p["sim_s"] for p in passes if p["sim_s"] > 0]
    setups = result["setup_only_s"] + [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "sim_us_per_s": median(rates),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "wall_s": {"samples": len(walls), "median": median(walls),
                   "best": min(walls)},
        "setup_s": {"samples": len(setups), "median": median(setups),
                    "best": min(setups)},
        "sim_us_per_s": {"samples": len(rates), "median": median(rates),
                         "best": max(rates, default=0.0)},
    }
    return metrics, samples


def per_layer(result):
    out = result["outputs"]
    probes = result["probes"]
    get = out.get
    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    m = {name: get(name, 0.0) for name in PER_LAYER}
    events = get("sim.events", 0.0)
    m["sim.ns_per_event"] = (
        median([1e9 * p["sim_s"] / events for p in untraced])
        if events else 0.0)
    for name in ("sim.probe_ns_per_event", "mem.ns_per_pio_beat",
                 "mem.ns_per_bus_txn", "mem.ns_per_l1_access"):
        m[name] = probes.get(name, 0.0)
    waits = get("mem.addr_wait_count", 0.0)
    m["mem.addr_wait_mean_ns"] = (
        get("mem.addr_wait_sum_ticks", 0.0) / waits / 1000.0
        if waits else 0.0)
    l1 = get("mem.l1_accesses", 0.0)
    m["mem.l1_miss_ratio"] = get("mem.l1_misses", 0.0) / l1 if l1 else 0.0
    sent = sum(get(k, 0.0) for k in ("msg.messages_sent", "msg.acks_sent",
                                     "msg.nacks_sent", "msg.retransmits"))
    m["msg.useful_ratio"] = (get("msg.messages_received", 0.0) / sent
                             if sent else 0.0)
    self_s = result["self_s"]
    for span, metric in SPAN_METRICS.items():
        m[metric] = self_s.get(span, 0.0)
    # Self time of a traced pass, split by the layer each span calls
    # into; the probes are not part of a pass.
    for layer in ("bench", "msg", "node", "sim", "workloads"):
        m["self.%s_s" % layer] = sum(
            v for k, v in self_s.items()
            if k.split(".")[0] == layer and k != "bench.probes")
    m["trace.overhead_ratio"] = (
        median([p["wall_s"] for p in traced]) /
        median([p["wall_s"] for p in untraced])
        if traced and untraced else 0.0)
    return m


def check(result, references, record):
    """Failure messages per pass, and the run-level ones."""
    workload = result["workload"]
    cls = result["input_class"]
    ref = references.get(workload, {}).get(cls)
    digests = {p["digest"] for p in result["passes"] if not p["failures"]}
    run_failures = []
    if record:
        if len(digests) != 1:
            run_failures.append("passes disagree; nothing recorded")
        else:
            references.setdefault(workload, {})[cls] = digests.pop()
            ref = references[workload][cls]
    elif ref is None:
        run_failures.append("no reference digest for %s %s" %
                            (workload, cls))
    by_mode = [{p["digest"] for p in result["passes"] if p["traced"] == t}
               for t in (False, True)]
    if by_mode[1] and by_mode[0] != by_mode[1]:
        run_failures.append("traced and untraced passes differ: %s vs %s"
                            % (sorted(by_mode[0]), sorted(by_mode[1])))
    per_pass = []
    for p in result["passes"]:
        fails = list(p["failures"])
        if ref is not None and p["digest"] != ref:
            fails.append("digest %s differs from the reference %s%s" %
                         (p["digest"], ref,
                          " (traced pass)" if p["traced"] else ""))
        per_pass.append(fails)
    return per_pass, run_failures


def run(args):
    if args.workload not in WORKLOADS:
        die("unknown workload %r (one of %s)" %
            (args.workload, ", ".join(WORKLOADS)))
    pmbench = build()
    os.makedirs(OUT, exist_ok=True)
    with open(args.references) as f:
        references = json.load(f)

    # The Figure 9/11 anchors run in a process of their own so the
    # workload's peak RSS is its own.
    code, anchors = run_json([pmbench, "--anchors"])
    if code == 3:
        die("pmbench refused this build (see above)")
    anchor_failures = (["anchor run did not finish"] if anchors is None
                       else anchors["failures"])

    trace_out = os.path.join(OUT, "trace-%s-seed%d.json" %
                             (args.workload, args.seed))
    cmd = [pmbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    code, result = run_json(cmd)
    if code == 3:
        die("pmbench refused this build (see above)")
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        print("simbench: the workload process did not finish",
              file=sys.stderr)
        return 1

    per_pass, run_failures = check(result, references, args.record)
    if args.record and not run_failures:
        with open(args.references, "w") as f:
            json.dump(references, f, indent=2, sort_keys=True)
            f.write("\n")
    attempted = len(per_pass) + 1
    failed = sum(1 for f in per_pass if f) + (1 if anchor_failures else 0)
    messages = anchor_failures + run_failures + [
        m for f in per_pass for m in f]
    correct = failed == 0 and not run_failures

    if args.trace:
        metrics, samples = per_layer(result), None
        units = PER_LAYER
    else:
        metrics, samples = end_to_end(result)
        units = END_TO_END

    print(json.dumps({"host": host_record(result),
                      "workload": args.workload, "seed": args.seed,
                      "input_class": result["input_class"],
                      "passes": len(per_pass),
                      "timings": samples,
                      "fail_ratio": failed / attempted,
                      "anchors": anchors,
                      "not_exposed": NOT_EXPOSED.get(args.workload, []),
                      "trace_file": os.path.relpath(trace_out, ROOT)
                      if args.trace else None}))
    for msg in messages[:20]:
        print("FAILED: " + msg)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0 if correct else 1


def self_check(args):
    """A corrupted reference digest must make the run fail."""
    with open(REFERENCES) as f:
        references = json.load(f)
    cls = "placement-%d" % (args.seed % 4)
    good = references["matmult-node"][cls]
    references["matmult-node"][cls] = "%016x" % (int(good, 16) ^ 1)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.NamedTemporaryFile("w", dir=OUT, suffix=".json",
                                     delete=False) as f:
        json.dump(references, f)
        corrupted = f.name
    try:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               "matmult-node", "--seed", str(args.seed), "--seconds", "1",
               "--trace", "0", "--references", corrupted]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    finally:
        os.unlink(corrupted)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    caught = proc.returncode != 0 and not last["correct"] and \
        last["failed"] == last["attempted"] - 1
    print("self-check: corrupted reference %s (exit %d, %d/%d points "
          "failed)" % ("caught" if caught else "NOT caught",
                       proc.returncode, last["failed"], last["attempted"]))
    return 0 if caught else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="matmult-node")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--references", default=REFERENCES)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")
    if args.self_check:
        return self_check(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
