#!/usr/bin/env python3
"""Wire-level serving benchmark for medrelax.

Builds the medrelax binaries and the benchmark's own relaxbench from this
checkout, freezes a generated world into a snapshot image with
medrelax_ingest, serves it with `medrelax_server --listen 0 --workers 2`,
drives it over loopback TCP from one client process, checks every reply
against a reference computed in-process from the same image, and prints
one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload fuzzy_terms_16k --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics of a separate in-process traced run of the same
request stream. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BUILD_TYPE = "Release"

# World and image per workload. The world is fixture: one generator seed
# for every run, so --seed varies only the request streams.
# hot_reload_16k is not in BENCHMARK.json: its p99 latency spreads wider
# between runs than any allowed bound (README.md, "Noise"). It still runs
# by name and in the self-test.
WORKLOADS = {
    "fuzzy_terms_16k": {"concepts": 16000, "findings": 1000, "exact": False,
                        "setups": 3, "trace_requests": 800},
    "exact_concepts_64k": {"concepts": 64000, "findings": 1000, "exact": True,
                           "setups": 5, "trace_requests": 4000},
    "hot_reload_16k": {"concepts": 16000, "findings": 1000, "exact": True,
                       "setups": 5, "trace_requests": 20000},
}
# The self-test's tiny world.
TINY_WORLD = {"concepts": 800, "findings": 100}
WORLD_SEED = 7

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "cpu_us_per_req": "us",
    "rss_mb": "MiB",
}
PER_LAYER = {
    "matching.map_us_p50": "us",
    "matching.map_us_p99": "us",
    "matching.trigram_candidates_us_p50": "us",
    "matching.find_exact_us_p50": "us",
    "matching.exact_resolved_ratio": "ratio",
    "matching.trigram_build_ms": "ms",
    "protocol.parse_us_p50": "us",
    "relax.relax_us_p50": "us",
    "relax.relax_us_p99": "us",
    "relax.candidate_us_mean": "us",
    "relax.scoring_us_mean": "us",
    "relax.rank_us_mean": "us",
    "relax.radius_iterations_mean": "count",
    "relax.candidates_scanned_mean": "count",
    "graph.neighbors_visited_mean_kb": "count",
    "graph.neighbors_visited_mean_far": "count",
    "relax.geometry_memo_hit_ratio": "ratio",
    "serve.service_us_p50": "us",
    "serve.service_us_p99": "us",
    "serve.self_us_p50": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced_ratio": "ratio",
    "serve.contexts_unaddressable": "count",
    "net.gen_rtt_us_p50": "us",
    "net.wire_overhead_us_p50": "us",
    "flat.load_image_ms": "ms",
    "ingest.build_s": "s",
    "ingest.write_s": "s",
    "host.calib_ms": "ms",
}


def check_call(cmd, **kwargs):
    subprocess.run(cmd, check=True, stdout=sys.stderr, **kwargs)


def build():
    """Configures once, then builds incrementally; returns the bin dir."""
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check_call(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    return CMAKE_DIR


# Every process a run starts (ingest, server, load client, tracer) is
# bound to one core. On a shared VM a wake-up that crosses cores waits for
# the hypervisor to schedule the idle vCPU, and those waits made the same
# run swing 2-3x in throughput from one minute to the next; on one core a
# hand-off is a context switch, and every figure tracks the CPU cost of a
# request.
BENCH_CPU = {max(os.sched_getaffinity(0))}


def on_bench_cpu():
    os.sched_setaffinity(0, BENCH_CPU)


def bench_json(cmd):
    """Runs a relaxbench subcommand and parses its JSON line."""
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         timeout=150, text=True,
                         preexec_fn=on_bench_cpu).stdout
    return json.loads(out.strip().splitlines()[-1])


class Server:
    """One medrelax_server process serving `image` over loopback TCP."""

    def __init__(self, binary, work, image_name):
        self.stderr = open(os.path.join(work, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [binary, "serve", "--image", image_name, "--listen", "0",
             "--workers", "2"],
            cwd=work, stdout=subprocess.PIPE, stderr=self.stderr,
            preexec_fn=on_bench_cpu)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("ok listening port="):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("=", 1)[1])

    def relax_once(self, term):
        """Sends one RELAX on a fresh connection and reads the reply."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=60) as sock:
            stream = sock.makefile("rwb")
            stream.readline()  # banner
            stream.write(f"RELAX {term}\n".encode())
            stream.flush()
            line = stream.readline().decode()
            if line.startswith("ok relax"):
                while line and line.rstrip("\n") != "end":
                    line = stream.readline().decode()
            if not line:
                raise RuntimeError("server closed the setup probe")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def probe_term(world):
    """The last KB instance name of the world: the setup's first RELAX."""
    term = "aspirin"
    with open(os.path.join(world, "kb.tsv")) as kb:
        for line in kb:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "I" and len(fields) >= 3:
                term = fields[2]
    return term


def setup(bins, work, world, spec):
    """Ingest -> boot -> first answered RELAX, timed; returns the server."""
    image = os.path.join(work, "image.img")
    cmd = [os.path.join(bins, "medrelax_ingest"), world, image]
    if spec["exact"]:
        cmd.append("--exact")
    start = time.perf_counter()
    ingest = subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=on_bench_cpu)
    server = Server(os.path.join(bins, "medrelax_server"), work, "image.img")
    try:
        server.relax_once(probe_term(world))
    except Exception:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    timing = dict(kv.split("=") for kv in ingest.stderr.split()
                  if kv.startswith(("build=", "write=")))
    seconds = {k: float(v.rstrip("s")) for k, v in timing.items()}
    return server, elapsed, seconds


def run_workload(args, bins, num_setups=0, corrupt_reference=False,
                 tiny=False):
    spec = dict(WORKLOADS[args.workload])
    if tiny:
        spec.update(TINY_WORLD)
    work = os.path.join(BUILD_DIR, "work", args.workload)
    world = os.path.join(work, "world")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(world)
    bench = os.path.join(bins, "relaxbench")
    calib = [bench_json([bench, "calib"])["calib_ms"]] if args.trace else []

    check_call([os.path.join(bins, "medrelax_tool"), "generate", world,
                "--concepts", str(spec["concepts"]),
                "--findings", str(spec["findings"]),
                "--seed", str(WORLD_SEED)])

    setups, builds, writes = [], [], []
    server = None
    try:
        # setup_s is the median of several full set-ups per run.
        for _ in range(num_setups or spec["setups"]):
            if server:
                server.stop()
                server = None
            server, elapsed, timing = setup(bins, work, world, spec)
            setups.append(elapsed)
            builds.append(timing.get("build", 0.0))
            writes.append(timing.get("write", 0.0))
        image = os.path.join(work, "image.img")
        wire_cmd = [bench, "wire", "--image", image,
                    "--reload-path", "image.img",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--port", str(server.port),
                    "--server-pid", str(server.proc.pid),
                    "--seconds", str(args.seconds)]
        if corrupt_reference:
            wire_cmd.append("--corrupt-reference")
        wire = bench_json(wire_cmd)
    finally:
        if server:
            server.stop()

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"build_type={BUILD_TYPE} attempted={wire['attempted']} "
          f"answered={wire['answered']} failed={wire['failed']} "
          f"failures={json.dumps(wire['failures'], sort_keys=True)} "
          f"digest={wire['digest']} distinct={wire['distinct_requests']} "
          f"latency_samples={wire['latency_samples']:.0f} "
          f"blocks={wire['blocks']:.0f} "
          f"latency_p99_pooled_us={wire['latency_p99_pooled_us']:.1f} "
          f"reloads={wire['reloads']:.0f} "
          f"reloads_per_s={wire['reloads_per_s']:.2f} "
          f"reload_p50_ms={wire['reload_p50_ms']:.3f}")

    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "throughput_rps": wire["throughput_rps"],
            "latency_p50_us": wire["latency_p50_us"],
            "latency_p99_us": wire["latency_p99_us"],
            "cpu_us_per_req": wire["cpu_us_per_req"],
            "rss_mb": wire["rss_mb"],
        }
        units = END_TO_END
    else:
        trace = bench_json([
            bench, "trace", "--image", os.path.join(work, "image.img"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--requests", str(spec["trace_requests"]),
            "--spans", os.path.join(work, "spans.tsv")])
        calib.append(bench_json([bench, "calib"])["calib_ms"])
        values = dict(trace["metrics"])
        values.update({
            "serve.contexts_unaddressable": wire["contexts_unaddressable"],
            "net.gen_rtt_us_p50": wire["gen_rtt_us_p50"],
            "net.wire_overhead_us_p50":
                wire["latency_p50_us"] - values["serve.service_us_p50"],
            "ingest.build_s": statistics.median(builds),
            "ingest.write_s": statistics.median(writes),
            "host.calib_ms": statistics.mean(calib),
        })
        units = PER_LAYER
        print(f"perfbench: trace requests={trace['requests']:.0f} "
              f"far_requests={trace['far_requests']:.0f} "
              f"contexts={wire['contexts_total']:.0f} "
              f"calib_ms={' '.join(f'{c:.1f}' for c in calib)} "
              f"spans={os.path.join(work, 'spans.tsv')}")

    correct = wire["mismatches"] == 0 and wire["dropped"] == 0
    return {
        "correct": correct,
        "attempted": int(wire["attempted"]),
        "failed": int(wire["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def self_test(bins):
    """Tiny-world pass over every workload: every metric is emitted with
    the unit BENCHMARK.json names, and a corrupted reference answer is
    caught as a failed operation."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    expect = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                      trace=trace)
            result = run_workload(args, bins, num_setups=1, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} "
                                f"!= declared {expect[trace]}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: incorrect replies")
        args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                  trace=0)
        corrupted = run_workload(args, bins, num_setups=1,
                                 corrupt_reference=True, tiny=True)
        if corrupted["failed"] == 0 or corrupted["correct"]:
            problems.append(f"{workload}: corrupted reference not detected")
    for p in problems:
        print(f"perfbench self-test: FAIL {p}")
    print(f"perfbench self-test: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"perfbench: no medrelax sources under {ROOT}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    bins = build()
    if args.self_test:
        return self_test(bins)
    result = run_workload(args, bins)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
