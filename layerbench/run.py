#!/usr/bin/env python3
"""Layered RMAT-18 benchmark for the GraphH workspace.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale K]

Run from the repository root. Builds `graphh-layerbench` (this directory's
package) and the workspace's `graphh-node` into $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload closed-loop for about S seconds, verifies
every trial, and prints every metric with its unit. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. Exits 1 when a build, a check or a trial
fails. See README.md in this directory for the metrics and workloads.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pagerank-dense", "bfs-frontier", "pagerank-edge-cache", "pagerank-cluster-tcp"]
CLUSTER = "pagerank-cluster-tcp"
# A run must end within 180 s of its start (the build excepted).
RUN_DEADLINE_S = 165
CLUSTER_TRIAL_TIMEOUT_S = 60
# Measured trials a run makes even when they overrun --seconds (as in
# src/main.rs); a traced trial runs the job twice.
MIN_TRIALS = 5
MIN_TRACED_TRIALS = 3
# Fresh-port attempts per cluster trial when a node loses its port to a race.
BIND_ATTEMPTS = 3
# The spans folded from the nodes' traces, by per-layer metric.
SPAN_METRICS = {
    "runtime.barrier_wait_s": "barrier-wait",
    "pool.pool_job_s": "pool-job",
    "pool.encode_compress_s": "encode-compress",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


class TrialError(Exception):
    pass


def host_context():
    """nproc and the CPU cache sizes from sysfs."""
    context = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, entry)
            try:
                with open(os.path.join(base, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(base, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(base, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            if kind != "Instruction":
                context["L" + level + ("d" if kind == "Data" else "")] = size
    except OSError:
        pass
    return context


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "graphh-bench", "--bin", "graphh-node"],
    ]
    for command in commands:
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(command))
    release = os.path.join(target, "release")
    return os.path.join(release, "graphh-layerbench"), os.path.join(release, "graphh-node")


def run_helper(command, deadline):
    """Run graphh-layerbench; relay its lines and return its last-line JSON."""
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("graphh-layerbench timed out")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"graphh-layerbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def free_ports(n):
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class Node:
    """One graphh-node process: its output lines with arrival times, and its
    exit status, time and peak RSS from wait4."""

    def __init__(self, command, siblings):
        self.lines = []
        self.exit = None  # (status, maxrss_kb, monotonic time)
        self.lock = threading.Lock()
        self.siblings = siblings
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.waiter = threading.Thread(target=self._wait, daemon=True)
        self.reader.start()
        self.waiter.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.append((time.monotonic(), line.rstrip("\n")))

    def _wait(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        with self.lock:
            self.exit = (status, usage.ru_maxrss, time.monotonic())
            # Popen must not wait for a pid this thread reaped.
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        if status != 0:
            for other in self.siblings:
                other.kill()

    def kill(self):
        # Not Popen.kill: its poll() could reap the pid under the waiter.
        with self.lock:
            if self.exit is None:
                try:
                    os.kill(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def join(self, deadline):
        self.waiter.join(max(0.0, deadline - time.monotonic()))
        return not self.waiter.is_alive()

    def finish(self):
        """Kill if still running, then wait for the process and its reader."""
        self.kill()
        self.waiter.join()
        self.reader.join()
        self.proc.stdout.close()

    def first(self, text):
        return next(((t, line) for t, line in self.lines if text in line), None)


def parse_summary(line):
    fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
    return int(fields["supersteps"]), int(fields["net_sent_bytes"])


def span_totals(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    totals = {name: 0.0 for name in SPAN_METRICS.values()}
    for event in events:
        if event.get("ph") == "X" and event.get("name") in totals:
            totals[event["name"]] += event["dur"] / 1e6
    return totals


def cluster_trial(node_bin, args, workdir, reference, trace, stats):
    """Spawn the two nodes, time set-up and job, verify, and return the trial's
    numbers. Port races are retried with fresh ports (counted in `stats`)."""
    for attempt in range(BIND_ATTEMPTS):
        ports = free_ports(2)
        peers = ",".join(f"127.0.0.1:{p}" for p in ports)
        outs = [os.path.join(workdir, f"values{i}.bin") for i in range(2)]
        traces = [os.path.join(workdir, f"trace{i}.json") for i in range(2)]
        for path in outs + traces:
            if os.path.exists(path):
                os.remove(path)
        nodes = []
        started = time.monotonic()
        try:
            for i in range(2):
                # The workload of src/workload.rs; a mismatch fails the
                # replica comparison against the in-process reference.
                command = [
                    node_bin, "--id", str(i), "--servers", "2",
                    "--listen", f"127.0.0.1:{ports[i]}", "--peers", peers,
                    "--plane", "poll", "--compressor", "none", "--threads-per-server", "1",
                    "--program", "pagerank", "--scale", str(args.scale), "--edge-factor", "16",
                    "--tiles", "64", "--supersteps", "10", "--seed", str(args.seed),
                    "--out", outs[i],
                ]
                if trace:
                    command += ["--trace-out", traces[i]]
                nodes.append(Node(command, nodes))
            deadline = started + CLUSTER_TRIAL_TIMEOUT_S
            if not all(node.join(deadline) for node in nodes):
                raise TrialError(f"timed out after {CLUSTER_TRIAL_TIMEOUT_S} s; both nodes killed")
        finally:
            for node in nodes:
                node.finish()
        if any(node.exit[0] != 0 for node in nodes):
            if any(node.first("bind listener") for node in nodes) and attempt + 1 < BIND_ATTEMPTS:
                stats["bind_retries"] += 1
                continue
            detail = "; ".join(line for node in nodes for _, line in node.lines[-2:])
            raise TrialError(f"node exited with failure: {detail}")
        break

    established = [node.first("cluster established") for node in nodes]
    summaries = [node.first(" supersteps=") for node in nodes]
    if not all(established) or not all(summaries):
        raise TrialError("a node did not report 'cluster established' and its summary")
    ready = max(t for t, _ in established)
    exited = max(node.exit[2] for node in nodes)
    parsed = [parse_summary(line) for _, line in summaries]
    if any(steps != reference["supersteps_run"] for steps, _ in parsed):
        raise TrialError(f"superstep counts {[s for s, _ in parsed]} differ from the reference")
    sent = sum(b for _, b in parsed)
    if sent != reference["wire_bytes"]:
        raise TrialError(f"nodes sent {sent} bytes, the in-process reference {reference['wire_bytes']}")
    replicas = []
    for path in outs:
        with open(path, "rb") as f:
            replicas.append(f.read())
    if replicas[0] != replicas[1]:
        raise TrialError("node replicas differ")
    if replicas[0] != reference["values"]:
        raise TrialError("node replicas differ from the sequential executor's values")
    result = {
        "setup_s": ready - started,
        "job_s": exited - ready,
        "peak_rss_mb": max(node.exit[1] for node in nodes) / 1024.0,
        "wire_bytes": float(sent),
    }
    if trace:
        totals = [span_totals(path) for path in traces]
        for metric, span in SPAN_METRICS.items():
            result[metric] = sum(t[span] for t in totals)
    return result


class Helper:
    """A `graphh-layerbench cluster-ref` session: it builds and verifies the
    in-process reference, says `ready`, then times one sequential job per
    `job` request, so those jobs interleave with the node trials."""

    def __init__(self, command, deadline):
        self.result = None
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=sys.stderr, text=True)
        self.watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.watchdog.start()

    def _lines(self):
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            if line.startswith('{"correct"'):
                self.result = json.loads(line)
            else:
                yield line

    def read_until(self, prefix):
        """Relay output until a line starts with `prefix`; return its rest, or
        None if the helper ended first."""
        for line in self._lines():
            if line.startswith(prefix):
                return line[len(prefix):]
            print(line)
        return None

    def job(self):
        try:
            self.proc.stdin.write("job\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self.read_until("job ")

    def finish(self):
        """End the session and return the helper's report."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        for line in self._lines():
            print(line)
        if self.proc.wait() != 0 or self.result is None:
            raise SystemExit(f"graphh-layerbench cluster-ref exited with {self.proc.returncode}")
        return self.result

    def close(self):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_cluster(helper_bin, node_bin, args, workdir, deadline):
    ref_path = os.path.join(workdir, "reference.bin")
    helper = Helper([helper_bin, "cluster-ref", "--seed", str(args.seed),
                     "--scale", str(args.scale), "--trace", str(args.trace),
                     "--values-out", ref_path], deadline)
    attempted = failed = measured = 0
    stats = {"bind_retries": 0}
    collected = {}
    try:
        ready = helper.read_until("ready ")
        if ready is not None:
            fields = dict(f.split("=", 1) for f in ready.split())
            with open(ref_path, "rb") as f:
                reference = {"values": f.read(), "wire_bytes": int(fields["wire_bytes"]),
                             "supersteps_run": int(fields["supersteps_run"])}

            def trial(trace):
                nonlocal attempted, failed
                attempted += 1
                try:
                    return cluster_trial(node_bin, args, workdir, reference, trace, stats)
                except TrialError as e:
                    log(f"FAILED cluster trial: {e}")
                    failed += 1
                    return None

            trial(False)  # warm-up, verified but not timed
            window_end = time.monotonic() + args.seconds
            min_trials = MIN_TRACED_TRIALS if args.trace else MIN_TRIALS
            while ((time.monotonic() < window_end or measured < min_trials)
                   and time.monotonic() < deadline - 15):
                measured += 1
                untraced = trial(False)
                if untraced is None:
                    continue
                if not args.trace:
                    for name, value in untraced.items():
                        collected.setdefault(name, []).append(value)
                    # The in-process sequential job, for reference_job_s.
                    helper.job()
                    continue
                traced = trial(True)
                if traced is None:
                    continue
                collected.setdefault("job_s.untraced", []).append(untraced["job_s"])
                collected.setdefault("job_s.traced", []).append(traced["job_s"])
                for name in SPAN_METRICS:
                    collected.setdefault(name, []).append(traced[name])
        out = helper.finish()
    finally:
        helper.close()
    print(f"cluster: {stats['bind_retries']} bind retries, {measured} measured trials")

    values, samples = dict(out["values"]), dict(out["samples"])
    for name, series in collected.items():
        if name.startswith("job_s."):
            continue
        values[name] = statistics.median(series)
        samples[name] = len(series)
        print(f"{name}: median {values[name]:.6f} over {len(series)} samples "
              f"(min {min(series):.6f}, max {max(series):.6f})")
    if args.trace and collected.get("job_s.untraced"):
        untraced = statistics.median(collected["job_s.untraced"])
        traced = statistics.median(collected["job_s.traced"])
        print(f"job_s untraced {untraced:.6f}, traced {traced:.6f}")
        values["trace_overhead_ratio"] = traced / untraced
        samples["trace_overhead_ratio"] = len(collected["job_s.traced"])
    correct = out["correct"] and ready is not None and failed == 0
    return correct, out["attempted"] + attempted, out["failed"] + failed, values, samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=int, default=18,
                        help="RMAT scale (18 for the benchmark; small values for smoke tests)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    helper_bin, node_bin = build(target)
    deadline = time.monotonic() + RUN_DEADLINE_S
    print("host: " + json.dumps(host_context()))
    print(f"workload {args.workload}: seed={args.seed} scale={args.scale} seconds={args.seconds} trace={args.trace}")

    workdir = os.path.join(target, "layerbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == CLUSTER:
            correct, attempted, failed, values, samples = run_cluster(
                helper_bin, node_bin, args, workdir, deadline)
        else:
            out = run_helper([helper_bin, "run", "--workload", args.workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace), "--scale", str(args.scale)], deadline)
            correct, attempted, failed = out["correct"], out["attempted"], out["failed"]
            values, samples = out["values"], out["samples"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    print(f"{'metric':28} {'value':>18} {'unit':8} samples")
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        value = values.get(name)
        if value is None or not math.isfinite(value):
            log(f"FAILED: metric {name} was not measured")
            correct = False
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:28} {value:18.6f} {unit:8} {samples.get(name, 1)}")
    print(f"trials: {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
