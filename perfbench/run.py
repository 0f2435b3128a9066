#!/usr/bin/env python3
"""Durable-path benchmark of the MemoryDB reproduction.

One run:

    python3 perfbench/run.py --workload durable_write|read_mostly|recovery \
        --seed N --seconds N --trace 0|1

builds the program from the checkout it sits in (into .bench_build/), starts
three memorydb-txlogd log replicas and a durable memorydb-server
in front of them, drives them with perfbench/pbload, checks every reply
against pbload's own model, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). The line before it is "detail {...}": operation counts per type,
the host stamp and the run's CPU steal share.

    python3 perfbench/run.py --selfcheck

runs all three workloads for a few seconds with every check on, plus a run
whose model holds one corrupted expected value and so must fail.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import ctypes
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_BUILD = os.path.join(BUILD, "program")
LOAD_BUILD = os.path.join(BUILD, "pbload")
BUILD_TYPE = "Release"

WORKLOADS = ("durable_write", "read_mostly", "recovery")
BOOTS = 3              # cluster boots per run; setup_s takes their median
TRACE_SAMPLE_RATE = 16  # traced runs: one write in this many carries a trace id

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "write_p50_us": "us",
    "read_p50_us": "us",
    "cpu_us_per_op": "us",
    "log_bytes_per_user_byte": "ratio",
    "mem_bytes_per_user_byte": "ratio",
    "replay_ms": "ms",
    "restore_ms": "ms",
    "snapshot_bytes_per_user_byte": "ratio",
}

# The write path's hops (common/trace_export WritePathChain), destinations.
STAGES = ("gate.submit", "gate.append.issue", "rpc.send", "rpc.dispatch",
          "log.append.receive", "log.durable.local", "log.quorum.commit",
          "rpc.recv", "append.ack", "reply.release")

PER_LAYER = {
    "gate.appends_per_write": "ratio",
    "gate.queue_wait_us.p50": "us",
    "gate.queue_wait_us.p99": "us",
    "gate.queue_depth.mean": "count",
    "rpc.rtt_us.p50": "us",
    "rpc.rtt_us.p99": "us",
    "rpc.requests_per_write": "ratio",
    "txlog.append_us.p50": "us",
    "txlog.append_us.p99": "us",
    "txlog.commit_us.p50": "us",
    "txlog.fsyncs_per_write": "ratio",
    "txlog.entries_per_write": "ratio",
    "txlog.cpu_us_per_op": "us",
    **{"stage.%s_us.p50" % s: "us" for s in STAGES},
    "stage.p50_sum_us": "us",
    "tracker.held_reads_per_read": "ratio",
    "tracker.hold_us.p50": "us",
    "tracker.hold_us.p99": "us",
    "net.cmds_per_batch.mean": "count",
    "server.cpu_us_per_op": "us",
    "engine.exec_ns_per_cmd": "ns",
    "engine.cmd_us.p50": "us",
    "resp.decode_ns_per_cmd": "ns",
    "resp.encode_ns_per_reply": "ns",
    "replay.entries": "count",
    "replay.entries_per_s": "1/s",
    "replay.read_ms": "ms",
    "replay.apply_ns_per_entry": "ns",
    "replay.checksums_verified": "count",
    "snapshot.serialize_ms": "ms",
    "snapshot.deserialize_ms": "ms",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
}


class BenchError(Exception):
    pass


class Stop(Exception):
    """Raised from SIGTERM/SIGINT so every finally block reaps and cleans."""


def on_signal(signum, frame):
    raise Stop("signal %d" % signum)


_libc = ctypes.CDLL(None, use_errno=True)

# Every process of the durable path, pbload included, runs on this one vCPU.
# On a shared VM, a wake-up that crosses to another vCPU waits whenever the
# host has that vCPU descheduled, and the write path is a chain of such
# wake-ups between four processes; on one vCPU each hop is a guest context
# switch, and host load slows the run only in proportion to its share.
PIN_CPU = max(os.sched_getaffinity(0))


def child_setup():
    """Runs in each child before exec: pins it to PIN_CPU and has it
    SIGKILLed when run.py dies."""
    os.sched_setaffinity(0, {PIN_CPU})
    _libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


# ---------------------------------------------------------------------------
# Build

def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ %s\n" % " ".join(cmd))
        log.flush()
        rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        raise BenchError("command failed (%d): %s" % (rc, " ".join(cmd)))


def build():
    """Builds the program's binaries and libraries, then pbload."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no program sources next to perfbench/ in %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(PROGRAM_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", PROGRAM_BUILD,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log)
    run_logged(["cmake", "--build", PROGRAM_BUILD, "-j", jobs, "--target",
                "memorydb-server", "memorydb-txlogd", "memdb_replication"], log)
    if not os.path.isfile(os.path.join(LOAD_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(HERE, "pbload"), "-B",
                    LOAD_BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                    "-DMEMDB_SOURCE_DIR=" + ROOT,
                    "-DMEMDB_BUILD_DIR=" + PROGRAM_BUILD], log)
    run_logged(["cmake", "--build", LOAD_BUILD, "-j", jobs], log)


def binary(*parts):
    return os.path.join(PROGRAM_BUILD, "src", *parts)


# ---------------------------------------------------------------------------
# The program's processes

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def cpu_times():
    """(steal, total) jiffies of the whole host, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


class Cluster:
    """Three log replicas and one durable server, as child processes."""

    def __init__(self, run_dir, trace):
        self.dir = run_dir
        self.trace = trace
        self.procs = []
        self.server = None
        self.txlogds = []
        self.port = 0
        self.endpoints = []

    def _spawn(self, name, argv):
        log = open(os.path.join(self.dir, name + ".log"), "w")
        try:
            p = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL, cwd=self.dir,
                                 preexec_fn=child_setup)
        finally:
            log.close()
        self.procs.append(p)
        return p

    def trace_files(self):
        return [os.path.join(self.dir, n + ".trace.jsonl")
                for n in ("server", "txlogd-1", "txlogd-2", "txlogd-3")]

    def start(self):
        os.makedirs(self.dir, exist_ok=True)
        ports = [free_port() for _ in range(3)]
        self.endpoints = ["127.0.0.1:%d" % p for p in ports]
        peers = ",".join(self.endpoints)
        for i in range(3):
            # The log lives in the checkout: write() reaches the page cache
            # and fsync is off, so the shared disk's flush latency stays out
            # of the figures (README, "Flush policy").
            argv = [binary("txlog", "memorydb-txlogd"), "--node-id", str(i + 1),
                    "--peers", peers, "--no-fsync", "--data-dir",
                    os.path.join(self.dir, "r%d" % (i + 1))]
            if self.trace:
                argv += ["--trace-file", self.trace_files()[i + 1]]

            self.txlogds.append(self._spawn("txlogd-%d" % (i + 1), argv))
        argv = [binary("net", "memorydb-server"), "--port", "0",
                "--txlog-endpoints", peers]
        if self.trace:
            argv += ["--trace-sample-rate", str(TRACE_SAMPLE_RATE),
                     "--trace-file", self.trace_files()[0]]
        else:
            # The server traces every write unless told otherwise; each
            # sampled write also carries its trace id into the log record.
            argv += ["--trace-sample-rate", "0"]
        self.server = self._spawn("server", argv)
        deadline = time.monotonic() + 30
        banner = os.path.join(self.dir, "server.log")
        while not self.port:
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise BenchError("memorydb-server did not start")
            with open(banner) as f:
                m = re.search(r"listening on [\d.]+:(\d+)", f.read())
            if m:
                self.port = int(m.group(1))
            else:
                time.sleep(0.005)

    def first_write(self):
        """Blocks until one write is durable (acknowledged), then removes it."""
        deadline = time.monotonic() + 30
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for cmd, want in ((b"*3\r\n$3\r\nSET\r\n$10\r\nbench:boot\r\n$1\r\n1\r\n", b"+OK\r\n"),
                              (b"*2\r\n$3\r\nDEL\r\n$10\r\nbench:boot\r\n", b":1\r\n")):
                while True:
                    s.sendall(cmd)
                    reply = b""
                    while not reply.endswith(b"\r\n"):
                        chunk = s.recv(4096)
                        if not chunk:
                            raise BenchError("server closed the boot connection")
                        reply += chunk
                    if reply == want:
                        break
                    if time.monotonic() > deadline:
                        raise BenchError("no durable write within 30 s: %r" % reply)
                    time.sleep(0.02)

    def stop(self):
        stop_all(self.procs)
        self.procs = []


def stop_all(procs):
    for p in procs:
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
    for p in procs:
        try:
            p.wait(timeout=15)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


# ---------------------------------------------------------------------------
# One run

def host_stamp(steal_share):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "pinned_cpu": PIN_CPU, "cpu_model": model,
            "kernel": os.uname().release, "build_type": BUILD_TYPE,
            "steal_share": steal_share}


def one_run(args):
    build()
    run_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    cluster = None
    try:
        boots = []
        for i in range(BOOTS):
            t0 = time.monotonic()
            cluster = Cluster(os.path.join(run_dir, "boot%d" % i), args.trace)
            cluster.start()
            cluster.first_write()
            boots.append(time.monotonic() - t0)
            if i + 1 < BOOTS:
                cluster.stop()
                shutil.rmtree(cluster.dir, ignore_errors=True)
        steal0, total0 = cpu_times()
        argv = [os.path.join(LOAD_BUILD, "pbload"), "run",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--port", str(cluster.port),
                "--endpoints", ",".join(cluster.endpoints),
                "--server-pid", str(cluster.server.pid),
                "--txlog-pids", ",".join(str(p.pid) for p in cluster.txlogds),
                "--wals", ",".join(os.path.join(cluster.dir, "r%d" % (i + 1), "log")
                                   for i in range(3)),
                "--store", os.path.join(cluster.dir, "store"),
                "--trace", str(args.trace),
                "--bench-trace-file", os.path.join(cluster.dir, "bench.trace.jsonl"),
                "--corrupt-model", str(args.corrupt_model)]
        with open(os.path.join(cluster.dir, "pbload.log"), "w") as log:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, text=True,
                                    preexec_fn=child_setup)
            try:
                out, _ = proc.communicate(timeout=150)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        steal1, total1 = cpu_times()
        cluster.stop()
        lines = out.strip().splitlines()
        if not lines:
            with open(os.path.join(cluster.dir, "pbload.log")) as f:
                sys.stderr.write(f.read()[-4000:])
            raise BenchError("pbload printed nothing (exit %d)" % proc.returncode)
        res = json.loads(lines[-1])
        res["e2e"]["setup_s"] += statistics.median(boots)

        if args.trace:
            merged = subprocess.run(
                [os.path.join(LOAD_BUILD, "pbload"), "merge", "--files",
                 ",".join(cluster.trace_files() +
                          [os.path.join(cluster.dir, "bench.trace.jsonl")])],
                check=True, capture_output=True, text=True, timeout=20)
            trace = json.loads(merged.stdout.strip().splitlines()[-1])
            values = dict(res["layer"])
            for stage in STAGES:
                values["stage.%s_us.p50" % stage] = trace["stages"].get(stage, {}).get("p50", 0)
            values["stage.p50_sum_us"] = trace["stage_p50_sum"]
            values["gate.queue_wait_us.p50"] = trace["queue_wait"]["p50"]
            values["gate.queue_wait_us.p99"] = trace["queue_wait"]["p99"]
            values["tracker.hold_us.p50"] = trace["hold"]["p50"]
            values["tracker.hold_us.p99"] = trace["hold"]["p99"]
            res["detail"]["trace"] = {k: trace[k] for k in
                                      ("spans", "traces", "complete_chains",
                                       "end_to_end_p50", "stages", "queue_wait",
                                       "hold", "bench")}
            res["detail"]["e2e"] = res["e2e"]
            spec = PER_LAYER
        else:
            values = dict(res["e2e"])
            spec = END_TO_END
        missing = [m for m in spec if m not in values]
        if missing:
            raise BenchError("metrics missing from pbload: %s" % missing)
        steal = (steal1 - steal0) / max(1, total1 - total0)
        detail = dict(res["detail"])
        detail.update(workload=args.workload, seed=args.seed,
                      seconds=args.seconds, boots_s=boots,
                      host=host_stamp(round(steal, 4)))
        print("detail " + json.dumps(detail, sort_keys=True))
        print(json.dumps({
            "correct": bool(res["correct"]),
            "attempted": int(res["attempted"]),
            "failed": int(res["failed"]),
            "metrics": {m: {"value": values[m], "unit": spec[m]} for m in spec},
        }))
        return 0 if res["correct"] else 1
    finally:
        if cluster is not None:
            cluster.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Self-check

def self_check():
    """Every workload for a few seconds, one traced run, one corrupted model."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if ({m["name"] for m in declared["end_to_end"]} != set(END_TO_END)
            or {m["name"] for m in declared["per_layer"]} != set(PER_LAYER)
            or {w["name"] for w in declared["workloads"]} != set(WORKLOADS)):
        raise BenchError("BENCHMARK.json and run.py disagree on names")

    def run(workload, trace=0, corrupt=0):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", "7", "--seconds", "2", "--trace", str(trace),
               "--corrupt-model", str(corrupt)]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        lines = p.stdout.strip().splitlines()
        return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr

    ok = True
    cases = [(w, 0, 0) for w in WORKLOADS] + [("read_mostly", 1, 0),
                                               ("durable_write", 0, 1),
                                               ("recovery", 0, 1)]
    for workload, trace, corrupt in cases:
        rc, res, err = run(workload, trace, corrupt)
        if corrupt:
            good = rc != 0 and res is not None and not res["correct"] and res["failed"] > 0
        else:
            spec = PER_LAYER if trace else END_TO_END
            good = (rc == 0 and res is not None and res["correct"]
                    and res["failed"] == 0 and set(res["metrics"]) == set(spec)
                    and (trace or all(v["value"] > 0 for v in res["metrics"].values())))
        print("selfcheck %-14s trace=%d corrupt=%d: %s" %
              (workload, trace, corrupt, "ok" if good else "FAILED"))
        if not good:
            sys.stderr.write(err[-3000:])
            ok = False
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-model", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        if args.selfcheck:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        return one_run(args)
    except (BenchError, Stop) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
