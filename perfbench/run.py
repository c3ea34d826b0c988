#!/usr/bin/env python3
"""hcsim benchmark: end-to-end runs of the shipped binaries, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload fig12_full --seed 0 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each was chosen):

  fig12_full     hcsim_sweep fig12 --len 8000000 --threads T, in process
  fig12_sampled  the same grid with --sampled defaults
  daemon_mix     a fresh hcsimd --threads T --journal-dir <fresh>; one client
                 runs `hcsim_sweep rv --connect S --journal-dir <fresh>`,
                 then `hcsim_sweep cumulative --len 1000000 --connect S`

T is min(4, usable CPUs). --seed N is passed to the sweeps as --seeds N;
seed 0 keeps every profile's own seed. fig12_sampled always passes four
seeds, N..N+3, and 1..4 at seed 0 (hcsim_sweep takes positive seeds only).
The RV kernels ignore the seed.

The benchmark builds the repository (Release) into .bench_build/, repeats the
workload until --seconds have passed, checks every output, and prints one
JSON object as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
repetitions). With --trace 1 the workload is replayed once by the traced
in-process driver (perfbench/trace_driver.cpp) and the metrics are the
per-layer ones. A fuller record with provenance and every sample is printed
on the line before and kept under .bench_build/results/.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

WORKLOADS = ("fig12_full", "fig12_sampled", "daemon_mix")
FIG12_LEN = 8_000_000
CUMULATIVE_LEN = 1_000_000
FIG12_POINTS = 24  # 12 apps x {8_8_8, 8_8_8+BR+LR+CR}, per seed
# fig12_sampled covers this many consecutive seeds per run, at every --seed.
# Its cost follows the seed's generated programs (single seeds differ by up
# to 40% in CPU time, mostly record generation); one grid over several seeds
# averages that out.
SAMPLED_SEEDS = 4
HEADLINE = "8_8_8+BR+LR+CR"
# The paper's two reference values for 8_8_8+BR+LR+CR over SPEC Int 2000
# (the numbers bench_fig12_cr_performance quotes): % of µops steered to the
# helper cluster, and copy µops as % of µops.
PAPER_HELPER_PCT = 47.5
PAPER_COPY_PCT = 15.7
# Set-up probes are taken in chunks before every repetition and after the
# last, so they sample the whole run rather than one moment of it; at least
# the minimum are taken in all. (probes per chunk, minimum): a daemon_mix
# probe costs ~0.1 s, an in-process one (`hcsim_sweep list`) ~2 ms.
SETUP_PROBES_DAEMON = (8, 41)
SETUP_PROBES_IN_PROCESS = (40, 201)
RUN_BUDGET_S = 170.0  # every run must end within 180 s (builds excepted)
BUILD_DIR = ".bench_build"

END_TO_END = {
    "wall_s": "s",
    "uops_per_cpu_s": "uops/s",
    "first_result_s": "s",
    "setup_s": "s",
    "speedup_err_pts": "pts",
    "edp_gain_err_pts": "pts",
    "paper_steer_err_pts": "pts",
    "paper_copy_err_pts": "pts",
}

PER_LAYER = {
    "wload.gen_s": "s",
    "wload.discarded_uops": "count",
    "rv.exec_s": "s",
    "sim.trace_cache_misses": "count",
    "sim.trace_cache_mb": "MB",
    "bbcache.hit_rate": "ratio",
    "bbcache.saved_s": "s",
    "core.feed_s": "s",
    "core.baseline_uops_per_s": "uops/s",
    "core.helper_uops_per_s": "uops/s",
    "core.cold_start_s": "s",
    "core.pipelines": "count",
    "core.stall_fetch_per_uop": "count/uop",
    "core.stall_commit_per_uop": "count/uop",
    "core.stall_queue_per_uop": "count/uop",
    "core.stall_rename_per_uop": "count/uop",
    "core.stall_issue_per_uop": "count/uop",
    "core.flush_refills_per_uop": "count/uop",
    "core.copies_per_uop": "count/uop",
    "core.nready_truncations": "count",
    "mem.replay_s": "s",
    "mem.dl0_hit_rate": "ratio",
    "mem.ul1_hit_rate": "ratio",
    "mem.accesses_per_uop": "count/uop",
    "steer.helper_frac": "ratio",
    "steer.copy_frac": "ratio",
    "predict.wp_accuracy": "ratio",
    "predict.wp_fatal_rate": "ratio",
    "predict.branch_mispredict_rate": "ratio",
    "power.analyze_s": "s",
    "sample.windows": "count",
    "sample.fed_frac": "ratio",
    "sample.self_s": "s",
    "sample.max_rel_err": "ratio",
    "exp.idle_frac": "ratio",
    "exp.baseline_phase_s": "s",
    "svc.remote_jobs": "count",
    "svc.local_jobs": "count",
    "svc.reconnects": "count",
    "svc.daemon_journal_hits": "count",
    "svc.overhead_s": "s",
    "svc.journal_append_us": "us",
    "svc.journal_hit_us": "us",
    "svc.result_frame_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_cpu_s": "s",
    "trace.wall_s": "s",
    "trace.cpu_s": "s",
}

# hcsimd frame types (docs/PROTOCOL.md).
K_PING, K_SHUTDOWN, K_PONG = 0x03, 0x05, 0x83


class BenchError(Exception):
    """A condition under which the benchmark prints no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- processes -------------------------------------------------------------


class Procs:
    """Every child process this run started; all are reaped before exit."""

    live = []

    @classmethod
    def spawn(cls, argv, **kw):
        p = subprocess.Popen(argv, **kw)
        cls.live.append(p)
        return p

    @classmethod
    def reap(cls, p, status):
        p.returncode = os.waitstatus_to_exitcode(status)
        if p in cls.live:
            cls.live.remove(p)

    @classmethod
    def kill_all(cls):
        for p in list(cls.live):
            if p.poll() is None:
                p.kill()
            p.wait()
            cls.live.remove(p)


class Launch:
    """One finished child: host times, exit code, rusage and its stderr."""

    def __init__(self, rc, t_start, t_end, t_first, ru, stderr):
        self.rc = rc
        self.t_start = t_start
        self.wall = t_end - t_start
        self.t_end = t_end
        self.t_first = t_first
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.stderr = stderr


def launch(argv, deadline, first_prefix=None, watch_file=None, watch_min=0):
    """Run argv to completion. The first-result time is when a stderr line
    starting with `first_prefix` arrives, or when `watch_file` first grows
    beyond `watch_min` bytes."""
    t_start = time.monotonic()
    p = Procs.spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    first = [None]
    lines = []

    def read_stderr():
        for raw in p.stderr:
            if first[0] is None and first_prefix and raw.startswith(first_prefix.encode()):
                first[0] = time.monotonic()
            lines.append(raw.decode(errors="replace"))

    reader = threading.Thread(target=read_stderr, daemon=True)
    reader.start()
    if watch_file is None:
        # Block in wait4 so the exit time is exact; a timer enforces the deadline.
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), p.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
    else:
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid:
                break
            now = time.monotonic()
            if first[0] is None:
                try:
                    if os.stat(watch_file).st_size > watch_min:
                        first[0] = now
                except FileNotFoundError:
                    pass
            if now > deadline:
                p.kill()
                _, status, ru = os.wait4(p.pid, 0)
                break
            time.sleep(0.0005)
    t_end = time.monotonic()
    Procs.reap(p, status)
    reader.join()
    p.stderr.close()
    return Launch(p.returncode, t_start, t_end, first[0], ru, "".join(lines))


def exit_time(argv, deadline):
    """(exit code, launch-to-exit seconds) of a short command. No pipe or
    reader thread runs inside the timed span: the deadline timer starts first."""
    child = []
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            lambda: child and child[0].kill())
    timer.daemon = True
    timer.start()
    try:
        t_start = time.monotonic()
        p = Procs.spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                        close_fds=False)
        child.append(p)
        _, status, _ = os.wait4(p.pid, 0)
        wall = time.monotonic() - t_start
    finally:
        timer.cancel()
    Procs.reap(p, status)
    return p.returncode, wall


# --- the daemon --------------------------------------------------------------


def send_frame(sock, ftype):
    sock.sendall(struct.pack("<IB", 1, ftype))


def recv_frame_type(sock):
    header = b""
    while len(header) < 5:
        chunk = sock.recv(5 - len(header))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        header += chunk
    length, ftype = struct.unpack("<IB", header)
    left = length - 1
    while left > 0:
        chunk = sock.recv(min(left, 65536))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        left -= len(chunk)
    return ftype


def round_trip(path, ftype, timeout=5.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        send_frame(s, ftype)
        return recv_frame_type(s)


class Daemon:
    """A fresh hcsimd with a fresh journal directory under `work`."""

    def __init__(self, ctx, work, deadline):
        os.makedirs(work, exist_ok=True)
        self.sock = os.path.join(work, "d.sock")
        self.journal = os.path.join(work, "daemon-journal")
        self.err_path = os.path.join(work, "daemon.err")
        self.t_start = time.monotonic()
        with open(self.err_path, "wb") as err:
            self.proc = Procs.spawn(
                [ctx.bins["hcsimd"], "--socket", self.sock, "--threads", str(ctx.threads),
                 "--journal-dir", self.journal],
                stdout=subprocess.DEVNULL, stderr=err)
        # Set-up ends at the first answered ping.
        while True:
            try:
                if round_trip(self.sock, K_PING) == K_PONG:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop(deadline)
                raise BenchError("hcsimd did not answer a ping")
            time.sleep(0.0005)
        self.t_ready = time.monotonic()
        self.setup_s = self.t_ready - self.t_start

    def stop(self, deadline):
        """Shut the daemon down; returns its rusage (None if it was killed)."""
        if self.proc.returncode is not None:
            return None
        try:
            round_trip(self.sock, K_SHUTDOWN)
        except (OSError, ConnectionError):
            pass
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                Procs.reap(self.proc, status)
                return ru if self.proc.returncode == 0 else None
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, _ = os.wait4(self.proc.pid, 0)
                Procs.reap(self.proc, status)
                return None
            time.sleep(0.002)


# --- build and provenance ----------------------------------------------------


def require_sources(root):
    for rel in ("CMakeLists.txt", "src", "tools", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, rel)):
            raise BenchError(f"{rel} not found: run from the root of an hcsim checkout")


def cmake_cache(build):
    cache = {}
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_0-9]+):[A-Z]+=(.*)", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def build(root, jobs):
    build = os.path.join(root, BUILD_DIR, "cmake")
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", str(jobs), "--target",
                  "hcsim_sweep", "hcsimd", "hcsim_trace"])
    for argv in steps:
        if subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(argv))
    cache = cmake_cache(build)
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE", "CMAKE_EXE_LINKER_FLAGS"))
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError(f"refusing a {cache.get('CMAKE_BUILD_TYPE')!r} build: Release only")
    if "-fsanitize" in flags:
        raise BenchError("refusing a sanitizer build")
    bins = {
        "hcsim_sweep": os.path.join(build, "hcsim", "hcsim_sweep"),
        "hcsimd": os.path.join(build, "hcsim", "hcsimd"),
        "hcsim_trace": os.path.join(build, "hcsim_trace"),
    }
    return bins, cache, flags


def source_digest(root):
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "examples", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(root, cache, flags, args, threads):
    commit = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source_digest(root),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "build_flags": flags.strip(),
        "compiler": f"{compiler} ({version})",
        "nproc": usable_cpus(),
        "threads": threads,
        "cpu_model": cpu_model,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --- outputs and their checks -------------------------------------------------


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text))) if text else []


def row_mismatches(text, ref):
    """Rows of `ref` that `text` lacks or changes (whole ref when missing)."""
    ref_lines = ref.splitlines()[1:] if ref else []
    if text is None:
        return len(ref_lines)
    lines = text.splitlines()[1:]
    bad = sum(1 for i, line in enumerate(ref_lines) if i >= len(lines) or lines[i] != line)
    return bad + max(0, len(lines) - len(ref_lines))


def valid_sweep_csv(text, n_points):
    rows = csv_rows(text)
    if len(rows) != n_points:
        return False
    try:
        return all(int(r["n_uops"]) > 0 and float(r["speedup"]) > 0 for r in rows)
    except (KeyError, ValueError):
        return False


def covered_uops(text, trace_len=None):
    """Trace µops the sweep covers: per baseline cell (app, seed), its trace
    length times (variants + the baseline run). RV kernels halt early, so
    their length is the committed count the CSV reports."""
    cells = {}
    for r in csv_rows(text):
        key = (r["app"], r["seed"])
        n, uops = cells.get(key, (0, trace_len or int(r["n_uops"])))
        cells[key] = (n + 1, uops)
    return sum((n + 1) * uops for n, uops in cells.values())


def suite_means(text):
    by_cfg = {}
    for r in csv_rows(text):
        by_cfg.setdefault(r["config"], []).append(r)
    return {cfg: {k: statistics.fmean(float(r[k]) for r in rows)
                  for k in ("perf_pct", "edp_gain_pct", "helper_pct", "copy_pct")}
            for cfg, rows in by_cfg.items()}


def accuracy_metrics(full_csv, sampled_csv):
    full, sampled = suite_means(full_csv), suite_means(sampled_csv)
    return {
        "speedup_err_pts": max(abs(sampled[c]["perf_pct"] - full[c]["perf_pct"]) for c in full),
        "edp_gain_err_pts": max(abs(sampled[c]["edp_gain_pct"] - full[c]["edp_gain_pct"])
                                for c in full),
        "paper_steer_err_pts": abs(full[HEADLINE]["helper_pct"] - PAPER_HELPER_PCT),
        "paper_copy_err_pts": abs(full[HEADLINE]["copy_pct"] - PAPER_COPY_PCT),
    }


# --- workloads ---------------------------------------------------------------


class Ctx:
    def __init__(self, args, bins, threads, work, deadline):
        self.args = args
        self.bins = bins
        self.threads = threads
        self.work = work
        self.deadline = deadline
        if args.workload == "fig12_sampled":
            self.seeds = [(args.seed or 1) + i for i in range(SAMPLED_SEEDS)]
        else:
            self.seeds = [args.seed] if args.seed else []
        self.seed_args = ["--seeds", ",".join(map(str, self.seeds))] if self.seeds else []
        self.fig12_points = FIG12_POINTS * max(1, len(self.seeds))
        self.rep_no = 0

    def rep_dir(self):
        self.rep_no += 1
        d = os.path.join(self.work, f"rep{self.rep_no}")
        os.makedirs(d, exist_ok=True)
        return d

    def sweep(self, name, csv_path, extra=(), **kw):
        argv = [self.bins["hcsim_sweep"], name, "--threads", str(self.threads),
                "--csv", csv_path, *extra]
        return launch(argv, self.deadline, **kw)


class Rep:
    """One repetition of a workload: host times, CPU, RSS and its CSVs."""

    def __init__(self):
        self.ok = True
        self.wall = self.first = self.cpu = self.rss_mb = 0.0
        self.csvs = {}
        self.notes = []


def fig12_rep(ctx, sampled):
    rep = Rep()
    path = os.path.join(ctx.rep_dir(), "fig12.csv")
    extra = ["--len", str(ctx.args.len), *ctx.seed_args] + (["--sampled"] if sampled else [])
    r = ctx.sweep("fig12", path, extra, first_prefix="[")
    rep.wall, rep.cpu, rep.rss_mb = r.wall, r.cpu, r.rss_mb
    rep.first = (r.t_first or r.t_end) - r.t_start
    text = read_text(path)
    rep.csvs["fig12"] = text
    if r.rc != 0 or not valid_sweep_csv(text, ctx.fig12_points):
        rep.ok = False
        rep.notes.append(f"hcsim_sweep fig12 exited {r.rc}: {r.stderr[-500:]}")
    return rep


def daemon_mix_rep(ctx):
    rep = Rep()
    d = ctx.rep_dir()
    daemon = Daemon(ctx, os.path.join(d, "daemon"), ctx.deadline)
    client_journal = os.path.join(d, "client-journal")
    rv_csv, cum_csv = os.path.join(d, "rv.csv"), os.path.join(d, "cumulative.csv")
    connect = ["--connect", daemon.sock]
    r1 = ctx.sweep("rv", rv_csv, [*connect, "--journal-dir", client_journal, *ctx.seed_args],
                   watch_file=os.path.join(client_journal, "client.journal"), watch_min=8)
    r2 = ctx.sweep("cumulative", cum_csv,
                   ["--len", str(ctx.args.cumulative_len), *connect, *ctx.seed_args])
    ru = daemon.stop(ctx.deadline)
    rep.wall = r2.t_end - daemon.t_start
    rep.first = (r1.t_first or r1.t_end) - daemon.t_start
    rep.cpu = r1.cpu + r2.cpu + (ru.ru_utime + ru.ru_stime if ru else 0.0)
    rep.rss_mb = max(r1.rss_mb, r2.rss_mb, ru.ru_maxrss / 1024.0 if ru else 0.0)
    rep.csvs = {"rv": read_text(rv_csv), "cumulative": read_text(cum_csv)}
    if ru is None:
        rep.ok = False
        rep.notes.append("hcsimd did not shut down cleanly: " + (read_text(daemon.err_path) or ""))
    for name, r in (("rv", r1), ("cumulative", r2)):
        local = re.search(r"(\d+) computed locally", r.stderr)
        if r.rc != 0 or not local or int(local.group(1)) != 0:
            rep.ok = False
            rep.notes.append(f"{name} client exited {r.rc}: {r.stderr[-500:]}")
    return rep


def setup_sample(ctx):
    """Launch until work can be submitted: a daemon's first answered ping, or
    an hcsim_sweep process that loads its sweep table and exits. For the
    daemon the probe goes on to time the first rv job result, since a single
    job takes only milliseconds and one sample per repetition is too few.
    Returns (setup_s, first_result_s or None)."""
    if ctx.args.workload != "daemon_mix":
        rc, wall = exit_time([ctx.bins["hcsim_sweep"], "list"], ctx.deadline)
        if rc != 0:
            raise BenchError(f"hcsim_sweep list exited {rc}")
        return wall, None
    d = ctx.rep_dir()
    daemon = Daemon(ctx, os.path.join(d, "daemon"), ctx.deadline)
    journal = os.path.join(d, "client-journal")
    r = ctx.sweep("rv", os.path.join(d, "rv.csv"),
                  ["--connect", daemon.sock, "--journal-dir", journal, *ctx.seed_args],
                  watch_file=os.path.join(journal, "client.journal"), watch_min=8)
    ru = daemon.stop(ctx.deadline)
    shutil.rmtree(d, ignore_errors=True)
    if r.rc != 0 or ru is None or r.t_first is None:
        raise BenchError("daemon probe failed: " + r.stderr[-500:])
    return daemon.setup_s, r.t_first - daemon.t_start


def in_process_daemon_mix(ctx, cached=True):
    """The daemon_mix sweeps run in process: the reference its CSVs must equal.
    Returns ({sweep: csv}, wall seconds of the two sweeps, or None when the
    CSVs came from the cache)."""
    ref_dir = reference_dir(ctx, f"mix-{ctx.args.seed}-{ctx.args.cumulative_len}")
    sweeps = (("rv", ctx.seed_args),
              ("cumulative", ["--len", str(ctx.args.cumulative_len), *ctx.seed_args]))
    paths = {name: os.path.join(ref_dir, f"{name}.csv") for name, _ in sweeps}
    if cached and all(os.path.exists(p) for p in paths.values()):
        return {name: read_text(p) for name, p in paths.items()}, None
    wall = 0.0
    for name, extra in sweeps:
        tmp = paths[name] + f".{os.getpid()}.tmp"
        r = ctx.sweep(name, tmp, ["--quiet", *extra])
        if r.rc != 0:
            raise BenchError(f"in-process {name} sweep failed: {r.stderr[-500:]}")
        os.replace(tmp, paths[name])
        wall += r.wall
    return {name: read_text(p) for name, p in paths.items()}, wall


def workload_rep(ctx):
    if ctx.args.workload == "daemon_mix":
        return daemon_mix_rep(ctx)
    return fig12_rep(ctx, sampled=ctx.args.workload == "fig12_sampled")


def reference_dir(ctx, key):
    """Cache directory for reference outputs of this hcsim_sweep binary.
    References are deterministic, so they are computed once per binary."""
    if not hasattr(ctx, "binary_digest"):
        with open(ctx.bins["hcsim_sweep"], "rb") as f:
            ctx.binary_digest = hashlib.sha256(f.read()).hexdigest()[:16]
    d = os.path.join(BUILD_DIR, "reference", f"{ctx.binary_digest}-{key}")
    os.makedirs(d, exist_ok=True)
    return d


def accuracy_reference(ctx):
    """fig12 at the profiles' own seeds, full and sampled. Returns
    (full_csv, sampled_csv)."""
    ref_dir = reference_dir(ctx, f"fig12-{ctx.args.len}")
    paths = [os.path.join(ref_dir, n) for n in ("full.csv", "sampled.csv")]
    if not all(os.path.exists(p) for p in paths):
        for path, extra in zip(paths, ([], ["--sampled"])):
            tmp = path + f".{os.getpid()}.tmp"
            r = ctx.sweep("fig12", tmp, ["--len", str(ctx.args.len), "--quiet", *extra])
            if r.rc != 0 or not valid_sweep_csv(read_text(tmp), FIG12_POINTS):
                raise BenchError("fig12 reference sweep failed: " + r.stderr[-500:])
            os.replace(tmp, path)
    return read_text(paths[0]), read_text(paths[1])


def measure(ctx, record):
    """Untraced repetitions until --seconds have passed; end-to-end metrics."""
    args = ctx.args
    full_ref, sampled_ref = accuracy_reference(ctx)
    setups, probe_firsts = [], []

    def probe(n):
        for _ in range(n):
            setup, first = setup_sample(ctx)
            setups.append(setup)
            if first is not None:
                probe_firsts.append(first)

    chunk, minimum = (SETUP_PROBES_DAEMON if args.workload == "daemon_mix"
                      else SETUP_PROBES_IN_PROCESS)
    reps = []
    measured = 0.0  # seconds spent in repetitions; the probes come on top
    while not reps or (measured < args.seconds and time.monotonic() < ctx.deadline):
        probe(chunk)
        t_rep = time.monotonic()
        reps.append(workload_rep(ctx))
        measured += time.monotonic() - t_rep
        if time.monotonic() > ctx.deadline:
            break
        shutil.rmtree(os.path.join(ctx.work, f"rep{ctx.rep_no}"), ignore_errors=True)
    probe(max(chunk, minimum - len(setups)))

    # Every repetition must reproduce the reference byte for byte: the same
    # sweeps run in process for daemon_mix, the cached profile-seed run for
    # fig12_full at seed 0, and otherwise this invocation's first repetition.
    if args.workload == "daemon_mix":
        reference, _ = in_process_daemon_mix(ctx)
    elif args.workload == "fig12_full" and args.seed == 0:
        reference = {"fig12": full_ref}
    else:
        reference = reps[0].csvs
    expected = (ctx.fig12_points if args.workload != "daemon_mix"
                else sum(len(csv_rows(t)) for t in reference.values()))
    attempted = failed = 0
    for rep in reps:
        attempted += expected
        bad = sum(row_mismatches(rep.csvs.get(k), ref) for k, ref in reference.items())
        failed += expected if not rep.ok else min(expected, bad)
        for note in rep.notes:
            log(note)

    good = [r for r in reps if r.ok]
    # Covered µops of the grid the repetitions ran (four seeds' worth for
    # fig12_sampled).
    if args.workload == "daemon_mix":
        covered = sum(covered_uops(reference[k]) for k in ("rv", "cumulative"))
    else:
        covered = covered_uops(reference["fig12"], args.len)
    firsts = [r.first for r in good] + probe_firsts
    metrics = {
        "wall_s": statistics.median(r.wall for r in good) if good else 0.0,
        "uops_per_cpu_s": statistics.median(covered / r.cpu for r in good) if good else 0.0,
        "first_result_s": statistics.median(firsts) if firsts else 0.0,
        "setup_s": statistics.median(setups),
        **accuracy_metrics(full_ref, sampled_ref),
    }
    # Reported, not gated: peak RSS follows the seed's generated programs
    # (21-35 MB across seeds on fig12), and failures are already the result's
    # own failed/attempted.
    record["ungated"] = {
        "peak_rss_mb": statistics.median(r.rss_mb for r in good) if good else 0.0,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    record["samples"] = {
        "reps": len(reps),
        "wall_s": [r.wall for r in reps],
        "first_result_s": firsts,
        "cpu_s": [r.cpu for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
        "setup_s": setups,
        "covered_uops_per_rep": covered,
    }
    return attempted, failed, metrics


def traced(ctx, root, record):
    """One untraced repetition, then the traced in-process replay of the same
    work; per-layer metrics."""
    args = ctx.args
    out_dir = os.path.join(root, BUILD_DIR, "traces", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    argv = [ctx.bins["hcsim_trace"], "--workload", args.workload, "--threads", str(ctx.threads),
            *ctx.seed_args, "--len", str(args.len), "--cumulative-len", str(args.cumulative_len),
            "--out-dir", out_dir]
    rep = workload_rep(ctx)
    for note in rep.notes:
        log(note)
    attempted = failed = 0

    def check(got_name, ref_text):
        nonlocal attempted, failed
        n = len(csv_rows(ref_text))
        attempted += n
        failed += min(n, row_mismatches(read_text(os.path.join(out_dir, got_name)), ref_text))

    extra = {}
    if args.workload == "daemon_mix":
        reference, inproc_wall = in_process_daemon_mix(ctx, cached=False)
        daemon = Daemon(ctx, os.path.join(ctx.rep_dir(), "daemon"), ctx.deadline)
        argv += ["--connect", daemon.sock, "--journal-dir", os.path.join(ctx.work, "trace-journal")]
        r = launch(argv, ctx.deadline)
        if daemon.stop(ctx.deadline) is None:
            log("hcsimd did not shut down cleanly after the traced run")
            failed += 1
        for name in ("rv", "cumulative"):
            check(f"{name}.csv", reference[name])
            check(f"daemon_{name}.csv", reference[name])
            n = len(csv_rows(reference[name]))
            attempted += n
            failed += n if not rep.ok else min(n, row_mismatches(rep.csvs[name], reference[name]))
        check("daemon_rv_again.csv", reference["rv"])
        extra["svc.overhead_s"] = rep.wall - inproc_wall
        untraced_wall = inproc_wall
    else:
        r = launch(argv, ctx.deadline)
        if rep.ok:
            check("fig12.csv", rep.csvs["fig12"])
        else:
            attempted += ctx.fig12_points
            failed += ctx.fig12_points
        untraced_wall = rep.wall
    if r.rc != 0:
        raise BenchError(f"hcsim_trace exited {r.rc}: {r.stderr[-2000:]}")
    with open(os.path.join(out_dir, "metrics.json")) as f:
        layer = json.load(f)
    layer.update(extra)
    layer["trace.overhead_frac"] = layer["trace.wall_s"] / untraced_wall - 1.0
    record["untraced_wall_s"] = untraced_wall
    record["trace_dir"] = os.path.relpath(out_dir, root)
    record["failed_frac"] = failed / attempted if attempted else 1.0
    metrics = {name: float(layer.get(name, 0.0)) for name in PER_LAYER}
    return attempted, failed, metrics


# --- main ---------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller grids for the benchmark's own smoke tests.
    ap.add_argument("--len", type=int, default=FIG12_LEN, help=argparse.SUPPRESS)
    ap.add_argument("--cumulative-len", type=int, default=CUMULATIVE_LEN, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.len <= 0 or args.cumulative_len <= 0 or args.seconds < 0:
        ap.error("--seed must be >= 0; --len, --cumulative-len and --seconds positive")
    return args


def main(argv):
    args = parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    # HCSIM_* variables change what the tools simulate (trace length, stream
    # threshold, sampling, kill switches, fault injection); runs use none.
    scrubbed = sorted(k for k in os.environ if k.startswith("HCSIM_"))
    for k in scrubbed:
        del os.environ[k]
    # A terminated run still stops and reaps its children (see finally).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        require_sources(root)
        # The compiler's temporary files stay inside the checkout too.
        os.environ["TMPDIR"] = os.path.join(root, BUILD_DIR, "tmp")
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        load_before = os.getloadavg()
        threads = min(4, usable_cpus())
        bins, cache, flags = build(root, usable_cpus())
        record = {"provenance": provenance(root, cache, flags, args, threads)}
        record["provenance"]["loadavg_before"] = load_before
        record["provenance"]["scrubbed_env"] = scrubbed
        # Relative, so daemon socket paths stay short wherever the checkout is.
        work = os.path.join(BUILD_DIR, "runs", f"{args.workload}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        # The build may take long on a first run; the measured part may not.
        deadline = time.monotonic() + RUN_BUDGET_S - min(30.0, time.monotonic() - started)
        ctx = Ctx(args, bins, threads, work, deadline)
        try:
            if args.trace:
                attempted, failed, metrics = traced(ctx, root, record)
                units = PER_LAYER
            else:
                attempted, failed, metrics = measure(ctx, record)
                units = END_TO_END
        finally:
            shutil.rmtree(work, ignore_errors=True)
        record["provenance"]["loadavg_after"] = os.getloadavg()
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 1
    finally:
        Procs.kill_all()

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record.update(result)
    results_dir = os.path.join(root, BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                        f"{stamp}-{os.getpid()}.json"), "w") as f:
        json.dump(record, f, indent=1)
    ungated = {"peak_rss_mb": "MB", "failed_frac": "ratio"} if not args.trace else {}
    for k, unit in [*units.items(), *ungated.items()]:
        value = metrics[k] if k in metrics else record["ungated"][k]
        log(f"  {k:32s} {value:>16.6g} {unit}")
    log(f"  correct={failed == 0} attempted={attempted} failed={failed}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
