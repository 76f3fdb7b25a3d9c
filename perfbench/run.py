#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of wmrace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wmrace source tree.  The first run builds the
program from source into .bench_build/ (perfbench/CMakeLists.txt);
every run works in .bench_work/<workload>/.

--trace 0 times the user-facing `wmrace` commands as separate
processes, with tracing off, by their CPU time, and prints the
end-to-end metrics.
--trace 1 runs the traced helper (`wmbench layers`), which calls each
layer's public functions in the order the CLI calls them with a span
around each call, writes the spans as a Chrome trace file and prints
the per-layer metrics.

Both modes check every output against the independent race oracle
(perfbench/oracle.cc) and against properties the method must have,
outside the timed regions.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"

WORKLOADS = ("dense-races", "sparse-long", "corpus-serve")

# Rounds of a run: at least MIN_ROUNDS, more while they fit in --seconds.
MIN_ROUNDS = 1
# Setups per run: at least MIN_SETUPS, more until they add up to
# SETUP_SECONDS; setup_s is their median.
MIN_SETUPS = 9
SETUP_SECONDS = 2.0
# An operation shorter than this is too short to time alone: its first
# run counts as the warm-up and it is repeated until this much time is
# measured (and at least MIN_REPEATS times); the median repeat counts.
SHORT_SECONDS = 1.0
MIN_REPEATS = 5
# Serve: HIT_SERVERS fresh servers per round; on each, one cold pass
# fills the cache, then HIT_CLIENTS client processes in turn make a
# warm-up pass and passes for HIT_SECONDS (at least MIN_REPEATS).  The
# CPU cost of a hit differs between server processes by up to 2x, so
# the serve metrics are medians over every server of the run.
HIT_SERVERS = 3
HIT_CLIENTS = 2
HIT_SECONDS = 0.2
# The result cache holds every workload's results (checked per run).
CACHE_MB = 1024

END_TO_END = {
    "setup_s": "s",
    "check_cpu_s": "s",
    "check_stream_cpu_s": "s",
    "check_engines_cpu_s": "s",
    "check_rss_mb": "MB",
    "check_stream_rss_mb": "MB",
    "batch_traces_per_cpu_s": "1/s",
    "serve_per_cpu_s": "1/s",
    "serve_hit_per_cpu_s": "1/s",
}

PER_LAYER = {
    "workload.gen_s": "s",
    "sim.run_s": "s",
    "sim.events_per_s": "1/s",
    "trace.read_s": "s",
    "trace.resident_mb": "MB",
    "trace.segment_scan_s": "s",
    "hb.graph_s": "s",
    "hb.reach_s": "s",
    "detect.races_s": "s",
    "detect.candidates": "count",
    "detect.race_yield": "ratio",
    "detect.augment_s": "s",
    "detect.partition_s": "s",
    "detect.scp_s": "s",
    "detect.render_s": "s",
    "detect.write_s": "s",
    "stream.analyze_s": "s",
    "stream.render_s": "s",
    "stream.write_s": "s",
    "stream.peak_resident_events": "count",
    "engines.hb1_s": "s",
    "engines.shb_s": "s",
    "engines.wcp_s": "s",
    "engines.vc_s": "s",
    "engines.epoch_s": "s",
    "engines.lockset_s": "s",
    "engines.family_s": "s",
    "engines.format_s": "s",
    "pipeline.scan_s": "s",
    "pipeline.batch_s": "s",
    "serve.encode_s": "s",
    "serve.hash_s": "s",
    "serve.cache_s": "s",
    "serve.hit_ratio": "ratio",
    "serve.cold_p50_ms": "ms",
    "serve.cold_tail_ms": "ms",
    "serve.cold_samples": "count",
    "serve.hit_p50_ms": "ms",
    "serve.hit_tail_ms": "ms",
    "serve.hit_samples": "count",
    "serve.retries": "count",
    "obs.trace_out_overhead": "ratio",
    "cli.exec_s": "s",
    "cli.check_wall_s": "s",
    "cli.stream_wall_s": "s",
    "cli.unattributed_s": "s",
    "cli.stream_unattributed_s": "s",
    "bench.span_overhead": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that leaves no result to print."""


def child_env():
    """The environment of every timed process: instrumentation and
    fault injection off."""
    env = dict(os.environ)
    for key in list(env):
        if key.startswith("WMR_"):
            del env[key]
    return env


ENV = child_env()


def build():
    if not (BENCH / "CMakeLists.txt").exists():
        raise BenchError("perfbench/CMakeLists.txt missing")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "wmrace_cli", "wmbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return BUILD / "wmrace", BUILD / "wmbench"


def cpu_seconds(usage):
    """User plus system CPU time of a finished process.  The host's
    hypervisor takes the CPU away for seconds at a time (steal time);
    wall time counts that and CPU time does not, so every end-to-end
    timing is CPU time."""
    return usage.ru_utime + usage.ru_stime


CLK_TCK = os.sysconf("SC_CLK_TCK")


def running_cpu_seconds(pid):
    """CPU time so far of the running process @p pid, all threads,
    from /proc (resolution one clock tick)."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


class Proc:
    """One finished child process: exit code, wall time, CPU time,
    peak RSS."""

    def __init__(self, cmd, stdout_path=None, cwd=None):
        errf = WORK / "last_stderr.txt"
        with open(stdout_path or os.devnull, "wb") as out, \
                open(errf, "wb") as err:
            # The clock starts once the files are open, as a shell
            # opens a redirect before it starts the command.
            t0 = time.perf_counter()
            p = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                 stderr=err, env=ENV, cwd=cwd)
            _, status, usage = os.wait4(p.pid, 0)
            self.wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        self.rc = p.returncode
        self.cpu = cpu_seconds(usage)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = errf.read_bytes()[-2000:].decode(errors="replace")


def helper(cmd, cwd=None):
    """Run a wmbench subcommand untimed; return its parsed JSON."""
    out = WORK / "helper_out.json"
    p = Proc(cmd, out, cwd)
    if p.rc != 0:
        raise BenchError("%s failed (exit %d): %s" %
                         (" ".join(map(str, cmd[:3])), p.rc, p.stderr))
    text = out.read_text().strip()
    return json.loads(text) if text else None


# --- wmrace serve ---------------------------------------------------

class Server:
    """A `wmrace serve --jobs 2 --workers 2` on a unix socket in the
    work directory (relative, to stay within the path length limit),
    controlled through `wmbench serve-ctl`.  After stop(), cpu is the
    server's CPU time from start to exit."""

    SOCK = "serve.sock"

    def __init__(self, wmrace, wmbench):
        self.wmbench = wmbench
        self.cpu = None
        sock = WORK / self.SOCK
        if sock.exists():
            sock.unlink()
        self.proc = subprocess.Popen(
            [str(wmrace), "serve", "--socket", self.SOCK, "--jobs", "2",
             "--workers", "2", "--cache-mb", str(CACHE_MB),
             "--max-request-mb", "512", "--max-inflight-mb", "1024"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=ENV, cwd=WORK)

    def ctl(self, action):
        return helper([self.wmbench, "serve-ctl", self.SOCK, action],
                      cwd=WORK)

    def wait_ready(self):
        """Poll with Status requests until the server answers."""
        return self.ctl("wait")

    def status(self):
        return self.ctl("status")

    def cpu_so_far(self):
        return running_cpu_seconds(self.proc.pid)

    def stop(self):
        if self.proc.returncode is not None:
            return
        if Proc([self.wmbench, "serve-ctl", self.SOCK, "shutdown"],
                cwd=WORK).rc != 0:
            self.proc.terminate()
        deadline = time.monotonic() + 60
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                self.proc.kill()
            time.sleep(0.001)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu = cpu_seconds(usage)


def serve_load(wmbench, refdir, files, min_seconds, min_passes, warmup):
    """Closed-loop passes of two clients; every reply must equal the
    report of the same name in @p refdir."""
    return helper([wmbench, "serve-load", Server.SOCK, refdir,
                   min_seconds, min_passes, warmup] + files, cwd=WORK)


# --- output checks --------------------------------------------------

RACES_RE = re.compile(
    rb"^races: (\d+) \((\d+) data races\) in (\d+) partitions$", re.M)
EVENTS_RE = re.compile(rb"^events: (\d+) \((\d+) sync\)", re.M)
FIRST_RE = re.compile(rb"^FIRST partitions to report: (\d+)$", re.M)
FIRST_BLOCK_RE = re.compile(
    rb"^-- first partition \(G' component \d+\), (\d+) race\(s\):$",
    re.M)
REPORTED_RE = re.compile(
    rb"^reported: (\d+) race\(s\) in (\d+) FIRST partition\(s\)$", re.M)
AGREEMENT_RE = re.compile(rb"^agreement: (\{.*\})$", re.M)


class Checker:
    """Output checks of one run.  A wrong output counts as a failed
    operation and makes the run incorrect."""

    def __init__(self, manifest):
        self.traces = manifest["traces"]
        self.failed = 0
        self.problems = []
        self.counts = {}     # file -> (events, races, data, parts, first, reported)
        self.digests = {}    # (kind, file) -> digest of the first round

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)
            log("CHECK FAILED: " + what)

    def expect(self, ok, what):
        if not ok:
            self.fail(what)
        return ok

    def check_report(self, t, proc, path):
        """The whole-trace `check` report of trace t."""
        f = t["file"]
        if not self.expect(proc.rc in (0, 1),
                           "%s: check exit %d: %s" %
                           (f, proc.rc, proc.stderr)):
            return
        data = Path(path).read_bytes()
        ev = EVENTS_RE.search(data)
        rc = RACES_RE.search(data)
        if not self.expect(ev and rc, f + ": report has no header"):
            return
        events, sync = int(ev.group(1)), int(ev.group(2))
        races, data_races, parts = map(int, rc.groups())
        fp = FIRST_RE.search(data)
        first = int(fp.group(1)) if fp else 0
        blocks = [int(n) for n in FIRST_BLOCK_RE.findall(data)]
        ok = all([
            self.expect(events == t["events"] and
                        sync == t["sync_events"],
                        "%s: %d events, the generator made %d" %
                        (f, events, t["events"])),
            self.expect(data_races == t["oracle_data_races"] and
                        races == data_races,
                        "%s: %d races (%d data), the oracle finds %d" %
                        (f, races, data_races,
                         t["oracle_data_races"])),
            self.expect(not t["drf_program"] or data_races == 0,
                        f + ": race reported on a program that is "
                        "data-race-free by construction"),
            self.expect((first > 0) == (races > 0),
                        "%s: %d first partitions with %d races "
                        "(Theorem 4.1)" % (f, first, races)),
            self.expect(len(blocks) == first,
                        f + ": first-partition blocks do not match "
                        "the FIRST partitions line"),
            self.expect(proc.rc == (1 if data_races else 0),
                        "%s: exit %d with %d data races" %
                        (f, proc.rc, data_races)),
        ])
        if ok:
            self.counts[f] = (events, races, data_races, parts, first,
                              sum(blocks))

    def check_engines(self, t, proc, path):
        f = t["file"]
        if not self.expect(proc.rc in (0, 1),
                           "%s: check --engine all exit %d: %s" %
                           (f, proc.rc, proc.stderr)):
            return
        data = Path(path).read_bytes()
        m = AGREEMENT_RE.search(data)
        rep = REPORTED_RE.search(data)
        if not self.expect(m and rep, f + ": no agreement line"):
            return
        agree = json.loads(m.group(1))
        self.expect(agree["violations"] == 0,
                    "%s: %d containment violations" %
                    (f, agree["violations"]))
        self.expect(agree["dataRaces"]["shb"] == t["oracle_data_races"],
                    "%s: shb finds %d data races, the oracle %d" %
                    (f, agree["dataRaces"]["shb"],
                     t["oracle_data_races"]))
        c = self.counts.get(f)
        if c:
            # Every reported race lies in a first partition.
            self.expect(int(rep.group(1)) == c[5] and
                        int(rep.group(2)) == c[4],
                        "%s: hb1 reports %s races in %s first "
                        "partitions; the report lists %d in %d" %
                        (f, rep.group(1).decode(), rep.group(2).decode(),
                         c[5], c[4]))

    def same_bytes(self, f, what, path, reference):
        """Byte-identity of an output with the check report."""
        if not Path(path).exists():
            return self.fail("%s: no %s report" % (f, what))
        self.expect(digest(path) == digest(reference),
                    "%s: %s report differs from the whole-trace "
                    "report" % (f, what))

    def same_as_first_round(self, kind, f, path, rc):
        key = (kind, f)
        d = (digest(path), rc)
        if key not in self.digests:
            self.digests[key] = d
            return True
        return self.expect(self.digests[key] == d,
                           "%s: %s output changed between rounds" %
                           (f, kind))

    def check_batch(self, proc, json_path, trace_dir):
        if not self.expect(proc.rc in (0, 1),
                           "batch exit %d: %s" % (proc.rc, proc.stderr)):
            return len(self.traces)
        doc = json.loads(Path(json_path).read_text())
        bad = 0
        by_file = {str(Path(e["path"]).relative_to(trace_dir.parent)): e
                   for e in doc["traces"]}
        for t in self.traces:
            e = by_file.get(t["file"])
            c = self.counts.get(t["file"])
            if e is None or e["status"] != "ok":
                bad += 1
                self.fail("%s: batch did not analyze it" % t["file"])
                continue
            if c and (e["events"], e["races"], e["data_races"],
                      e["partitions"], e["first_partitions"],
                      e["reported_races"]) != c:
                bad += 1
                self.fail("%s: batch counts differ from check" %
                          t["file"])
        return bad


def digest(path):
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        while True:
            chunk = f.read(1 << 22)
            if not chunk:
                return h.hexdigest()
            h.update(chunk)


def repeats_done(walls):
    """Whether an operation timed as @p walls so far has been timed
    enough: one run that is long enough, or a warm-up run and then
    MIN_REPEATS runs adding up to SHORT_SECONDS."""
    if not walls:
        return False
    if walls[0] >= SHORT_SECONDS:
        return True
    return len(walls) > MIN_REPEATS and sum(walls[1:]) >= SHORT_SECONDS


def timed_runs(walls, values):
    """@p values of the runs timed as @p walls, without the warm-up
    run, if there was one."""
    return values if walls[0] >= SHORT_SECONDS else values[1:]


def percentile_tail(values):
    """The highest percentile with at least ten samples beyond it;
    the median when there are fewer than forty samples."""
    v = sorted(values)
    n = len(v)
    if n < 40:
        return statistics.median(v)
    return v[n - 11]


# --- the run --------------------------------------------------------

class Run:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / workload
        self.out = self.dir / "out"
        self.attempted = 0
        self.failed = 0

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.wmrace, self.wmbench = build()
        p = Proc([self.wmbench, "selftest"])
        self.selftest_ok = p.rc == 0
        if not self.selftest_ok:
            log("oracle self-test failed: " + p.stderr)
        # Choosing the inputs is not set-up work of the program.
        self.drawn = helper([self.wmbench, "draw", self.workload,
                             self.seed])

    def setup_once(self):
        """Generate and write the traces, start wmrace serve until it
        answers a Status request.  @return the wall time taken and the
        CPU time of the generator and of the server (start to exit;
        it exits as soon as it has answered)."""
        t0 = time.perf_counter()
        p = Proc([self.wmbench, "gen", self.workload, self.seed,
                  self.dir] + self.drawn)
        if p.rc != 0:
            raise BenchError("trace generation failed: " + p.stderr)
        server = Server(self.wmrace, self.wmbench)
        try:
            server.wait_ready()
            wall = time.perf_counter() - t0
        finally:
            server.stop()
        return wall, p.cpu + server.cpu

    def load_manifest(self):
        helper([self.wmbench, "oracle", self.workload, self.seed,
                self.dir] + self.drawn)
        manifest = json.loads((self.dir / "manifest.json").read_text())
        self.checker = Checker(manifest)
        for t in manifest["traces"]:
            if not (t["oracle_ok"] and t["file_matches_generator"]):
                self.checker.fail(t["file"] + ": generator/oracle "
                                  "mismatch")
        self.traces = manifest["traces"]
        self.paths = [self.dir / t["file"] for t in self.traces]

    def outfile(self, kind, t):
        d = self.out / kind
        d.mkdir(exist_ok=True)
        return d / (Path(t["file"]).name + ".txt")

    def cli_pass(self, kind, extra, first):
        """One `wmrace check` process per trace, repeated when the
        pass is short; @return the timed passes' CPU times and the
        largest peak RSS of each of them."""
        walls, cpus, rsses = [], [], []
        while not repeats_done(walls):
            wall = cpu = rss = 0.0
            for t, path in zip(self.traces, self.paths):
                dest = self.outfile(kind, t)
                p = Proc([self.wmrace, "check", path] + extra, dest)
                self.attempted += 1
                wall += p.wall
                cpu += p.cpu
                rss = max(rss, p.rss_mb)
                before = self.checker.failed
                if first and kind == "check":
                    self.checker.check_report(t, p, dest)
                elif first and kind == "engines":
                    self.checker.check_engines(t, p, dest)
                elif first:
                    self.checker.expect(p.rc in (0, 1),
                                        "%s: %s exit %d: %s" %
                                        (t["file"], kind, p.rc, p.stderr))
                    self.checker.same_bytes(t["file"], kind, dest,
                                            self.outfile("check", t))
                self.checker.same_as_first_round(kind, t["file"], dest,
                                                 p.rc)
                self.failed += self.checker.failed > before
            walls.append(wall)
            cpus.append(cpu)
            rsses.append(rss)
            first = False
        return timed_runs(walls, cpus), timed_runs(walls, rsses)

    def served_pass(self, kind, load):
        """Account the requests of one serve-load call."""
        if load["failed"]:
            self.checker.fail("%d %s request(s) failed: %s" %
                              (load["failed"], kind, load["errors"]))
        self.attempted += load["requests"]
        self.failed += load["failed"]

    def serve_server(self, files):
        """One fresh server: a cold pass that fills its cache, then hit
        passes from HIT_CLIENTS client processes.  @return the server's
        CPU time across the cold pass, the hit requests, the server's
        CPU time across the hit passes, the cache hits and lookups in
        its status across them, and the loads."""
        hits = []
        server = Server(self.wmrace, self.wmbench)
        try:
            server.wait_ready()
            cpu0 = server.cpu_so_far()
            cold = serve_load(self.wmbench, self.out / "check", files,
                              0, 1, 0)
            self.served_pass("cold", cold)
            before = server.status()["cache"]
            cpu1 = server.cpu_so_far()
            for _ in range(HIT_CLIENTS):
                hit = serve_load(self.wmbench, self.out / "check", files,
                                 HIT_SECONDS, MIN_REPEATS, 1)
                self.served_pass("hit", hit)
                self.checker.expect(
                    hit["cache_hits"] == hit["requests"],
                    "%d of %d hit-pass requests missed the cache" %
                    (hit["requests"] - hit["cache_hits"],
                     hit["requests"]))
                hits.append(hit)
            cpu2 = server.cpu_so_far()
            after = server.status()["cache"]
        finally:
            server.stop()
        lookups = (after["hits"] + after["misses"] -
                   before["hits"] - before["misses"])
        return (cpu1 - cpu0, sum(h["requests"] for h in hits),
                cpu2 - cpu1, after["hits"] - before["hits"], lookups,
                cold, hits)

    def serve_round(self):
        """HIT_SERVERS fresh servers, each with a cold pass and hit
        passes.  @return per server: the cold requests and the CPU
        seconds the server spent on them, and the hit requests per CPU
        second it spent on the hit passes."""
        files = [str(p) for p in self.paths]
        n = len(files)
        servers = [self.serve_server(files) for _ in range(HIT_SERVERS)]
        log("serve: cold pass server CPU %s s; hit passes %s requests "
            "/ server CPU s" %
            (["%.3f" % srv[0] for srv in servers],
             ["%d/%.2f" % srv[1:3] for srv in servers]))
        return {
            "cold_rps": [(n, srv[0]) for srv in servers],
            "hit_rps": [srv[1] / srv[2] for srv in servers],
            "cold_latency_ms": [x for srv in servers
                                for x in srv[5]["latency_ms"]],
            "hit_latency_ms": [x for srv in servers for h in srv[6]
                               for x in h["latency_ms"]],
            "retries": sum(srv[5]["retries"] +
                           sum(h["retries"] for h in srv[6])
                           for srv in servers),
            "hit_ratio": (sum(srv[3] for srv in servers) /
                          max(1, sum(srv[4] for srv in servers))),
        }

    def round(self, first):
        """One round of every operation.  @return each end-to-end
        metric's samples."""
        r = {}
        r["check_cpu_s"], r["check_rss_mb"] = self.cli_pass(
            "check", ["--jobs", "1"], first)
        r["check_stream_cpu_s"], r["check_stream_rss_mb"] = self.cli_pass(
            "stream", ["--stream"], first)
        r["check_engines_cpu_s"], _ = self.cli_pass(
            "engines", ["--engine", "all", "--jobs", "1"], first)
        bjson = self.out / "batch.json"
        walls, cpus = [], []
        while not repeats_done(walls):
            p = Proc([self.wmrace, "batch", self.dir / "traces",
                      "--jobs", "2", "--summary", "--json", bjson],
                     self.out / "batch.txt")
            self.attempted += len(self.traces)
            self.failed += self.checker.check_batch(
                p, bjson, self.dir / "traces")
            walls.append(p.wall)
            cpus.append(p.cpu)
        r["batch_traces_per_cpu_s"] = [len(self.traces) / c for c in
                                       timed_runs(walls, cpus)]
        s = self.serve_round()
        # Every metric as a list of samples: one per timed repeat, one
        # per server for the serve ones.
        r["serve_per_cpu_s"] = s["cold_rps"]
        r["serve_hit_per_cpu_s"] = s["hit_rps"]
        log("round: " + " ".join(
            "%s=%.4g" % (k, statistics.median(v)) for k, v in r.items()
            if k != "serve_per_cpu_s"))
        return r

    def untraced(self):
        setups = []
        while len(setups) < MIN_SETUPS or \
                sum(w for w, _ in setups) < SETUP_SECONDS:
            setups.append(self.setup_once())
        self.load_manifest()
        rounds = []
        t0 = time.perf_counter()
        while True:
            rounds.append(self.round(first=not rounds))
            elapsed = time.perf_counter() - t0
            if len(rounds) >= MIN_ROUNDS and \
                    elapsed * (len(rounds) + 1) / len(rounds) > \
                    self.seconds:
                break
        log("%s: %d rounds in %.1f s, setups %s" %
            (self.workload, len(rounds), time.perf_counter() - t0,
             ["%.4f" % c for _, c in setups]))
        metrics = {"setup_s": statistics.median(c for _, c in setups)}
        for name in END_TO_END:
            if name == "setup_s":
                continue
            values = [v for r in rounds for v in r[name]]
            if name == "serve_per_cpu_s":
                # A cold pass on corpus-serve costs the server 13-20
                # clock ticks, too coarse for a median of ratios.
                metrics[name] = (sum(n for n, _ in values) /
                                 sum(c for _, c in values))
            else:
                metrics[name] = statistics.median(values)
        return metrics

    def traced(self):
        self.setup_once()
        self.load_manifest()
        spans = WORK / ("spans-%s.json" % self.workload)
        layers = helper([self.wmbench, "layers", self.workload,
                         self.seed, self.dir, spans] + self.drawn)
        if not layers["ok"]:
            self.checker.fail("the traced layer run reported a failure")
        metrics = dict(layers["metrics"])

        # The CLI processes the layers stand for, twice each: the
        # wall the spans do not cover is cli.unattributed_s.
        wall = {"check": 0.0, "stream": 0.0}
        unattributed = {"check": 0.0, "stream": 0.0}
        for t, path, pt in zip(self.traces, self.paths, layers["paths"]):
            walls = {"check": [], "stream": []}
            for rep in range(2):
                for kind, extra in (("check", ["--jobs", "1"]),
                                    ("stream", ["--stream"])):
                    dest = self.outfile(kind, t)
                    p = Proc([self.wmrace, "check", path] + extra, dest)
                    self.attempted += 1
                    before = self.checker.failed
                    if kind == "check" and rep == 0:
                        self.checker.check_report(t, p, dest)
                    else:
                        self.checker.same_bytes(t["file"], kind, dest,
                                                self.outfile("check", t))
                    self.failed += self.checker.failed > before
                    walls[kind].append(p.wall)
            layer_dir = self.dir / "layers"
            name = Path(t["file"]).name
            self.checker.same_bytes(t["file"], "traced whole-trace",
                                    layer_dir / (name + ".check.txt"),
                                    self.outfile("check", t))
            self.checker.same_bytes(t["file"], "traced streamed",
                                    layer_dir / (name + ".stream.txt"),
                                    self.outfile("check", t))
            for kind, layers_s in (("check", pt["whole_s"]),
                                   ("stream", pt["stream_s"])):
                w = statistics.median(walls[kind])
                wall[kind] += w
                unattributed[kind] += w - layers_s
        metrics["cli.check_wall_s"] = wall["check"]
        metrics["cli.stream_wall_s"] = wall["stream"]
        metrics["cli.unattributed_s"] = unattributed["check"]
        metrics["cli.stream_unattributed_s"] = unattributed["stream"]

        # --trace-out against plain check on the largest trace.
        big = max(self.paths, key=lambda p: p.stat().st_size)
        plain, out = [], []
        for _ in range(2):
            p = Proc([self.wmrace, "check", big, "--jobs", "1"])
            q = Proc([self.wmrace, "check", big, "--jobs", "1",
                      "--trace-out", self.out / "trace_out.json"])
            self.attempted += 2
            for x in (p, q):
                if x.rc not in (0, 1):
                    self.failed += 1
                    self.checker.fail("check exit %d: %s" %
                                      (x.rc, x.stderr))
            plain.append(p.wall)
            out.append(q.wall)
        metrics["obs.trace_out_overhead"] = (statistics.median(out) /
                                             statistics.median(plain))

        execs = []
        for _ in range(10):
            p = Proc([self.wmrace, "models"])
            self.attempted += 1
            self.failed += p.rc != 0
            execs.append(p.wall)
        metrics["cli.exec_s"] = statistics.median(execs)

        s = self.serve_round()
        cold = s["cold_latency_ms"]
        hit = s["hit_latency_ms"]
        metrics["serve.hit_ratio"] = s["hit_ratio"]
        metrics["serve.cold_p50_ms"] = statistics.median(cold)
        metrics["serve.cold_tail_ms"] = percentile_tail(cold)
        metrics["serve.cold_samples"] = len(cold)
        metrics["serve.hit_p50_ms"] = statistics.median(hit)
        metrics["serve.hit_tail_ms"] = percentile_tail(hit)
        metrics["serve.hit_samples"] = len(hit)
        metrics["serve.retries"] = s["retries"]
        log("span file: %s" % spans)
        return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    WORK.mkdir(exist_ok=True)
    # The serve socket path is relative to the work directory.
    os.chdir(WORK)
    run = Run(args.workload, str(args.seed), args.seconds)
    try:
        run.prepare()
        metrics = run.traced() if args.trace else run.untraced()
    except BenchError as e:
        log("benchmark failed: %s" % e)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    missing = [n for n in units if n not in metrics]
    if missing:
        log("metrics missing: %s" % missing)
        return 1
    correct = run.selftest_ok and not run.checker.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
