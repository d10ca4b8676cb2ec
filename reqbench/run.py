#!/usr/bin/env python3
"""Request-level benchmark over grd and gropt.

    python3 reqbench/run.py --workload detect_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds gropt, grd and the
traced replay tool into .bench_build/; generated requests and traces go
to .bench_out/. With --trace 0 the tools are driven as black boxes and
the last stdout line carries the end-to-end metrics; with --trace 1 a
shorter untraced run is followed by a traced in-process replay of the
same requests, and the last line carries the per-layer metrics. See
reqbench/README.md for the workloads, the metrics and what each should
move.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GROPT = os.path.join(BUILD_DIR, "repo", "gropt")
GRD = os.path.join(BUILD_DIR, "repo", "grd")
REPLAY = os.path.join(BUILD_DIR, "reqbench_replay")
EXTRA_PROGRAMS = ["corpus/minic/nbody.mc", "corpus/minic/kmeans_assign.mc"]

WORKLOADS = ["detect_cold", "detect_warm", "run_coarse", "run_fine"]
FORMS = ["mc", "gr"]
# detect_warm's edit loop works on the six kernels kept as files under
# corpus/minic/ (four are twins of these corpus programs). Fixed, so
# every run serves the same multiset.
HOT_SET = ["NAS_CG", "NAS_IS", "Rodinia_hotspot", "Rodinia_pathfinder",
           "kmeans_assign", "nbody"]
# Per hot module and round, beside one unique module per program and
# form: 84 repeats, 168 edits and 84 uniques, 1:2:1. Latency orders the
# kinds repeat < edit (hot kernels, no solve) < unique (any program,
# solved), so the p50 sits mid-way through the edits and the p90 inside
# the uniques, away from the boundaries between kinds.
WARM_REPEATS = 7
WARM_EDITS = 14
RUN_ARGS = ["-passes=parallelize", "--run"]
DETECT_TIMEOUT_S = 10.0
RUN_TIMEOUT_S = 60.0
GRD_LAUNCHES = 3    # set-up is measured this many times per run ...
GROPT_LAUNCHES = 15  # ... and over this many warm-up processes.
# grd's cache grows with every module it stores, so its peak RSS is read
# after a fixed number of rounds: a faster server serving more requests
# in the same seconds must not read as a memory regression.
PEAK_RSS_ROUNDS = 8
WARMUP_MC = """int main() {
  int i;
  int s = 0;
  for (i = 0; i < 1000; i++)
    s = s + i;
  return s;
}
"""
WARMUP_RESULT = 499500

FAILURE_KINDS = ["exit", "signal", "timeout", "error", "wrong"]


class BenchError(Exception):
    """The benchmark cannot run (build failure, missing sources)."""


def log(*parts):
    print(*parts, flush=True)


# --------------------------------------------------------------------------
# Build and corpus
# --------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no repository sources next to reqbench/: run from "
                         "the root of a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "gropt", "grd", "reqbench_replay"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed; see " + build_log)


class Program:
    def __init__(self, stem, known, sources):
        self.stem = stem
        self.known = known       # the entry of expected.json
        self.sources = sources   # form -> path of the unperturbed file
        self.text = {}
        for form, path in sources.items():
            with open(path) as f:
                self.text[form] = f.read()

    def idioms(self):
        return self.known["idioms"]


def load_programs(work):
    """Writes the 42 programs as .mc and printed .gr under work/corpus
    and checks them against the recorded known answers."""
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        expected = json.load(f)
    corpus = os.path.join(work, "corpus")
    os.makedirs(corpus, exist_ok=True)
    out = subprocess.run([REPLAY, "dump", corpus] + EXTRA_PROGRAMS, cwd=ROOT,
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError("corpus dump failed: " + out.stderr)
    programs = []
    for line in out.stdout.split("\n"):
        if not line:
            continue
        stem, *counts = line.split()
        known = expected["programs"].get(stem)
        if known is None:
            raise BenchError(stem + " has no recorded answer in expected.json")
        if counts[0] != "-" and [int(c) for c in counts] != known["idioms"]:
            raise BenchError(stem + ": BenchmarkExpectations no longer match "
                             "expected.json")
        programs.append(Program(stem, known, {
            form: os.path.join(corpus, stem + "." + form) for form in FORMS}))
    if len(programs) != len(expected["programs"]):
        raise BenchError("corpus and expected.json list different programs")
    return programs, expected


# --------------------------------------------------------------------------
# Request generation
# --------------------------------------------------------------------------

def with_unique_global(text, form, token):
    """Adds a global nothing uses: a module no earlier request had, whose
    verdict is the original's."""
    if form == "mc":
        return "int bench_unused_%s;\n%s" % (token, text)
    lines = text.split("\n")
    at = 0
    while at < len(lines) and lines[at].startswith(";"):
        at += 1
    lines.insert(at, "@bench_unused_%s = global i64" % token)
    return "\n".join(lines)


def with_comment_edit(text, form, token):
    """A comment-only edit: new request bytes, identical functions."""
    return text + ("// edit %s\n" if form == "mc" else "; edit %s\n") % token


class Request:
    __slots__ = ("program", "form", "kind", "path", "text")

    def __init__(self, program, form, kind, path, text):
        self.program, self.form, self.kind = program, form, kind
        self.path, self.text = path, text


def fine_programs(expected):
    return set(expected["run_fine"]["programs"])


def workload_programs(workload, programs, expected):
    if workload == "run_fine":
        return [p for p in programs if p.stem in fine_programs(expected)]
    if workload == "run_coarse":
        return [p for p in programs if p.stem not in fine_programs(expected)]
    return programs


class Generator:
    """Seeded request stream: a shuffled complete round at a time, so
    every run serves the same multiset of (program, form, kind)."""

    def __init__(self, workload, seed, programs, expected, work):
        self.workload = workload
        self.seed = seed
        self.programs = workload_programs(workload, programs, expected)
        self.rng = random.Random(seed * len(WORKLOADS)
                                 + WORKLOADS.index(workload))
        self.work = work
        self.rounds = 0
        self.digest = hashlib.sha256()
        self.round0_digest = None
        self._warmup = None
        os.makedirs(os.path.join(work, "req"), exist_ok=True)

    def _token(self, tag, index):
        return "%d_%s_%d_%08x" % (self.seed, tag, index,
                                  self.rng.getrandbits(32))

    def _unique(self, program, form, tag, index):
        text = with_unique_global(program.text[form], form,
                                  self._token(tag, index))
        return self._file(program, form, "unique", tag, index, text)

    def _file(self, program, form, kind, tag, index, text):
        path = os.path.join(self.work, "req", "%s_%d.%s" % (tag, index, form))
        with open(path, "w") as f:
            f.write(text)
        return Request(program, form, kind, os.path.relpath(path, ROOT), text)

    def _base(self, program, form, kind):
        return Request(program, form, kind,
                       os.path.relpath(program.sources[form], ROOT),
                       program.text[form])

    def warmup(self):
        """Requests that bring a fresh server to its timed state."""
        if self._warmup is None:
            self._warmup = []
            if self.workload.startswith("detect"):
                self._warmup = [self._unique(p, f, "w", i) for i, (p, f) in
                                enumerate(self._modules(self.programs))]
            if self.workload == "detect_warm":
                self._warmup += [self._base(p, f, "repeat")
                                 for p, f in self._modules(self._hot())]
        return self._warmup

    def _hot(self):
        return [p for p in self.programs if p.stem in HOT_SET]

    @staticmethod
    def _modules(programs):
        return [(p, f) for p in programs for f in FORMS]

    def next_round(self):
        tag = "r%d" % self.rounds
        if self.workload.startswith("detect"):
            slots = [(p, f, "unique") for p, f in
                     self._modules(self.programs)]
        else:
            slots = [(p, "mc", "run") for p in self.programs]
        if self.workload == "detect_warm":
            hot = self._modules(self._hot())
            slots += [(p, f, "repeat") for p, f in hot] * WARM_REPEATS
            slots += [(p, f, "edit") for p, f in hot] * WARM_EDITS
        self.rng.shuffle(slots)
        requests = []
        for i, (p, f, kind) in enumerate(slots):
            if kind == "unique":
                requests.append(self._unique(p, f, tag, i))
            elif kind == "edit":
                text = with_comment_edit(p.text[f], f, self._token(tag, i))
                requests.append(self._file(p, f, kind, tag, i, text))
            else:
                requests.append(self._base(p, f, kind))
        digest = hashlib.sha256()
        for r in requests:
            entry = ("%s\t%s\t%s\n" % (r.program.stem, r.form, r.kind)
                     ).encode() + r.text.encode()
            digest.update(entry)
            self.digest.update(entry)
        if self.round0_digest is None:
            self.round0_digest = digest.hexdigest()
        self.rounds += 1
        return requests


# --------------------------------------------------------------------------
# Clients
# --------------------------------------------------------------------------

class Outcome:
    """One attempted request: its latency, and a failure kind or None."""
    __slots__ = ("request", "latency", "failure", "detail")

    def __init__(self, request, latency):
        self.request, self.latency = request, latency
        self.failure, self.detail = None, ""


def read_until_exit(proc, deadline):
    """Collects stdout and stderr until both close or the deadline
    passes; returns (stdout, stderr, timed_out)."""
    fds = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    open_fds = set(fds)
    while open_fds:
        left = deadline - time.perf_counter()
        if left <= 0:
            return b"".join(fds[proc.stdout.fileno()]), b"", True
        ready, _, _ = select.select(list(open_fds), [], [], left)
        for fd in ready:
            chunk = os.read(fd, 65536)
            if chunk:
                fds[fd].append(chunk)
            else:
                open_fds.discard(fd)
    return (b"".join(fds[proc.stdout.fileno()]),
            b"".join(fds[proc.stderr.fileno()]), False)


class Child:
    """A finished child process with its own resource usage."""

    def __init__(self, argv, timeout, preexec_fn=None):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, preexec_fn=preexec_fn)
        self.stdout, self.stderr, self.timed_out = read_until_exit(
            proc, start + timeout)
        if self.timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.latency = time.perf_counter() - start
        self.returncode = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0


def check_run_answer(program, stdout):
    """The printed output and result of gropt's parallelised run against
    the reference interpreter's on the untransformed program."""
    text = stdout.decode(errors="replace")
    at = text.rfind("result: ")
    m = re.match(r"result: (-?\d+) \(work=\d+, simulated time=\d+, "
                 r"sections=(\d+)\)", text[at:]) if at >= 0 else None
    if not m:
        return "no result line"
    known = program.known
    if text[:at] != known["output"]:
        return "printed output differs from the reference"
    if int(m.group(1)) != known["result"]:
        return "result %s, reference %d" % (m.group(1), known["result"])
    if int(m.group(2)) != known["sections"]:
        return "%s sections, recorded %d" % (m.group(2), known["sections"])
    return None


def run_request(request, timeout=RUN_TIMEOUT_S, preexec_fn=None):
    """One gropt process per request. Returns (Outcome, Child)."""
    child = Child([GROPT, request.path] + RUN_ARGS, timeout, preexec_fn)
    out = Outcome(request, child.latency)
    if child.timed_out:
        out.failure, out.latency = "timeout", timeout
    elif child.returncode < 0:
        out.failure, out.detail = "signal", "signal %d" % -child.returncode
    elif child.returncode != 0:
        out.failure = "exit"
        out.detail = child.stderr.decode(errors="replace").strip()[:200]
    else:
        wrong = check_run_answer(request.program, child.stdout)
        if wrong:
            out.failure, out.detail = "wrong", wrong
    return out, child


GRD_OK = re.compile(r"ok (\S+) functions=\d+ scalars=(\d+) histograms=(\d+) "
                    r"scans=(\d+) argminmax=(\d+) solutions=\d+ "
                    r"cache=(hit|miss) ms=[0-9.]+$")


class Grd:
    """grd --cache over one pipe, one request in flight."""

    def __init__(self):
        self.proc = subprocess.Popen([GRD, "--cache"], cwd=ROOT,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self.pending = b""

    def _line(self, deadline):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.pending:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None, "timeout"
            chunk = os.read(fd, 65536)
            if not chunk:
                return None, "closed"
            self.pending += chunk
        line, self.pending = self.pending.split(b"\n", 1)
        return line.decode(errors="replace"), None

    def send(self, line, timeout):
        """Returns (response line or None, 'timeout'|'closed'|None)."""
        try:
            os.write(self.proc.stdin.fileno(), (line + "\n").encode())
        except BrokenPipeError:
            return None, "closed"
        return self._line(time.perf_counter() + timeout)

    def cpu_s(self):
        """CPU seconds of all grd threads, from schedstat's nanoseconds:
        utime and stime are sampled per clock tick, too coarse for one
        round."""
        ns = 0
        for path in glob.glob("/proc/%d/task/*/schedstat" % self.proc.pid):
            with open(path) as f:
                ns += int(f.read().split()[0])
        return ns / 1e9

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def cache_counters(self):
        """The !cache-stats counters; `function` and `module` expand to
        their hits/misses/stores."""
        line, _ = self.send("!cache-stats", DETECT_TIMEOUT_S)
        counters = {}
        for key, value in re.findall(r"(\w+)=([\d/]+)", line or ""):
            parts = [int(v) for v in value.split("/")]
            if len(parts) == 3:
                for suffix, v in zip(("hits", "misses", "stores"), parts):
                    counters[key + "_" + suffix] = v
            else:
                counters[key] = parts[0]
        return counters

    def failure(self):
        """Stops the server and classifies why it stopped answering."""
        if self.proc.poll() is None:
            self.proc.kill()
        code = self.proc.wait()
        return "signal" if code < 0 else "exit"

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.close()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.send("!quit", 1.0)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def expected_cache(workload, kind):
    """The module-tier outcome each request kind must get."""
    if workload == "detect_warm" and kind == "repeat":
        return "hit"
    return "miss"


def detect_request(grd, workload, request, timeout=DETECT_TIMEOUT_S):
    """One grd request. Returns an Outcome; on a timeout or a dead server
    the caller replaces the server before the next request."""
    start = time.perf_counter()
    line, problem = grd.send(request.path, timeout)
    out = Outcome(request, time.perf_counter() - start)
    if problem == "timeout":
        out.failure, out.latency = "timeout", timeout
        return out
    if problem == "closed":
        out.failure = grd.failure()
        return out
    if line.startswith("error "):
        out.failure, out.detail = "error", line
        return out
    m = GRD_OK.match(line)
    if not m or m.group(1) != request.path:
        out.failure, out.detail = "wrong", "unparsed response: " + line
        return out
    counts = [int(m.group(i)) for i in range(2, 6)]
    cache = m.group(6)
    if counts != request.program.idioms():
        out.failure = "wrong"
        out.detail = "idioms %s, expected %s" % (counts,
                                                 request.program.idioms())
    elif cache != expected_cache(workload, request.kind):
        out.failure = "wrong"
        out.detail = "cache=%s on a %s request" % (cache, request.kind)
    return out


def start_grd(workload, warmup):
    """Launches grd and serves the warm-up; returns (server, seconds
    from launch to ready)."""
    start = time.perf_counter()
    grd = Grd()
    for request in warmup:
        out = detect_request(grd, "setup", request)
        if out.failure:
            grd.close()
            raise BenchError("warm-up request failed: %s %s" %
                             (out.failure, out.detail))
    return grd, time.perf_counter() - start


# --------------------------------------------------------------------------
# End-to-end phase
# --------------------------------------------------------------------------

def percentile(values, p):
    """Nearest rank, as grd and the batch driver report it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


class RoundStats:
    """One round's latency percentiles, rate and CPU per request."""
    __slots__ = ("p50_ms", "p90_ms", "rps", "cpu_ms")

    def __init__(self, outcomes, seconds, cpu_s):
        latencies = [o.latency * 1000.0 for o in outcomes]
        self.p50_ms = percentile(latencies, 0.50)
        self.p90_ms = percentile(latencies, 0.90)
        self.rps = sum(1 for o in outcomes if not o.failure) / seconds
        self.cpu_ms = cpu_s * 1000.0 / len(outcomes)


class Phase:
    """What one timed phase observed. Every round serves the same
    multiset, so each end-to-end metric is taken per round and reported
    as the median over rounds: a burst of contention from outside the
    program that covers less than half of the run does not move it."""

    def __init__(self):
        self.outcomes = []
        self.rounds = []
        self.round_stats = []
        self.timed = 0.0
        self.peak_rss_mb = 0.0
        self.setups = []
        self.notes = []

    def failed(self):
        return sum(1 for o in self.outcomes if o.failure)

    def close_round(self, seconds, cpu_s):
        self.timed += seconds
        self.round_stats.append(RoundStats(
            self.outcomes[-len(self.rounds[-1]):], seconds, cpu_s))


def run_phase(workload, gen, seconds):
    phase = Phase()
    warmup = gen.warmup()
    if workload.startswith("detect"):
        grd = None
        try:
            for _ in range(GRD_LAUNCHES):
                if grd:
                    grd.close()
                grd, setup = start_grd(workload, warmup)
                phase.setups.append(setup)
            before = grd.cache_counters()
            while len(phase.rounds) < PEAK_RSS_ROUNDS or \
                    phase.timed < seconds:
                requests = gen.next_round()
                phase.rounds.append(requests)
                cpu_s, cpu0, t0 = 0.0, grd.cpu_s(), time.perf_counter()
                for request in requests:
                    out = detect_request(grd, workload, request)
                    phase.outcomes.append(out)
                    if out.failure in ("timeout", "exit", "signal"):
                        if grd.proc.poll() is None:
                            cpu_s += grd.cpu_s() - cpu0
                        grd.kill()
                        grd, _ = start_grd(workload, warmup)
                        cpu0 = grd.cpu_s()
                        before = grd.cache_counters()
                cpu_s += grd.cpu_s() - cpu0
                phase.close_round(time.perf_counter() - t0, cpu_s)
                if len(phase.rounds) == PEAK_RSS_ROUNDS:
                    phase.peak_rss_mb = grd.peak_rss_mb()
            after = grd.cache_counters()
            delta = {k: after[k] - before.get(k, 0) for k in after}
            phase.notes.append("cache counters over the timed phase: " +
                               " ".join("%s=%d" % kv
                                        for kv in sorted(delta.items())))
            if workload == "detect_cold" and delta.get("hits"):
                phase.notes.append("FAIL: %d cache hits on detect_cold" %
                                   delta["hits"])
        finally:
            if grd:
                grd.close()
    else:
        warm = os.path.join(gen.work, "warmup.mc")
        with open(warm, "w") as f:
            f.write(WARMUP_MC)
        for _ in range(GROPT_LAUNCHES):
            child = Child([GROPT, os.path.relpath(warm, ROOT)] + RUN_ARGS,
                          RUN_TIMEOUT_S)
            if child.returncode != 0 or ("result: %d " % WARMUP_RESULT) \
                    not in child.stdout.decode(errors="replace"):
                raise BenchError("gropt warm-up request failed")
            phase.setups.append(child.latency)
        while not phase.rounds or phase.timed < seconds:
            requests = gen.next_round()
            phase.rounds.append(requests)
            round_s = cpu_s = 0.0
            for request in requests:
                out, child = run_request(request)
                phase.outcomes.append(out)
                round_s += child.latency
                cpu_s += child.cpu_s
                phase.peak_rss_mb = max(phase.peak_rss_mb, child.maxrss_mb)
            phase.close_round(round_s, cpu_s)
    return phase


def end_to_end_metrics(phase):
    def over_rounds(field):
        return statistics.median(getattr(r, field) for r in phase.round_stats)
    return {
        "latency_ms.p50": (over_rounds("p50_ms"), "ms"),
        "latency_ms.p90": (over_rounds("p90_ms"), "ms"),
        "throughput_rps": (over_rounds("rps"), "1/s"),
        "cpu_ms_per_request": (over_rounds("cpu_ms"), "ms"),
        "setup_s": (statistics.median(phase.setups), "s"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }


def failure_counts(outcomes):
    return {k: sum(o.failure == k for o in outcomes) for k in FAILURE_KINDS}


def report_phase(gen, phase, expected):
    """Prints the realised mix, the failures and the latency split."""
    outcomes = phase.outcomes
    n = len(outcomes)
    log("requests: %d in %d rounds of %d, timed %.3f s" % (
        n, len(phase.rounds), len(phase.rounds[0]), phase.timed))
    log("inputs: round0 sha256 %s, all rounds sha256 %s" % (
        gen.round0_digest, gen.digest.hexdigest()))
    forms = " ".join("%s=%.3f" % (f, sum(o.request.form == f
                                         for o in outcomes) / n)
                     for f in FORMS)
    kinds = sorted(set(o.request.kind for o in outcomes))
    log("mix: %s %s" % (forms, " ".join(
        "%s=%.3f" % (k, sum(o.request.kind == k for o in outcomes) / n)
        for k in kinds)))
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.request.kind, []).append(o.latency * 1000.0)
    ordered = sorted(outcomes, key=lambda o: o.latency)
    for p in (0.50, 0.90):
        rank = max(1, math.ceil(p * n)) - 1
        window = ordered[max(0, rank - n // 40):rank + n // 40 + 1]
        log("p%d falls on a %s request; kinds within 2.5%% of its rank: %s"
            % (round(p * 100), ordered[rank].request.kind, " ".join(
                "%s=%.2f" % (k, sum(o.request.kind == k for o in window) /
                             len(window)) for k in kinds)))
    for kind in kinds:
        v = by_kind[kind]
        log("  %-7s n=%-6d p50 %.3f ms  p90 %.3f ms" % (
            kind, len(v), percentile(v, 0.5), percentile(v, 0.9)))
    counts = failure_counts(outcomes)
    log("failures: %d of %d (%s), error_rate %.6f" % (
        phase.failed(), n, " ".join("%s=%d" % kv for kv in counts.items()),
        phase.failed() / n))
    for o in [o for o in outcomes if o.failure][:5]:
        log("  %s %s %s: %s" % (o.failure, o.request.program.stem,
                                o.request.path, o.detail))
    for note in phase.notes:
        log(note)
    report_sides(expected)


def report_sides(expected):
    """The fixed run_coarse / run_fine split and the numbers behind it."""
    fine = fine_programs(expected)
    log("run_fine (fixed): %s" % expected["run_fine"]["why"])
    for side, members in (("run_fine", True), ("run_coarse", False)):
        cells = []
        for stem, known in sorted(expected["programs"].items()):
            if (stem in fine) == members:
                per = known["work"] / known["sections"] if known["sections"] \
                    else 0
                cells.append("%s:%d/%.0f" % (stem, known["sections"], per))
        log("%s sections/instructions-per-section: %s" % (side,
                                                         " ".join(cells)))


# --------------------------------------------------------------------------
# Traced replay
# --------------------------------------------------------------------------

LAYER_OF = {
    "frontend.parse": "frontend", "frontend.codegen": "frontend",
    "ir.parse": "ir", "ir.verify": "ir", "ir.print": "ir",
    "pass.ssa": "pass", "idioms.detect": "idioms",
    "cache.key": "cache", "cache.lookup": "cache", "cache.store": "cache",
    "transform": "transform", "interp.compile": "interp",
    "interp.seq": "interp", "runtime.simulated": "runtime",
    "runtime.threaded": "runtime", "probe.detect": "probe",
    "probe.compile": "probe",
}
LAYERS = ["frontend", "ir", "pass", "idioms", "cache", "transform",
          "interp", "runtime"]
REQUIRED = {
    "detect": {"frontend", "ir", "pass", "idioms", "cache"},
    "run": {"frontend", "ir", "pass", "transform", "interp", "runtime"},
}
FORBIDDEN = {
    "detect": {"transform", "interp", "runtime"},
    "run": {"cache", "idioms"},
}


class Trace:
    """Spans of a replay with their requests, rebased to one list."""

    def __init__(self):
        self.spans = []       # dicts with name/start_ns/end_ns/parent/rid
        self.requests = {}    # rid -> (Request, replay result dict)
        self.failures = {}    # rid -> why its replay did not finish

    def add(self, spans, rid=None):
        base = len(self.spans)
        for s in spans:
            s = dict(s)
            if s["parent"] >= 0:
                s["parent"] += base
            if rid is not None:
                s["rid"] = rid
            self.spans.append(s)

    def self_times(self):
        child = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end_ns"] - s["start_ns"]
        return [(s["end_ns"] - s["start_ns"] - c) / 1e6
                for s, c in zip(self.spans, child)]


def replay_detect(gen, phase, work):
    listing = os.path.join(work, "replay.list")
    rid = 0
    rids = {}
    with open(listing, "w") as f:
        for request in gen.warmup():
            f.write("%d w %s\n" % (rid, request.path))
            rid += 1
        for requests in phase.rounds:
            for request in requests:
                f.write("%d t %s\n" % (rid, request.path))
                rids[rid] = request
                rid += 1
    out_json = os.path.join(work, "replay.json")
    child = Child([REPLAY, "detect", os.path.relpath(listing, ROOT),
                   os.path.relpath(out_json, ROOT)], 170.0)
    if child.returncode != 0 or child.timed_out:
        raise BenchError("traced replay failed: " +
                         child.stderr.decode(errors="replace"))
    with open(out_json) as f:
        data = json.load(f)
    trace = Trace()
    trace.add(data["spans"])
    for r in data["requests"]:
        trace.requests[r["rid"]] = (rids[r["rid"]], r)
    return trace, data["cache"]


def replay_run(gen, phase):
    trace = Trace()
    rid = 0
    for requests in phase.rounds:
        for request in requests:
            start = time.monotonic_ns()
            child = Child([REPLAY, "run", request.path], RUN_TIMEOUT_S)
            end = time.monotonic_ns()
            if child.returncode != 0 or child.timed_out:
                trace.failures[rid] = "%s: replay exited with %d: %s" % (
                    request.path, child.returncode,
                    child.stderr.decode(errors="replace").strip()[:200])
                rid += 1
                continue
            data = json.loads(child.stdout)
            trace.spans.append({"name": "tools.process", "start_ns": start,
                                "end_ns": end, "parent": -1, "rid": rid,
                                "probe": False})
            root = len(trace.spans)
            trace.add(data["spans"], rid=rid)
            trace.spans[root]["parent"] = root - 1
            trace.requests[rid] = (request, data["result"])
            rid += 1
    return trace, None


def check_replay(workload, trace):
    """Every traced answer against the known answers; returns why each
    failed request failed, by request id."""
    wrong = dict(trace.failures)
    for rid, (request, r) in sorted(trace.requests.items()):
        known = request.program.known
        if workload.startswith("detect"):
            got = [r["scalars"], r["histograms"], r["scans"], r["argminmax"]]
            if not r["ok"] or got != known["idioms"]:
                wrong[rid] = "%s: %s %s" % (request.path, got, r["error"])
            continue
        for prefix in ("", "threaded_", "seq_"):
            if r[prefix + "output"] != known["output"] or \
                    r[prefix + "main"] != known["result"]:
                wrong[rid] = "%s: %srun differs from the reference" % (
                    request.path, prefix)
        if r["sections"] != known["sections"]:
            wrong[rid] = "%s: %d sections" % (request.path, r["sections"])
    return wrong


def layer_metrics(workload, trace, cache, e2e_mean_ms):
    spans = trace.spans
    selfs = trace.self_times()
    n = len(trace.requests)
    total = {}
    for s, t in zip(spans, selfs):
        total[s["name"]] = total.get(s["name"], 0.0) + t
    dur = {}
    for s in spans:
        dur[s["name"]] = dur.get(s["name"], 0.0) + \
            (s["end_ns"] - s["start_ns"]) / 1e6
    results = [r for _, r in trace.requests.values()]

    def per(name):
        return total.get(name, 0.0) / n

    def rate(amount, ms):
        return amount / (ms / 1000.0) if ms > 0 else 0.0

    m = {}
    detect = workload.startswith("detect")
    mc_lines = sum(r["lines"] for r in results
                   if (not detect or r["minic"]) and not r.get("module_hit"))
    gr_bytes = sum(r["bytes"] for r in results
                   if detect and not r["minic"] and not r["module_hit"])
    m["frontend.parse_ms"] = (per("frontend.parse"), "ms")
    m["frontend.codegen_ms"] = (per("frontend.codegen"), "ms")
    m["frontend.klines_per_s"] = (rate(mc_lines / 1000.0, dur.get(
        "frontend.parse", 0) + dur.get("frontend.codegen", 0)), "klines/s")
    m["ir.parse_ms"] = (per("ir.parse"), "ms")
    m["ir.print_ms"] = (per("ir.print"), "ms")
    m["ir.verify_ms"] = (per("ir.verify"), "ms")
    m["ir.parse_mb_per_s"] = (rate(gr_bytes / 1e6, dur.get("ir.parse", 0)),
                              "MB/s")
    m["pass.ssa_ms"] = (per("pass.ssa"), "ms")
    solved = [r for r in results if detect and not r["module_hit"]]
    m["pass.detect_lanes"] = (statistics.mean(r["lanes"] for r in solved)
                              if solved else 0.0, "lanes")
    m["idioms.detect_ms"] = (per("idioms.detect"), "ms")
    cold = [r for r in solved if r["function_hits"] == 0]
    reported = sum(r["scalars"] + r["histograms"] + r["scans"] +
                   r["argminmax"] for r in cold)
    raw = sum(r["idiom_solutions"] for r in cold)
    m["constraint.nodes"] = (sum(r["nodes"] for r in cold) / n, "count")
    m["constraint.solutions"] = (sum(r["solutions"] for r in cold) / n,
                                 "count")
    m["idioms.accept_ratio"] = (reported / raw if raw else 0.0, "ratio")
    cache = cache or {}

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0
    m["cache.lookup_ms"] = (per("cache.key") + per("cache.lookup") +
                            per("cache.store"), "ms")
    m["cache.module_hit_ratio"] = (ratio(cache.get("module_hits", 0),
                                         cache.get("module_misses", 0)),
                                   "ratio")
    m["cache.function_hit_ratio"] = (ratio(cache.get("function_hits", 0),
                                           cache.get("function_misses", 0)),
                                     "ratio")
    m["cache.stores"] = (cache.get("stores", 0) / n, "count")
    m["cache.evictions"] = (cache.get("evictions", 0) / n, "count")
    m["transform.ms"] = (per("transform"), "ms")
    m["transform.loops_outlined"] = (
        sum(r.get("outlined", 0) for r in results) / n, "count")
    m["transform.refused"] = (sum(r.get("refused", 0) for r in results) / n,
                              "count")
    instructions = sum(r.get("instructions", 0) for r in results)
    m["interp.compile_ms"] = (per("interp.compile"), "ms")
    m["interp.fused_pairs"] = (
        sum(r.get("fused_pairs", 0) for r in results) / n, "count")
    m["interp.seq_ms"] = (per("interp.seq"), "ms")
    m["interp.instructions"] = (instructions / n, "count")
    m["interp.minst_per_s"] = (rate(instructions / 1e6,
                                    dur.get("interp.seq", 0)), "Minst/s")
    sections = sum(r.get("sections", 0) for r in results)
    m["runtime.threaded_ms"] = (per("runtime.threaded"), "ms")
    m["runtime.simulated_ms"] = (per("runtime.simulated"), "ms")
    m["runtime.sections"] = (sections / n, "count")
    m["runtime.us_per_section"] = (
        dur.get("runtime.threaded", 0) * 1000.0 / sections if sections
        else 0.0, "us")
    speedups = []
    by_rid = {}
    for s in spans:
        if s["name"] in ("interp.seq", "runtime.threaded"):
            by_rid.setdefault(s["rid"], {})[s["name"]] = \
                s["end_ns"] - s["start_ns"]
    for d in by_rid.values():
        if "interp.seq" in d and d.get("runtime.threaded"):
            speedups.append(d["interp.seq"] / d["runtime.threaded"])
    m["runtime.speedup_vs_seq"] = (statistics.geometric_mean(speedups)
                                   if speedups else 0.0, "x")
    m["tools.overhead_ms"] = (
        e2e_mean_ms - sum(tool_path_ms(trace).values()) / n, "ms")
    return m


def tool_path_ms(trace):
    """Milliseconds per request id inside the layers on the tool's own
    path: direct children of each request span, probes excluded."""
    roots = {i for i, s in enumerate(trace.spans) if s["name"] == "request"}
    path = {}
    for s in trace.spans:
        if s["parent"] in roots and not s["probe"]:
            path[s["rid"]] = path.get(s["rid"], 0.0) + \
                (s["end_ns"] - s["start_ns"]) / 1e6
    return path


def layer_table(trace, phase):
    """Per-program self time per layer, ms per request."""
    selfs = trace.self_times()
    rows = {}
    for s, t in zip(trace.spans, selfs):
        layer = LAYER_OF.get(s["name"])
        if layer in LAYERS:
            request = trace.requests[s["rid"]][0]
            row = rows.setdefault(request.program.stem, {})
            row[layer] = row.get(layer, 0.0) + t
    count, e2e = {}, {}
    for request, _ in trace.requests.values():
        count[request.program.stem] = count.get(request.program.stem, 0) + 1
    for o in phase.outcomes:
        e2e.setdefault(o.request.program.stem, []).append(o.latency * 1000.0)
    path = {}
    for rid, ms in tool_path_ms(trace).items():
        stem = trace.requests[rid][0].program.stem
        path[stem] = path.get(stem, 0.0) + ms
    log("self time per request (ms); interp is the probe sequential run; "
        "tools = e2e mean - layers on the tool path")
    log("%-24s %5s" % ("program", "n") + "".join(
        "%10s" % l for l in LAYERS) + "%10s%10s" % ("tools", "e2e"))
    for stem in sorted(rows):
        n = count[stem]
        mean = statistics.mean(e2e[stem]) if stem in e2e else 0.0
        log("%-24s %5d" % (stem, n) + "".join(
            "%10.3f" % (rows[stem].get(l, 0.0) / n) for l in LAYERS) +
            "%10.3f%10.3f" % (mean - path[stem] / n, mean))


def presence_problems(workload, trace, cache):
    family = "detect" if workload.startswith("detect") else "run"
    seen = {LAYER_OF.get(s["name"]) for s in trace.spans}
    problems = ["expected layer %s has no span" % l
                for l in sorted(REQUIRED[family] - seen)]
    problems += ["layer %s has a span on %s" % (l, workload)
                 for l in sorted(FORBIDDEN[family] & seen)]
    if workload == "detect_cold" and (cache["module_hits"] or
                                      cache["function_hits"]):
        problems.append("cache hits on detect_cold: %d module, %d function" %
                        (cache["module_hits"], cache["function_hits"]))
    if workload == "detect_warm" and not (cache["module_hits"] and
                                          cache["function_hits"]):
        problems.append("detect_warm served no module or no function hits")
    return problems


def write_chrome_trace(trace, path):
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": "reqbench replay"}}]
    t0 = min(s["start_ns"] for s in trace.spans)
    for s in trace.spans:
        request = trace.requests[s["rid"]][0]
        events.append({
            "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
            "cat": "probe" if s["probe"] else
            LAYER_OF.get(s["name"], "tools"),
            "ts": (s["start_ns"] - t0) / 1000.0,
            "dur": (s["end_ns"] - s["start_ns"]) / 1000.0,
            "args": {"rid": s["rid"], "program": request.program.stem,
                     "form": request.form, "kind": request.kind}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    build()
    work = os.path.join(OUT_DIR, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        programs, expected = load_programs(work)
        gen = Generator(args.workload, args.seed, programs, expected, work)
        seconds = args.seconds / 2 if args.trace else args.seconds
        phase = run_phase(args.workload, gen, seconds)
        report_phase(gen, phase, expected)
        e2e = end_to_end_metrics(phase)
        for name, (value, unit) in e2e.items():
            log("%-20s %14.4f %s" % (name, value, unit))
        correct = phase.failed() == 0 and not any(
            n.startswith("FAIL") for n in phase.notes)
        if not args.trace:
            print(result_line(correct, len(phase.outcomes), phase.failed(),
                              e2e))
            return 0

        if args.workload.startswith("detect"):
            trace, cache = replay_detect(gen, phase, work)
        else:
            trace, cache = replay_run(gen, phase)
        if not trace.requests:
            raise BenchError("no traced request finished")
        wrong = check_replay(args.workload, trace)
        problems = presence_problems(args.workload, trace, cache or {
            "module_hits": 0, "function_hits": 0})
        for p in list(wrong.values())[:5] + problems:
            log("FAIL:", p)
        e2e_mean = statistics.mean(o.latency * 1000.0
                                   for o in phase.outcomes)
        layer_table(trace, phase)
        traced_ms = statistics.mean(
            (s["end_ns"] - s["start_ns"]) / 1e6 for s in trace.spans
            if s["name"] == "request")
        probes_ms = sum((s["end_ns"] - s["start_ns"]) / 1e6
                        for s in trace.spans if s["probe"]) / \
            len(trace.requests)
        log("untraced end-to-end mean %.4f ms; traced in-process request "
            "mean %.4f ms (%.4f ms of it probes); layers on the tool path "
            "%.4f ms" % (e2e_mean, traced_ms, probes_ms,
                         sum(tool_path_ms(trace).values()) /
                         len(trace.requests)))
        chrome = os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload,
                                                              args.seed))
        write_chrome_trace(trace, chrome)
        log("chrome trace: %s" % os.path.relpath(chrome, ROOT))
        metrics = layer_metrics(args.workload, trace, cache, e2e_mean)
        for name, (value, unit) in metrics.items():
            log("%-26s %14.4f %s" % (name, value, unit))
        attempted = len(phase.outcomes) + len(trace.requests) + \
            len(trace.failures)
        failed = phase.failed() + len(wrong)
        print(result_line(correct and not wrong and not problems, attempted,
                          failed, metrics))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        sys.stderr.write("reqbench: %s\n" % e)
        sys.exit(1)
