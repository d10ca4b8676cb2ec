#!/usr/bin/env python3
"""Self-tests of the benchmark's request generator and failure accounting.

    python3 reqbench/selftest.py

1. The same seed yields byte-identical requests; another seed does not.
2. The generator's perturbations, the unique unused global and the
   comment-only edit, leave every program's verdict unchanged in both
   forms.
3. Each failure kind (nonzero exit, death by a signal, timeout, error
   response, wrong answer) is counted once, and the run continues past
   it.

Exits 0 when every check passes.
"""

import copy
import os
import resource
import shutil
import signal
import sys

import run

PERTURBATION_ROUNDS = 12
FAILED = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        FAILED.append(what)


def test_reproducible(programs, expected, work):
    for workload in run.WORKLOADS:
        digests = []
        for i, seed in enumerate((7, 7, 8)):
            gen = run.Generator(workload, seed, programs, expected,
                                os.path.join(work, "%s-%d" % (workload, i)))
            gen.warmup()
            gen.next_round()
            gen.next_round()
            digests.append(gen.digest.hexdigest())
        check(digests[0] == digests[1] and digests[0] != digests[2],
              "%s: seed 7 repeats its requests byte for byte, seed 8 differs"
              % workload)


def test_perturbations(programs, work):
    os.makedirs(work)
    grd = run.Grd()
    wrong = []
    sent = 0
    try:
        for k in range(PERTURBATION_ROUNDS):
            for p in programs:
                for form in run.FORMS:
                    token = "selftest_%d" % k
                    for kind, text in (
                            ("unique", run.with_unique_global(
                                p.text[form], form, token)),
                            ("edit", run.with_comment_edit(
                                p.text[form], form, token))):
                        path = os.path.join(work, "%s_%s_%d.%s" % (
                            p.stem, kind, k, form))
                        with open(path, "w") as f:
                            f.write(text)
                        request = run.Request(p, form, kind, os.path.relpath(
                            path, run.ROOT), text)
                        out = run.detect_request(grd, "selftest", request)
                        sent += 1
                        if out.failure:
                            wrong.append("%s %s" % (path, out.detail))
    finally:
        grd.close()
    for w in wrong[:5]:
        print("  ", w)
    check(not wrong, "%d perturbed requests over %d programs x %d forms keep "
          "their verdicts" % (sent, len(programs), len(run.FORMS)))


def test_failure_accounting(programs, work):
    os.makedirs(work)
    by_stem = {p.stem: p for p in programs}
    cg, sgemm = by_stem["NAS_CG"], by_stem["Parboil_sgemm"]
    outcomes = []

    def expect(out, kind, what):
        outcomes.append(out)
        check(out.failure == kind, "%s counts as %s (got %s)" % (
            what, kind, out.failure))

    def healthy(out, what):
        outcomes.append(out)
        check(out.failure is None, "%s: the next request succeeds" % what)

    def fresh(program, tag):
        """A module grd has not seen, so its cache cannot answer it."""
        text = run.with_unique_global(cg.text["gr"], "gr", tag)
        path = os.path.join(work, tag + ".gr")
        with open(path, "w") as f:
            f.write(text)
        return run.Request(program, "gr", "unique",
                           os.path.relpath(path, run.ROOT), text)

    tampered = copy.copy(cg)
    tampered.known = dict(cg.known, idioms=[n + 1 for n in cg.idioms()])

    grd = run.Grd()
    try:
        missing = run.Request(cg, "gr", "unique", os.path.relpath(
            os.path.join(work, "missing.gr"), run.ROOT), "")
        expect(run.detect_request(grd, "selftest", missing), "error",
               "grd: a missing path")
        expect(run.detect_request(grd, "selftest", fresh(tampered, "t1")),
               "wrong", "grd: a wrong verdict")
        healthy(run.detect_request(grd, "selftest", fresh(cg, "t2")), "grd")
        expect(run.detect_request(grd, "selftest", fresh(cg, "t3"),
                                  timeout=0.0),
               "timeout", "grd: a per-request timeout")
        grd.kill()
        grd = run.Grd()
        healthy(run.detect_request(grd, "selftest", fresh(cg, "t4")),
                "grd restarted")
        os.kill(grd.proc.pid, signal.SIGKILL)
        expect(run.detect_request(grd, "selftest", fresh(cg, "t5")),
               "signal", "grd: death by a signal")
        grd.close()
        grd = run.Grd()
        grd.send("!quit", run.DETECT_TIMEOUT_S)
        expect(run.detect_request(grd, "selftest", fresh(cg, "t6")), "exit",
               "grd: an exit mid-run")
    finally:
        grd.kill()

    junk_path = os.path.join(work, "junk.mc")
    with open(junk_path, "w") as f:
        f.write("int main( { return 0; }\n")
    junk = run.Request(cg, "mc", "run", os.path.relpath(junk_path, run.ROOT),
                       "")
    run_cg = run.Request(cg, "mc", "run", os.path.relpath(
        cg.sources["mc"], run.ROOT), cg.text["mc"])
    expect(run.run_request(junk)[0], "exit", "gropt: a junk .mc")
    expect(run.run_request(run_cg, preexec_fn=lambda: resource.setrlimit(
        resource.RLIMIT_CPU, (0, 0)))[0], "signal",
        "gropt: death by a signal")
    expect(run.run_request(run.Request(
        sgemm, "mc", "run", os.path.relpath(sgemm.sources["mc"], run.ROOT),
        sgemm.text["mc"]), timeout=0.05)[0], "timeout",
        "gropt: a per-request timeout")
    wrong_output = copy.copy(cg)
    wrong_output.known = dict(cg.known, output="not the output\n")
    expect(run.run_request(run.Request(
        wrong_output, "mc", "run", run_cg.path, run_cg.text))[0], "wrong",
        "gropt: a wrong output")
    healthy(run.run_request(run_cg)[0], "gropt")

    counts = run.failure_counts(outcomes)
    check(counts == {"exit": 2, "signal": 2, "timeout": 2, "error": 1,
                     "wrong": 2},
          "the ledger counts each injected failure once: %s" % counts)


def main():
    run.build()
    work = os.path.join(run.OUT_DIR, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        programs, expected = run.load_programs(work)
        test_reproducible(programs, expected, os.path.join(work, "seeds"))
        test_perturbations(programs, os.path.join(work, "perturbed"))
        test_failure_accounting(programs, os.path.join(work, "failures"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: %s" % ("%d failed" % len(FAILED) if FAILED else "all ok"))
    return 1 if FAILED else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as e:
        sys.stderr.write("reqbench: %s\n" % e)
        sys.exit(1)
