#!/usr/bin/env python3
"""Records reqbench/expected.json, the known answer of every program.

    python3 reqbench/record_expected.py

Idiom counts come from the corpus' BenchmarkExpectations (the replay
tool's dump manifest) and, for the two on-disk kernels, from the counts
their sources document. The printed output and result come from the
tree-walking reference interpreter on the untransformed program
(gropt --run --exec=reference). Sections and instructions come from the
parallelised run, which must reproduce the reference output. The
script refuses to write a file whose counts `gropt --detect` disagrees
with.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import run

EXTRA_IDIOMS = {"nbody": [2, 0, 0, 0], "kmeans_assign": [1, 0, 0, 1]}
RUN_FINE = {
    "programs": ["NAS_CG", "Parboil_sgemm", "Rodinia_leukocyte",
                 "kmeans_assign", "nbody"],
    "why": "each parallelised run enters at least 50 sections (50 to 9216) "
           "of 0.4k to 43k instructions, so per-section fork, join, "
           "privatise and merge work dominates; every other program enters "
           "at most 11 sections of at least 67k instructions",
}
DETECT_LINES = ["scalar reductions", "histogram reductions", "scans",
                "argmin/argmax"]


def gropt(args):
    child = run.Child([run.GROPT] + args, 600.0)
    if child.returncode != 0:
        raise run.BenchError("gropt %s failed" % " ".join(args))
    return child.stdout.decode()


def split_result(text):
    at = text.rfind("result: ")
    return text[:at], text[at:]


def main():
    run.build()
    work = os.path.join(run.OUT_DIR, "record")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    manifest = subprocess.run([run.REPLAY, "dump", work] + run.EXTRA_PROGRAMS,
                              cwd=run.ROOT, capture_output=True, text=True,
                              check=True).stdout
    programs = {}
    for line in manifest.split("\n"):
        if not line:
            continue
        stem, *counts = line.split()
        idioms = EXTRA_IDIOMS[stem] if counts[0] == "-" else \
            [int(c) for c in counts]
        path = os.path.relpath(os.path.join(work, stem + ".mc"), run.ROOT)
        detected = gropt([path, "--detect"])
        got = [int(re.search(r"%s:\s+(\d+)" % re.escape(k), detected).group(1))
               for k in DETECT_LINES]
        if got != idioms:
            raise run.BenchError("%s: detected %s, recorded %s" %
                                 (stem, got, idioms))
        output, tail = split_result(gropt([path, "--run", "--exec=reference"]))
        result = int(re.match(r"result: (-?\d+) ", tail).group(1))
        par_output, par_tail = split_result(gropt([path] + run.RUN_ARGS))
        m = re.match(r"result: (-?\d+) \(work=(\d+), simulated time=\d+, "
                     r"sections=(\d+)\)", par_tail)
        if par_output != output or int(m.group(1)) != result:
            raise run.BenchError(stem + ": parallelised run differs from "
                                 "the reference interpreter")
        programs[stem] = {"idioms": idioms, "output": output,
                          "result": result, "sections": int(m.group(3)),
                          "work": int(m.group(2))}
        print("%-24s %s result=%d sections=%s" % (stem, idioms, result,
                                                   m.group(3)))
    shutil.rmtree(work)
    with open(os.path.join(run.BENCH_DIR, "expected.json"), "w") as f:
        json.dump({"programs": programs, "run_fine": RUN_FINE}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as e:
        sys.stderr.write("reqbench: %s\n" % e)
        sys.exit(1)
