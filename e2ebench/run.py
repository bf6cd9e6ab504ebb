#!/usr/bin/env python3
"""End-to-end benchmark of the LearnedSQLGen serving stack.

Builds e2ebench/lsgbench (and the library it links) from the sources in this
checkout, runs one workload through the real network front end and prints
every metric by name with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload cold_train --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1

--trace 0 reports the end-to-end metrics (set-up is repeated SETUP_REPEATS
times in separate processes and its median reported). --trace 1 reports the
per-layer metrics from a traced run, plus the tracing overhead against an
untraced run of the same workload and seed. Exits non-zero when the build
fails or any correctness check fails. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "lsgbench")

WORKLOADS = ["cold_train", "warm_decode", "zipf_mix", "exec_feedback"]
SETUP_REPEATS = 3
RUN_BUDGET_S = 170  # the whole command must finish within 180 s after a build

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "requests_per_s": "1/s",
    "queries_per_s": "1/s",
    "satisfied_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.dataset_s": "s",
    "setup.first_request_s": "s",
    "setup.warmup_frac": "frac",
    "net.overhead_us.p50": "us",
    "net.overhead_us.p99": "us",
    "net.parse_us.mean": "us",
    "net.rejected": "count",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.p99": "ms",
    "service.batch_width.mean": "lanes",
    "service.busy_frac": "frac",
    "registry.hit_frac": "frac",
    "registry.trainings": "count",
    "registry.evictions": "count",
    "registry.warm_starts": "count",
    "registry.acquire_ms.p50": "ms",
    "registry.acquire_ms.p99": "ms",
    "registry.train_ms.p50": "ms",
    "registry.build_overhead_ms.p50": "ms",
    "registry.hit_wait_share": "frac",
    "rl.epoch_ms.mean": "ms",
    "rl.update_ms.mean": "ms",
    "rl.rollout_self_ms.mean": "ms",
    "core.env_step_us.mean": "us",
    "core.generate_ms.p50": "ms",
    "core.generate_ms.p99": "ms",
    "fsm.mask_evals": "count",
    "fsm.mask_width.mean": "tokens",
    "optimizer.feedback_us.mean": "us",
    "optimizer.cache_hit_frac": "frac",
    "exec.select_share": "frac",
    "exec.calls": "count",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("e2ebench: " + msg)
    sys.exit(code)


def build():
    """Configures (once) and builds lsgbench; the library comes from ../src."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to e2ebench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "lsgbench",
                  "-j", "4"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                fail("build failed; see " + log_path)


def source_id():
    """Commit when this is a git checkout, plus a digest of the sources the
    benchmark builds (an exported source tree has no .git)."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return commit, h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, deadline, setup_only=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before " + " ".join(cmd[1:]))
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd[1:]))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("lsgbench exited %d: %s" % (r.returncode, " ".join(cmd[1:])))
    return json.loads(lines[-1])


def check_digest(key, digest):
    """Fixed-seed outputs of the same sources must repeat. Informational:
    a later change may alter outputs on purpose."""
    path = os.path.join(OUT_DIR, "digests.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    previous = seen.get(key)
    seen[key] = digest
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    if previous is None:
        return "first run"
    if previous == digest:
        return "matches previous run"
    log("e2ebench: REPRODUCIBILITY BREAK: digest %s, previously %s (%s)"
        % (digest, previous, key))
    return "MISMATCH (was %s)" % previous


def run_workload(workload, seed, seconds, trace, started):
    deadline = started + RUN_BUDGET_S
    commit, sources = source_id()
    if trace:
        base = run_binary(workload, seed, seconds, False, deadline)
        main = run_binary(workload, seed, seconds, True, deadline)
        metrics = dict(main["layers"])
        metrics["trace.overhead_frac"] = (
            main["e2e"]["latency_p50_ms"] / base["e2e"]["latency_p50_ms"] - 1.0)
        wanted = PER_LAYER
        runs = [base, main]
    else:
        setups = [run_binary(workload, seed, seconds, False, deadline,
                             setup_only=True)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        main = run_binary(workload, seed, seconds, False, deadline)
        setups.append(main["e2e"]["setup_s"])
        metrics = dict(main["e2e"])
        metrics["setup_s"] = statistics.median(setups)
        main["extra"]["setup_s.samples"] = setups
        wanted = END_TO_END
        runs = [main]

    key = "%s|%s|%d|%g" % (sources, workload, seed, seconds)
    reproducible = check_digest(key, main["digest"])
    violations = [v for r in runs for v in r["violations"]]
    correct = all(r["correct"] for r in runs)
    missing = [m for m in wanted if m not in metrics]
    if missing:
        correct = False
        violations.append("metrics not reported: " + ", ".join(missing))

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"), "workload": workload,
            "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "sources": sources, "correct": correct,
            "violations": violations, "digest": main["digest"],
            "digest_requests": main["digest_requests"],
            "reproducible": reproducible, "metrics": metrics,
            "extra": main["extra"], "meta": main["meta"]}) + "\n")

    print("== %s  seed %d  %gs  trace %d  (%s build, %s, nproc %d)" % (
        workload, seed, seconds, trace, main["meta"]["build_type"],
        main["meta"]["compiler"], main["meta"]["nproc"]))
    print("   sources %s  commit %s" % (sources, commit or "n/a"))
    print("   service %s" % json.dumps(main["meta"]["service_options"]))
    print("   load    %s" % json.dumps(main["meta"]["load"]))
    print("   rows    %s" % json.dumps(main["meta"]["dataset_rows"]))
    for name, unit in wanted.items():
        if name in metrics:
            print("   %-32s %14.6g %s" % (name, metrics[name], unit))
    for name, value in sorted(main["extra"].items()):
        if isinstance(value, (int, float)):
            print("   %-32s %14.6g   (informational)" % (name, value))
        else:
            print("   %-32s %s   (informational)" % (name, json.dumps(value)))
    print("   digest %s over %d requests: %s" % (
        main["digest"], main["digest_requests"], reproducible))
    print("   correct: %s%s" % (correct, "" if correct else
                                 "  " + "; ".join(violations)))
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items() if name in metrics},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        # The time budget starts after the build, which only the first run
        # in a fresh checkout pays for.
        results.append(run_workload(name, args.seed, args.seconds,
                                    bool(args.trace), time.monotonic()))
    for r in results:
        print(json.dumps(r), flush=True)
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
