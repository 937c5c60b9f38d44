#!/usr/bin/env python3
"""Segugio benchmark: build, generate a seeded workload, run it, check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]

Run from the root of a checkout. The program and the two benchmark tools
are built from source into .bench_build/ (the first run builds; later runs
reuse the build). The generator writes the workload's inputs for the seed,
one driver process loads and runs them, and this script checks the driver's
outputs and prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run and a
Chrome trace under .bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "segbench")
DATA = os.path.join(BUILD_ROOT, "data")
RESULTS = os.path.join(BUILD_ROOT, "results")

WORKLOADS = ("daily-retrain", "tap-replay", "oocore-bigday")
MAX_WORKERS = 4
DRIVER_TIMEOUT_S = 150
TPR_MAX_FPR = 0.001

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "learn_cpu_s_p50": "s",
    "classify_domains_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "tpr_at_fpr_0.001": "ratio",
}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def workers(workload=None):
    """Shared-pool size: the CPUs this process may use, at most 4. The
    tap-replay session leaves one of them to its wire-decoding producer
    thread, which otherwise time-slices with the pool and makes the
    consumer's per-day timings jitter."""
    cpus = min(len(os.sched_getaffinity(0)), MAX_WORKERS)
    return max(1, cpus - 1 if workload == "tap-replay" else cpus)


def run_quiet(cmd, **kwargs):
    """Runs a command with its output sent to stderr; waits for it to end."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    return result.returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no segugio sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed")
    if run_quiet(["cmake", "--build", BUILD, "-j", str(workers())]) != 0:
        fail("build failed")


def generate(workload, seed):
    """Writes the workload's inputs for `seed`, reusing a finished set."""
    out = os.path.join(DATA, "%s-%d" % (workload, seed))
    manifest = os.path.join(out, "manifest.txt")
    generator = os.path.join(BUILD, "segbench_gen")
    if (os.path.isfile(manifest) and open(manifest).read().endswith("end\n")
            and os.path.getmtime(manifest) > os.path.getmtime(generator)):
        return out
    if os.path.isdir(DATA):  # keep one seed per workload on disk
        for name in os.listdir(DATA):
            if name.startswith(workload + "-"):
                shutil.rmtree(os.path.join(DATA, name))
    os.makedirs(out)
    cmd = [os.path.join(BUILD, "segbench_gen"), "--workload", workload, "--seed", str(seed),
           "--out", out]
    if run_quiet(cmd, timeout=DRIVER_TIMEOUT_S) != 0:
        shutil.rmtree(out)
        fail("generator failed")
    os.sync()  # so writeback of the inputs does not run inside the timed passes
    return out


def run_driver(workload, data, seconds, trace, out, scores=None, chrome=None):
    env = dict(os.environ)
    env["SEG_THREADS"] = str(workers(workload))
    env.pop("SEG_GRAPH_BACKING", None)
    cmd = [os.path.join(BUILD, "segbench_driver"), "--workload", workload, "--data", data,
           "--seconds", str(seconds), "--trace", "1" if trace else "0", "--out", out]
    if scores:
        cmd += ["--scores", scores]
    if chrome:
        cmd += ["--chrome", chrome]
    if run_quiet(cmd, env=env, timeout=DRIVER_TIMEOUT_S) != 0:
        fail("driver failed on " + workload)
    with open(out) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Checks


def check(result):
    """Returns (attempted, failed, reasons): one attempt per ISP-day per pass.

    An ISP-day fails when it threw, when its record count differs from the
    generator's, when records were dropped or skipped, when it scored no
    domain, when a repeated classify() scored differently, or when its score
    digest differs from the reference: the first API pass (every later pass
    and every composed pass must reproduce it bit for bit) and, for
    oocore-bigday, the heap-built graph of the same day.
    """
    expected = {day: count for day, count in result["expected_records"]}
    timed_days = sorted(expected)
    if result["workload"] == "daily-retrain":
        timed_days = timed_days[1:]  # day 0 is the untimed warm-up day
    streaming = result["workload"] == "tap-replay"
    reference = {}
    for p in result["passes"]:
        if p["kind"] == "api":
            for d in p["days"]:
                if not d["error"]:
                    reference.setdefault(d["day"], d["digest"])
    heap_bad = {d["day"] for d in result["heap_check"]
                if d["error"] or d["digest"] != reference.get(d["day"])}

    attempted = failed = 0
    reasons = []
    for index, p in enumerate(result["passes"]):
        by_day = {d["day"]: d for d in p["days"]}
        pass_problem = None
        if streaming:
            if p["error"]:
                pass_problem = "session threw: " + p["error"]
            elif p["skipped"] or p["dropped"]:
                pass_problem = "skipped %d, dropped %d records" % (p["skipped"], p["dropped"])
            elif p["stream_records"] != sum(expected.values()):
                pass_problem = "streamed %d of %d records" % (p["stream_records"],
                                                             sum(expected.values()))
        for day in timed_days:
            attempted += 1
            d = by_day.get(day)
            if d is None:
                problem = "no report"
            elif d["error"]:
                problem = d["error"]
            elif d["records"] != expected[day]:
                problem = "%d of %d records" % (d["records"], expected[day])
            elif d["skipped"]:
                problem = "%d records skipped" % d["skipped"]
            elif d["unknown"] == 0:
                problem = "no domain scored"
            elif d["digest"] != reference.get(day):
                problem = "score digest %s != reference %s" % (d["digest"], reference.get(day))
            elif day in heap_bad:
                problem = "mapped-graph scores differ from the heap-built graph's"
            else:
                problem = pass_problem
            if problem:
                failed += 1
                reasons.append("pass %d (%s) day %d: %s" % (index, p["kind"], day, problem))
    return attempted, failed, reasons


def tpr_at_fpr(scores_path, truth_path, max_fpr):
    """TPR over every scored unknown (all days pooled) at FPR <= max_fpr."""
    truth = set(open(truth_path).read().split())
    rows = []
    with open(scores_path) as f:
        for line in f:
            _day, name, score = line.rstrip("\n").split("\t")
            score = float(score)
            if not (0.0 <= score <= 1.0):
                return None
            rows.append((score, name in truth))
    positives = sum(1 for _, label in rows if label)
    negatives = len(rows) - positives
    if positives == 0 or negatives == 0:
        return None
    rows.sort(key=lambda row: -row[0])
    allowed = math.floor(max_fpr * negatives)
    tp = fp = 0
    best = 0
    i = 0
    while i < len(rows):  # admit whole groups of tied scores
        j = i
        group_tp = group_fp = 0
        while j < len(rows) and rows[j][0] == rows[i][0]:
            group_tp += rows[j][1]
            group_fp += not rows[j][1]
            j += 1
        if fp + group_fp > allowed:
            break
        tp += group_tp
        fp += group_fp
        best = tp
        i = j
    return best / positives


# --------------------------------------------------------------------------
# Metrics


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def api_days(result):
    passes = [p for p in result["passes"] if p["kind"] == "api"]
    return passes, [d for p in passes for d in p["days"] if not d["error"]]


def end_to_end(result, scores_path, truth_path):
    """The gated metrics, all in CPU seconds of the driver process (every
    thread), which the neighbours on a shared host do not move."""
    passes, days = api_days(result)
    tpr = tpr_at_fpr(scores_path, truth_path, TPR_MAX_FPR)
    values = {
        "setup_s": statistics.median(result["setup_cpu_s"]),
        "cpu_s": median_or_zero(p["cpu_s"] for p in passes),
        "learn_cpu_s_p50": median_or_zero(d["learn_cpu_s"] for d in days),
        "classify_domains_per_cpu_s": median_or_zero(
            d["unknown"] / s for d in days for s in d["repeat_cpu_s"] if s > 0),
        "peak_rss_mb": result["peak_rss_mb"],
        "tpr_at_fpr_0.001": tpr if tpr is not None else 0.0,
    }
    return values, tpr is not None


def wall_clock(result):
    """The wall-clock view of the traced run's untraced API passes. It is
    reported with the per-layer rows, which carry no bound, because on a
    shared host it swings with the neighbours' load. Each figure is 0 on
    the workloads it does not apply to."""
    passes, days = api_days(result)
    streaming = result["workload"] == "tap-replay"
    return {
        "wall.pass_s": median_or_zero(p["wall_s"] for p in passes),
        "wall.learn_s_p50": 0.0 if streaming else median_or_zero(d["learn_s"] for d in days),
        "wall.classify_domains_per_s": median_or_zero(
            d["unknown"] / s for d in days for s in d["classify_calls_s"] if s > 0),
        "wall.stream_qps": median_or_zero(p["stream_records"] / p["stream_s"] for p in passes
                                          if p["stream_s"] > 0) if streaming else 0.0,
        "wall.report_lag_s_p50": median_or_zero(d["lag_s"] for d in days) if streaming else 0.0,
    }


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def host_tag(result, seed):
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "none (not a git checkout)"
    except OSError:
        git_rev = "none (git not installed)"
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    tag = dict(result["host"])
    tag.update({
        "nproc_online": os.cpu_count(),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    })
    return tag


def run(workload, seed, seconds, trace):
    build()
    data = generate(workload, seed)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-s%d-t%d" % (workload, seed, int(trace)))
    scores = stem + ".scores.tsv"
    chrome = stem + ".trace.json" if trace else None
    result = run_driver(workload, data, seconds, trace, stem + ".driver.json",
                        scores=None if trace else scores, chrome=chrome)
    attempted, failed, reasons = check(result)
    for reason in reasons[:20]:
        print("FAILED " + reason, file=sys.stderr)
    correct = failed == 0
    if trace:
        units = per_layer_units()
        layers = dict(result["layers"])
        layers.update(wall_clock(result))
        layers["host.nproc"] = result["host"]["nproc"]
        layers["host.hardware_concurrency"] = result["host"]["hardware_concurrency"]
        layers["host.seg_threads"] = result["host"]["seg_threads"]
        missing = sorted(set(units) - set(layers))
        if missing:
            fail("driver did not report " + ", ".join(missing))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        with open(chrome) as f:
            events = json.load(f)["traceEvents"]
        correct = correct and len(events) > 0
    else:
        values, tpr_ok = end_to_end(result, scores, os.path.join(data, "truth.txt"))
        correct = correct and tpr_ok
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    tag = host_tag(result, seed)
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump({"host": tag, "workload": workload, "result": summary}, f, indent=1)
    print(json.dumps({"host": tag}))
    print(json.dumps(summary))


def self_test(seed):
    """Proves the checks fire: a truncated capture and a tampered digest
    must each raise the failure share above zero, while the untouched
    inputs pass."""
    build()
    os.makedirs(RESULTS, exist_ok=True)
    outcomes = {}

    data = generate("tap-replay", seed)
    clean = run_driver("tap-replay", data, 1, False, os.path.join(RESULTS, "selftest-clean.json"))
    outcomes["clean capture"] = check(clean)
    cut = os.path.join(DATA, "selftest-truncated")
    shutil.rmtree(cut, ignore_errors=True)
    shutil.copytree(data, cut)
    capture = os.path.join(cut, "capture.dnstap")
    with open(capture, "r+b") as f:
        f.truncate(os.path.getsize(capture) * 2 // 3)
    truncated = run_driver("tap-replay", cut, 1, False,
                           os.path.join(RESULTS, "selftest-truncated.json"))
    shutil.rmtree(cut)
    outcomes["truncated capture"] = check(truncated)

    data = generate("daily-retrain", seed)
    traced = run_driver("daily-retrain", data, 1, True, os.path.join(RESULTS, "selftest-traced.json"))
    outcomes["traced composition"] = check(traced)
    composed = next(p for p in traced["passes"] if p["kind"] == "composed")
    digest = composed["days"][0]["digest"]
    composed["days"][0]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    outcomes["tampered digest"] = check(traced)

    ok = True
    for name, (attempted, failed, reasons) in outcomes.items():
        should_fail = name in ("truncated capture", "tampered digest")
        fired = failed > 0
        ok = ok and fired == should_fail
        print("%-20s attempted %3d failed %3d  %s%s" % (
            name, attempted, failed, "ok" if fired == should_fail else "WRONG",
            ("  (" + reasons[0] + ")") if reasons else ""))
    print(json.dumps({"self_test_passed": ok}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
