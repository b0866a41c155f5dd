#!/usr/bin/env python3
"""Time-to-answer benchmark for the ftb CLI.

Builds the `ftb` binary from the checkout it sits in, then runs one named
workload again and again, each time as a fresh process, for a fixed
number of seconds. Every answer is checked against a reference recorded
in `references.json`. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

    python3 e2ebench/run.py --workload jacobi-exhaustive --seed 1 --seconds 52 --trace 0
    python3 e2ebench/run.py --workload cg-adaptive-affine --seed 1 --seconds 52 --trace 1
    python3 e2ebench/run.py --set --seconds 104   # every workload, round-robin
    python3 e2ebench/run.py --record              # rewrite references.json

`--trace 0` reports the end-to-end metrics (`answer_s`, `setup_s`,
`peak_rss_mb`), measured on the `ftb` CLI. `--trace 1` alternates
untraced CLI runs with runs of `ftb-traced` (in the `rust/` package),
which replays the same command through the library with a span around
each layer's public calls, and reports the per-layer metrics. See
README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

# Inputs come from a pool of recorded seeds, so every answer has a
# reference. A run goes through the whole pool in whole cycles, starting
# at POOL[seed % len(POOL)], so every run times the same mix of inputs
# (cg's cost varies by half from one input to another).
POOL = list(range(42, 48))

WORKLOADS = {
    "jacobi-exhaustive": {
        "argv": [
            "exhaustive", "--kernel", "jacobi", "--grid", "14", "--sweeps", "40",
            "--tolerance", "1e-4", "--bit-prune", "--snapshot", "--batch-lanes", "16",
        ],
        "ledger": True,
        "answer": "table",
    },
    "cg-adaptive-affine": {
        "argv": [
            "adaptive", "--kernel", "cg", "--grid", "10", "--tolerance", "1e-4",
            "--bit-prune", "--domain", "affine",
        ],
        "ledger": False,
        "answer": "boundary",
    },
}

END_TO_END = {"answer_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics of the traced run: span totals and peaks per layer,
# then the counts taken at the same boundaries.
LAYERS = [
    "trace.golden", "trace.ddg", "absint.interval", "absint.affine", "inject.snapshot",
    "inject.plan", "inject.execute", "inject.ledger", "inject.fold", "core.adaptive",
    "core.infer",
]
COUNTS = {
    "trace.sites": "count", "trace.golden_mb": "MiB", "trace.ddg_edges": "count",
    "absint.certified_bits": "count", "absint.total_bits": "count",
    "absint.swept_sites": "count", "absint.dead_sites": "count",
    "inject.snapshots": "count", "inject.snapshot_mb": "MiB", "inject.planned": "count",
    "inject.executed": "count", "inject.masked": "count", "inject.sdc": "count",
    "inject.crash": "count", "inject.ledger_mb": "MiB",
    "core.rounds": "count", "core.adaptive_executed": "count", "core.pruned_bits": "count",
}
# Reported for a layer the workload never calls.
ABSENT = -1


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}_s"] = "s"
        units[f"{layer}.peak_rss_mb"] = "MiB"
    units.update(COUNTS)
    units["inject.exp_per_s"] = "1/s"
    units["inject.chunk_max_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the run without a result."""


# ---------------------------------------------------------------- build


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--locked", "--offline", "--quiet", *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed:\n{proc.stderr}")


def build():
    """Build `ftb` and the benchmark's helpers from this checkout; return
    the paths of the three binaries."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} holds no ftb source tree to build")
    cargo_build(["-p", "ftb-cli", "--bin", "ftb"])
    cargo_build(["--manifest-path", str(HERE / "rust" / "Cargo.toml")])
    release = target_dir() / "release"
    return {"ftb": release / "ftb", "launch": release / "ftb-launch",
            "traced": release / "ftb-traced"}


# ------------------------------------------------------------ one answer


def digest(data):
    return hashlib.sha256(data).hexdigest()


def answer_key(kind, path):
    """The facts of an answer that its reference pins down."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if kind == "table":
        codes = doc["codes"]
        return {
            "sites": doc["n_sites"],
            "bits": doc["bits"],
            "masked": codes.count(0),
            "sdc": codes.count(1),
            "crash": len(codes) - codes.count(0) - codes.count(1),
            "table_sha256": digest(bytes(codes)),
        }
    boundary = json.dumps(doc["inference"]["boundary"], sort_keys=True, separators=(",", ":"))
    return {
        "rounds": len(doc["rounds"]),
        "experiments": len(doc["samples"]),
        "boundary_sha256": digest(boundary.encode()),
    }


def run_once(exes, workload, seed, work, traced=False):
    """Run one workload command as a fresh process and time it.

    Returns a record with `answer_s` (spawn to exit), `peak_rss_mb` (the
    child's own high-water mark), `setup_s` (spawn to the submission of
    the first experiment: the CLI's `--metrics-out` timer starts there,
    and the file is created when the campaign loop ends, at `created_s`
    on the launcher's clock), the answer's key, and the traced run's
    spans when `traced`.
    """
    wl = WORKLOADS[workload]
    answer = work / "answer.json"
    metrics_out = work / "metrics.json"
    ledger = work / "ledger.jsonl"
    for p in (answer, metrics_out, ledger):
        p.unlink(missing_ok=True)
    exe = exes["traced" if traced else "ftb"]
    argv = [str(exe), *wl["argv"], "--seed", str(seed), "--json", str(answer)]
    if not traced:
        argv += ["--metrics-out", str(metrics_out)]
    if wl["ledger"]:
        argv += ["--checkpoint", str(ledger)]
    out_path, err_path, report = work / "stdout", work / "stderr", work / "launch.json"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        watch = [] if traced else ["--created", str(metrics_out)]
        launch = [str(exes["launch"]), *watch, str(report), *argv]
        code = subprocess.run(launch, stdout=out, stderr=err, env=child_env()).returncode
    if code != 0:
        raise BenchError(f"{' '.join(launch)}: {err_path.read_text(errors='replace')}")
    launched = json.loads(report.read_text())
    status = os.waitstatus_to_exitcode(launched["status"])
    answer_s = launched["answer_s"]
    rec = {"seed": seed, "answer_s": answer_s, "peak_rss_mb": launched["maxrss_kb"] / 1024.0}
    try:
        if status != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            raise BenchError(f"exit {status}: {' '.join(tail)}")
        rec["key"] = answer_key(wl["answer"], answer)
        if traced:
            rec["trace"] = json.loads(out_path.read_text())
        else:
            campaign_s = json.loads(metrics_out.read_text())["elapsed_secs"]
            if launched["created_s"] is None:
                raise BenchError("the metrics file was never seen created")
            rec["setup_s"] = launched["created_s"] - campaign_s
            # without SCHED_FIFO the watcher may see the file up to one
            # scheduler tick late
            rec["setup_rt"] = launched["created_rt"]
            if not 0 < rec["setup_s"] < answer_s:
                raise BenchError(f"setup time {rec['setup_s']:.6f} s is outside the run")
    except (BenchError, OSError, ValueError, KeyError) as e:
        rec["error"] = str(e)
    finally:
        for p in (answer, metrics_out, ledger, out_path, err_path, report):
            p.unlink(missing_ok=True)
    return rec


def child_env():
    # pin the worker count to the CPUs this process may use instead of
    # inheriting whatever the environment says
    return dict(os.environ, RAYON_NUM_THREADS=str(workers()))


def workers():
    return len(os.sched_getaffinity(0))


def check(rec, references, workload):
    """Mark `rec` failed unless its answer matches the reference."""
    if "error" in rec:
        return
    want = references.get(workload, {}).get(str(rec["seed"]))
    if want is None:
        rec["error"] = f"no reference for seed {rec['seed']}"
    elif rec["key"] != want:
        rec["error"] = f"answer {rec['key']} does not match reference {want}"


# ------------------------------------------------------------- reporting


def median(values):
    return statistics.median(values) if values else None


def layer_metrics(trace, answer_s):
    """Per-layer metrics of one traced run."""
    spans, counts = trace["spans"], trace["counts"]
    m = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        if mine:
            m[f"{layer}_s"] = sum(s["end_s"] - s["start_s"] for s in mine)
            m[f"{layer}.peak_rss_mb"] = max(s["peak_rss_mb"] for s in mine)
    for name in COUNTS:
        if name in counts:
            m[name] = counts[name]
    chunks = [s["end_s"] - s["start_s"] for s in spans if s["layer"] == "inject.execute"]
    if chunks:
        m["inject.exp_per_s"] = counts["inject.executed"] / sum(chunks)
        m["inject.chunk_max_s"] = max(chunks)
    m["trace.unattributed_s"] = answer_s - sum(s["end_s"] - s["start_s"] for s in spans)
    return m


def environment(seed):
    """Where and on what the numbers were taken."""

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "workers": workers(),
        "cpu": cpu,
        "cache_per_cpu0": caches,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]),
        "byte_figures": "computed: golden = CompactGolden::memory_bytes; "
        "snapshots = SnapshotStore::store_bytes",
    }


def command_output(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def save_result(name, doc):
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps(doc, indent=2) + "\n")


def fmt(value):
    return "absent" if value == ABSENT else f"{value:.6g}"


# ---------------------------------------------------------------- modes


def collect(exes, names, args, references, work):
    """Measure `names` round-robin for `args.seconds`; return each
    workload's repetitions.

    One discarded warm-up per workload comes first. An untraced run then
    times whole cycles through the pool, so every run sees the same mix
    of inputs, until the next cycle would overrun `--seconds`. A traced
    run times repetitions of one untraced and one traced process per
    workload. Its figures have no bound, so it may stop after any
    repetition, which keeps it within `--seconds` too.
    """
    traced = args.trace == 1
    order = [POOL[(args.seed + i) % len(POOL)] for i in range(len(POOL))]
    for name in names:
        run_once(exes, name, order[0], work)
    reps = {name: [] for name in names}
    step = 1 if traced else len(order)
    steps, started = 0, time.perf_counter()
    while True:
        for i in range(steps * step, (steps + 1) * step):
            seed = order[i % len(order)]
            for name in names:
                rec = {"untraced": run_once(exes, name, seed, work)}
                if traced:
                    rec["traced"] = run_once(exes, name, seed, work, traced=True)
                for r in rec.values():
                    check(r, references, name)
                    if "error" in r:
                        log(f"failed: {name} seed {r['seed']}: {r['error']}")
                reps[name].append(rec)
        steps += 1
        if (time.perf_counter() - started) * (steps + 1) / steps > args.seconds:
            break
    if any(rec["untraced"].get("setup_rt") is False for rs in reps.values() for rec in rs):
        log("warning: setup_s was timed without SCHED_FIFO, and may read up to one "
            "scheduler tick high")
    return reps, time.perf_counter() - started


def summarize(reps, traced):
    """The metrics of one workload's repetitions: medians over those
    whose every run matched its reference."""
    good = [rec for rec in reps if not any("error" in r for r in rec.values())]
    metrics = {}
    if not traced:
        for metric, unit in END_TO_END.items():
            values = [rec["untraced"][metric] for rec in good]
            if values:
                metrics[metric] = {"value": median(values), "unit": unit}
        return metrics
    per_rep = [layer_metrics(rec["traced"]["trace"], rec["traced"]["answer_s"]) for rec in good]
    for metric, unit in per_layer_units().items():
        values = [m[metric] for m in per_rep if metric in m]
        if metric == "trace.overhead_s" and good:
            value = median([rec["traced"]["answer_s"] for rec in good]) - median(
                [rec["untraced"]["answer_s"] for rec in good])
        elif not values:
            value = ABSENT
        else:
            # a count stays one that was observed
            value = statistics.median_low(values) if metric in COUNTS else median(values)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def count_runs(reps):
    runs = [r for rec in reps for r in rec.values()]
    return len(runs), sum("error" in r for r in runs)


def measure(args, exes, references, work):
    """One `--workload` run: the end-to-end or the per-layer metrics."""
    name = args.workload
    reps, took = collect(exes, [name], args, references, work)
    reps = reps[name]
    metrics = summarize(reps, args.trace == 1)
    attempted, failed = count_runs(reps)
    width = max(len(m) for m in metrics) if metrics else 0
    print(f"workload {name}: {attempted} runs in {took:.1f} s, {failed} failed")
    for metric, m in metrics.items():
        print(f"  {metric:<{width}}  {fmt(m['value']):>12} {m['unit']}")
    save_result(f"{name}-seed{args.seed}-trace{args.trace}.json", {
        "workload": name, "argv": WORKLOADS[name]["argv"], "environment": environment(args.seed),
        "metrics": metrics, "repetitions": reps,
    })
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_set(args, exes, references, work):
    """Every workload, round-robin, as one table of end-to-end metrics."""
    names = list(WORKLOADS)
    reps, took = collect(exes, names, args, references, work)
    print(f"set of {len(names)} workloads in {took:.1f} s")
    print(f"{'workload':<24}{'answer_s':>12}{'setup_s':>12}{'peak_rss_mb':>14}  failed/attempted")
    failed_any = False
    for name in names:
        metrics = summarize(reps[name], traced=False)
        cells = "".join(
            f"{fmt(metrics[m]['value']) + ' ' + u if m in metrics else '-':>{w}}"
            for (m, u), w in zip(END_TO_END.items(), (12, 12, 14)))
        attempted, failed = count_runs(reps[name])
        failed_any |= failed > 0
        print(f"{name:<24}{cells}  {failed}/{attempted}")
    save_result(f"set-seed{args.seed}.json", {"environment": environment(args.seed), "runs": reps})
    return 1 if failed_any else 0


def record(exes, work):
    """Rewrite references.json from the current build."""
    refs = {}
    for name in WORKLOADS:
        refs[name] = {}
        for seed in POOL:
            rec = run_once(exes, name, seed, work)
            if "error" in rec:
                raise BenchError(f"{name} seed {seed}: {rec['error']}")
            refs[name][str(seed)] = rec["key"]
            log(f"{name} seed {seed}: {rec['answer_s']:.2f} s {rec['key']}")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=52)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", action="store_true",
                    help="run every workload round-robin (end-to-end metrics)")
    ap.add_argument("--record", action="store_true", help="rewrite references.json")
    args = ap.parse_args()
    if not (args.workload or args.set or args.record):
        ap.error("give --workload, --set or --record")
    if args.set and args.trace:
        ap.error("--set reports end-to-end metrics only")

    work = ROOT / ".bench_run" / str(os.getpid())
    try:
        exes = build()
        work.mkdir(parents=True, exist_ok=True)
        if args.record:
            record(exes, work)
            return 0
        references = json.loads(REFERENCES.read_text())
        if args.set:
            return run_set(args, exes, references, work)
        result = measure(args, exes, references, work)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
