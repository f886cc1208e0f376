#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (the library sources plus
the measuring program) into .bench_build/, runs one workload in a child
process with a controlled environment, checks its outputs, and prints two
lines: a detail object with every workload-specific metric, check and the
run manifest, then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from a run that also measures the tracing overhead. See
perfbench/README.md for what each metric means on each workload.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
MODELS = os.path.join(HERE, "models")
THREADS = min(4, os.cpu_count() or 1)

# Per-workload knobs the benchmark sets itself; every other BER_* variable of
# the calling environment is dropped (and recorded in the manifest).
WORKLOADS = {
    "train_randbet": {"BER_COMPUTE_ON_CODES": "0"},
    "sweep_codes": {"BER_COMPUTE_ON_CODES": "1"},
    "serve_openloop": {"BER_COMPUTE_ON_CODES": "0"},
}

MODEL_SHA256 = {
    "serve_toy.ckpt": "05f1b832a8d0c4dc29700d8d55858e97011454709c46075ebee7a157bcb9c42a",
    "sweep_w32.ckpt": "8993169e8a8af70b2af4808fe4d96e18443da4cc0f65f9d080d6eda62e2a38c9",
}

# Quality when the benchmark was defined (median over seeds) and the distance
# a run may stray from it. Every prediction of one constant label scores 0.90
# on the balanced test splits: train_randbet's bands end well short of that,
# so a training run that learns nothing (e.g. at learning rate 0) fails.
QUALITY = {
    "train_randbet": {"clean_err": (0.708, 0.08), "rerr_mean": (0.732, 0.08)},
    "sweep_codes": {"clean_err": (0.307, 0.05), "rerr_mean": (0.410, 0.05)},
    "serve_openloop": {"clean_err": (0.409, 0.05), "rerr_mean": (0.410, 0.05)},
}

END_TO_END = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("clean_err", "fraction"),
    ("rerr_mean", "fraction"),
    ("peak_rss_mb", "MB"),
]

# SimpleNet (3 conv blocks of conv, GroupNorm, ReLU with two max-pools, then
# global pooling and a linear head): the same 19 layer labels for the toy
# model (fwd / bwd / infer) and the paper-scale one (codes).
LAYERS = [
    "L0_conv2d", "L1_groupnorm", "L2_relu", "L3_conv2d", "L4_groupnorm",
    "L5_relu", "L6_maxpool2d", "L7_conv2d", "L8_groupnorm", "L9_relu",
    "L10_conv2d", "L11_groupnorm", "L12_relu", "L13_maxpool2d", "L14_conv2d",
    "L15_groupnorm", "L16_relu", "L17_globalavgpool", "L18_linear",
]

PER_LAYER = [
    ("data.load_ms", "ms"),
    ("data.prefetch_stalls", "count"),
    ("data.batches_produced", "count"),
    ("train.wall_s", "s"),
    ("train.accounted_frac", "fraction"),
    ("kernels.gemm_gflops.train", "GFLOP/s"),
    ("kernels.gemm_gflops.serve_b1", "GFLOP/s"),
    ("kernels.qgemm_gops.sweep", "GOP/s"),
    ("kernels.gemm_flops", "count"),
    ("kernels.qgemm_flops", "count"),
    ("kernels.im2col_bytes", "count"),
    ("kernels.gemm_calls", "count"),
    ("core.default_threads_ns", "ns"),
    ("quant.quantize_ms", "ms"),
    ("quant.deploy_ms", "ms"),
    ("biterror.build_ms", "ms"),
    ("biterror.apply_ms", "ms"),
    ("faults.words_patched", "count"),
    ("faults.trial_ms", "ms"),
    ("faults.trials", "count"),
    ("faults.pool_busy_frac", "fraction"),
    ("serve.replica_fwd_us.b1", "us"),
    ("serve.replica_fwd_us.b8", "us"),
    ("serve.replica_fwd_us.b32", "us"),
    ("serve.batch_mean", "images"),
    ("serve.enqueue_p99_us", "us"),
    ("serve.deploy_ms", "ms"),
    ("obs.trace_overhead_frac", "fraction"),
] + [("nn.%s.%s" % (kind, layer), "us")
     for kind in ("fwd_us", "bwd_us", "infer_us", "codes_us") for layer in LAYERS]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build():
    """Configures and builds perfbench into .bench_build (serialised by a lock)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "build.ninja")) and \
                not os.path.exists(os.path.join(BUILD, "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.call(cmd, stdout=sys.stderr) != 0:
                fail("configure failed", 3)
        cmd = ["cmake", "--build", BUILD, "-j", str(THREADS), "--target", "perfbench"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("build failed", 3)
    return os.path.join(BUILD, "perfbench")


def source_tree_sha256():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                h.update(sha256_file(path).encode())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; the source-tree hash identifies it
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return (out.stdout.strip() or None) if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    inherited = {k: v for k, v in os.environ.items() if k.startswith("BER_")}
    if "BER_FAST" in inherited:
        fail("BER_FAST is set; the benchmark measures full-size work only", 2)

    binary = build()
    checks = []

    def check(name, ok, detail=None):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    for name, want in MODEL_SHA256.items():
        got = sha256_file(os.path.join(MODELS, name))
        check("checkpoint hash " + name, got == want, got)

    env = {k: v for k, v in os.environ.items() if not k.startswith("BER_")}
    artifacts = os.path.join(BUILD, "artifacts-%d" % os.getpid())
    shutil.rmtree(artifacts, ignore_errors=True)
    os.makedirs(artifacts)
    env.update({
        "BER_THREADS": str(THREADS),
        "BER_BACKEND": "blocked",
        "BER_PREFETCH_DEPTH": "2",
        "BER_ARTIFACTS": artifacts,
    })
    env.update(WORKLOADS[args.workload])
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--models", MODELS]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=175)
    except subprocess.TimeoutExpired:
        fail("workload timed out", 4)
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("workload exited with %d" % proc.returncode, 5)
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    e2e = out["end_to_end"]
    for metric, (ref, tol) in QUALITY[args.workload].items():
        v = e2e[metric]
        check("%s within %.2f of the reference %s" % (metric, tol, ref),
              abs(v - ref) <= tol, v)

    # Deterministic counts must repeat exactly between runs of one build
    # with the same seed and length.
    counts_dir = os.path.join(BUILD, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    key = "%s-seed%d-s%s-trace%d.json" % (args.workload, args.seed,
                                          repr(args.seconds), args.trace)
    counts_path = os.path.join(counts_dir, key)
    binary_sha = sha256_file(binary)
    record = {"binary": binary_sha, "counts": out["counts"]}
    if os.path.exists(counts_path):
        with open(counts_path) as f:
            prev = json.load(f)
        if prev.get("binary") == binary_sha:
            check("counts repeat the earlier run of this build",
                  prev["counts"] == out["counts"])
    with open(counts_path, "w") as f:
        json.dump(record, f)

    manifest = dict(out["manifest"])
    manifest.update({
        "commit": git_commit(),
        "source_tree_sha256": source_tree_sha256(),
        "binary_sha256": binary_sha,
        "env_set": {k: env[k] for k in sorted(env) if k.startswith("BER_")},
        "env_inherited_dropped": inherited,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    manifests = os.path.join(BUILD, "manifests")
    os.makedirs(manifests, exist_ok=True)
    with open(os.path.join(manifests, key), "w") as f:
        json.dump(manifest, f, indent=1)

    if args.trace:
        pl = out["per_layer"]
        missing = [n for n, _ in PER_LAYER if n not in pl]
        check("every per-layer metric reported", not missing, missing)
        metrics = {n: {"value": pl.get(n, 0.0), "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}

    all_checks = out["checks"] + checks
    attempted = out["attempted"] + len(checks)
    failed = out["failed"] + sum(1 for c in checks if not c["ok"])
    correct = all(c["ok"] for c in all_checks) and failed == 0
    detail = {
        "workload": args.workload,
        "metrics": out["metrics"],
        "fail_frac": failed / attempted,
        "failed_checks": [c for c in all_checks if not c["ok"]],
        "counts": out["counts"],
        "manifest": manifest,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
