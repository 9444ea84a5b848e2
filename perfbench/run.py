"""The sicladder ladder benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from its `src/`.
Workloads (closed loop: one caller, each operation waits for the previous):

- small-rungs: fiducial-find at d=5 and d=7, the 5 -> 15 climb, the d=5
  empty-branch census over all 8 generators, the 7 -> 35 conjugate climb,
  then `verify` on every solution. Many tiny calls at N <= 35, where
  per-call overhead dominates; the census adds branches where every restart
  runs to its cap for nothing.
- rung63: fiducial-find at d=9, the 9 -> 63 climb over a prefix of its
  restart stream, then `verify` on every solution: the full defect at
  medium N in a 5-parameter family.
- rung195: the refined 15 -> 195 climb over a prefix of its restart stream
  from the committed d=15 source, then `verify` and the stabilizer order of
  the committed 195 artifact: the one workload where building the proto
  vector, not the overlap table, dominates.

The searches use the acceptance-test configs and seeds (worker.CONFIGS).
They are not drawn from --seed: Nelder-Mead is chaotic in its start point,
and any change to the search inputs (a search seed, even a global phase on
the source) moves a pass's work by 10 % to 3x, which would measure the seed
instead of the code. --seed is recorded in the run record and nothing else.

With --trace 0 the run measures the end-to-end metrics: a pass's wall time
(median over the passes that fit in --seconds), the same time in units of a
reference computation timed during the pass (wall_ref, see
worker.SpeedProbe), set-up time (median of six fresh processes), restarts to
first solution and peak memory. With --trace 1 it runs the workload once
untraced and once traced, each in a fresh process, and reports per-layer
calls and self time, search counters and the tracing overhead; the two runs
must produce bit-identical solution vectors. Spans go to
perfbench/out/trace-<workload>-seed<N>.jsonl.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}; the line before it is the full run record, with failures,
artifact digests and run metadata, which --out also appends to FILE.
--compare prints per-metric median ratios, NEW over BASE, per workload.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("small-rungs", "rung63", "rung195")
SETUP_PROBES = 5        # extra set-up-only processes per untraced run
CHILD_TIMEOUT_S = 150
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "wall_ref": "slices", "setup_s": "s",
              "restarts_to_first_solution": "count", "peak_rss_mb": "MB"}

# every function timed in a traced run gets .calls and .self_s
_TRACED = tuple(f"{module}.{function}" for module, function in TRACED)
PER_LAYER = {}
for _name in _TRACED:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "optimizer.evals": "count",
    "optimizer.evals_per_restart": "count",
    "optimizer.evals_per_s": "1/s",
    "optimizer.restarts": "count",
    "optimizer.solutions": "count",
    "optimizer.solution_ratio": "ratio",
    "cli.verify_s": "s",
    "trace.overhead_s": "s",
})


class RunFailed(Exception):
    """The run could not produce a result; no result line is printed."""


def _child(argv, stdout):
    """Run worker.py to completion; returns its start time and its stdout."""
    env = dict(os.environ, **CHILD_ENV)
    started = time.time()
    with subprocess.Popen([sys.executable, str(WORKER)] + argv, cwd=ROOT, env=env,
                          stdout=stdout, stdin=subprocess.DEVNULL) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as ex:  # never leave the worker running
            proc.kill()
            proc.wait()
            if isinstance(ex, subprocess.TimeoutExpired):
                raise RunFailed(f"worker {' '.join(argv[:2])} timed out") from None
            raise
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(argv[:2])} exited with code {proc.returncode}")
    return started, out


def setup_sample():
    """Seconds from starting a set-up-only process to the end of its set-up."""
    started, out = _child(["--setup-only"], subprocess.PIPE)
    return json.loads(out.decode().strip().splitlines()[-1])["ready_at"] - started


def run_worker(workload, seconds, trace, workdir, trace_file=None):
    record_path = workdir / f"record-{trace}.json"
    argv = ["--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir / f"artifacts-{trace}"), "--out", str(record_path)]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    started, _ = _child(argv, subprocess.DEVNULL)
    record = json.loads(record_path.read_text())
    record["setup_s"] = record["ready_at"] - started
    return record


def _failures(record):
    return [f for p in record["passes"] for f in p["failures"]]


def _pass_wall(record):
    return statistics.median(p["wall_s"] for p in record["passes"])


def layer_metrics(traced, untraced):
    n = len(traced["passes"])
    layers = traced["layers"]
    out = {}
    for name in _TRACED:
        s = layers.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        out[f"{name}.calls"] = s["calls"] / n
        out[f"{name}.self_s"] = s["self_s"] / n
    minimize_s = layers.get("optimizer.minimize", {}).get("total_s", 0.0)
    restarts = traced["restarts"]
    out.update({
        "optimizer.evals": traced["evals"] / n,
        "optimizer.evals_per_restart": traced["evals"] / n / restarts if restarts else 0.0,
        "optimizer.evals_per_s": traced["evals"] / minimize_s if minimize_s else 0.0,
        "optimizer.restarts": restarts,
        "optimizer.solutions": traced["solutions"],
        "optimizer.solution_ratio": traced["solutions"] / restarts if restarts else 0.0,
        "cli.verify_s": layers.get("cli.verify", {}).get("total_s", 0.0) / n,
        "trace.overhead_s": _pass_wall(traced) - _pass_wall(untraced),
    })
    return out


def git_sha():
    """HEAD of the checkout's .git, read without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(workload, seed, seconds, trace):
    """One run; returns the full record (whose first four keys form the result)."""
    if not (ROOT / "src" / "sicladder" / "__init__.py").is_file():
        raise RunFailed(f"no package source under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if trace:
            untraced = run_worker(workload, seconds, 0, workdir)
            rec = run_worker(workload, seconds, 1, workdir,
                             OUT / f"trace-{workload}-seed{seed}.jsonl")
            failures = _failures(untraced) + _failures(rec)
            if rec["vectors"] != untraced["vectors"]:
                failures.append("traced and untraced runs differ in their solution vectors")
            attempted = sum(p["attempted"] for r in (untraced, rec) for p in r["passes"])
            metrics = layer_metrics(rec, untraced)
            units = PER_LAYER
        else:
            setups = [setup_sample() for _ in range(SETUP_PROBES)]
            rec = run_worker(workload, seconds, 0, workdir)
            setups.append(rec["setup_s"])
            failures = _failures(rec)
            attempted = sum(p["attempted"] for p in rec["passes"])
            metrics = {
                "wall_s": _pass_wall(rec),
                "wall_ref": statistics.median(p["wall_s"] / p["ref_slice_s"]
                                              for p in rec["passes"]),
                "setup_s": statistics.median(setups),
                "restarts_to_first_solution": rec["restarts_to_first_solution"],
                "peak_rss_mb": rec["peak_rss_mb"],
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = dict(rec["meta"], git_sha=git_sha(), src_sha256=src_digest(), seed=seed,
                seconds=seconds, passes=len(rec["passes"]),
                pass_wall_s=[p["wall_s"] for p in rec["passes"]],
                ref_slice_s=[p["ref_slice_s"] for p in rec["passes"]])
    if not trace:
        meta["setup_samples_s"] = setups
    else:
        meta["spans"] = rec["spans"]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "workload": workload,
        "trace": trace,
        "failures": failures,
        "artifacts": rec["artifacts"],
        "meta": meta,
    }


def compare(base_path, new_path):
    """Per workload and metric: median of BASE, median of NEW, NEW / BASE.

    An end-to-end metric is marked only when its median moved by more than
    its bound; a per-layer metric, which has no bound, by its direction.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        groups = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                groups.setdefault((rec["workload"], name), []).append(m["value"])
        return groups

    base, new = load(base_path), load(new_path)
    print(f"{'workload':<12} {'metric':<42} {'base':>12} {'new':>12} {'new/base':>9}  n")
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = n / b if b else float("nan")
        m = specs.get(key[1], {})
        verdict = ""
        if b and abs(ratio - 1) > m.get("bound", 0.0):
            verdict = "better" if (n < b) == (m.get("better") == "lower") else "worse"
        print(f"{key[0]:<12} {key[1]:<42} {b:>12.6g} {n:>12.6g} {ratio:>9.4f}  "
              f"{len(base[key])}/{len(new[key])} {verdict}")


def main():
    ap = argparse.ArgumentParser(description="sicladder ladder benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("selftest",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full run record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    line = json.dumps(record)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
