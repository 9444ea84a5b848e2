"""One benchmark run in a fresh process: set up, run a workload, check it.

    python3 perfbench/worker.py --workload NAME --seconds S --trace 0|1 \
        --workdir DIR --out RECORD.json [--trace-file SPANS.jsonl]
    python3 perfbench/worker.py --setup-only

run.py starts this process with BLAS pinned to one thread and reads the
record it writes. Set-up is the imports plus loading and checking the
committed inputs; the wall-clock time at which it ends goes into the record
as `ready_at`, so the parent can time set-up from the moment it started the
process. The package is imported from `src/` of the checkout, not installed.

A pass is one closed-loop run of every operation of the workload, each
waiting for the previous one. Passes repeat while another one still fits in
--seconds; every pass does the same work on the same inputs, so its solution
vectors must come out bit-identical to the first pass.
"""
import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"

# sha256 of the committed inputs; make_inputs.py regenerates both files
INPUT_DIGESTS = {
    "f15.json": "5b95cb19b8a5a95ee44d3489fa20eeb25c1312061183a1256bd1d40f912defe7",
    "sic195.json": "279049994a9b604750b1fe8b464c9d9030cdce33282be37f8209f238cc70e288",
}

# Search configs. Seeds and iteration caps are the acceptance-test configs.
# The 9 -> 63 and 15 -> 195 climbs run a prefix of their acceptance restart
# stream (restarts 0 .. n-1), sized by time alone so a pass fits in the run.
CONFIGS = {
    "climb15": dict(restarts=12, max_iters=2000, seed=0),
    "census5": dict(restarts=12, max_iters=2000, seed=0, target_defect=1e-10),
    "climb35": dict(restarts=8, max_iters=3000, seed=0),
    "climb63": dict(restarts=4, max_iters=4000, seed=11),
    "climb195": dict(restarts=2, max_iters=8000, seed=2, term_budget=9),
    "selftest15": dict(restarts=2, max_iters=2000, seed=0),
}
FIDUCIAL_SEED = 0


class GateFailed(Exception):
    """An output broke one of the paper's invariants."""


class SpeedProbe:
    """Machine speed during a pass, sampled with a fixed reference computation.

    On a shared machine the CPU speed drifts by 10 % or more within seconds,
    and a pass's wall time drifts with it: on a 2-vCPU x86-64 VM the
    interquartile range of a workload's wall times over five to ten runs was
    6-15 % of their median, and that of wall time over mean slice time 1-6 %.

    While the probe is entered, a SIGALRM handler runs a reference slice of
    about 10 ms every INTERVAL_S seconds, between bytecodes of the pass. The
    slice mixes the kinds of work the climbs do, written here and independent
    of the package: small-vector FFTs like the overlap table's, Kronecker
    products like the proto build's, and scipy's Nelder-Mead loop. Time
    spent in slices is kept in `spent` so the pass can exclude it. A disabled
    probe (traced runs) samples nothing.
    """
    INTERVAL_S = 0.2

    def __init__(self, enabled=True):
        import numpy as np
        from scipy.optimize import minimize, rosen
        self.enabled = enabled
        self._np = np
        self._nm = lambda: minimize(rosen, np.full(4, 0.5), method="Nelder-Mead",
                                    options=dict(maxiter=60, xatol=0, fatol=0))
        self._v = np.exp(1j * np.arange(35)) / np.sqrt(35)
        self._e, self._f = np.eye(5, dtype=complex), np.eye(7, dtype=complex)
        self.slices = []
        self.spent = 0.0
        if enabled:
            for _ in range(3):    # warm up before anything is recorded
                self._slice()
            self.slices, self.spent = [], 0.0

    def _slice(self, *_):
        np, v = self._np, self._v
        t0 = time.perf_counter()
        for i in range(150):
            np.fft.ifft(np.conj(np.roll(v, -i)) * v)
        for _ in range(2):
            for a in range(5):
                for b in range(7):
                    np.kron(self._e[a], self._f[b])
        self._nm()
        dt = time.perf_counter() - t0
        self.slices.append(dt)
        self.spent += dt

    def mean_slice(self):
        return statistics.fmean(self.slices) if self.slices else None

    def __enter__(self):
        if self.enabled:
            self._slice()
            signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._slice()
        return False


def set_up():
    """Import the package from src/ and load and check the committed inputs."""
    src = ROOT / "src"
    if not (src / "sicladder" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {src}")
    sys.path.insert(0, str(src))
    from sicladder import cli, fiducials
    inputs = {}
    for name, digest in INPUT_DIGESTS.items():
        raw = (INPUTS / name).read_bytes()
        if hashlib.sha256(raw).hexdigest() != digest:
            raise SystemExit(f"error: {name} does not match its committed sha256")
        kind, body, f = cli.load_artifact(str(INPUTS / name))
        if kind != "fiducial" or body.get("source") is None:
            raise SystemExit(f"error: {name} is not a fiducial with an embedded source")
        inputs[name] = (body, f)
    if not fiducials.verify_sic(inputs["f15.json"][1], tol=1e-10):
        raise SystemExit("error: the committed d=15 source is not a SIC fiducial")
    return inputs


def embedded_source(body):
    """The lower-rung fiducial stored in an artifact's `source` block."""
    import numpy as np
    from sicladder.fiducials import SicFiducial
    src = body["source"]
    v = np.array([complex(float(a), float(b)) for a, b in src["vector"]])
    return SicFiducial(d=int(src["dimension"]), vector=v)


def vectors_digest(vectors):
    h = hashlib.sha256()
    for v in vectors:
        h.update(v.tobytes())
    return h.hexdigest()


class Pass:
    """One pass of a workload: its operations, their outputs and checks."""

    def __init__(self, inputs, tracer, probe, workdir):
        from sicladder import cli, fiducials, optimizer
        self.cli, self.fid, self.opt = cli, fiducials, optimizer
        self.inputs = inputs
        self.tracer = tracer
        self.probe = probe
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.artifacts = {}     # file name -> sha256 of its bytes
        self.vectors = {}       # climb label -> sha256 of its solution vectors
        self.outputs = []       # solution artifacts, verified at the end
        self.restarts = 0
        self.restarts_to_first_solution = 0
        self.solutions = 0
        self.check_s = 0.0

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def checking(self):
        """Checks made by the benchmark: untimed and untraced."""
        t0, probed = time.perf_counter(), self.probe.spent
        if self.tracer:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.paused = False
            self.check_s += time.perf_counter() - t0 - (self.probe.spent - probed)

    def op(self, kind, label, fn):
        """Run one operation; any exception or broken gate fails it."""
        self.attempted += 1
        with self.span(f"op.{kind}"):
            try:
                return fn()
            except Exception as ex:  # one failed operation must not end the run
                traceback.print_exc()
                self.failures.append(f"{label}: {type(ex).__name__}: {ex}")
                return None

    def save(self, name, body):
        """Write an artifact and check that save -> load -> save keeps its bytes."""
        path = self.workdir / name
        self.cli.save_json(str(path), body)
        with self.checking():
            self._round_trip(path)
        return path

    def _round_trip(self, path):
        raw = path.read_bytes()
        kind, body, f = self.cli.load_artifact(str(path))
        if kind == "fiducial":
            source = embedded_source(body) if body.get("source") else None
            body = self.cli.fiducial_payload(f, provenance=body["provenance"],
                                             source=source)
        again = path.with_name(path.name + ".resave")
        self.cli.save_json(str(again), body)
        same = again.read_bytes() == raw
        again.unlink()
        if not same:
            raise GateFailed(f"save -> load -> save changed the bytes of {path.name}")
        self.artifacts[path.name] = hashlib.sha256(raw).hexdigest()

    # -- operations ---------------------------------------------------------

    def fiducial_find(self, d):
        def run():
            name = f"f{d}.json"
            rc = self.cli.main(["fiducial-find", "--dim", str(d), "--seed",
                                str(FIDUCIAL_SEED), "--out", str(self.workdir / name)])
            if rc != 0:
                raise GateFailed(f"exit code {rc}")
            with self.checking():
                self._round_trip(self.workdir / name)
            return self.cli.load_artifact(str(self.workdir / name))[2]
        return self.op("fiducial-find", f"fiducial-find d={d}", run)

    def climb(self, kind, label, source, gate=None, refined=False, **options):
        """A library climb with its report and promoted solution artifacts."""
        def run():
            if source is None:
                raise GateFailed("no source: the operation producing it failed")
            cfg = self.opt.SearchConfig(**CONFIGS[label])
            if refined:
                out = self.opt.climb_refined(source, cfg=cfg)
            else:
                out = self.opt.climb(source, cfg=cfg, **options)
            self.save(f"{label}.json", self.cli.climb_report_payload(out, source))
            N = source.d * (source.d - 2)
            for n, (res, psi) in enumerate(out.solutions):
                sol = self.opt.promote_solution(psi, N, label=f"sic{n} of {label}")
                prov = f"{label} restart {res.seed_used} defect {res.defect_full:.3e}"
                self.outputs.append(self.save(
                    f"{label}-sic{n}.json",
                    self.cli.fiducial_payload(sol, provenance=prov, source=source)))
            with self.checking():
                self._account(label, out, cfg)
                if gate is not None:
                    gate(self, out)
            return out
        return self.op(kind, label, run)

    def _account(self, label, out, cfg):
        """Restart counts over the branches in sweep order.

        Restarts to first solution: every restart of each searched branch
        before the first branch with a solution, then that branch's first
        converging restart (SearchResult.seed_used + 1). A climb that finds
        nothing counts all its restarts plus one.
        """
        searched = [b for b in out.branches if b.n_params is not None]
        self.restarts += cfg.restarts * len(searched)
        first = 0
        for b in searched:
            if b.results:
                first += min(r.seed_used for r in b.results) + 1
                break
            first += cfg.restarts
        else:
            first += 1
        self.restarts_to_first_solution += first
        self.solutions += len(out.solutions)
        self.vectors[label] = vectors_digest([v for _, v in out.solutions])

    def verify(self, path, gate=None):
        def run():
            with self.span("cli.verify"):
                rc = self.cli.main(["verify", "--input", str(path)])
            if rc != 0:
                raise GateFailed(f"verify exit code {rc}")
            if gate is not None:
                gate()
        self.op("verify", f"verify {path.name}", run)

    def verify_outputs(self):
        for path in self.outputs:
            self.verify(path)


# -- workloads ----------------------------------------------------------------


def gate_climb15(p, out):
    if len(out.solutions) != 3:
        raise GateFailed(f"5 -> 15 found {len(out.solutions)} solutions, expected 3")
    for res, _ in out.solutions:
        if not p.opt.check_known_phase_5(res.params[0])[0]:
            raise GateFailed("e^{3i sigma} is not -4/5 - 3i/5")


def gate_census(p, out):
    per_gen = {}
    for b in out.branches:
        key = tuple(b.generator.ravel().tolist())
        per_gen[key] = per_gen.get(key, 0) + len(b.results)
    empty = sum(1 for v in per_gen.values() if v == 0)
    if len(per_gen) != 8 or empty != 4:
        raise GateFailed(f"census: {empty} of {len(per_gen)} generators empty, expected 4 of 8")


def gate_climb35(p, out):
    import numpy as np
    if len(out.solutions) != 3:
        raise GateFailed(f"7 -> 35 found {len(out.solutions)} solutions, expected 3")
    vecs = [v for _, v in out.solutions]
    for a in range(3):
        for b in range(a + 1, 3):
            if not abs(np.vdot(vecs[a], vecs[b])) <= 1e-7:
                raise GateFailed("7 -> 35 solutions are not mutually orthogonal")
    for res, _ in out.solutions:
        if not p.opt.check_known_polynomial_35(res.params[0], tol=1e-6):
            raise GateFailed("7 -> 35 solution breaks the degree-8 root law")


def gate_all_sic(p, out):
    N = out.source.d * (out.source.d - 2)
    for _, v in out.solutions:
        if not p.fid.verify_sic(p.fid.SicFiducial(d=N, vector=v), tol=1e-10):
            raise GateFailed(f"a dimension-{N} solution fails verify_sic at 1e-10")


def small_rungs(p):
    f5 = p.fiducial_find(5)
    f7 = p.fiducial_find(7)
    p.climb("climb", "climb15", f5, gate=gate_climb15)
    p.climb("census", "census5", f5, gate=gate_census, all_generators=True)
    p.climb("climb", "climb35", f7, gate=gate_climb35, conjugate=True)
    p.verify_outputs()


def rung63(p):
    f9 = p.fiducial_find(9)
    p.climb("climb", "climb63", f9, gate=gate_all_sic)
    p.verify_outputs()


def rung195(p):
    f15 = p.inputs["f15.json"][1]
    p.climb("climb", "climb195", f15, refined=True)
    p.verify_outputs()
    f195 = p.inputs["sic195.json"][1]

    def order_12():
        order = p.fid.symmetry_group_order(f195)
        if order != 12:
            raise GateFailed(f"stabilizer order {order}, expected 12")
    p.verify(INPUTS / "sic195.json", gate=order_12)


def selftest(p):
    """A tiny budget for the benchmark's own tests: a two-restart 5 -> 15
    climb from the d=5 source embedded in the committed d=15 input."""
    f5 = embedded_source(p.inputs["f15.json"][0])
    f5.symmetry, f5.symmetry_eigenvalue = p.fid.detect_order3_symmetry(f5)
    p.climb("climb", "selftest15", f5)
    p.verify_outputs()


WORKLOADS = {"small-rungs": small_rungs, "rung63": rung63, "rung195": rung195,
             "selftest": selftest}


# -- metadata -------------------------------------------------------------------


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata():
    import platform
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "configs": {k: v for k, v in CONFIGS.items() if k != "selftest15"},
        "fiducial_seed": FIDUCIAL_SEED,
    }


# -- main -----------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args()

    inputs = set_up()
    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    ready_at = time.time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return

    args.workdir.mkdir(parents=True, exist_ok=True)
    passes = []
    first = None
    t_run = time.perf_counter()
    while True:
        probe = SpeedProbe(enabled=tracer is None)
        p = Pass(inputs, tracer, probe, args.workdir)
        t0 = time.perf_counter()
        with probe, p.span("pass"):
            WORKLOADS[args.workload](p)
        wall = time.perf_counter() - t0 - p.check_s - probe.spent
        if first is None:
            first = p
        elif p.vectors != first.vectors:
            p.failures.append("pass changed its solution vectors: the run is not deterministic")
        passes.append({"wall_s": wall, "check_s": p.check_s,
                       "ref_slice_s": probe.mean_slice(), "ref_slices": len(probe.slices),
                       "attempted": p.attempted, "failures": p.failures})
        if p.failures or time.perf_counter() - t_run + wall > args.seconds:
            break

    record = {
        "ready_at": ready_at,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "restarts": first.restarts,
        "restarts_to_first_solution": first.restarts_to_first_solution,
        "solutions": first.solutions,
        "vectors": first.vectors,
        "artifacts": first.artifacts,
        "meta": metadata(),
    }
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_stats()
        record["evals"] = tracer.count_within("ladder.build_proto", "optimizer.minimize")
        record["spans"] = len(tracer.names)
        if args.trace_file:
            tracer.write(args.trace_file)
    args.out.write_text(json.dumps(record))


if __name__ == "__main__":
    main()
