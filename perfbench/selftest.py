"""Self-tests of the benchmark on a tiny budget (a few seconds).

    python3 perfbench/run.py --self-test

- Every metric named in BENCHMARK.json is reported with its unit, and no
  other, by an untraced and by a traced run of the `selftest` workload.
- A traced and an untraced run give bit-identical solution vectors, so the
  wrappers change nothing.
- The wrappers catch calls made through by-name imports, such as the
  `overlap_table` that `fiducials` imports from `heisenberg`.
"""
import json
import sys

import numpy as np

import run as bench
from spans import TRACED, Tracer

def check_runs(expect):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    records = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rec = bench.run("selftest", seed=0, seconds=1, trace=trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in rec["metrics"].items()}
        expect(got == want, f"trace {trace}: metrics differ from BENCHMARK.json "
                            f"{key}: {sorted(set(got.items()) ^ set(want.items()))}")
        expect(rec["correct"] and rec["failed"] == 0,
               f"trace {trace}: run failed: {rec['failures']}")
        records[trace] = rec
    # climb reports carry their own elapsed time; every other artifact must match
    solutions = [{k: v for k, v in records[t]["artifacts"].items() if "-sic" in k}
                 for t in (0, 1)]
    expect(solutions[0] and solutions[0] == solutions[1],
           "traced and untraced runs wrote different solution artifacts")


def check_by_name_wrapping(expect):
    sys.path.insert(0, str(bench.ROOT / "src"))
    import sicladder
    from sicladder import fiducials, heisenberg, optimizer

    modules = [m for k, m in sys.modules.items()
               if k == "sicladder" or k.startswith("sicladder.")]
    originals = [getattr(sys.modules[f"sicladder.{m}"], f) for m, f in TRACED]
    bindings = [(mod, attr, fn) for fn in originals for mod in modules
                for attr, value in vars(mod).items() if value is fn]
    for mod, attr in ((fiducials, "overlap_table"), (optimizer, "sic_defect"),
                      (optimizer, "displaced_vector"), (sicladder, "overlap_table")):
        expect(any(m is mod and a == attr for m, a, _ in bindings),
               f"{mod.__name__}.{attr} is not a by-name binding of a traced function")

    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr, fn in bindings:
            expect(getattr(getattr(mod, attr), "__wrapped__", None) is fn,
                   f"{mod.__name__}.{attr} was not wrapped")
        v = np.array([1, 1j]) @ np.random.default_rng(0).normal(size=(2, 5))
        optimizer.sic_defect(v / np.linalg.norm(v), 5)
        stats = tracer.layer_stats()
        expect(stats.get("fiducials.sic_defect", {}).get("calls") == 1,
               "optimizer.sic_defect did not record a fiducials.sic_defect span")
        expect(stats.get("heisenberg.overlap_table", {}).get("calls") == 1,
               "sic_defect's by-name call to overlap_table was not recorded")
        expect(tracer.count_within("heisenberg.overlap_table", "fiducials.sic_defect") == 1,
               "overlap_table was not recorded inside sic_defect")
    finally:
        tracer.uninstall()
    for mod, attr, fn in bindings:
        expect(getattr(mod, attr) is fn, f"{mod.__name__}.{attr} was not restored")
    expect(heisenberg.overlap_table is fiducials.overlap_table,
           "uninstall left the by-name binding apart from its module")


def main():
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    check_by_name_wrapping(expect)
    check_runs(expect)
    for message in failures:
        print(f"FAIL {message}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0
