"""The names the benchmark under perfbench/ reaches into the package by.

perfbench/spans.py wraps functions by (module, name) and perfbench/worker.py
calls the library and the CLI by attribute. Both are frozen alongside their
recorded baseline, so a rename or an alias in the package would only show
when the benchmark runs; these tests catch it in the ordinary suite. Neither
file does any work at import.
"""
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from sicladder import cli, fiducials, ladder, optimizer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def worker():
    return _load("worker")


def test_traced_names_are_distinct_module_functions(spans):
    seen = set()
    for mod_name, fn_name in spans.TRACED:
        fn = getattr(importlib.import_module(f"sicladder.{mod_name}"), fn_name)
        # an alias would carry another __name__ and be wrapped twice
        assert inspect.isfunction(fn), (mod_name, fn_name)
        assert (fn.__module__, fn.__name__) == (f"sicladder.{mod_name}", fn_name)
        assert fn not in seen, (mod_name, fn_name)
        seen.add(fn)


def test_by_name_bindings_are_traced_functions(spans):
    # the wrappers catch calls through these imports only while each name
    # is bound to the traced function itself
    traced = {getattr(importlib.import_module(f"sicladder.{m}"), f) for m, f in spans.TRACED}
    for mod, attr in (("sicladder.optimizer", "displaced_vector"),
                      ("sicladder.optimizer", "sic_defect"),
                      ("sicladder.fiducials", "overlap_table"),
                      ("sicladder", "overlap_table")):
        assert getattr(importlib.import_module(mod), attr) in traced, f"{mod}.{attr}"


def test_worker_configs_build_search_configs(worker):
    for label, cfg in worker.CONFIGS.items():
        assert isinstance(optimizer.SearchConfig(**cfg), optimizer.SearchConfig), label


def test_worker_calls_names_that_exist(worker):
    # attribute reads through the worker's handles: self.opt.X, p.fid.X, ...
    handles = {"opt": optimizer, "cli": cli, "fid": fiducials}
    tree = ast.parse(Path(worker.__file__).read_text())
    called = {(node.value.attr, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr in handles}
    assert ("opt", "climb_refined") in called
    for handle, name in called:
        assert hasattr(handles[handle], name), f"{handle}.{name}"
    for cls, names in ((optimizer.SearchResult, {"seed_used", "defect_full", "params"}),
                       (optimizer.BranchOutcome, {"generator", "n_params", "results"}),
                       (optimizer.ClimbOutcome, {"source", "branches"})):
        assert names <= {f.name for f in dataclasses.fields(cls)}, cls.__name__
    assert isinstance(optimizer.ClimbOutcome.solutions, property)


def test_worker_command_lines_parse(tmp_path):
    # the two command lines the worker runs through cli.main
    parser = cli.build_parser()
    parser.parse_args(["fiducial-find", "--dim", "9", "--seed", "0",
                       "--out", str(tmp_path / "f9.json")])
    parser.parse_args(["verify", "--input", str(tmp_path / "f9.json")])


@pytest.mark.parametrize("term_budget", [None, 9])
def test_each_evaluation_is_one_build_proto_call(fam5, monkeypatch, term_budget):
    # run.py reads optimizer.evals as the build_proto calls inside minimize:
    # one per objective evaluation plus the final rebuild of the restart's
    # result; an inlined proto build would read as zero evaluations
    calls, results = [0], []
    build_proto, scipy_minimize = ladder.build_proto, optimizer._scipy_minimize

    def counting(*args, **kwargs):
        calls[0] += 1
        return build_proto(*args, **kwargs)

    def recording(*args, **kwargs):
        results.append(scipy_minimize(*args, **kwargs))
        return results[-1]
    # like spans.Tracer.install: every namespace that holds the function
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sicladder" and getattr(mod, "build_proto", None) is build_proto:
            monkeypatch.setattr(mod, "build_proto", counting)
    monkeypatch.setattr(optimizer, "_scipy_minimize", recording)
    cfg = optimizer.SearchConfig(restarts=1, max_iters=40, term_budget=term_budget)
    optimizer.minimize(fam5, cfg)
    assert len(results) == 1, "the polish pass ran; shorten the cap"
    assert calls[0] == results[0].nfev + 1 > 1
