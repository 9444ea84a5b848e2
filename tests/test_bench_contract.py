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


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name in every sicladder namespace that
    holds it, like spans.Tracer.install."""
    calls, fn = [0], getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "sicladder" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("term_budget", [None, 9])
def test_each_evaluation_is_one_build_proto_call(fam35, monkeypatch, term_budget):
    # run.py reads optimizer.evals as the build_proto calls inside minimize:
    # one per objective evaluation plus the final rebuild of the restart's
    # result; an inlined proto build would read as zero evaluations. The
    # plain 7 -> 35 family has two parameters, so minimize runs Nelder-Mead
    results = []
    simplex = optimizer._simplex

    def recording(*args, **kwargs):
        results.append(simplex(*args, **kwargs))
        return results[-1]
    calls = _count_calls(monkeypatch, ladder, "build_proto")
    monkeypatch.setattr(optimizer, "_simplex", recording)
    cfg = optimizer.SearchConfig(restarts=1, max_iters=40, term_budget=term_budget)
    optimizer.minimize(fam35, cfg)
    assert len(results) == 1, "the polish pass ran; shorten the cap"
    _, _, _, nfev = results[0]
    assert calls[0] == nfev + 1 > 1


def test_closed_form_evaluations_are_samples_plus_candidates(fam5, monkeypatch):
    # a one-parameter family is solved, not searched: 2K + 1 = 9 samples of
    # its degree-4 defect bound, then one rebuild per critical point; the
    # defect a + 2|b| cos(3s - phi) has three minima and three maxima
    def no_search(*args, **kwargs):
        raise AssertionError("Nelder-Mead ran on a one-parameter family")
    calls = _count_calls(monkeypatch, ladder, "build_proto")
    candidates = _count_calls(monkeypatch, ladder, "canonical_params")
    monkeypatch.setattr(optimizer, "_simplex", no_search)
    optimizer.minimize(fam5, optimizer.SearchConfig())
    assert candidates[0] == 6
    assert calls[0] == 9 + candidates[0]
