"""Outside-in spans around the package's public functions.

`Tracer.install` replaces each listed function by a timing wrapper in every
`sicladder` module namespace that holds the same function object, so calls
made through by-name imports (`from .heisenberg import overlap_table`) are
caught as well as calls through the defining module. Spans stay in memory
as (name, start, end, parent index) and are written out as JSON lines at the
end; start and end are time.perf_counter() seconds.
"""
import contextlib
import functools
import json
import sys
import time

# (module, function) pairs timed in a traced run
TRACED = (
    ("heisenberg", "overlap_table"),
    ("heisenberg", "displaced_vector"),
    ("fiducials", "sic_defect"),
    ("fiducials", "sector_fiducials"),
    ("fiducials", "find_fiducial"),
    ("fiducials", "two_design_deviation"),
    ("fiducials", "symmetry_group_order"),
    ("ladder", "build_proto"),
    ("ladder", "generalized_parity"),
    ("ladder", "paired_bases"),
    ("ladder", "paired_bases_refined"),
    ("ladder", "make_proto_family"),
    ("ladder", "verify_alignment"),
    ("ladder", "embedded_etf"),
    ("frames", "check_tight"),
    ("linalg", "eig_unitary"),
    ("clifford", "symplectic_unitary"),
    ("optimizer", "minimize"),
)


class Tracer:
    """Span recorder for one process; single-threaded by design."""

    def __init__(self):
        # one list per field, so the garbage collector has few containers to scan
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = []
        self._restore = []  # (namespace, attribute, original)
        self.paused = False  # set while the benchmark checks outputs

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name):
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.names))
        self.names.append(name)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())

    def _close(self):
        self.ends[self._stack.pop()] = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    def install(self, package="sicladder"):
        """Wrap every TRACED function; returns the number of rebound names."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        rebound = 0
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
                        rebound += 1
        return rebound

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def layer_stats(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for k, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[k]
        stats = {}
        for k, name in enumerate(self.names):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += dur[k]
            s["self_s"] += dur[k] - child[k]
        return stats

    def count_within(self, name, ancestor):
        """Spans called `name` that run inside a span called `ancestor`."""
        inside = [False] * len(self.names)
        n = 0
        for k, parent in enumerate(self.parents):
            inside[k] = parent >= 0 and (inside[parent] or self.names[parent] == ancestor)
            if self.names[k] == name and inside[k]:
                n += 1
        return n

    def write(self, path):
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent"), row))) + "\n")
