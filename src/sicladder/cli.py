"""Command-line interface and artifact persistence.

The commands parse, write and print; the rows `verify` prints come from
ladder.certificate_rows, and no certificate is computed here.
Artifacts are JSON text whose numeric payloads are decimal strings with 17
significant digits, so saving, loading, and saving again reproduces the
file byte for byte on any platform. Exit codes: 0 success; 1 on argument,
I/O, parse, or input-verification problems; 2 when a search exhausts its
budget without finding anything.

The default seed for all searches is 0, overridable per run with --seed or
globally with the SICLADDER_SEED environment variable.
"""
import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import ladder, optimizer
from .errors import SearchFailed, SicladderError
from .fiducials import SicFiducial, overlap_phases, sic_defect, verify_sic
from .heisenberg import _check_dim

SCHEMA_VERSION = 1
# verify's name column: fixed, so a row's bytes never depend on the other
# rows; wide enough for "branch10-sic10:alignment"
NAME_WIDTH = 24


def _fmt(x):
    return f"{float(x):.17g}"


def _pairs(v):
    return [[_fmt(z.real), _fmt(z.imag)] for z in np.asarray(v, dtype=complex)]


def _unpairs(rows, what="vector"):
    v = np.array([complex(float(a), float(b)) for a, b in rows])
    if not np.all(np.isfinite(v)):
        raise SicladderError(f"{what} has a non-finite entry")
    return v


def vector_digest(v):
    payload = ";".join(f"{_fmt(z.real)},{_fmt(z.imag)}"
                       for z in np.asarray(v, dtype=complex))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# artifact schemas


def fiducial_payload(f, provenance="", source=None):
    """JSON body for a fiducial artifact.

    source, when given, embeds the lower-rung fiducial the vector was
    climbed from, which is what later alignment verification runs against.
    """
    body = {
        "kind": "fiducial",
        "schema_version": SCHEMA_VERSION,
        "dimension": int(f.d),
        "vector": _pairs(f.vector),
        "defect": _fmt(sic_defect(f.vector, f.d)),
        "provenance": provenance,
    }
    if f.symmetry is not None:
        sym = {"matrix": [[int(x) for x in row] for row in np.asarray(f.symmetry)]}
        if f.symmetry_eigenvalue is not None:
            ev = complex(f.symmetry_eigenvalue)
            sym["eigenvalue"] = [_fmt(ev.real), _fmt(ev.imag)]
        body["symmetry"] = sym
    if source is not None:
        body["source"] = {"dimension": int(source.d), "vector": _pairs(source.vector)}
    return body


def save_json(path, body):
    with open(path, "w") as fh:
        json.dump(body, fh, indent=1)
        fh.write("\n")


def _checked_vector(rows, d, what):
    """A stored vector, refused unless d is odd and at least 3, its entries
    are finite, its norm is 1 to 1e-12 and its length is d."""
    _check_dim(d)
    v = _unpairs(rows, what)
    if abs(np.linalg.norm(v) - 1) > 1e-12:
        raise SicladderError(f"stored {what} is not normalized to 1e-12")
    if len(v) != d:
        raise SicladderError(f"dimension field {d} does not match {what} length {len(v)}")
    return v


def _fiducial_from_body(body, what, label=""):
    d = int(body["dimension"])
    f = SicFiducial(d=d, vector=_checked_vector(body["vector"], d, what), label=label)
    sym = body.get("symmetry")
    if sym is not None:
        f.symmetry = np.array(sym["matrix"], dtype=int)
        if sym.get("eigenvalue") is not None:
            f.symmetry_eigenvalue = complex(float(sym["eigenvalue"][0]),
                                            float(sym["eigenvalue"][1]))
    return f


def _load_artifact(path):
    """load_artifact's triple and the embedded source fiducial, or None."""
    with open(path) as fh:
        body = json.load(fh)
    if not isinstance(body, dict):
        raise SicladderError("artifact is not a JSON object")
    version = body.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SicladderError(
            f"unknown schema_version {version!r} (this version reads {SCHEMA_VERSION})")
    kind = body.get("kind")
    if kind not in ("fiducial", "climb-report"):
        raise SicladderError(f"unknown artifact kind {kind!r}")
    stored = source = None
    if kind == "fiducial":
        stored = _fiducial_from_body(body, "vector", label=os.path.basename(path))
    if kind == "climb-report" or body.get("source") is not None:
        source = _fiducial_from_body(body["source"], "source vector")
    if kind == "climb-report":
        N = int(body["target_dimension"])
        stored = [[SicFiducial(d=N, vector=_checked_vector(
                       sol["vector"], N, f"branch {bi} solution {si} vector"))
                   for si, sol in enumerate(b["solutions"])]
                  for bi, b in enumerate(body["branches"])]
    return kind, body, stored, source


def load_artifact(path):
    """(kind, body, stored): stored is a fiducial file's fiducial, or a
    climb report's solutions as fiducials, one list per branch.

    Fails closed: an unknown schema_version or kind, or a stored vector
    (fiducial, embedded source or climb solution) whose dimension field is
    even or below 3, or with a non-finite entry, a norm off 1 by more than
    1e-12 or a length other than its dimension field, raises SicladderError.
    """
    return _load_artifact(path)[:3]


def climb_report_payload(outcome, source):
    branches = []
    for b in outcome.branches:
        sols = []
        for res in b.results:
            cert = res.alignment
            sols.append({
                "params": [_fmt(x) for x in res.params],
                "defect": _fmt(res.defect_full),
                "vector": _pairs(res.vector),
                "alignment": {
                    "passes": bool(cert.passes),
                    "matrix_M": None if cert.matrix_M is None else
                        [[int(x) for x in row] for row in cert.matrix_M],
                    "max_err_phase_condition": _fmt(cert.max_err_phase_condition),
                    "max_err_unit_condition": _fmt(cert.max_err_unit_condition),
                },
            })
        branches.append({
            "generator": [[int(x) for x in row] for row in b.generator],
            "target_exponent": None if b.target_exponent is None else int(b.target_exponent),
            "feasible": bool(b.feasible),
            "n_params": None if b.n_params is None else int(b.n_params),
            "outcome": b.outcome,
            "error": b.error,
            "solutions": sols,
        })
    return {
        "kind": "climb-report",
        "schema_version": SCHEMA_VERSION,
        "source": {
            "dimension": int(source.d),
            "sha256": vector_digest(source.vector),
            "label": source.label,
            "vector": _pairs(source.vector),
        },
        "target_dimension": int(source.d * (source.d - 2)),
        "sector": outcome.sector,
        "branches": branches,
        "elapsed_s": _fmt(outcome.elapsed_s),
    }


# ---------------------------------------------------------------------------
# commands


def cmd_fiducial_find(args):
    f = optimizer.default_source(args.dim, seed=args.seed, restarts=args.restarts)
    prov = (f"sicladder fiducial-find --dim {args.dim} --seed {args.seed}"
            f" --restarts {args.restarts}")
    save_json(args.out, fiducial_payload(f, provenance=prov))
    defect = sic_defect(f.vector, f.d)
    print(f"fiducial written to {args.out} (dimension {f.d}, defect {defect:.3e})")
    return 0 if defect <= 1e-16 else 2


def cmd_climb(args):
    kind, body, f = load_artifact(args.input)
    if kind != "fiducial":
        raise SicladderError(f"{args.input} is not a fiducial file")
    if not verify_sic(f, tol=ladder.PASS_TOL):
        raise SicladderError("input does not verify as a SIC fiducial")
    cfg = optimizer.SearchConfig(restarts=20 if args.restarts is None else args.restarts,
                                 seed=args.seed,
                                 max_iters=args.max_iters)
    out = optimizer.climb(f, sector=args.sector,
                          all_generators=args.try_both_generators,
                          conjugate=args.conjugate_pairing, cfg=cfg)
    unused = [o for o, v in (("--restarts", args.restarts),
                             ("--max-iters", args.max_iters)) if v is not None]
    if unused and any(b.n_params == 1 for b in out.branches):
        print(f"note: {' and '.join(unused)} not used: one-parameter families"
              " are solved exactly", file=sys.stderr)

    save_json(args.out, climb_report_payload(out, f))
    stem = args.out[:-5] if args.out.endswith(".json") else args.out
    n = 0
    for b in out.branches:
        tag = f"generator {b.generator.ravel().tolist()} target {b.target_exponent}"
        if not b.results:
            print(f"{tag}: {b.outcome}" + (f" ({b.error})" if b.error else ""))
            continue
        print(f"{tag}: {len(b.results)} solution(s)")
        for res in b.results:
            sol = optimizer.promote_solution(res.vector, f.d * (f.d - 2),
                                             label=f"sic{n} of {os.path.basename(args.out)}")
            prov = (f"sicladder climb from sha256:{vector_digest(f.vector)[:16]}"
                    f" {tag} defect {res.defect_full:.3e}")
            path = f"{stem}-sic{n}.json"
            save_json(path, fiducial_payload(sol, provenance=prov, source=f))
            print(f"  defect {res.defect_full:.3e} -> {path}")
            n += 1
    print(f"report written to {args.out}")
    if n == 0:
        print("no sector yielded a SIC", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args):
    kind, body, stored, source = _load_artifact(args.input)
    levels = ("sic", "design", "alignment", "etf") if args.level == "all" else (args.level,)
    f, branches = stored, ()
    if kind == "climb-report":
        f, branches = None, [(b["generator"], sols) for b, sols in zip(body["branches"], stored)]
    rows = ladder.certificate_rows(f, source, branches, levels)

    if not rows:
        print("nothing to check for this artifact", file=sys.stderr)
        return 1
    for name, _, _, M in rows:
        if M is not None:
            print(f"{name} reindexing M = {[[int(x) for x in row] for row in M]}")
    for name, err, passed, _ in rows:
        print(f"{name:<{NAME_WIDTH}}  {err:12.3e}  {'pass' if passed else 'FAIL'}")
    return 0 if all(passed for _, _, passed, _ in rows) else 1


def cmd_report_overlaps(args):
    kind, body, f = load_artifact(args.input)
    if kind != "fiducial":
        raise SicladderError(f"{args.input} is not a fiducial file")
    t = overlap_phases(f).phases
    rows = []
    for i in range(f.d):
        for j in range(f.d):
            if args.subgroup and (i % args.subgroup or j % args.subgroup):
                continue
            z = t[i, j]
            rows.append((i, j, z.real, z.imag, abs(z)))
    if args.format == "csv":
        print("i,j,re,im,modulus")
        for i, j, re, im, mod in rows:
            print(f"{i},{j},{_fmt(re)},{_fmt(im)},{_fmt(mod)}")
    else:
        json.dump([{"i": i, "j": j, "re": _fmt(re), "im": _fmt(im),
                    "modulus": _fmt(mod)} for i, j, re, im, mod in rows],
                  sys.stdout, indent=1)
        print()
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    # the spec's exit-code contract reserves 2 for exhausted searches;
    # argparse's default usage-error exit code collides with it
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_seed():
    return int(os.environ.get("SICLADDER_SEED", "0"))


def build_parser():
    p = _Parser(prog="sicladder",
                description="search and verification tools for the SIC dimension ladder")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    q = sub.add_parser("fiducial-find", help="search for a SIC fiducial")
    q.add_argument("--dim", type=int, required=True, choices=(5, 7, 9))
    q.add_argument("--seed", type=int, default=_default_seed())
    q.add_argument("--restarts", type=int, default=40,
                   help="search restarts at --dim 7 and 9; ignored at --dim 5,"
                        " whose source is picked from a fixed eigenspace census")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_fiducial_find)

    q = sub.add_parser("climb", help="search the next ladder dimension from a SIC")
    q.add_argument("--input", required=True)
    q.add_argument("--sector", default="auto",
                   choices=("auto", *optimizer.SECTOR_NAMES, "all"),
                   help="target eigenvalue; the names w/w2 need order-3 labels")
    q.add_argument("--try-both-generators", action="store_true",
                   help="sweep every order-3 generator choice, keeping empty branches")
    q.add_argument("--conjugate-pairing", action="store_true",
                   help="one-parameter conjugate family (needs three singleton blocks)")
    q.add_argument("--restarts", type=int, default=None,
                   help="Nelder-Mead restarts per branch (default 20);"
                        " one-parameter families (5 -> 15, --conjugate-pairing)"
                        " are solved exactly and do not use it")
    q.add_argument("--max-iters", type=int, default=None,
                   help="simplex iteration cap per restart (default 8000 when the"
                        " step has order-6 labels, 3000 otherwise); not used by"
                        " one-parameter families")
    q.add_argument("--seed", type=int, default=_default_seed())
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_climb)

    q = sub.add_parser("verify", help="re-verify a stored artifact")
    q.add_argument("--input", required=True)
    q.add_argument("--level", default="all",
                   choices=("sic", "alignment", "etf", "design", "all"))
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("report-overlaps", help="emit the scaled overlap table")
    q.add_argument("--input", required=True)
    q.add_argument("--format", default="csv", choices=("csv", "json"))
    q.add_argument("--subgroup", type=int, default=0,
                   help="keep only rows with both indices divisible by this")
    q.set_defaults(func=cmd_report_overlaps)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchFailed as ex:
        print(f"search failed: {ex}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError, SicladderError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
