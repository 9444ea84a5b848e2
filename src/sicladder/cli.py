"""Command-line interface and artifact persistence.

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

from . import frames, ladder, optimizer
from .errors import (AlignmentRequired, SearchFailed, SicladderError)
from .fiducials import (SicFiducial, overlap_phases, sic_defect,
                        two_design_deviation, verify_sic)

SCHEMA_VERSION = 1
PASS_TOL = 1e-8


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


def _fiducial_from_body(body, label=""):
    v = _unpairs(body["vector"])
    if abs(np.linalg.norm(v) - 1) > 1e-12:
        raise SicladderError("stored vector is not normalized to 1e-12")
    d = int(body["dimension"])
    if len(v) != d:
        raise SicladderError(f"dimension field {d} does not match vector length {len(v)}")
    f = SicFiducial(d=d, vector=v, label=label)
    sym = body.get("symmetry")
    if sym is not None:
        f.symmetry = np.array(sym["matrix"], dtype=int)
        if sym.get("eigenvalue") is not None:
            f.symmetry_eigenvalue = complex(float(sym["eigenvalue"][0]),
                                            float(sym["eigenvalue"][1]))
    return f


def load_artifact(path):
    """Parsed body plus, for fiducial files, the reconstructed fiducial.

    Fails closed: an unknown schema_version or a non-finite entry in any
    stored vector raises SicladderError.
    """
    with open(path) as fh:
        body = json.load(fh)
    if not isinstance(body, dict):
        raise SicladderError("artifact is not a JSON object")
    version = body.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SicladderError(
            f"unknown schema_version {version!r} (this version reads {SCHEMA_VERSION})")
    kind = body.get("kind", "fiducial")
    f = None
    if kind == "fiducial":
        f = _fiducial_from_body(body, label=os.path.basename(path))
    if body.get("source") is not None:
        _unpairs(body["source"]["vector"], what="source vector")
    for bi, b in enumerate(body.get("branches", [])):
        for si, sol in enumerate(b["solutions"]):
            _unpairs(sol["vector"], what=f"branch {bi} solution {si} vector")
    return kind, body, f


def climb_report_payload(outcome, source):
    branches = []
    for b in outcome.branches:
        sols = []
        for res, psi, cert in zip(b.results, b.vectors, b.certificates):
            sols.append({
                "params": [_fmt(x) for x in res.params],
                "defect": _fmt(res.defect_full),
                "vector": _pairs(psi),
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
            "outcome": "solutions" if sols else
                ("empty branch" if b.feasible else "not searched"),
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
    # canonical reproduction source per dimension: at 5, the eigenspace
    # holds two mirror classes and the one matching the frozen climb phase
    # is pinned; at 7 the fiducial is real so conjugate pairing works later
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
        print(f"error: {args.input} is not a fiducial file", file=sys.stderr)
        return 1
    if not verify_sic(f, tol=PASS_TOL):
        print("error: input does not verify as a SIC fiducial", file=sys.stderr)
        return 1
    cfg = optimizer.SearchConfig(restarts=args.restarts, seed=args.seed,
                                 max_iters=args.max_iters)
    out = optimizer.climb(f, sector=args.sector,
                          all_generators=args.try_both_generators,
                          conjugate=args.conjugate_pairing, cfg=cfg)

    save_json(args.out, climb_report_payload(out, f))
    stem = args.out[:-5] if args.out.endswith(".json") else args.out
    n = 0
    for b in out.branches:
        tag = f"generator {b.generator.ravel().tolist()} target {b.target_exponent}"
        if not b.feasible:
            print(f"{tag}: {b.error or 'not searched'}")
            continue
        if not b.results:
            print(f"{tag}: empty branch" + (f" ({b.error})" if b.error else ""))
            continue
        print(f"{tag}: {len(b.results)} solution(s)")
        for res, psi in zip(b.results, b.vectors):
            sol = optimizer.promote_solution(psi, f.d * (f.d - 2),
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


def _ladder_dim_of(N):
    # N = d(d-2) has the integer solution d = 1 + sqrt(N+1) when it exists
    r = int(round(np.sqrt(N + 1)))
    return 1 + r if r * r == N + 1 and r > 1 else None


def _design_row(f):
    if f.d <= 40:
        return "design", two_design_deviation(f)
    # operator route needs d^2 x d^2 matrices; above that use the orbit
    # frame potential, which must equal 2d/(d+1) summed over one index
    t = overlap_phases(f)
    m = np.abs(t.phases) ** 2 / (f.d + 1)
    m.flat[0] = 1.0
    pot = float(np.sum(m ** 2))
    return "design(potential)", abs(pot - 2.0 * f.d / (f.d + 1))


def _verify_one(f, body, levels, prefix=""):
    """Certificate rows (name, error, passed) for one stored vector."""
    rows = []
    if "sic" in levels:
        rows.append((prefix + "sic", overlap_phases(f).defect))
    if "design" in levels:
        name, err = _design_row(f)
        rows.append((prefix + name, err))
    if "alignment" in levels:
        src = body.get("source")
        if src is None:
            if "alignment" in levels.explicit:
                raise SicladderError(
                    "alignment verification needs a file with an embedded source")
        else:
            sf = SicFiducial(d=int(src["dimension"]), vector=_unpairs(src["vector"]))
            cert = ladder.verify_alignment(f.vector, overlap_phases(sf), tol=PASS_TOL)
            err = max(cert.max_err_unit_condition, cert.max_err_phase_condition)
            rows.append((prefix + "alignment", err))
            if cert.matrix_M is not None:
                print(f"{prefix}alignment reindexing M = "
                      f"{[[int(x) for x in row] for row in cert.matrix_M]}")
    if "etf" in levels:
        d = _ladder_dim_of(f.d)
        if d is None:
            if "etf" in levels.explicit:
                raise SicladderError(
                    f"dimension {f.d} is not of the laddered form d(d-2)")
        else:
            try:
                frame, rank = ladder.embedded_etf(f.vector, d, tol=PASS_TOL)
                _, coords = frames.restrict_to_span(frame.generator)
                cert = frames.check_tight(coords, tol=PASS_TOL)
                expect = d * (d - 1) // 2
                rows.append((prefix + "etf-rank", float(abs(rank - expect))))
                overlap_err = abs(cert.common_overlap_sq - 1.0 / (d - 1) ** 2)
                rows.append((prefix + "etf-frame",
                             max(cert.max_deviation, overlap_err)))
            except AlignmentRequired:
                rows.append((prefix + "etf-frame", np.inf))
    return rows


class _Levels(set):
    """Requested check names; `explicit` holds the ones the user asked for
    by name (an inapplicable explicit level is an error, a skipped one under
    --level all is not)."""
    explicit = frozenset()


def cmd_verify(args):
    kind, body, f = load_artifact(args.input)
    levels = _Levels(("sic", "design", "alignment", "etf")
                     if args.level == "all" else (args.level,))
    levels.explicit = frozenset() if args.level == "all" else frozenset((args.level,))

    rows = []
    if kind == "fiducial":
        rows += _verify_one(f, body, levels)
    elif kind == "climb-report":
        src = body["source"]
        sf = SicFiducial(d=int(src["dimension"]), vector=_unpairs(src["vector"]))
        for bi, b in enumerate(body["branches"]):
            for si, sol in enumerate(b["solutions"]):
                v = _unpairs(sol["vector"])
                sub = SicFiducial(d=int(body["target_dimension"]), vector=v)
                sub_body = {"source": {"dimension": src["dimension"],
                                       "vector": src["vector"]}}
                rows += _verify_one(sub, sub_body, levels,
                                    prefix=f"branch{bi}-sic{si}:")
    else:
        print(f"error: unknown artifact kind {kind!r}", file=sys.stderr)
        return 1

    if not rows:
        print("nothing to check for this artifact", file=sys.stderr)
        return 1
    ok = True
    width = max(len(name) for name, _ in rows)
    for name, err in rows:
        passed = err <= PASS_TOL
        ok = ok and passed
        print(f"{name:<{width}}  {err:12.3e}  {'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


def cmd_report_overlaps(args):
    kind, body, f = load_artifact(args.input)
    if kind != "fiducial":
        print(f"error: {args.input} is not a fiducial file", file=sys.stderr)
        return 1
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
    q.add_argument("--restarts", type=int, default=40)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_fiducial_find)

    q = sub.add_parser("climb", help="search the next ladder dimension from a SIC")
    q.add_argument("--input", required=True)
    q.add_argument("--sector", default="auto",
                   choices=("auto", "1", "w", "w2", "ω", "ω2", "ω²", "all"))
    q.add_argument("--try-both-generators", action="store_true",
                   help="sweep every order-3 generator choice, keeping empty branches")
    q.add_argument("--conjugate-pairing", action="store_true",
                   help="one-parameter conjugate family (needs three singleton blocks)")
    q.add_argument("--restarts", type=int, default=20)
    q.add_argument("--max-iters", type=int, default=None,
                   help="simplex iteration cap per restart (default 8000 when the"
                        " step has order-6 labels, 3000 otherwise)")
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
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except SicladderError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
