"""Seeded derivative-free search over proto families, with the frozen
phase laws for the known climbs and the branch-sweeping climb driver.

The defect of a unit vector is sum_{p != 0} (|<psi|D_p|psi>|^2 - 1/(N+1))^2
in its own dimension N. For a proto vector the overlaps along the two
factor subgroups hold identically (the alignment conditions), so the
search objective may drop them and, optionally, keep only a fixed sample
of the remaining terms (term_budget); the full defect is always recomputed
for reporting.
"""
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from . import ladder
from .clifford import canonical_order3, order3_elements
from .errors import BadPairing, NotASic, SicladderError, WrongCount
from .fiducials import (SicFiducial, default_symmetry, detect_order3_symmetry,
                        find_fiducial, overlap_phases, sector_fiducials,
                        sic_defect, verify_sic)
from .heisenberg import crt_index, displaced_vector
from .linalg import phase_fix_columns


@dataclass
class SearchConfig:
    """Multistart search settings. max_iters and term_budget left at None
    take the defaults of the family's label order (ROUTE_DEFAULTS)."""
    restarts: int = 20
    max_iters: int = None
    target_defect: float = 1e-16
    seed: int = 0
    term_budget: int = None


# label order -> (max_iters, term_budget); a term_budget of None searches the
# full defect. The refined objective is truncated and cheap per step, but its
# basin is narrow: converging restarts need the longer leash.
ROUTE_DEFAULTS = {3: (3000, None), 6: (8000, 9)}


@dataclass
class SearchResult:
    params: np.ndarray
    defect_partial: float
    defect_full: float
    iterations: int
    seed_used: int    # restart index within the config's seed stream


def _residual_terms(n1, n2, budget):
    """A spread of `budget` index pairs outside the two factor subgroups.

    Pairs are drawn without replacement from a stream seeded by the problem
    shape alone, so the same truncation is used on every run. A lexicographic
    prefix would sit entirely in the i = 0 row, whose displacements are
    diagonal and see only the vector's moduli; sampling keeps the truncated
    system generically full rank.
    """
    N = n1 * n2
    allowed = [(i, j) for i in range(N) for j in range(N)
               if not (i == 0 and j == 0)
               and not (i % n1 == 0 and j % n1 == 0)
               and not (i % n2 == 0 and j % n2 == 0)]
    if budget >= len(allowed):
        return allowed
    rng = np.random.default_rng([n1, n2, budget])
    pick = rng.choice(len(allowed), size=budget, replace=False)
    return [allowed[k] for k in sorted(pick)]


def _partial_defect(psi, terms, N):
    tgt = 1.0 / (N + 1)
    tot = 0.0
    for i, j in terms:
        ov = np.vdot(psi, displaced_vector(psi, i, j))
        tot += (abs(ov) ** 2 - tgt) ** 2
    return tot


def _canonicalize(params, kinds):
    """Wrap phases mod 2pi and reflect polar angles into [0, pi].

    The reflection theta -> 2pi - theta leaves the SU(2) block unchanged
    when the diagonal phase advances by pi, so the represented vector is
    exactly preserved.
    """
    p = np.array(params, dtype=float) % (2 * np.pi)
    for k, kind in enumerate(kinds):
        if kind == "polar" and p[k] > np.pi:
            p[k] = 2 * np.pi - p[k]
            p[k + 1] = (p[k + 1] + np.pi) % (2 * np.pi)
    return p


def minimize(family, cfg):
    """Multistart Nelder-Mead over the family parameters.

    Results are the restarts that reached cfg.target_defect in full defect,
    deduplicated by ray equality and sorted by defect_full ascending.
    Identical configs give identical outputs; each restart draws its start
    from its own seeded stream.
    """
    npar = family.n_params
    N = family.d * (family.d - 2)
    kinds = family.param_kinds
    max_iters, budget = ROUTE_DEFAULTS[family.f_basis.order]
    if cfg.max_iters is not None:
        max_iters = cfg.max_iters
    if cfg.term_budget is not None:
        budget = cfg.term_budget
    terms = None if budget is None else _residual_terms(family.d - 2, family.d, budget)

    def objective(x):
        psi = ladder.build_proto(family, x)
        if terms is None:
            return sic_defect(psi, N)
        return _partial_defect(psi, terms, N)

    raw = []
    for t in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, t])
        x0 = rng.uniform(0, 2 * np.pi, size=npar)
        opts = dict(xatol=1e-13, fatol=1e-26, maxiter=max_iters,
                    maxfev=2 * max_iters)
        r = _scipy_minimize(objective, x0, method="Nelder-Mead", options=opts)
        if terms is not None and r.fun <= 1e-20:
            # the truncated objective shares its zero set with the full one
            # but leaves the dropped terms loose; polish apparent winners
            def full_objective(x):
                return sic_defect(ladder.build_proto(family, x), N)
            r2 = _scipy_minimize(full_objective, r.x, method="Nelder-Mead",
                                 options=dict(xatol=1e-13, fatol=1e-26,
                                              maxiter=4000, maxfev=8000))
            if r2.fun < full_objective(r.x):
                r = r2
        params = _canonicalize(r.x, kinds)
        psi = ladder.build_proto(family, params)
        full = sic_defect(psi, N)
        part = full if terms is None else _partial_defect(psi, terms, N)
        if full <= cfg.target_defect:
            raw.append((SearchResult(params=params, defect_partial=part,
                                     defect_full=full, iterations=int(r.nit),
                                     seed_used=t), psi))
    raw.sort(key=lambda z: z[0].defect_full)
    kept = []
    for res, psi in raw:
        if not any(abs(np.vdot(psi, q)) > 1 - 1e-8 for _, q in kept):
            kept.append((res, psi))
    return [res for res, _ in kept]


# ---------------------------------------------------------------------------
# frozen laws of the known climbs

PHASE_CONSTANT_5 = (-4 - 3j) / 5

# degree-8 minimal-polynomial coefficients for the 7 -> 35 climb, highest
# degree first; the polynomial is palindromic
POLY_COEFFS_35 = [4375, -35000, 19222300, 70190980, 102366979,
                  70190980, 19222300, -35000, 4375]

# mixing angle of the two-dimensional block in the 15 -> 195 solution
COS_HALF_ANGLE_195 = 3 / np.sqrt(13)


def check_known_phase_5(sigma, tol=1e-8):
    """Whether e^{3 i sigma} equals the frozen dimension-5 climb constant.

    Also reports which of the three solution branches sigma sits on:
    e^{i sigma} over the principal cube root of the constant, snapped to a
    cube root of unity.
    """
    e3 = np.exp(3j * sigma)
    ok = bool(abs(e3 - PHASE_CONSTANT_5) <= tol)
    root = PHASE_CONSTANT_5 ** (1 / 3)
    ratio = np.exp(1j * sigma) / root
    n = int(np.round(np.angle(ratio) * 3 / (2 * np.pi))) % 3
    return ok, n


def check_known_polynomial_35(sigma, tol=1e-6):
    """Whether t = e^{6 i sigma} is a root of the frozen degree-8 polynomial,
    to within tol * ||coefficients||."""
    t = np.exp(6j * sigma)
    value = sum(c * t ** (8 - k) for k, c in enumerate(POLY_COEFFS_35))
    return bool(abs(value) <= tol * float(np.linalg.norm(POLY_COEFFS_35)))


def equator_geometry_check(solutions, d):
    """The three solutions sit equidistantly and are permuted by an order-3
    symmetry of the small factor.

    True iff all pairwise Fubini-Study distances agree within 1e-8 and some
    order-3 small-side symplectic, acting as U (x) 1 in global indexing,
    cyclically permutes the three rays within 1e-8.
    """
    if len(solutions) != 3:
        raise WrongCount(f"expected 3 solutions, got {len(solutions)}")
    sols = [np.asarray(s, dtype=complex) for s in solutions]
    n1 = d - 2
    dists = []
    for a in range(3):
        for b in range(a + 1, 3):
            dists.append(np.arccos(min(1.0, abs(np.vdot(sols[a], sols[b])))))
    if max(dists) - min(dists) > 1e-8:
        return False
    g = crt_index(n1, d)
    from .clifford import symplectic_unitary
    for F in order3_elements(n1):
        # V^T (U_F (x) 1) V, by index
        U = np.kron(symplectic_unitary(F, n1), np.eye(d))[np.ix_(g, g)]
        perm = []
        for s in sols:
            img = U @ s
            match = [j for j, q in enumerate(sols)
                     if abs(np.vdot(q, img)) > 1 - 1e-8]
            if len(match) != 1:
                perm = None
                break
            perm.append(match[0])
        if perm is not None and sorted(perm) == [0, 1, 2] and perm != [0, 1, 2]:
            return True
    return False


# ---------------------------------------------------------------------------
# climb driver


@dataclass
class BranchOutcome:
    generator: np.ndarray
    target_exponent: int = None
    feasible: bool = False
    n_params: int = None
    results: list = field(default_factory=list)    # SearchResult
    vectors: list = field(default_factory=list)    # global unit vectors
    certificates: list = field(default_factory=list)
    error: str = ""


@dataclass
class ClimbOutcome:
    source: SicFiducial
    sector: str
    branches: list
    elapsed_s: float = 0.0

    @property
    def solutions(self):
        out = []
        for b in self.branches:
            out.extend(zip(b.results, b.vectors))
        return out


SECTOR_NAMES = {"1": 0, "w": 1, "w2": 2, "ω": 1, "ω2": 2, "ω²": 2}


def climb(source, sector="auto", all_generators=False, conjugate=False, cfg=None):
    """Sweep ladder branches from a source SIC and search each family.

    Branches are (small-side order-3 generator, target exponent) pairs.
    Labels are order-6 when ladder.refining_involutions says the refined
    step can be built, and order-3 otherwise; all_generators and conjugate
    always use order-3 labels. Default: the two generators of the canonical
    small-side subgroup, each over its feasible targets, stopping at the
    first branch with solutions. all_generators: every order-3 element of
    the small modular group, no early stop (the empty-branch census).
    sector: "auto" tries feasible targets ascending; "1"/"w"/"w2" or an
    integer (taken mod the label order) force one exponent; "all" forces
    every exponent and also disables the early stop. A source without a
    symmetry gets its detected order-3 one.
    """
    refine = not (all_generators or conjugate)
    involutions = ladder.refining_involutions(source) if refine else None
    return _climb(source, sector, all_generators, conjugate, cfg, involutions)


def climb_refined(source, sector="auto", cfg=None):
    """climb on the refined route, raising when it cannot be built.

    Kept as a name of its own because perfbench's worker calls it.
    """
    involutions = ladder.refining_involutions(source)
    if involutions is None:
        raise SicladderError("the refined step needs -1 a square mod d-2 and a "
                             "scalar involution symmetry of the source")
    return _climb(source, sector, False, False, cfg, involutions)


def _climb(source, sector, all_generators, conjugate, cfg, involutions):
    if cfg is None:
        cfg = SearchConfig()
    t0 = time.time()
    d = source.d
    n1 = d - 2
    if source.symmetry is None:
        det = detect_order3_symmetry(source)
        if det is None:
            raise SicladderError("no order-3 symmetry detected on the source")
        source.symmetry, source.symmetry_eigenvalue = det
    theta = overlap_phases(source)
    P = ladder.generalized_parity(source)
    if all_generators:
        gens = order3_elements(n1)
    else:
        G = canonical_order3(n1)
        gens = [G, (G @ G) % n1]
    sweep_all = all_generators or sector == "all"

    branches = []
    done = False
    for F in gens:
        if done:
            break
        e_basis, f_basis = ladder.paired_bases(source, F, P, involutions)
        feas = ladder.feasible_targets(f_basis, e_basis)
        if sector == "auto":
            targets = feas
        elif sector == "all":
            targets = list(range(f_basis.order))
        elif str(sector) in SECTOR_NAMES:
            targets = [SECTOR_NAMES[str(sector)]]
        else:
            targets = [int(sector) % f_basis.order]
        for t in targets:
            br = BranchOutcome(generator=np.array(F) % n1, target_exponent=t)
            branches.append(br)
            if t not in feas:
                br.error = "infeasible target: no label pairing"
                continue
            br.feasible = True
            try:
                fam = ladder.make_proto_family(source, e_basis, f_basis, t,
                                               conjugate=conjugate)
            except BadPairing as ex:
                br.error = str(ex)
                continue
            br.n_params = fam.n_params
            results = minimize(fam, cfg)
            for res in results:
                psi = ladder.build_proto(fam, res.params)
                br.results.append(res)
                br.vectors.append(psi)
                br.certificates.append(ladder.verify_alignment(psi, theta))
            if br.results and not sweep_all:
                done = True
                break
    return ClimbOutcome(source=source, sector=str(sector), branches=branches,
                        elapsed_s=time.time() - t0)


def promote_solution(psi, d, label=""):
    """Wrap a climb solution vector as a fiducial with detected symmetry."""
    f = SicFiducial(d=d, vector=np.asarray(psi, dtype=complex), label=label)
    if not verify_sic(f, tol=1e-8):
        raise NotASic("solution vector does not verify as a SIC fiducial")
    det = detect_order3_symmetry(f)
    if det is not None:
        f.symmetry, f.symmetry_eigenvalue = det
    return f


def select_source_by_phase(seed=0, tries=60, restarts=8):
    """The canonical dimension-5 climb source.

    The relevant eigenspace holds four fiducials; two of them give the
    frozen phase constant in the one-parameter climb and two give its
    conjugate (the families are mirror images). Enumerate the sector
    deterministically and return the first fiducial whose climb lands on
    the frozen constant.
    """
    zauner, eigenvalue = default_symmetry(5)
    cands = sector_fiducials(5, zauner, eigenvalue, tries=tries, seed=seed)
    # small iteration cap: the one-parameter family converges in ~50 steps,
    # and restarts stuck on flat local minima should not burn the budget
    cfg = SearchConfig(restarts=restarts, max_iters=2000, seed=seed)
    for f in cands:
        out = climb(f, cfg=cfg)
        for res, _ in out.solutions:
            if check_known_phase_5(res.params[0])[0]:
                return f
    raise SicladderError("no sector fiducial matches the frozen phase constant")


def default_source(d, seed=0, restarts=40):
    """Default climb source per dimension: the canonical phase class at
    d=5, a real fiducial at d=7 (enables conjugate pairing), the
    eigenvalue-1 fiducial of the standard symmetry at d=9."""
    if d == 5:
        return select_source_by_phase(seed=seed)
    if d == 7:
        zauner, eigenvalue = default_symmetry(7)
        return find_fiducial(7, zauner, eigenvalue, restarts=restarts, seed=seed,
                             real_coeffs=True)
    if d == 9:
        zauner, eigenvalue = default_symmetry(9)
        return find_fiducial(9, zauner, eigenvalue, restarts=restarts, seed=seed)
    raise SicladderError(f"no default source recipe for dimension {d}")
