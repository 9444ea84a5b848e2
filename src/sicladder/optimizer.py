"""Search over proto families, with the frozen phase laws for the known
climbs and the branch-sweeping climb driver.

The defect of a unit vector is sum_{p != 0} (|<psi|D_p|psi>|^2 - 1/(N+1))^2
in its own dimension N. Along a one-parameter family it is a trigonometric
polynomial of low degree in the parameter, and minimize solves it in closed
form. Larger families get a seeded multistart Nelder-Mead, run by the
package's own _simplex with scipy 1.17's arithmetic. For a proto vector
the overlaps along the two factor subgroups hold identically (the
alignment conditions), so that search objective may drop them and,
optionally, keep only a fixed sample of the remaining terms (term_budget);
the full defect is always recomputed for reporting.
"""
import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import ladder
from .clifford import canonical_order3, order3_elements
from .errors import BadPairing, NotASic, SicladderError
from .fiducials import (SicFiducial, detect_order3_symmetry, find_fiducial,
                        overlap_phases, sector_fiducials, sic_defect, verify_sic)
from .heisenberg import displaced_vector


@dataclass
class SearchConfig:
    """Multistart search settings. max_iters and term_budget left at None
    take the defaults of the family's label order (ROUTE_DEFAULTS).

    One-parameter families are solved in closed form (minimize), which
    reads target_defect alone: restarts, max_iters, seed and term_budget
    apply to the Nelder-Mead search of larger families only. That search
    is optimizer._simplex, which repeats scipy 1.17's Nelder-Mead bit for
    bit: max_iters caps its iterations and 2 * max_iters its evaluations."""
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
    """One solution of a family: its canonical params, their unit vector in
    global indexing and its full defect. The climb adds the vector's
    alignment certificate against the source's overlap table."""
    params: np.ndarray
    vector: np.ndarray
    defect_full: float
    iterations: int   # 0 from the closed-form solve
    seed_used: int    # restart index within the config's seed stream; 0 from the solve
    alignment: ladder.AlignmentCertificate = None


@functools.lru_cache(maxsize=16)
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
        return tuple(allowed)
    rng = np.random.default_rng([n1, n2, budget])
    pick = rng.choice(len(allowed), size=budget, replace=False)
    return tuple(allowed[k] for k in sorted(pick))


def _partial_defect(psi, terms, N):
    """The defect over the given tuple of index pairs: one stacked
    displacement, one np.vecdot over its rows and the tail on Python
    scalars. np.vecdot calls zdotc per row, so it matches np.vdot row by
    row bit for bit; stack @ conj(psi) is a zgemv and sums in another order."""
    tgt = 1.0 / (N + 1)
    tot = 0.0
    for ov in np.vecdot(psi, displaced_vector(psi, terms)).tolist():
        tot += (abs(ov) ** 2 - tgt) ** 2
    return tot


def _critical_points(family, N):
    """Every critical point of the defect along a one-parameter family, as
    (params, psi, defect) with the defect recomputed in full.

    psi(s) has the frequencies coefficient_plan[1].imag, so each overlap is
    a trigonometric polynomial of degree at most their span S and the defect
    one of degree K <= 4S. Its 2K + 1 equispaced samples (one build_proto
    call each) give its coefficients c_k by FFT; the critical points are the
    unit-modulus roots of z^K D'(z) = sum_k i k c_k z^(k+K), each polished
    by two Newton steps on D'. The interpolant only proposes candidates:
    every defect returned is sic_defect of the rebuilt vector.

    Coefficients at roundoff level are zeroed first: the true degree may be
    below K, and a roundoff-sized leading coefficient would put a root near
    infinity and cost the others their accuracy. The modulus window is wide
    enough for a root of multiplicity 4 split by roundoff; a root off the
    circle only adds a candidate that fails the defect check.
    """
    freq = family.coefficient_plan[1].imag
    K = 4 * int(round(freq.max() - freq.min()))
    M = 2 * K + 1
    c = np.fft.fft([sic_defect(ladder.build_proto(family, [2 * np.pi * m / M]), N)
                    for m in range(M)]) / M
    c[abs(c) <= 1e-12 * abs(c).max()] = 0
    k = np.r_[:K + 1, -K:0]    # the frequency of each FFT bin
    high = np.argsort(k)[::-1]
    z = np.roots(1j * k[high] * c[high])
    sigma = np.angle(z[abs(abs(z) - 1) <= 1e-3])
    for _ in range(2):
        e = np.exp(1j * np.outer(sigma, k))
        sigma = sigma - (e @ (1j * k * c)).real / (e @ (-k * k * c)).real
    out = []
    for s in sigma:
        params = ladder.canonical_params(family, [s])
        psi = ladder.build_proto(family, params)
        out.append((params, psi, sic_defect(psi, N)))
    return out


def minimize(family, cfg):
    """The family members that reach cfg.target_defect in full defect, as
    SearchResults deduplicated by ray equality and sorted by defect_full
    ascending.

    A one-parameter family is solved in closed form (_critical_points): the
    results are all its members at or below the target, with seed_used 0
    and iterations 0, so an empty list shows that none exists. restarts,
    max_iters, seed and term_budget do not apply there.
    Larger families get multistart Nelder-Mead: identical configs give
    identical outputs, and each restart draws its start from its own seeded
    stream.
    """
    N = family.d * (family.d - 2)
    if family.n_params == 1:
        raw = [SearchResult(params=params, vector=psi, defect_full=full,
                            iterations=0, seed_used=0)
               for params, psi, full in _critical_points(family, N)
               if full <= cfg.target_defect]
    else:
        raw = _nelder_mead(family, cfg, N)
    raw.sort(key=lambda r: r.defect_full)
    kept = []
    for res in raw:
        if not any(abs(np.vdot(res.vector, k.vector)) > 1 - 1e-8 for k in kept):
            kept.append(res)
    return kept


def _simplex(fun, x0, max_iters):
    """Nelder-Mead from x0 as (x, fun, nit, nfev), equal bit for bit to
    scipy 1.17's minimize(method="Nelder-Mead") with xatol=1e-13,
    fatol=1e-26, maxiter=max_iters and maxfev=2*max_iters.

    The same initial simplex, centroid, trial points and shrink; the
    vertices are ordered by np.argsort itself, whose order of tied values
    a stable sort does not reproduce (tests/test_optimizer.py). An
    evaluation past the cap ends the iteration where it stands, as
    scipy's does: the rest is skipped, nit is not advanced and the
    vertices are still sorted. fun gets each point without a copy, so it
    must not write to it. The values are kept as Python floats, sorted
    ascending, so the f-spread is fsim[-1] - fsim[0], tested before the
    x-spread.
    """
    max_fev = 2 * max_iters
    N = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + 0.05) * sim[0, k] if sim[0, k] != 0 else 0.00025
    # a vertex past the evaluation cap keeps the value inf
    fsim = [fun(x) for x in sim[:max_fev]] + [np.inf] * (N + 1 - max_fev)
    nfev = min(N + 1, max_fev)
    for _ in range(2):   # scipy sorts twice before the first iteration
        order = np.array(fsim).argsort()
        sim, fsim = sim[order], [fsim[i] for i in order.tolist()]
    nit = 1
    while nfev < max_fev and nit < max_iters:
        if fsim[-1] - fsim[0] <= 1e-26 and np.abs(sim[1:] - sim[0]).max() <= 1e-13:
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        fxr = fun(xr)
        nfev += 1
        complete = True
        if fsim[0] <= fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev == max_fev:
            complete = False
        elif fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = fun(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        else:
            inside = not fxr < fsim[-1]
            xc = 0.5 * xbar + 0.5 * sim[-1] if inside else 1.5 * xbar - 0.5 * sim[-1]
            fxc = fun(xc)
            nfev += 1
            if (fxc < fsim[-1]) if inside else (fxc <= fxr):
                sim[-1], fsim[-1] = xc, fxc
            else:   # shrink toward the best vertex, one vertex at a time
                shrunk = sim[0] + 0.5 * (sim[1:] - sim[0])
                for j in range(1, N + 1):
                    sim[j] = shrunk[j - 1]
                    if nfev == max_fev:
                        complete = False
                        break
                    fsim[j] = fun(sim[j])
                    nfev += 1
        nit += complete
        order = np.array(fsim).argsort()
        sim, fsim = sim[order], [fsim[i] for i in order.tolist()]
    return sim[0], np.min(fsim), nit, nfev


def _nelder_mead(family, cfg, N):
    """The SearchResults of the restarts that reached cfg.target_defect in
    full defect."""
    npar = family.n_params
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
        x, fun, nit, _ = _simplex(objective, x0, max_iters)
        if terms is not None and fun <= 1e-20:
            # the truncated objective shares its zero set with the full one
            # but leaves the dropped terms loose; polish apparent winners
            def full_objective(x):
                return sic_defect(ladder.build_proto(family, x), N)
            x2, fun2, nit2, _ = _simplex(full_objective, x, 4000)
            if fun2 < full_objective(x):
                x, nit = x2, nit2
        params = ladder.canonical_params(family, x)
        psi = ladder.build_proto(family, params)
        full = sic_defect(psi, N)
        if full <= cfg.target_defect:
            raw.append(SearchResult(params=params, vector=psi, defect_full=full,
                                    iterations=nit, seed_used=t))
    return raw


# ---------------------------------------------------------------------------
# frozen laws of the known climbs

PHASE_CONSTANT_5 = (-4 - 3j) / 5

# degree-8 minimal-polynomial coefficients for the 7 -> 35 climb, highest
# degree first; the polynomial is palindromic
POLY_COEFFS_35 = [4375, -35000, 19222300, 70190980, 102366979,
                  70190980, 19222300, -35000, 4375]


def check_known_phase_5(sigma):
    """Whether e^{3 i sigma} equals the frozen dimension-5 climb constant,
    within 1e-8.

    Also reports which of the three solution branches sigma sits on:
    e^{i sigma} over the principal cube root of the constant, snapped to a
    cube root of unity.
    """
    e3 = np.exp(3j * sigma)
    ok = bool(abs(e3 - PHASE_CONSTANT_5) <= 1e-8)
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


# ---------------------------------------------------------------------------
# climb driver


@dataclass
class BranchOutcome:
    generator: np.ndarray
    target_exponent: int = None
    feasible: bool = False
    n_params: int = None
    results: list = field(default_factory=list)    # SearchResult, alignment set
    error: str = ""

    @property
    def outcome(self):
        """solutions; or, with none, empty branch (one parameter, solved exactly),
        budget exhausted (searched) or not searched (no family built)."""
        if self.results:
            return "solutions"
        if self.n_params is None:
            return "not searched"
        return "empty branch" if self.n_params == 1 else "budget exhausted"


@dataclass
class ClimbOutcome:
    source: SicFiducial
    sector: str
    branches: list
    elapsed_s: float = 0.0

    @property
    def solutions(self):
        """(result, vector) of every solution, in branch order."""
        return [(r, r.vector) for b in self.branches for r in b.results]


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
    every exponent and also disables the early stop. The names "w"/"w2"
    are third roots and raise SicladderError on order-6 labels. A source
    without a symmetry is climbed, and returned as the outcome's source, as
    a copy carrying its detected order-3 one; the caller's is not changed.
    """
    refine = not (all_generators or conjugate)
    involutions = ladder.refining_involutions(source) if refine else None
    return _climb(source, sector, all_generators, conjugate, cfg, involutions)


def climb_refined(source, cfg=None):
    """climb on the refined route, raising when it cannot be built.

    Kept as a name of its own because perfbench's worker calls it.
    """
    involutions = ladder.refining_involutions(source)
    if involutions is None:
        raise SicladderError("the refined step needs -1 a square mod d-2 and a "
                             "scalar involution symmetry of the source")
    return _climb(source, "auto", False, False, cfg, involutions)


def _climb(source, sector, all_generators, conjugate, cfg, involutions):
    named = isinstance(sector, str) and sector in SECTOR_NAMES
    if involutions is not None and named and SECTOR_NAMES[sector] != 0:
        raise SicladderError(
            f"sector {sector!r} names a third root of unity, and this step's "
            "labels are sixth-root exponents")
    if cfg is None:
        cfg = SearchConfig()
    t0 = time.time()
    d = source.d
    n1 = d - 2
    if source.symmetry is None:
        det = detect_order3_symmetry(source)
        if det is None:
            raise SicladderError("no order-3 symmetry detected on the source")
        source = replace(source, symmetry=det[0], symmetry_eigenvalue=det[1])
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
        elif named:
            targets = [SECTOR_NAMES[sector]]
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
            br.results = minimize(fam, cfg)
            for res in br.results:
                res.alignment = ladder.verify_alignment(res.vector, theta)
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


def select_source_by_phase(seed=0):
    """The canonical dimension-5 climb source.

    The relevant eigenspace holds exactly four fiducials (a count proven in
    tests/test_fiducials.py::TestSectorCount); two of them give the frozen
    phase constant in the one-parameter climb and two give its conjugate
    (the families are mirror images). Enumerate the sector from the seed,
    which stops at the fourth ray (sector_fiducials), and return the first
    fiducial whose climb lands on the frozen constant.
    The climbs are closed-form solves (minimize).
    """
    for f in sector_fiducials(seed):
        out = climb(f)
        for res, _ in out.solutions:
            if check_known_phase_5(res.params[0])[0]:
                return f
    raise SicladderError("no sector fiducial matches the frozen phase constant")


def default_source(d, seed=0, restarts=40):
    """Default climb source per dimension: the canonical phase class at d=5
    (select_source_by_phase), else the first fiducial of the per-dimension
    search recipe (find_fiducial, fiducials.default_symmetry)."""
    if d == 5:
        return select_source_by_phase(seed=seed)
    return find_fiducial(d, restarts=restarts, seed=seed)
