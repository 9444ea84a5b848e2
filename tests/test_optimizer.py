"""Search behavior and the frozen phase laws of the known climbs."""
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import rosen

from sicladder import cli
from sicladder import fiducials as fid
from sicladder import ladder as lad
from sicladder import optimizer as opt
from sicladder.clifford import canonical_order3, order3_elements
from sicladder.errors import SicladderError

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


class TestResidualTerms:
    def test_exclusions(self):
        for i, j in opt._residual_terms(3, 5, 9):
            assert (i, j) != (0, 0)
            assert not (i % 3 == 0 and j % 3 == 0)
            assert not (i % 5 == 0 and j % 5 == 0)

    def test_budget_and_determinism(self):
        a = opt._residual_terms(3, 5, 9)
        assert len(a) == 9
        assert a == opt._residual_terms(3, 5, 9)

    def test_not_confined_to_diagonal_row(self):
        # all-row-zero truncations see only moduli; the sample must spread
        rows = {i for i, _ in opt._residual_terms(3, 5, 9)}
        assert len(rows) > 1

    def test_full_census_when_budget_large(self):
        assert len(opt._residual_terms(3, 5, 10 ** 6)) == 192


# two parameters, so Nelder-Mead; term_budget=2 keeps the search short
NM35 = opt.SearchConfig(restarts=12, max_iters=2000, seed=3, term_budget=2)


@pytest.fixture(scope="module")
def sols35(fam35):
    return opt.minimize(fam35, NM35)


def _same_as_scipy(fun, x0, max_iters):
    """Run optimizer._simplex and scipy's Nelder-Mead with the options it
    reproduces from x0, assert that they evaluate the same points and
    return the same (x, fun, nit, nfev) bits, and return scipy's result
    and the number of evaluations in each of its iterations."""
    points = ([], [])

    def recording(k):
        def f(x):
            points[k].append(x.tobytes())
            return fun(x)
        return f
    ours = opt._simplex(recording(0), np.array(x0, dtype=float), max_iters)
    counted, per_iteration = [min(len(x0) + 1, 2 * max_iters)], []

    def callback(intermediate_result):
        per_iteration.append(len(points[1]) - counted[0])
        counted[0] = len(points[1])
    r = scipy_minimize(recording(1), x0, method="Nelder-Mead", callback=callback,
                       options=dict(xatol=1e-13, fatol=1e-26, maxiter=max_iters,
                                    maxfev=2 * max_iters))
    assert points[0] == points[1]
    x, f, nit, nfev = ours
    assert (x.tobytes(), np.float64(f).tobytes(), nit, nfev) == \
        (r.x.tobytes(), np.float64(r.fun).tobytes(), r.nit, r.nfev)
    return r, per_iteration


class TestSimplex:
    """optimizer._simplex against scipy 1.17's Nelder-Mead, bit for bit."""

    def test_the_four_restarts_of_the_63_branch(self, f9):
        # the branch criterion 7 solves, from the starts of the rung63
        # benchmark: restarts 0 and 3 converge, and restart 2 wanders at
        # defect 0.4608 to the evaluation cap
        P = lad.generalized_parity(f9)
        e_b, f_b = lad.paired_bases(f9, canonical_order3(7), P)
        fam = lad.make_proto_family(f9, e_b, f_b, lad.feasible_targets(f_b, e_b)[0])
        runs = []
        for t in range(4):
            x0 = np.random.default_rng([11, t]).uniform(0, 2 * np.pi, fam.n_params)
            values = {}

            def objective(x):
                values[x.tobytes()] = fid.sic_defect(lad.build_proto(fam, x), 63)
                return values[x.tobytes()]
            r, _ = _same_as_scipy(objective, x0, 4000)
            runs.append((r.nit, r.nfev))
            if t == 2:
                # distinct points whose defects tie to the last bit; tied
                # vertices go in np.argsort's order, which a stable sort
                # does not repeat (it leaves scipy's path in this restart)
                ties = [f for f in values.values() if f == r.fun]
                assert len(ties) > 1 and 0.4608 < r.fun < 0.4609
        assert runs == [(476, 799), (399, 689), (1393, 8000), (777, 1293)]

    def test_the_refined_195_objective(self, f15):
        P = lad.generalized_parity(f15)
        e_b, f_b = lad.paired_bases(f15, canonical_order3(13), P,
                                    lad.refining_involutions(f15))
        fam = lad.make_proto_family(f15, e_b, f_b, 0)
        terms = opt._residual_terms(13, 15, 9)
        x0 = np.random.default_rng([2, 0]).uniform(0, 2 * np.pi, fam.n_params)
        r, _ = _same_as_scipy(
            lambda x: opt._partial_defect(lad.build_proto(fam, x), terms, 195), x0, 300)
        assert r.nit == 300 and r.nfev > 300

    def test_rosen_through_shrinks_and_every_early_cap(self):
        # from this start the 4-d simplex collapses and shrinks hundreds of
        # times; the caps 1 .. 79 end runs in the initial simplex, in
        # mid-iteration (nit not advanced) and in mid-shrink
        x0 = [-1.0, 1.1, 0.8, -1.5]
        ends = set()
        for max_iters in [3000] + list(range(1, 80)):
            r, per_iteration = _same_as_scipy(rosen, x0, max_iters)
            if max_iters == 3000:
                assert sum(n > 2 for n in per_iteration) > 100
            if r.nfev < 5:
                ends.add("initial simplex")
            elif len(per_iteration) == r.nit:
                ends.add("mid-shrink" if per_iteration[-1] > 2 else "mid-iteration")
        assert ends == {"initial simplex", "mid-iteration", "mid-shrink"}

    def test_rosen_to_convergence_from_a_zero_coordinate(self):
        # the zero coordinate takes the absolute initial step 0.00025, and
        # the run stops on the x- and f-spreads before either cap
        r, _ = _same_as_scipy(rosen, [0.0, 1.1, 0.8, -1.5], 3000)
        assert r.status == 0 and r.fun < 1e-20


class TestMinimize:
    def test_three_distinct_solutions(self, sols5):
        assert len(sols5) == 3
        sig = sorted(float(r.params[0]) % (2 * np.pi) for r in sols5)
        assert min(np.diff(sig)) > 1e-3

    def test_sorted_and_reproducible_defects(self, sols5, fam5_solving):
        fulls = [r.defect_full for r in sols5]
        assert fulls == sorted(fulls)
        for r in sols5:
            psi = lad.build_proto(fam5_solving, r.params)
            assert abs(fid.sic_defect(psi, 15) - r.defect_full) <= 1e-14

    def test_local_minimum_certificate(self, sols5, fam5_solving):
        for r in sols5:
            for delta in (-1e-6, 1e-6):
                probe = fid.sic_defect(
                    lad.build_proto(fam5_solving, r.params + delta), 15)
                assert r.defect_full <= probe

    def test_determinism(self, fam5_solving, sols5):
        again = opt.minimize(fam5_solving,
                             opt.SearchConfig(restarts=20, max_iters=2000, seed=0))
        assert len(again) == len(sols5)
        for a, b in zip(again, sols5):
            assert np.array_equal(a.params, b.params)
            assert a.defect_full == b.defect_full
            assert a.seed_used == b.seed_used

    def test_empty_branch_finds_nothing(self, fam5):
        # same source, canonical generator: the family exists but holds no SIC
        res = opt.minimize(fam5, opt.SearchConfig(restarts=12, max_iters=1500,
                                                  seed=0, target_defect=1e-10))
        assert res == []

    def test_term_budget_soundness(self, sols35, fam35):
        # the truncated Nelder-Mead objective, then the polish
        assert sols35
        for r in sols35:
            psi = lad.build_proto(fam35, r.params)
            assert abs(fid.sic_defect(psi, 35) - r.defect_full) <= 1e-14

    def test_each_result_carries_its_vector(self, sols5, fam5_solving, sols35, fam35):
        # closed form, then Nelder-Mead: the vector minimize deduplicated on
        # is the proto vector of the canonical params, bit for bit
        for sols, fam in ((sols5, fam5_solving), (sols35, fam35)):
            assert sols
            for r in sols:
                assert np.array_equal(r.vector, lad.build_proto(fam, r.params))

    def test_nelder_mead_determinism(self, sols35, fam35):
        again = opt.minimize(fam35, NM35)
        assert len(again) == len(sols35)
        for a, b in zip(again, sols35):
            assert np.array_equal(a.params, b.params)
            assert a.defect_full == b.defect_full
            assert a.seed_used == b.seed_used
            assert a.iterations == b.iterations

    def test_nelder_mead_local_minimum_certificate(self, sols35, fam35):
        for r in sols35:
            for i in range(fam35.n_params):
                for delta in (-1e-6, 1e-6):
                    p = r.params.copy()
                    p[i] += delta
                    probe = fid.sic_defect(lad.build_proto(fam35, p), 35)
                    assert r.defect_full <= probe


@pytest.fixture(scope="module")
def one_parameter_families(f5, fam35_conjugate):
    """(generator, family, N): every branch of the d = 5 census, then the
    conjugate 7 -> 35 family (generator None)."""
    P = lad.generalized_parity(f5)
    out = []
    for F in order3_elements(3):
        e_b, f_b = lad.paired_bases(f5, F, P)
        for t in lad.feasible_targets(f_b, e_b):
            out.append((tuple(F.ravel().tolist()), lad.make_proto_family(f5, e_b, f_b, t), 15))
    out.append((None, fam35_conjugate, 35))
    return out


def _sampled_defect(fam, N, M):
    return np.array([fid.sic_defect(lad.build_proto(fam, [2 * np.pi * m / M]), N)
                     for m in range(M)])


class TestClosedForm:
    """The one-parameter solve against oracles that share none of its steps:
    a finer FFT for the degree bound and a dense grid for the minimum."""

    def test_degree_bound_from_the_plan(self, one_parameter_families):
        for _, fam, N in one_parameter_families:
            freq = fam.coefficient_plan[1].imag
            K = 4 * int(round(freq.max() - freq.min()))
            assert K == (8 if fam.conjugate else 4)
            M = 4 * K + 1
            c = np.fft.fft(_sampled_defect(fam, N, M)) / M
            k = np.abs(np.fft.fftfreq(M, 1 / M))
            assert np.abs(c[k > K]).max() <= 1e-12 * np.abs(c).max()

    def test_no_grid_point_below_the_solved_minimum(self, one_parameter_families):
        for _, fam, N in one_parameter_families:
            low = min(full for _, _, full in opt._critical_points(fam, N))
            assert _sampled_defect(fam, N, 4096).min() >= low - 1e-12

    def test_census_minima(self, one_parameter_families):
        # four generators hold three zeros each; the other four are empty,
        # with a minimum defect of about 0.195 (a gap, not a budget run out)
        mins = {}
        for gen, fam, N in one_parameter_families:
            if gen is None:
                continue
            fulls = [full for _, _, full in opt._critical_points(fam, N)]
            mins[gen] = min(mins.get(gen, np.inf), min(fulls))
            if min(fulls) <= 1e-16:
                assert len(opt.minimize(fam, opt.SearchConfig())) == 3
        assert len(mins) == 8
        assert sorted(m >= 0.19 for m in mins.values()) == [False] * 4 + [True] * 4
        assert all(m <= 1e-16 or m >= 0.19 for m in mins.values())

    def test_rays_include_the_committed_source(self, climb15):
        # the chain 5 -> 15 -> 195: the committed d = 15 source, from which
        # criterion 10 climbs, is one of the climb's three rays
        _, _, f15 = cli.load_artifact(str(INPUTS / "f15.json"))
        assert len(climb15.solutions) == 3
        assert max(abs(np.vdot(f15.vector, v))
                   for _, v in climb15.solutions) >= 1 - 1e-12


class TestCanonicalize:
    def test_polar_reflection_preserves_vector(self, f9):
        P = lad.generalized_parity(f9)
        e_b, f_b = lad.paired_bases(f9, canonical_order3(7), P)
        fam = lad.make_proto_family(f9, e_b, f_b, 0)
        # one SU(2) angle, first, then four phases
        assert fam.n_params == 5 and fam.coefficient_plan[2].tolist() == [0]
        raw = np.array([4.0, 0.3, 5.1, 1.0, 2.0])
        canon = lad.canonical_params(fam, raw)
        assert 0 <= canon[0] <= np.pi
        assert np.all((canon >= 0) & (canon < 2 * np.pi))
        a = lad.build_proto(fam, raw)
        b = lad.build_proto(fam, canon)
        assert np.abs(a - b).max() < 1e-12

    def test_pure_phase_wrap(self, fam35):
        assert fam35.n_params == 2 and fam35.coefficient_plan[2].size == 0
        canon = lad.canonical_params(fam35, [7.0, -1.0])
        assert np.allclose(canon, [7.0 - 2 * np.pi, 2 * np.pi - 1.0])


class TestPhaseLaw5:
    def test_solutions_hit_constant_on_all_branches(self, sols5):
        assert abs(opt.PHASE_CONSTANT_5 - (-0.8 - 0.6j)) < 1e-15
        seen = set()
        for r in sols5:
            ok, n = opt.check_known_phase_5(r.params[0])
            assert ok
            seen.add(n)
        assert seen == {0, 1, 2}

    def test_zero_is_not_a_solution(self):
        ok, _ = opt.check_known_phase_5(0.0)
        assert not ok


class TestClimb35:
    def test_single_conjugate_branch_with_three_solutions(self, climb35):
        assert len(climb35.branches) == 1
        br = climb35.branches[0]
        assert br.feasible and br.n_params == 1
        assert len(br.results) == 3
        for r in br.results:
            assert r.defect_full <= 1e-12

    def test_solutions_mutually_orthogonal(self, climb35):
        vecs = [v for _, v in climb35.solutions]
        assert len(vecs) == 3
        for a in range(3):
            for b in range(a + 1, 3):
                assert abs(np.vdot(vecs[a], vecs[b])) < 1e-12

    def test_polynomial_law_and_conjugate_roots(self, climb35):
        for r, _ in climb35.solutions:
            assert opt.check_known_polynomial_35(r.params[0])
            assert opt.check_known_polynomial_35(-r.params[0])

    def test_zero_is_not_a_root(self):
        assert not opt.check_known_polynomial_35(0.0)

    def test_next_rung_source_is_not_refinable(self, climb35):
        # the scalar symmetry is there, but -1 is not a square mod 33
        f35 = opt.promote_solution(climb35.solutions[0][1], 35)
        assert fid.detect_scalar_symmetry(f35).tolist() == [[29, 0], [0, 29]]
        assert lad.refining_involutions(f35) is None

    def test_next_rung_climb_fails_for_the_block_size(self, climb35, tmp_path,
                                                      capsys):
        f35 = opt.promote_solution(climb35.solutions[0][1], 35)
        src = tmp_path / "f35.json"
        cli.save_json(str(src), cli.fiducial_payload(f35))
        rc = cli.main(["climb", "--input", str(src), "--restarts", "1",
                       "--out", str(tmp_path / "c35.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "square root" not in err and "blocks of size 6" in err

    def test_alignment_certificates_recorded(self, climb35):
        br = climb35.branches[0]
        assert len(br.results) == 3
        assert all(r.alignment.passes for r in br.results)


class TestClimbDriver:
    def test_forced_wrong_sector_is_empty(self, f5):
        out = opt.climb(f5, sector="1",
                        cfg=opt.SearchConfig(restarts=4, max_iters=1500, seed=0))
        assert out.solutions == []
        assert all(not b.feasible for b in out.branches)
        assert all("infeasible" in b.error for b in out.branches)

    def test_auto_sweep_reports_empty_branch_then_solutions(self, climb15):
        feas = [b for b in climb15.branches if b.feasible]
        assert len(feas) == 2
        assert len(feas[0].results) == 0 and len(feas[1].results) == 3
        assert all(r.alignment.passes for r in feas[1].results)

    def test_climb_leaves_its_input_unchanged(self, f5):
        bare = fid.SicFiducial(d=5, vector=f5.vector)
        out = opt.climb(bare)
        assert bare.symmetry is None and bare.symmetry_eigenvalue is None
        assert out.source.symmetry is not None and out.source is not bare
        assert out.source.vector is bare.vector

    def test_outcome_labels(self):
        B = opt.BranchOutcome
        g = np.eye(2, dtype=int)
        assert B(g, n_params=1, results=[object()]).outcome == "solutions"
        assert B(g, n_params=1).outcome == "empty branch"
        assert B(g, n_params=2).outcome == "budget exhausted"
        assert B(g, feasible=True).outcome == "not searched"
        assert B(g).outcome == "not searched"

    def test_third_root_name_on_order6_labels_raises(self):
        # the committed 15 source takes the refined step; "w" would force
        # sixth-root exponent 1, which is e^{i pi/3}, not omega
        _, _, f15 = cli.load_artifact(str(INPUTS / "f15.json"))
        with pytest.raises(SicladderError, match="sixth-root"):
            opt.climb(f15, sector="w",
                      cfg=opt.SearchConfig(restarts=1, max_iters=40))

    def test_integer_sector_is_an_exponent_not_a_name(self, f5):
        # the name "1" is exponent 0; the integer 1 is exponent 1
        out = opt.climb(f5, sector=1, cfg=opt.SearchConfig(restarts=1, max_iters=10))
        assert [b.target_exponent for b in out.branches] == [1, 1]

    def test_sector_aliases(self, f5):
        cfg = opt.SearchConfig(restarts=2, max_iters=800, seed=0)
        a = opt.climb(f5, sector="w2", cfg=cfg)
        b = opt.climb(f5, sector="ω²", cfg=cfg)
        assert [x.target_exponent for x in a.branches] == \
               [x.target_exponent for x in b.branches]

    def test_refined_route_is_chosen_by_the_library(self, f15):
        out = opt.climb(f15, cfg=opt.SearchConfig(restarts=1, max_iters=40, seed=0))
        searched = [b for b in out.branches if b.n_params is not None]
        assert searched and all(b.n_params == 8 for b in searched)

    def test_climb_refined_needs_the_refinement(self, f5):
        with pytest.raises(SicladderError):
            opt.climb_refined(f5)

    def test_promote_solution_gates_on_sic(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=15) + 1j * rng.normal(size=15)
        with pytest.raises(SicladderError,
                           match="^solution vector does not verify as a SIC fiducial$"):
            opt.promote_solution(v / np.linalg.norm(v), 15)

    def test_promoted_fiducial_carries_symmetry(self, f15):
        assert f15.symmetry is not None
        F = f15.symmetry
        F3 = (F @ F @ F) % 15
        assert np.array_equal(F3, np.eye(2, dtype=int) % 15)

    def test_no_default_source_recipe(self):
        with pytest.raises(SicladderError):
            opt.default_source(11)

    def test_second_63_pass_repeats_the_first(self, f9):
        # the benchmark's rung63 gate: a second pass in one process must
        # give the first pass's solution vectors bit for bit
        cfg = opt.SearchConfig(restarts=1, max_iters=4000, seed=11)
        first, second = opt.climb(f9, cfg=cfg), opt.climb(f9, cfg=cfg)
        assert len(first.solutions) == len(second.solutions) == 1
        for (r, v), (r2, v2) in zip(first.solutions, second.solutions):
            assert r.params.tobytes() == r2.params.tobytes()
            assert v.tobytes() == v2.tobytes()
