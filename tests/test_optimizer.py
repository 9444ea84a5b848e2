"""Search behavior and the frozen phase laws of the known climbs."""
import numpy as np
import pytest

from sicladder import cli
from sicladder import fiducials as fid
from sicladder import ladder as lad
from sicladder import optimizer as opt
from sicladder.clifford import canonical_order3
from sicladder.errors import NotASic, SicladderError, WrongCount


@pytest.fixture(scope="module")
def fam5_solving(f5):
    # the climbable branch: squared generator, its single feasible target
    P = lad.generalized_parity(f5)
    G = canonical_order3(3)
    e_b, f_b = lad.paired_bases(f5, (G @ G) % 3, P)
    t = lad.feasible_targets(f_b, e_b)[0]
    return lad.make_proto_family(f5, e_b, f_b, t)


@pytest.fixture(scope="module")
def sols5(fam5_solving):
    return opt.minimize(fam5_solving,
                        opt.SearchConfig(restarts=20, max_iters=2000, seed=0))


@pytest.fixture(scope="module")
def climb35(f7):
    return opt.climb(f7, conjugate=True,
                     cfg=opt.SearchConfig(restarts=8, max_iters=3000, seed=0))


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

    def test_term_budget_soundness(self, fam5_solving):
        res = opt.minimize(fam5_solving,
                           opt.SearchConfig(restarts=12, max_iters=2000, seed=3,
                                            term_budget=2))
        assert res
        for r in res:
            psi = lad.build_proto(fam5_solving, r.params)
            assert abs(fid.sic_defect(psi, 15) - r.defect_full) <= 1e-14
            if r.defect_partial <= 1e-18:
                assert r.defect_full <= 1e-10


class TestCanonicalize:
    def test_polar_reflection_preserves_vector(self, f9):
        P = lad.generalized_parity(f9)
        e_b, f_b = lad.paired_bases(f9, canonical_order3(7), P)
        fam = lad.make_proto_family(f9, e_b, f_b, 0)
        assert fam.param_kinds == ["polar", "phase", "phase", "phase", "phase"]
        raw = np.array([4.0, 0.3, 5.1, 1.0, 2.0])
        canon = opt._canonicalize(raw, fam.param_kinds)
        assert 0 <= canon[0] <= np.pi
        assert np.all((canon >= 0) & (canon < 2 * np.pi))
        a = lad.build_proto(fam, raw)
        b = lad.build_proto(fam, canon)
        assert np.abs(a - b).max() < 1e-12

    def test_pure_phase_wrap(self):
        canon = opt._canonicalize([7.0, -1.0], ["phase", "phase"])
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
        assert len(br.certificates) == 3
        assert all(c.passes for c in br.certificates)


class TestEquatorGeometry:
    def test_the_three_climb_solutions(self, sols5, fam5_solving):
        vecs = [lad.build_proto(fam5_solving, r.params) for r in sols5]
        assert opt.equator_geometry_check(vecs, 5)

    def test_random_family_triple_fails(self, fam5_solving):
        rng = np.random.default_rng(12)
        vecs = [lad.build_proto(fam5_solving, rng.uniform(0, 2 * np.pi, 1))
                for _ in range(3)]
        assert not opt.equator_geometry_check(vecs, 5)

    def test_wrong_count(self, fam5_solving):
        v = lad.build_proto(fam5_solving, [0.5])
        with pytest.raises(WrongCount):
            opt.equator_geometry_check([v, v], 5)


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
        assert all(c.passes for c in feas[1].certificates)

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
        with pytest.raises(NotASic):
            opt.promote_solution(v / np.linalg.norm(v), 15)

    def test_promoted_fiducial_carries_symmetry(self, f15):
        assert f15.symmetry is not None
        F = f15.symmetry
        F3 = (F @ F @ F) % 15
        assert np.array_equal(F3, np.eye(2, dtype=int) % 15)

    def test_no_default_source_recipe(self):
        with pytest.raises(SicladderError):
            opt.default_source(11)