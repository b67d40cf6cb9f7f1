import pytest

from matchpoly.errors import BadSize, UnknownCampaign
from matchpoly.sweeps import (
    CAMPAIGNS,
    SweepConfig,
    SweepReport,
    Violation,
    run_sweep,
)


class TestCampaignsPass:
    @pytest.mark.parametrize("campaign", CAMPAIGNS)
    def test_small_sweep_clean(self, campaign):
        n_max = {"paths": 10, "forest-converse": 4}.get(campaign, 6)
        report = run_sweep(SweepConfig(campaign=campaign, n_max=n_max))
        assert report.violations == ()
        assert report.exit_code == 0
        assert report.checks_run > 0
        assert report.items > 0

    def test_range_restriction(self):
        full = run_sweep(SweepConfig(campaign="gallai", n_max=6))
        only6 = run_sweep(SweepConfig(campaign="gallai", n_min=6, n_max=6))
        assert only6.items == 6  # six free trees on 6 vertices
        assert only6.items < full.items


class TestDeterminism:
    def test_reports_identical_across_jobs(self):
        one = run_sweep(SweepConfig(campaign="main-theorem", n_max=6, jobs=1))
        two = run_sweep(SweepConfig(campaign="main-theorem", n_max=6, jobs=2))
        assert one.to_json_text() == two.to_json_text()

    def test_reports_identical_across_runs(self):
        a = run_sweep(SweepConfig(campaign="interlacing", n_max=5, seed=7))
        b = run_sweep(SweepConfig(campaign="interlacing", n_max=5, seed=7))
        assert a.to_json_text() == b.to_json_text()

    def test_seed_changes_random_leg(self):
        from matchpoly.sweeps import _build_items

        a = _build_items(SweepConfig(campaign="main-theorem", n_max=3, seed=0))
        b = _build_items(SweepConfig(campaign="main-theorem", n_max=3, seed=1))
        randoms_a = [it for it in a if it[2] == "random-graph"]
        randoms_b = [it for it in b if it[2] == "random-graph"]
        assert len(randoms_a) == len(randoms_b) == 200
        assert randoms_a != randoms_b
        # same seed reproduces the same graphs
        assert randoms_a == [
            it
            for it in _build_items(SweepConfig(campaign="main-theorem", n_max=3, seed=0))
            if it[2] == "random-graph"
        ]

    def test_timing_not_in_canonical_json(self):
        rep = run_sweep(SweepConfig(campaign="gallai", n_max=4))
        assert rep.elapsed > 0
        assert "elapsed" not in rep.to_json()
        assert rep.to_json()["schema"] == 1


class TestValidation:
    def test_unknown_campaign(self):
        with pytest.raises(UnknownCampaign):
            run_sweep(SweepConfig(campaign="nope", n_max=5))

    def test_bad_sizes(self):
        with pytest.raises(BadSize):
            run_sweep(SweepConfig(campaign="gallai", n_max=13))
        with pytest.raises(BadSize):
            run_sweep(SweepConfig(campaign="gallai", n_max=0))
        with pytest.raises(BadSize):
            run_sweep(SweepConfig(campaign="gallai", n_min=5, n_max=3))
        with pytest.raises(BadSize):
            run_sweep(SweepConfig(campaign="forest-converse", n_max=9))

    def test_exit_code_on_violation(self):
        rep = SweepReport(
            campaign="gallai",
            n_min=1,
            n_max=2,
            seed=0,
            items=1,
            checks_run=1,
            violations=(Violation("tree:2:(()())", "gallai", "synthetic"),),
        )
        assert rep.exit_code == 1
        assert rep.to_json()["violations"][0]["check"] == "gallai"


class TestDisplayIsolationOffDecisionPath:
    def test_sweeps_never_isolate(self, monkeypatch):
        from matchpoly.exactalg import numberfield, realroots

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep isolated a real root")

        numberfield._bracket.cache_clear()  # a memoized bracket would hide an isolation
        monkeypatch.setattr(numberfield, "largest_real_root_interval", refuse)
        monkeypatch.setattr(realroots, "isolate_real_roots", refuse)
        for campaign, n_max in (("main-theorem", 6), ("interlacing", 5)):
            report = run_sweep(SweepConfig(campaign=campaign, n_max=n_max, jobs=1))
            assert report.violations == ()
            assert report.checks_run > 0


class TestHarness:
    def test_converse_cap_zero_is_honoured(self):
        capped = run_sweep(SweepConfig(campaign="main-theorem", n_max=6, converse_cap=0))
        default = run_sweep(SweepConfig(campaign="main-theorem", n_max=6))
        assert capped.violations == () and default.violations == ()
        assert capped.items == default.items
        assert capped.checks_run < default.checks_run

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exception_reported_as_violation(self, monkeypatch, jobs):
        from matchpoly import sweeps

        original = sweeps._check_gallai

        def flaky(g, fail):
            if g.n == 4:
                raise ValueError("boom")
            return original(g, fail)

        monkeypatch.setattr(sweeps, "_check_gallai", flaky)
        report = run_sweep(SweepConfig(campaign="gallai", n_max=5, jobs=jobs))
        assert report.items == 1 + 1 + 1 + 2 + 3
        assert [(v.ident.split(":")[1], v.check, v.detail) for v in report.violations] == [
            ("4", "exception", "ValueError: boom")
        ] * 2
        assert report.checks_run > 0
        assert report.exit_code == 1

    def test_worker_count_clamped(self, monkeypatch):
        from matchpoly import sweeps

        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 4)
        assert sweeps.worker_count(3, 100) == 3
        assert sweeps.worker_count(64, 100) == 4
        assert sweeps.worker_count(64, 2) == 2
        assert sweeps.worker_count(0, 100) == 1
        assert sweeps.worker_count(4, 0) == 1


class TestPathDeletion:
    def test_one_deletion_family_per_tree(self, monkeypatch):
        from matchpoly import sweeps
        from matchpoly.graphs import builtin
        from matchpoly.matchcore import matching_polynomial_recurrence

        original = sweeps.deletion_polynomials
        calls = []

        def spy(g, drops):
            calls.append(list(drops))
            return original(g, drops)

        monkeypatch.setattr(sweeps, "deletion_polynomials", spy)
        t9 = builtin("paper:T9")
        failures = []
        sweeps._check_interlacing(t9, lambda *failure: failures.append(failure), True)
        paths = list(sweeps._tree_paths(t9))
        assert failures == []
        assert calls == [paths]
        for seq, mu in zip(paths, original(t9, paths)):
            assert mu == matching_polynomial_recurrence(t9.delete_vertices(seq)[0])

    def test_drop_by_two_is_reported(self, monkeypatch):
        from matchpoly import sweeps
        from matchpoly.exactalg import IntPoly
        from matchpoly.graphs import builtin

        monkeypatch.setattr(
            sweeps, "deletion_polynomials", lambda g, drops: [IntPoly.one()] * len(drops)
        )
        failures = []
        # x divides mu(star:5) three times; a mu(T - P) of 1 drops that to zero.
        sweeps._check_interlacing(
            builtin("star:5"), lambda *failure: failures.append(failure), True
        )
        assert {check for check, _ in failures} == {"path-deletion"}


class TestInterlacingCheck:
    def test_delta_out_of_range_is_reported(self, monkeypatch):
        from matchpoly import sweeps, thetaclass
        from matchpoly.exactalg import IntPoly
        from matchpoly.graphs import builtin

        t9 = builtin("paper:T9")
        f = IntPoly((-1, 1))  # x - 1 divides mu(T9) and mu(T9 - 0) once each
        original = sweeps.vertex_deleted_polynomials

        def inflated(g):
            family = list(original(g))
            if g == t9:
                family[0] = family[0] * f * f
            return family

        monkeypatch.setattr(sweeps, "vertex_deleted_polynomials", inflated)
        monkeypatch.setattr(thetaclass, "vertex_deleted_polynomials", inflated)
        failures = []
        checks = sweeps._check_interlacing(
            t9, lambda *failure: failures.append(failure), True
        )
        assert failures == [("interlacing", "class x - 1, vertex 0: delta 2")]
        assert checks > 0
