"""Identity registry, deterministic sampling, and the checker contract."""

from __future__ import annotations

import json
from decimal import Decimal

import pytest

from qlambert import (
    DivergenceError,
    DomainError,
    PoleError,
    UnknownIdentityError,
    check_gosper_matrix,
    check_identity,
    lambert_naive,
    registry,
)
from qlambert import identities
from qlambert.cli import main
from qlambert.identities import MAX_RESAMPLES, IdentityEntry, ParamSpec, _Rng, get_entry
from qlambert.qcore import SeriesValue, ball

EXPECTED_ENTRIES = (
    ("rogers-fine", 2),
    ("symm", 2),
    ("fine-12.2", 2),
    ("fine-16.3", 2),
    ("poch-symm", 2),
    ("gosper-poch", 2),
    ("osler", 3),
    ("osler-1111", 5),
    ("knuth-wrench", 3),
    ("xq-swap", 2),
    ("jordan-forms", 4),
)

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407


class TestRegistry:
    def test_names_and_side_counts_in_order(self) -> None:
        entries = registry()
        assert [(e.name, len(e.sides)) for e in entries] == list(EXPECTED_ENTRIES)

    def test_every_entry_declares_parameters_and_anchor(self) -> None:
        for entry in registry():
            assert entry.parameters
            assert entry.anchor

    def test_lookup_of_unknown_name_fails(self) -> None:
        with pytest.raises(UnknownIdentityError):
            get_entry("nope")


class TestSampler:
    def test_raw_stream_matches_the_declared_recurrence(self) -> None:
        rng = _Rng(0)
        state = 0
        for _ in range(5):
            state = (LCG_MULTIPLIER * state + LCG_INCREMENT) % (1 << 64)
            assert rng.next_raw() == state

    def test_real_draws_stay_inside_nine_tenths(self, ctx30) -> None:
        rng = _Rng(123)
        for _ in range(200):
            value = rng.draw_real(ctx30)
            assert abs(value) <= Decimal("0.9")

    def test_minimum_magnitude_floor_respected(self, ctx30) -> None:
        rng = _Rng(7)
        floor = Decimal("0.05")
        for _ in range(200):
            assert abs(rng.draw_real(ctx30, floor)) >= floor

    def test_integer_draws_cover_inclusive_range(self) -> None:
        rng = _Rng(9)
        seen = {rng.draw_int(1, 4) for _ in range(200)}
        assert seen == {1, 2, 3, 4}


class TestCheckIdentity:
    def test_symm_hundred_trials_passes(self, ctx30) -> None:
        report = check_identity("symm", 100, 42, ctx30)
        assert report.passed
        assert report.worst_deviation <= 4 * ctx30.epsilon
        assert set(report.worst_point) == {"x", "t", "q"}

    def test_reports_are_deterministic(self, ctx30) -> None:
        first = check_identity("xq-swap", 25, 7, ctx30)
        second = check_identity("xq-swap", 25, 7, ctx30)
        assert first == second

    def test_unknown_identity_rejected(self, ctx30) -> None:
        with pytest.raises(UnknownIdentityError):
            check_identity("nope", 1, 0, ctx30)

    @pytest.mark.parametrize("bad", [0, -1, True, "3"])
    def test_invalid_trial_counts_rejected(self, bad, ctx30) -> None:
        with pytest.raises(DomainError):
            check_identity("symm", bad, 0, ctx30)

    def test_rogers_fine_degenerates_to_one_when_a_equals_b(self, ctx30) -> None:
        entry = get_entry("rogers-fine")
        point = {
            "a": Decimal("0.3"),
            "b": Decimal("0.3"),
            "t": Decimal("0.4"),
            "q": Decimal("0.5"),
        }
        for side in entry.sides:
            sv = side(point, ctx30)
            assert abs(sv.value - 1) <= sv.tail_bound

    def test_wrench_with_unit_coefficients_reproduces_lambert(self, ctx30) -> None:
        entry = get_entry("knuth-wrench")
        for q_text in ("0.5", "-0.3"):
            point = {"x": Decimal(1), "q": Decimal(q_text)}
            oracle = lambert_naive(Decimal(q_text), ctx30)
            for side in entry.sides:
                sv = side(point, ctx30)
                assert abs(sv.value - oracle.value) <= sv.tail_bound + oracle.tail_bound

    def test_osler_unit_exponents_coincide_with_symm(self, ctx30) -> None:
        osler = get_entry("osler")
        symm = get_entry("symm")
        x, t, q = Decimal("0.3"), Decimal("0.2"), Decimal("0.5")
        osler_point = {
            "alpha": t, "beta": x, "q": q,
            "a": Decimal(1), "b": Decimal(0), "c": Decimal(1), "d": Decimal(0),
        }
        symm_point = {"x": x, "t": t, "q": q}
        pairs = zip(osler.sides[:2], symm.sides)
        for osler_side, symm_side in pairs:
            left = osler_side(osler_point, ctx30)
            right = symm_side(symm_point, ctx30)
            assert left.value == right.value

    def test_every_side_honours_the_epsilon_budget_near_the_edge(self, ctx30) -> None:
        # Large values and Pochhammer prefactors appear as |q| approaches
        # 0.9; sides must still deliver absolute error within epsilon.
        entry = get_entry("gosper-poch")
        point = {
            "x": Decimal("-0.534108"),
            "t": Decimal("-0.782488"),
            "q": Decimal("0.872698"),
        }
        for side in entry.sides:
            assert side(point, ctx30).tail_bound <= ctx30.epsilon

    def test_worst_points_print_the_sampled_parameters_exactly(
        self, ctx50, monkeypatch
    ) -> None:
        drawn = []
        draw = identities._draw_point

        def recording(entry, rng, ctx):
            drawn.append(draw(entry, rng, ctx))
            return drawn[-1]

        monkeypatch.setattr(identities, "_draw_point", recording)
        for entry in registry():
            drawn.clear()
            report = check_identity(entry.name, 3, 42, ctx50)
            parsed = {key: Decimal(text) for key, text in report.worst_point.items()}
            assert parsed in drawn, entry.name

    def test_jordan_forms_sampler_stays_in_the_wedge(self, ctx30) -> None:
        report = check_identity("jordan-forms", 25, 11, ctx30)
        assert report.passed
        point = {k: Decimal(v) for k, v in report.worst_point.items()}
        assert abs(point["q"]) < min(abs(point["x"]), abs(point["t"]))


def _with_a_diverging_side(monkeypatch) -> None:
    """Register ``synthetic``, whose second side cannot certify when q > 0."""

    def steady(point, ctx):
        return ball(point["q"])

    def diverging(point, ctx):
        if point["q"] > 0:
            raise DivergenceError("synthetic side failed to certify")
        return ball(point["q"])

    entry = IdentityEntry("synthetic", (ParamSpec("q"),), (steady, diverging), "test")
    monkeypatch.setattr(identities, "_REGISTRY", (*registry(), entry))


class TestDivergingSide:
    def test_a_diverging_trial_fails_the_report_at_its_point(
        self, ctx30, monkeypatch
    ) -> None:
        _with_a_diverging_side(monkeypatch)
        drawn = []
        draw = identities._draw_point

        def recording(entry, rng, ctx):
            drawn.append(draw(entry, rng, ctx))
            return drawn[-1]

        monkeypatch.setattr(identities, "_draw_point", recording)
        report = check_identity("synthetic", 20, 1, ctx30)
        assert not report.passed
        assert report.reason == "synthetic side failed to certify"
        first_positive = next(point for point in drawn if point["q"] > 0)
        assert report.worst_point == {"q": format(first_positive["q"], "f")}
        # Every trial ran; the converging ones agree exactly.
        assert len(drawn) == 20 and report.worst_deviation == 0

    def test_verify_exits_one_and_reports_the_reason(self, capsys, monkeypatch) -> None:
        _with_a_diverging_side(monkeypatch)
        code = main(["verify", "--identity", "synthetic", "--trials", "20", "--report"])
        (line,) = capsys.readouterr().out.splitlines()
        payload = json.loads(line)
        assert code == 1
        assert payload["pass"] is False
        assert payload["reason"] == "synthetic side failed to certify"
        assert Decimal(payload["worst_point"]["q"]) > 0

    def test_a_side_past_epsilon_fails_the_report_with_that_reason(
        self, ctx30, monkeypatch
    ) -> None:
        """A tail past ``epsilon`` means a digit prediction fell short: the
        side is a ``DivergenceError``, not a point to draw again."""

        def loose(point, ctx):
            return SeriesValue(point["q"], 1, 2 * ctx.epsilon, "loose")

        sides = identities._sides(lambda point, ctx: ball(point["q"]), loose)
        entry = IdentityEntry("synthetic", (ParamSpec("q"),), sides, "test")
        monkeypatch.setattr(identities, "_REGISTRY", (*registry(), entry))
        report = check_identity("synthetic", 3, 1, ctx30)
        assert not report.passed
        assert report.reason == "side loose missed epsilon at its predicted digits (tail 2E-30)"

    def test_a_passing_report_has_no_reason(self, ctx30) -> None:
        report = check_identity("symm", 2, 1, ctx30)
        assert report.passed and report.reason is None


def _with_a_rejecting_side(monkeypatch, rejects) -> list[dict]:
    """Register ``synthetic``, whose sides raise ``rejects(q)`` where it is
    not None; return the list that every drawn point is appended to."""

    def side(point, ctx):
        error = rejects(point["q"])
        if error is not None:
            raise error
        return ball(point["q"])

    entry = IdentityEntry("synthetic", (ParamSpec("q"),), (side, side), "test")
    monkeypatch.setattr(identities, "_REGISTRY", (*registry(), entry))
    drawn = []
    draw = identities._draw_point

    def recording(entry, rng, ctx):
        drawn.append(draw(entry, rng, ctx))
        return drawn[-1]

    monkeypatch.setattr(identities, "_draw_point", recording)
    return drawn


class TestRejectedDraws:
    def test_a_point_a_side_rejects_is_redrawn(self, ctx30, monkeypatch) -> None:
        """``DomainError`` above q = 1/2 and ``PoleError`` below -1/2 reject
        the point; each trial draws again until one is taken."""

        def rejects(q):
            if q > Decimal("0.5"):
                return DomainError("synthetic domain")
            if q < Decimal("-0.5"):
                return PoleError("synthetic pole")
            return None

        drawn = _with_a_rejecting_side(monkeypatch, rejects)
        report = check_identity("synthetic", 20, 1, ctx30)
        assert report.passed and report.reason is None
        rejected = [point["q"] for point in drawn if rejects(point["q"]) is not None]
        assert min(rejected) < Decimal("-0.5") and max(rejected) > Decimal("0.5")
        assert len(drawn) == 20 + len(rejected)

    def test_a_trial_that_rejects_every_draw_raises(self, ctx30, monkeypatch) -> None:
        drawn = _with_a_rejecting_side(monkeypatch, lambda q: PoleError("synthetic pole"))
        message = f"all {MAX_RESAMPLES} sampled points rejected for 'synthetic'"
        with pytest.raises(DomainError, match=message):
            check_identity("synthetic", 3, 1, ctx30)
        assert len(drawn) == MAX_RESAMPLES

    def test_verify_exits_two_when_every_draw_is_rejected(self, capsys, monkeypatch) -> None:
        _with_a_rejecting_side(monkeypatch, lambda q: DomainError("synthetic domain"))
        code = main(["verify", "--identity", "synthetic", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "sampled points rejected" in captured.err


class TestGosperMatrixCheck:
    def test_sweep_and_products_pass(self, ctx30) -> None:
        report = check_gosper_matrix(ctx30)
        assert report.name == "gosper-matrix"
        assert report.passed
        assert report.trials == 333

