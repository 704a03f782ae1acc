"""Tests for the per-figure reproduction functions (tiny scale)."""

from __future__ import annotations

import pytest

from repro.core.auction import AuctionSolver
from repro.experiments.figures import (
    FigureResult,
    fig2_price_convergence,
    fig3_social_welfare,
    fig4_inter_isp_traffic,
    run_figure,
)


class TestFigureResults:
    def test_fig2_structure(self):
        result = fig2_price_convergence(scale="tiny", seed=0, n_slots=2)
        assert isinstance(result, FigureResult)
        assert result.figure == "fig2"
        assert "lambda_u" in result.series["auction"]
        assert set(result.shape) >= {"price_moves", "converges_within_slot"}
        assert "Fig. 2" in result.text

    def test_fig4_series_and_shape_keys(self):
        result = fig4_inter_isp_traffic(scale="tiny", seed=0)
        assert set(result.series) == {"auction", "locality"}
        for metrics in result.series.values():
            assert {"welfare", "inter_isp", "miss_rate", "peers"} <= set(metrics)
        assert "auction_lower_inter_isp" in result.shape
        assert "inter-ISP" in result.text

    def test_run_figure_dispatch(self):
        result = run_figure("fig4", scale="tiny", seed=1)
        assert result.figure == "fig4"

    def test_run_figure_unknown(self):
        with pytest.raises(ValueError, match="unknown figure"):
            run_figure("fig1")

    def test_shape_holds_reflects_all_checks(self):
        result = fig4_inter_isp_traffic(scale="tiny", seed=0)
        assert result.shape_holds == all(result.shape.values())

    def test_deterministic_for_seed(self):
        a = fig4_inter_isp_traffic(scale="tiny", seed=2)
        b = fig4_inter_isp_traffic(scale="tiny", seed=2)
        assert list(a.series["auction"]["welfare"].values) == list(
            b.series["auction"]["welfare"].values
        )

    def test_figure_run_makes_no_gauss_seidel_call(self, monkeypatch):
        """Every slot runs the jacobi auction, however small its problem."""

        def refuse(*args, **kwargs):
            raise AssertionError("a figure run called the Gauss-Seidel solver")

        monkeypatch.setattr(AuctionSolver, "_solve_gauss_seidel", refuse)
        result = fig3_social_welfare(scale="tiny", seed=0)
        assert len(result.series["auction"]["welfare"].values) > 0
