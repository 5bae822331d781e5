"""Tests for the paper heuristics in the solver registry and Table 6 metadata."""

import importlib

import pytest

import repro

from repro.api import (
    UnknownSolverError,
    available_solvers,
    get_solver,
    paper_lineup,
    resolve_solvers,
)
from repro.heuristics import PAPER_FIGURE_ORDER, TABLE6_HEURISTICS, Category


@pytest.mark.parametrize("module", ["repro.heuristics.registry", "repro.experiments.runner"])
def test_removed_1_1_modules_no_longer_import(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
    assert not hasattr(repro, "all_heuristics")
    assert not hasattr(repro, "get_heuristic")


class TestRegistry:
    def test_figure_lineup_has_fourteen_heuristics(self):
        lineup = paper_lineup()
        assert len(lineup) == 14
        assert tuple(h.name for h in lineup) == PAPER_FIGURE_ORDER

    def test_names_match_instances(self):
        for name in PAPER_FIGURE_ORDER:
            assert get_solver(name).name == name

    def test_get_heuristic_is_case_insensitive(self):
        assert get_solver("oolcmr").name == "OOLCMR"
        assert get_solver("OS").name == "OS"

    def test_get_unknown_heuristic(self):
        with pytest.raises(UnknownSolverError, match="unknown solver"):
            get_solver("nope")

    def test_fresh_instances_each_call(self):
        assert get_solver("OOSIM") is not get_solver("OOSIM")

    def test_lineup_subset(self):
        subset = paper_lineup(["OS", "SCMR"])
        assert [h.name for h in subset] == ["OS", "SCMR"]

    def test_heuristic_names_helper(self):
        assert set(PAPER_FIGURE_ORDER) <= set(available_solvers())


class TestCategories:
    def test_every_category_is_populated(self):
        def names(category: Category) -> set[str]:
            return {h.name for h in resolve_solvers(f"category:{category.value}")}

        assert names(Category.SUBMISSION) == {"OS"}
        assert names(Category.STATIC) >= {"OOSIM", "IOCMS", "GG", "BP"}
        assert names(Category.DYNAMIC) == {"LCMR", "SCMR", "MAMR"}
        assert names(Category.CORRECTED) == {"OOLCMR", "OOSCMR", "OOMAMR"}

    def test_category_members_accepts_strings(self):
        assert {h.name for h in resolve_solvers("category:dynamic")} == {"LCMR", "SCMR", "MAMR"}


class TestTable6:
    def test_table6_rows_cover_proposed_heuristics(self):
        solvers = available_solvers()
        rows = [solvers[name] for name in TABLE6_HEURISTICS]
        assert [row.name for row in rows] == [
            "OOSIM",
            "IOCMS",
            "DOCPS",
            "IOCCS",
            "DOCCS",
            "LCMR",
            "SCMR",
            "MAMR",
            "OOLCMR",
            "OOSCMR",
            "OOMAMR",
        ]
        assert all(row.favorable_situation for row in rows)
