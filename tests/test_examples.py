"""Every example script runs and produces its headline output.

Examples are user-facing documentation; these tests keep them from
rotting as the library evolves.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / f"{name}.py"
    assert path.exists(), path
    argv = sys.argv
    try:
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "matching objects: [1]" in out
        assert "elements-meeting-criteria" in out
        assert "<LEADresource>" in out

    def test_show_lead_schema(self, capsys):
        out = run_example("show_lead_schema", capsys)
        assert "theme [ATTRIBUTE] #9" in out
        assert "dynamic attribute sections: ['detailed']" in out

    def test_query_walkthrough(self, capsys):
        out = run_example("query_walkthrough", capsys)
        assert "Memory-engine plan (matching objects: [1])" in out
        assert "SQLite plan" in out
        assert "dzmin" in out

    def test_weather_campaign(self, capsys):
        out = run_example("weather_campaign", capsys)
        assert "bob's search (dx <= 1000): objects [2]" in out
        assert "after publishing" in out

    def test_ontology_search(self, capsys):
        out = run_example("ontology_search", capsys)
        assert "expanded matches:" in out
        assert "concept 'precipitation'" in out

    def test_guided_query(self, capsys):
        out = run_example("guided_query", capsys)
        assert "grid/ARPS" in out
        assert "matches: [1]" in out
        assert "element('dx', 'wide')" in out

    def test_catalog_comparison(self, capsys):
        out = run_example("catalog_comparison", capsys)
        assert "query agreement across schemes: 12/12" in out
        assert "canonically equals hybrid: True" in out

    def test_cross_discipline(self, capsys):
        out = run_example("cross_discipline", capsys)
        assert "beam-current >= 150 mA: objects [2, 3]" in out
        assert "products derived from raw data: [3]" in out
        assert "schema: CLRC" in out

    def test_bulk_campaign(self, capsys):
        out = run_example("bulk_campaign", capsys)
        assert "loaded 120 documents" in out
        assert "reopened" in out
        assert "QC-annotated runs   : [1, 2, 3]" in out
