"""Shared benchmark fixtures.

Corpus sizes are chosen so the full suite completes in a few minutes on
a laptop while the relative shapes (who wins, where crossovers fall)
are stable; EXPERIMENTS.md records the shapes alongside the paper's
claims.
"""

from __future__ import annotations

import pytest

from repro.bench import build_schemes
from repro.grid import CorpusConfig, PlantedMarker

import _util

BASE_CONFIG = CorpusConfig(
    seed=2006,
    themes=2,
    places=1,
    keys_per_theme=3,
    dynamic_groups=2,
    params_per_group=6,
    dynamic_depth=2,
    planted=[
        PlantedMarker("marker_sel_100", 100),
        PlantedMarker("marker_sel_20", 20),
        PlantedMarker("marker_sel_5", 5),
        PlantedMarker("marker_sel_2", 2),
    ],
)

MID_CORPUS = 150


def pytest_configure(config):
    _util.configure(config)


@pytest.fixture(scope="session")
def base_config():
    return BASE_CONFIG


@pytest.fixture(scope="session")
def loaded_schemes(base_config):
    """All four schemes loaded with the standard mid-size corpus."""
    return build_schemes(base_config, MID_CORPUS)
