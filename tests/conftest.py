"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs

#: The one third-party DeprecationWarning the suite lets pass: to print a
#: failing example, Hypothesis imports libcst, which touches
#: ``mypy_extensions.TypedDict``.  Raised, it ends the run in an
#: INTERNALERROR that hides the example.  A ``filterwarnings`` mark
#: outranks both the ini setting and ``-W`` on the command line, so the
#: report survives ``-W error::DeprecationWarning`` too.
_HYPOTHESIS_REPORT = ("ignore:mypy_extensions.TypedDict is deprecated"
                      ":DeprecationWarning")


def pytest_collection_modifyitems(items) -> None:
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(_HYPOTHESIS_REPORT))


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_og_set():
    """A small labeled OG data set reused across clustering/index tests.

    Six patterns, eight instances each (48 OGs), low noise — small enough
    to keep the suite fast, structured enough to cluster correctly.
    """
    from repro.datasets.patterns import ALL_PATTERNS

    config = SyntheticConfig(
        num_ogs=48,
        noise_fraction=0.05,
        seed=7,
        patterns=ALL_PATTERNS[:6],
    )
    return generate_synthetic_ogs(config)


@pytest.fixture(scope="session")
def tiny_video():
    """A tiny rendered video segment with two moving objects."""
    from repro.video.synthesize import (
        Actor,
        BackgroundSpec,
        SceneRenderer,
        linear_trajectory,
        make_vehicle,
    )

    background = BackgroundSpec(
        width=96, height=72, base_color=(100, 100, 100),
        zones=[(0, 0, 96, 24, (60, 60, 140))],
    )
    scene = SceneRenderer(background)
    scene.add_actor(Actor(
        linear_trajectory((5.0, 40.0), (90.0, 40.0), 12),
        make_vehicle((200, 40, 40)), name="car-right",
    ))
    scene.add_actor(Actor(
        linear_trajectory((90.0, 58.0), (5.0, 58.0), 12),
        make_vehicle((40, 200, 40)), name="car-left",
    ))
    return scene.render(12, fps=10.0, name="tiny")
