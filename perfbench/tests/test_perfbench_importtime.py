"""The ``-X importtime`` parser on a captured ``import repro.cli`` sample."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from importtime import import_metrics, package_seconds  # noqa: E402

SAMPLE = (HERE / "importtime_sample.txt").read_text()


def test_self_times_group_by_top_level_package():
    seconds = package_seconds(SAMPLE)
    assert seconds["scipy"] == pytest.approx((410 + 92 + 27 + 84) / 1e6)
    assert seconds["repro"] == pytest.approx((213 + 233 + 2863) / 1e6)
    assert seconds["networkx"] == pytest.approx(4313 / 1e6)
    assert seconds["numpy"] == pytest.approx(1129 / 1e6)
    assert seconds["_frozen_importlib_external"] == pytest.approx(290 / 1e6)


def test_metrics_total_every_module_once_and_skip_other_lines():
    metrics = import_metrics(SAMPLE)
    every_self_us = (135 + 60 + 319 + 290 + 213 + 1129 + 4313
                     + 410 + 92 + 27 + 84 + 233 + 2863)
    assert metrics["imports.total_s"] == pytest.approx(every_self_us / 1e6)
    assert metrics["imports.scipy_s"] == pytest.approx(613 / 1e6)
    assert metrics["imports.networkx_s"] == pytest.approx(4313 / 1e6)
    assert metrics["imports.repro_self_s"] == pytest.approx(3309 / 1e6)


def test_missing_packages_read_zero():
    metrics = import_metrics("import time: self [us] | cumulative | x\n")
    assert metrics == {
        "imports.total_s": 0.0,
        "imports.scipy_s": 0.0,
        "imports.networkx_s": 0.0,
        "imports.repro_self_s": 0.0,
    }
