"""Unit tests for the slot-graph weights (paper §3.1, §4.4)."""

from __future__ import annotations

import pytest

from repro.exceptions import DeviceError
from repro.hardware.graph import GraphWeights


class TestGraphWeights:
    def test_defaults_match_paper(self):
        weights = GraphWeights()
        assert weights.inner_weight == pytest.approx(0.001)
        assert weights.shuttle_weight == pytest.approx(1.0)
        assert weights.ratio == pytest.approx(1000.0)

    def test_threshold_must_separate_regimes(self):
        with pytest.raises(DeviceError):
            GraphWeights(inner_weight=0.6, shuttle_weight=1.0, threshold=0.5)
        with pytest.raises(DeviceError):
            GraphWeights(threshold=2.0)

    def test_positive_weights_required(self):
        with pytest.raises(DeviceError):
            GraphWeights(inner_weight=0.0)
        with pytest.raises(DeviceError):
            GraphWeights(shuttle_weight=-1.0)

    def test_with_ratio(self):
        weights = GraphWeights().with_ratio(100.0)
        assert weights.ratio == pytest.approx(100.0)
        assert weights.inner_weight == pytest.approx(0.001)
        with pytest.raises(DeviceError):
            GraphWeights().with_ratio(-5)
