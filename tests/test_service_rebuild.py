"""The rebuild path of ``UpdateableIndex.apply``, forced for the whole
module (``always_rebuild``; the repair path's suites are in
``tests/test_service_updates.py``, forced by ``always_repair``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.updates import EdgeChange, UpdateableIndex

pytestmark = pytest.mark.usefixtures("always_rebuild")


class TestUpdateSemantics:
    def test_threshold_forces_rebuild(self, triangle):
        upd = UpdateableIndex(triangle, scheme="tz", seed=1, k=2)
        report = upd.apply([EdgeChange("set", 0, 1, 3.5)])
        assert report.mode == "rebuild"
        rebuilt = upd.rebuild_reference()
        assert upd.index == rebuilt
        us, vs = np.divmod(np.arange(9), 3)
        assert upd.index.estimate_many(us, vs).tolist() == \
            rebuilt.estimate_many(us, vs).tolist()
