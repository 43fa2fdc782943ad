"""The rebuild path of ``UpdateableIndex.apply``: a scheme whose row has
no ``repair`` (tz here) rebuilds on any dirty batch (stretch3's repair
path: ``tests/test_service_updates.py``)."""

from __future__ import annotations

import numpy as np

from repro.service.updates import EdgeChange, UpdateableIndex


class TestUpdateSemantics:
    def test_tz_rebuilds(self, triangle):
        upd = UpdateableIndex(triangle, scheme="tz", seed=1, k=2)
        report = upd.apply([EdgeChange("set", 0, 1, 3.5)])
        assert report.mode == "rebuild"
        rebuilt = upd.rebuild_reference()
        assert upd.index == rebuilt
        us, vs = np.divmod(np.arange(9), 3)
        assert upd.index.estimate_many(us, vs).tolist() == \
            rebuilt.estimate_many(us, vs).tolist()
