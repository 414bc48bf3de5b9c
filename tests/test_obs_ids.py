"""The shared "run:req" id scheme: how request and span ids are built."""

from repro.obs.ids import attempt_id, request_id, route_id, slot_id


class TestRequestIds:
    def test_format_is_run_colon_req(self):
        assert request_id(2, 41) == "2:41"


class TestSpanIds:
    def test_slot_route_attempt_construction(self):
        root = request_id(1, 5)
        assert slot_id(root, 2) == "1:5/g2"
        assert route_id("1:5/g2", 0) == "1:5/g2/r0"
        assert attempt_id("1:5/g2", 3) == "1:5/g2/a3"
