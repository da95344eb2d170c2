"""Same seed → byte-identical inputs and schedule; another seed → others."""

import pytest

from ledger import inputs, spec

QUICK = spec.SIZES["quick"]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_seed_decides_the_inputs(workload):
    a = inputs.digest(workload, 3, QUICK)
    assert a == inputs.digest(workload, 3, QUICK)
    assert a != inputs.digest(workload, 4, QUICK)


def test_arrival_schedule_and_bodies_repeat():
    reqs = inputs.probe_requests(5, 64, 8, 256)
    again = inputs.probe_requests(5, 64, 8, 256)
    assert [r["body"] for r in reqs] == [r["body"] for r in again]
    assert [r["body"] for r in reqs] != [r["body"] for r in inputs.probe_requests(6, 64, 8, 256)]
    # exactly one large body in every group of eight
    sizes = [r["n"] for r in reqs]
    assert all(sum(n == 256 for n in sizes[i:i + 8]) == 1 for i in range(0, 64, 8))
    due = inputs.arrival_schedule(32, 100)
    assert due == inputs.arrival_schedule(32, 100)
    assert due[0] == due[1] == 0.0 and due[2] == due[3] == pytest.approx(0.01)
    assert inputs.oracle_sample(5, 200) == inputs.oracle_sample(5, 200)
    assert len(inputs.oracle_sample(5, 200)) == 4


def test_camera_offset_stays_within_one_pixel():
    for seed in range(5):
        cam = inputs.camera(seed, 100)
        pitch = cam["cVec"][0]
        assert abs(cam["orig"][0] + 15.0) <= pitch / 2
        assert abs(cam["orig"][1] + 15.0) <= pitch / 2
