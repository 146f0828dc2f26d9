"""Open-loop lateness accounting."""

import time

import pytest

from loadgen import OpenLoop


def test_stalled_request_charges_lateness_to_requests_behind_it():
    rate, stall = 50.0, 0.2  # a request is due every 20 ms

    def make_send():
        def send(request):
            if request == 3:
                time.sleep(stall)
            return True

        return send

    loop = OpenLoop(list(range(10)), rate, duration=10 / rate, make_send=make_send, senders=1)
    samples = sorted(loop.run(), key=lambda s: s.due)
    assert len(samples) == 10 and all(s.ok for s in samples)
    for index, sample in enumerate(samples):
        assert sample.due == pytest.approx(loop.start_time + index / rate)
    # Before the stall the generator keeps its schedule.
    assert max(s.late for s in samples[:4]) < 0.015
    # The request queued right behind the stall is sent ~stall - 1/rate late,
    # and its latency, timed from when it was due, includes that wait.
    behind = samples[4]
    assert behind.late == pytest.approx(stall - 1 / rate, abs=0.03)
    assert behind.latency >= behind.late
    # The backlog drains one request at a time, so each later request is
    # less late than the one before it.
    lates = [s.late for s in samples[4:8]]
    assert lates == sorted(lates, reverse=True)
    assert samples[3].latency == pytest.approx(stall, abs=0.03)


def test_failed_and_raising_requests_are_samples():
    def make_send():
        def send(request):
            if request == 1:
                raise ConnectionError("refused")
            return request != 2

        return send

    samples = OpenLoop([0, 1, 2, 3], 200.0, duration=0.02, make_send=make_send).run()
    assert len(samples) == 4
    assert sum(1 for s in samples if not s.ok) == 2
