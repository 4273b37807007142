"""Tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import queue
import time

import numpy as np
import pytest

from harness import (
    Expected,
    chunked_percentile,
    bitwise_match,
    run_open_loop,
    tail_percentile,
)


def _same_scans(left, right) -> bool:
    return all(
        a.subject_id == b.subject_id and a.session == b.session
        and a.timeseries.tobytes() == b.timeseries.tobytes()
        for a, b in zip(left, right)
    ) and len(left) == len(right)


class TestSeededInputs:
    def test_open_loop_inputs_repeat_per_seed(self):
        from http_load import make_inputs

        first = make_inputs("fresh_stream", seed=5, seconds=0.5)
        again = make_inputs("fresh_stream", seed=5, seconds=0.5)
        other = make_inputs("fresh_stream", seed=6, seconds=0.5)
        assert first["due"].tobytes() == again["due"].tobytes()
        for key in ("stream", "warmup", "enrolls"):
            assert _same_scans(first[key], again[key])
        for name in ("main", "side"):
            assert _same_scans(first["galleries"][name], again["galleries"][name])
        assert not _same_scans(first["stream"], other["stream"])

    def test_routed_inputs_repeat_per_seed(self):
        from routed import make_inputs

        first, again, other = make_inputs(3), make_inputs(3), make_inputs(4)
        assert first["ops"] == again["ops"]
        for name, data in first["galleries"].items():
            for key in ("reference", "enrolls", "probes"):
                assert _same_scans(data[key], again["galleries"][name][key])
        name = next(iter(first["galleries"]))
        assert not _same_scans(first["galleries"][name]["probes"],
                               other["galleries"][name]["probes"])


class TestTailPercentile:
    @pytest.mark.parametrize("count, expected", [
        (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
        (9999, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_samples_beyond(self, count, expected):
        q, value = tail_percentile(list(range(count)))
        assert q == expected
        assert value == pytest.approx(np.percentile(np.arange(count), expected))

    def test_too_few_samples(self):
        assert tail_percentile(list(range(19))) is None

    @pytest.mark.parametrize("count, q", [(999, 99.0), (99, 90.0)])
    def test_unsupported_tail_is_not_reported(self, count, q):
        assert np.isnan(chunked_percentile(list(range(count)), q))

    @pytest.mark.parametrize("count, q", [(1000, 99.0), (100, 90.0)])
    def test_one_chunk_is_the_plain_percentile(self, count, q):
        assert chunked_percentile(list(range(count)), q) == pytest.approx(
            np.percentile(np.arange(count), q))

    def test_every_chunk_keeps_ten_beyond(self):
        """2999 samples make two chunks (1499 and 1500), not three of 999."""
        samples = [1.0] * 1499 + [2.0] * 1500
        assert chunked_percentile(samples, 99.0) == pytest.approx(1.5)

    def test_a_stall_in_one_chunk_does_not_decide_the_tail(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(1.0, 2.0, size=5000)
        stalled = samples.copy()
        stalled[:1000] += 50.0
        assert chunked_percentile(stalled, 99.0) == pytest.approx(
            chunked_percentile(samples, 99.0), rel=0.05)


class TestOracle:
    @pytest.fixture(scope="class")
    def replay(self):
        from repro.datasets.hcp import HCPLikeDataset
        from repro.gallery.reference import ReferenceGallery
        from repro.runtime.cache import ArtifactCache

        dataset = HCPLikeDataset(n_subjects=12, n_regions=16, n_timepoints=40, random_state=2)
        gallery = ReferenceGallery.from_scans(
            dataset.generate_session("REST", encoding="LR", day=1),
            n_features=20, cache=ArtifactCache())
        probe = dataset.generate_scan(3, "REST", encoding="RL", day=2)
        result = gallery.identify([probe])
        return result, Expected.of(result)

    def test_identical_response_passes(self, replay):
        result, expected = replay
        margins = [float(m) for m in result.margin()]
        assert bitwise_match(expected, result.predicted_subject_ids, margins)

    def test_one_ulp_in_a_margin_fails(self, replay):
        result, expected = replay
        margins = [float(np.nextafter(m, np.inf)) for m in result.margin()]
        assert not bitwise_match(expected, result.predicted_subject_ids, margins)

    def test_other_prediction_fails(self, replay):
        result, expected = replay
        margins = [float(m) for m in result.margin()]
        assert not bitwise_match(expected, ["someone-else"], margins)


class TestOpenLoop:
    def test_latency_counts_from_due_time(self):
        """A stall before request 0 delays request 1, and its latency shows it."""
        stall = 0.08
        responses = queue.Queue()

        def send(index):
            if index == 0:
                time.sleep(stall)
            responses.put(index)

        records = run_open_loop([0.0, 0.001, 0.5], send, responses.get)
        assert [record.response for record in records] == [0, 1, 2]
        second = records[1]
        assert second.latency == pytest.approx(second.done - second.due)
        assert second.lag >= stall - 0.01
        assert second.latency >= stall - 0.01
        # The request sent on schedule is not charged for the earlier stall.
        assert records[2].latency < stall / 2
