"""Tests for the HTTP serving front end (`repro.service.http`).

An in-process :class:`BackgroundHttpServer` (own thread, own event loop)
serves each test; the blocking :class:`ServiceClient` exercises the wire.
The core contract under test: HTTP identify responses are bit-identical to
in-process ``ReferenceGallery.identify``, concurrent network clients are
coalesced by the micro-batcher, errors map to structured 400/404/413
documents, and shutdown/close paths are graceful and idempotent.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.runtime.cache import ArtifactCache
from repro.runtime.faults import install_plan
from repro.service import (
    BackgroundHttpServer,
    GalleryRegistry,
    HttpServiceError,
    IdentificationService,
    IdentifyRequest,
    ServiceClient,
    ServiceConfig,
)
from repro.service.codec import CONTENT_TYPE_BINARY
from repro.service.http import (
    identify_request_to_wire,
    scan_from_wire,
    scan_to_wire,
)


@pytest.fixture()
def http_service(sessions):
    """A service over the ``hcp`` gallery with a real coalescing window."""
    reference_scans, _ = sessions
    config = ServiceConfig(n_features=60, batch_window_s=0.05)
    registry = GalleryRegistry(config=config, cache=ArtifactCache())
    registry.build("hcp", reference_scans)
    service = IdentificationService(registry=registry, config=config)
    yield service
    service.close()


@pytest.fixture()
def server(http_service):
    with BackgroundHttpServer(http_service, port=0) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as service_client:
        yield service_client


class TestWireCodec:
    def test_scan_round_trips_bit_exact_through_json(self, sessions):
        scan = sessions[1][0]
        restored = scan_from_wire(json.loads(json.dumps(scan_to_wire(scan))))
        assert restored.subject_id == scan.subject_id
        assert restored.task == scan.task
        assert restored.session == scan.session
        assert restored.timeseries.dtype == np.float64
        assert np.array_equal(restored.timeseries, scan.timeseries)

    def test_identify_wire_requires_a_scan_payload(self, sessions):
        request = IdentifyRequest(gallery="hcp", scans=list(sessions[1][:1]))
        request.scans = None
        with pytest.raises(ValidationError):
            identify_request_to_wire(request)

    def test_malformed_scan_payloads_are_validation_errors(self):
        with pytest.raises(ValidationError):
            scan_from_wire("not an object")
        with pytest.raises(ValidationError):
            scan_from_wire({"subject_id": "s1"})  # missing fields
        with pytest.raises(ValidationError):
            scan_from_wire(
                {
                    "subject_id": "s1",
                    "task": "REST",
                    "session": "REST1_RL",
                    "timeseries": [["a", "b"], ["c", "d"]],
                }
            )


class TestHttpIdentify:
    def test_response_is_bit_identical_to_in_process_identify(
        self, http_service, client, sessions
    ):
        _, probe_scans = sessions
        serial = http_service.registry.get("hcp").identify(probe_scans)
        response = client.identify(gallery="hcp", scans=probe_scans)
        assert response.ok
        assert response.predicted_subject_ids == serial.predicted_subject_ids
        assert np.array_equal(np.asarray(response.margins), serial.margin())
        assert response.accuracy == serial.accuracy()
        assert response.n_gallery_subjects == http_service.registry.get("hcp").n_subjects

    def test_metadata_and_request_id_round_trip(self, client, sessions):
        _, probe_scans = sessions
        request = IdentifyRequest(
            gallery="hcp", scans=probe_scans[:1], metadata={"trace": "t-42"}
        )
        response = client.identify(request)
        assert response.request_id == request.request_id
        assert response.metadata == {"trace": "t-42"}

    def test_concurrent_clients_coalesce_into_one_batch(
        self, http_service, server, sessions
    ):
        _, probe_scans = sessions
        n_clients = 4
        responses = [None] * n_clients
        barrier = threading.Barrier(n_clients)

        def worker(index: int):
            with ServiceClient(port=server.port) as one_client:
                barrier.wait()
                responses[index] = one_client.identify(
                    gallery="hcp", scans=[probe_scans[index]]
                )

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(response.ok for response in responses)
        # The per-event-loop batcher coalesced concurrent *network* clients.
        assert max(response.batch_size for response in responses) >= 2
        stats = http_service.stats()
        assert stats.max_batch_size >= 2
        assert stats.batchers == 1  # one server loop, one batcher


class TestHttpEnrollStatsHealth:
    def test_enroll_create_then_identify(self, client, sessions):
        reference_scans, probe_scans = sessions
        enroll = client.enroll(gallery="fresh", scans=reference_scans, create=True)
        assert enroll.ok and enroll.created and enroll.n_subjects == len(reference_scans)
        response = client.identify(gallery="fresh", scans=probe_scans[:2])
        assert response.ok and response.n_probes == 2

    def test_enroll_unknown_gallery_without_create_is_404(self, client, sessions):
        with pytest.raises(HttpServiceError) as excinfo:
            client.enroll(gallery="nope", scans=sessions[0][:1], create=False)
        assert excinfo.value.status == 404

    def test_stats_and_healthz(self, client, sessions):
        assert client.healthz() == {"status": "ok", "galleries": ["hcp"]}
        client.identify(gallery="hcp", scans=sessions[1][:1])
        stats = client.stats()
        assert stats.requests >= 1
        assert stats.galleries.get("hcp", 0) >= 1


class TestHttpErrorMapping:
    def test_malformed_json_is_400_with_structured_error(self, client):
        with pytest.raises(HttpServiceError) as excinfo:
            client._request("POST", "/identify", None)  # empty body
        assert excinfo.value.status == 400
        assert excinfo.value.payload["status"] == "error"
        assert excinfo.value.payload["error"]["type"] == "ValidationError"

    def test_raw_garbage_body_is_400(self, server):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.request(
                "POST", "/identify", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["type"] == "ValidationError"
            assert "JSON" in payload["error"]["message"]
        finally:
            connection.close()

    def test_unknown_gallery_is_404(self, client, sessions):
        with pytest.raises(HttpServiceError) as excinfo:
            client.identify(gallery="missing", scans=sessions[1][:1])
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"]["type"] == "UnknownGallery"

    def test_oversized_request_is_413(self, http_service, sessions):
        with BackgroundHttpServer(
            http_service, port=0, max_request_bytes=1024
        ) as tiny_server:
            with ServiceClient(port=tiny_server.port) as tiny_client:
                with pytest.raises(HttpServiceError) as excinfo:
                    tiny_client.identify(gallery="hcp", scans=sessions[1][:1])
                assert excinfo.value.status == 413
                assert excinfo.value.payload["error"]["type"] == "PayloadTooLarge"

    def test_oversized_upload_larger_than_socket_buffers_still_gets_413(
        self, http_service
    ):
        """The server must linger-close: a client mid-way through a large
        upload has to receive the 413, not a broken pipe."""
        import http.client

        with BackgroundHttpServer(
            http_service, port=0, max_request_bytes=1024
        ) as tiny_server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", tiny_server.port, timeout=30
            )
            try:
                connection.request(
                    "POST", "/identify", body=b"x" * (8 * 1024 * 1024),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 413
                assert payload["error"]["type"] == "PayloadTooLarge"
            finally:
                connection.close()

    def test_chunked_transfer_encoding_is_refused_with_501(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /identify HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
            )
            data = sock.recv(65536)
        status_line = data.split(b"\r\n", 1)[0]
        assert b"501" in status_line

    def test_unknown_path_is_404_and_wrong_method_is_405(self, client):
        with pytest.raises(HttpServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(HttpServiceError) as excinfo:
            client._request("GET", "/identify")
        assert excinfo.value.status == 405
        with pytest.raises(HttpServiceError) as excinfo:
            client._request("POST", "/stats", {})
        assert excinfo.value.status == 405


class TestBinaryCodecOverHttp:
    def test_binary_identify_is_bit_identical_to_in_process(
        self, http_service, server, sessions
    ):
        _, probe_scans = sessions
        serial = http_service.registry.get("hcp").identify(probe_scans)
        with ServiceClient(port=server.port, codec="binary") as binary_client:
            response = binary_client.identify(gallery="hcp", scans=probe_scans)
        assert response.ok
        assert response.predicted_subject_ids == serial.predicted_subject_ids
        assert np.array_equal(np.asarray(response.margins), serial.margin())

    def test_binary_enroll_streams_past_the_buffered_body_limit(
        self, http_service, sessions
    ):
        """A frame-streamed enroll may exceed max_request_bytes (the server
        decodes scan by scan up to max_stream_bytes); the same upload as
        one buffered JSON body is refused with 413."""
        reference_scans, probe_scans = sessions
        with BackgroundHttpServer(
            http_service, port=0, max_request_bytes=1024
        ) as tiny_server:
            with ServiceClient(port=tiny_server.port) as json_client:
                with pytest.raises(HttpServiceError) as excinfo:
                    json_client.enroll(
                        gallery="streamed", scans=reference_scans, create=True
                    )
                assert excinfo.value.status == 413
            with ServiceClient(port=tiny_server.port, codec="binary") as bin_client:
                enroll = bin_client.enroll(
                    gallery="streamed", scans=reference_scans, create=True
                )
                assert enroll.ok and enroll.created
                assert enroll.n_subjects == len(reference_scans)
                assert "streamed" in bin_client.healthz()["galleries"]
        # The streamed gallery serves identifies like any other (the tiny
        # buffered-body limit above only capped /identify stream size).
        response = http_service.identify(
            IdentifyRequest(gallery="streamed", scans=probe_scans[:2])
        )
        assert response.ok and response.n_probes == 2

    def test_structural_frame_error_is_structured_400_then_close(self, server):
        """A broken frame stream must get the FrameError document and a
        clean close — never a desync into the next request."""
        import socket

        body = b"XXXX" + b"\x00" * 32  # bad magic, then junk
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                (
                    f"POST /identify HTTP/1.1\r\n"
                    f"Host: localhost\r\n"
                    f"Content-Type: {CONTENT_TYPE_BINARY}\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed after answering: no desync window
                chunks.append(chunk)
        raw = b"".join(chunks)
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n", 1)[0]
        assert b"Connection: close" in head
        document = json.loads(payload)
        assert document["status"] == "error"
        assert document["error"]["type"] == "FrameError"

    def test_oversized_binary_identify_stream_is_413(self, http_service, sessions):
        with BackgroundHttpServer(
            http_service, port=0, max_request_bytes=1024
        ) as tiny_server:
            with ServiceClient(port=tiny_server.port, codec="binary") as bin_client:
                with pytest.raises(HttpServiceError) as excinfo:
                    bin_client.identify(gallery="hcp", scans=sessions[1][:1])
                assert excinfo.value.status == 413


class TestPipelinedConnections:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_pipelined_identifies_keep_order_and_coalesce(
        self, server, sessions, codec
    ):
        _, probe_scans = sessions
        requests = [
            IdentifyRequest(gallery="hcp", scans=[scan]) for scan in probe_scans[:6]
        ]
        with ServiceClient(port=server.port, codec=codec) as pipelined_client:
            responses = pipelined_client.identify_pipelined(requests)
        assert [response.request_id for response in responses] == [
            request.request_id for request in requests
        ]
        assert all(response.ok for response in responses)
        # Pipelined requests on ONE connection coalesce like concurrent
        # clients do: they dispatch concurrently into the micro-batcher.
        assert max(response.batch_size for response in responses) >= 2

    def test_pipelined_error_carries_the_structured_document(self, server, sessions):
        requests = [IdentifyRequest(gallery="missing", scans=sessions[1][:1])]
        with ServiceClient(port=server.port) as pipelined_client:
            with pytest.raises(HttpServiceError) as excinfo:
                pipelined_client.identify_pipelined(requests)
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"]["type"] == "UnknownGallery"

    def test_client_reuses_one_keep_alive_connection(self, server, sessions):
        before = server.server.connections_accepted
        with ServiceClient(port=server.port) as reuse_client:
            reuse_client.healthz()
            reuse_client.identify(gallery="hcp", scans=sessions[1][:1])
            reuse_client.identify(gallery="hcp", scans=sessions[1][:1])
            reuse_client.stats()
            assert reuse_client.connections_opened == 1
        assert server.server.connections_accepted == before + 1


class TestLifecycle:
    def test_background_server_stop_is_graceful_and_repeatable(self, http_service):
        background = BackgroundHttpServer(http_service, port=0).start()
        with ServiceClient(port=background.port) as probe_client:
            assert probe_client.healthz()["status"] == "ok"
        background.stop()
        background.stop()  # second stop is a no-op
        with pytest.raises((ConnectionError, OSError)):
            ServiceClient(port=background.port, timeout=1.0).healthz()

    def test_requests_served_counts_every_answer(self, server, client, sessions):
        import time

        before = server.server.requests_served
        client.healthz()
        client.identify(gallery="hcp", scans=sessions[1][:1])
        # The counter ticks just after the response bytes hit the wire, so
        # give the server loop a beat to pass that line.
        deadline = time.monotonic() + 2.0
        while server.server.requests_served < before + 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.server.requests_served == before + 2

    def test_service_close_is_idempotent_and_reentrant(self, http_service, sessions):
        _, probe_scans = sessions
        http_service.close()
        http_service.close()  # second close must be a no-op
        # Serving still works after close (resources respawn lazily) ...
        response = http_service.identify(
            IdentifyRequest(gallery="hcp", scans=probe_scans[:1])
        )
        assert response.ok
        # ... and concurrent closes from several threads are safe.
        threads = [threading.Thread(target=http_service.close) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_registry_close_is_idempotent(self, registry):
        registry.close()
        registry.close()
        assert registry.get("hcp") is not None

    def test_close_with_requests_in_flight_is_safe(self, http_service, server, sessions):
        """The SIGINT path calls close() while HTTP batches may be draining."""
        _, probe_scans = sessions
        results = []

        def fire():
            with ServiceClient(port=server.port) as inflight_client:
                results.append(
                    inflight_client.identify(gallery="hcp", scans=[probe_scans[0]])
                )

        thread = threading.Thread(target=fire)
        thread.start()
        http_service.close()  # races the in-flight identify on purpose
        thread.join()
        assert results and results[0].ok


class TestInjectedConnectionDrops:
    """The ``http.drop_connection`` fault site vs. the client's resend rules.

    A dropped connection is the one fault where the *client* decides what
    is safe: a GET is idempotent and is resent on a fresh connection, but
    a POST that was fully sent may already have executed server-side, so
    the error must propagate to the caller instead of a blind retry.
    """

    def _dropping_service(self, sessions, fault_plan):
        reference_scans, _ = sessions
        config = ServiceConfig(
            n_features=60, batch_window_s=0.01, fault_plan=fault_plan
        )
        registry = GalleryRegistry(config=config, cache=ArtifactCache())
        registry.build("hcp", reference_scans)
        return IdentificationService(registry=registry, config=config)

    def test_dropped_get_is_transparently_resent(self, sessions):
        plan = {"seed": 0,
                "rules": [{"site": "http.drop_connection", "start": 1, "limit": 1}]}
        service = self._dropping_service(sessions, plan)
        try:
            with BackgroundHttpServer(service, port=0) as background:
                with ServiceClient(port=background.port) as service_client:
                    assert service_client.healthz()["status"] == "ok"
                    # Request index 1 is torn down after the server reads it
                    # but before it answers; the client resends the GET on a
                    # fresh connection and the caller never sees the fault.
                    assert service_client.healthz() == {
                        "status": "ok",
                        "galleries": ["hcp"],
                    }
                assert background.server._fault_plan.fired() == {
                    "http.drop_connection": 1
                }
        finally:
            service.close()
            install_plan(None)

    def test_dropped_post_raises_instead_of_blind_retry(self, sessions):
        _, probe_scans = sessions
        plan = {"seed": 0,
                "rules": [{"site": "http.drop_connection", "start": 0, "limit": 1}]}
        service = self._dropping_service(sessions, plan)
        try:
            serial = service.registry.get("hcp").identify(probe_scans[:1])
            with BackgroundHttpServer(service, port=0) as background:
                with ServiceClient(port=background.port) as service_client:
                    with pytest.raises(OSError):
                        service_client.identify(gallery="hcp", scans=probe_scans[:1])
                    # The fault fired before dispatch, so the identify never
                    # executed — exactly why the client may not retry blind:
                    # it cannot know that from the dead socket alone.
                    assert service.stats().requests == 0
                    retried = service_client.identify(
                        gallery="hcp", scans=probe_scans[:1]
                    )
                    assert retried.ok
                    assert retried.predicted_subject_ids == serial.predicted_subject_ids
                assert background.server._fault_plan.fired() == {
                    "http.drop_connection": 1
                }
        finally:
            service.close()
            install_plan(None)
