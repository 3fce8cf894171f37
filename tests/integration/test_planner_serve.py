"""Serving-layer planner integration: auto mode, calibration files,
session variants, and the lazy-dial client."""

import socket

import numpy as np
import pytest

from repro.core.sttsv_sequential import sttsv_packed
from repro.planner import Calibration, TransportConstants
from repro.service.client import ServiceClient
from repro.service.protocol import ErrorCode, ServiceError
from repro.service.server import STTSVServer
from repro.tensor.dense import random_symmetric
from repro.tensor.symk import random_symk


def _write_calibration(tmp_path, alpha, beta):
    calibration = Calibration(
        backends={
            "simulated": TransportConstants(alpha=alpha, beta=beta),
            "shm": TransportConstants(alpha=alpha, beta=beta),
        },
        measured=True,
    )
    path = tmp_path / "cal.json"
    calibration.save(str(path))
    return str(path)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestAutoMode:
    def test_auto_serves_bitwise_identical_to_explicit(self):
        """The acceptance property: a planner-resolved session's served
        results are bitwise identical to an explicitly configured
        session with the same resolved fields."""
        n = 30
        tensor = random_symmetric(n, seed=3)
        rng = np.random.default_rng(4)
        with STTSVServer() as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                auto = client.register(
                    "auto", tensor, q=2, backend="auto", variant="auto"
                )
                assert auto["planned"] is True
                assert auto["variant"] in ("point-to-point", "all-to-all")
                explicit = client.register(
                    "explicit",
                    tensor,
                    q=2,
                    backend=auto["backend"],
                    variant=auto["variant"],
                    strategy=auto["plan_strategy"],
                )
                assert explicit["planned"] is False
                assert explicit["variant"] == auto["variant"]
                for _ in range(3):
                    x = rng.standard_normal(n)
                    for mode in ("plan", "parallel"):
                        y_auto = client.apply("auto", x, mode=mode)
                        y_explicit = client.apply("explicit", x, mode=mode)
                        assert np.array_equal(y_auto, y_explicit)
                        assert np.allclose(
                            y_auto,
                            sttsv_packed(tensor, x),
                            rtol=1e-10,
                            atol=1e-10,
                        )

    def test_calibration_file_steers_variant(self, tmp_path):
        """The server's auto resolution follows the calibration file:
        for a low-rank registration, α-heavy constants pick All-to-All
        and β-heavy pick p2p.

        The steering is pinned on ``symk`` because its point-to-point
        ring never fuses (P − 1 exchanges) while All-to-All packs into
        one fused exchange. A dense registration resolves to p2p under
        both calibrations: its fused p2p phase is one exchange too, so
        it matches All-to-All on latency and wins on words."""
        n = 60
        dense = random_symmetric(30, seed=5)
        low_rank = random_symk(n, 4, seed=5)
        for alpha, beta, expected in (
            (1e-2, 1e-9, "all-to-all"),
            (1e-9, 1e-3, "point-to-point"),
        ):
            path = _write_calibration(tmp_path, alpha, beta)
            with STTSVServer(calibration_path=path) as server:
                host, port = server.address
                with ServiceClient(host, port) as client:
                    reply = client.register(
                        "dense", dense, q=3, variant="auto"
                    )
                    assert reply["variant"] == "point-to-point"
                    reply = client.register_symk(
                        "steered", low_rank, q=2, variant="auto"
                    )
                    assert reply["variant"] == expected
                    x = np.random.default_rng(6).normal(size=n)
                    y = client.apply("steered", x, mode="parallel")
                    assert np.allclose(
                        y, low_rank.ttsv(x), rtol=1e-10, atol=1e-10
                    )

    def test_explicit_variant_is_kept_and_reported(self):
        n = 20
        tensor = random_symmetric(n, seed=7)
        with STTSVServer() as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                reply = client.register(
                    "a2a", tensor, q=2, variant="all-to-all"
                )
                assert reply["variant"] == "all-to-all"
                assert reply["planned"] is False
                x = np.random.default_rng(8).normal(size=n)
                y = client.apply("a2a", x, mode="parallel")
                assert np.allclose(
                    y, sttsv_packed(tensor, x), rtol=1e-10, atol=1e-10
                )
                stats = client.stats()
        snapshot = stats["sessions"]["a2a@q=2,P=10,simulated"]
        assert snapshot["variant"] == "all-to-all"

    def test_unknown_variant_is_bad_request(self):
        tensor = random_symmetric(20, seed=9)
        with STTSVServer() as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.register(
                        "bad", tensor, q=2, variant="carrier-pigeon"
                    )
                assert excinfo.value.code == ErrorCode.BAD_REQUEST


class TestLazyClient:
    def test_construction_never_dials(self):
        # No server is listening: constructing must not raise — the
        # first roundtrip dials inside the bounded retry loop.
        client = ServiceClient(
            "127.0.0.1", _free_port(), retries=1, retry_backoff_s=0.01
        )
        client.close()

    def test_failed_dial_counts_retries_then_raises(self):
        client = ServiceClient(
            "127.0.0.1", _free_port(), retries=2, retry_backoff_s=0.01
        )
        with pytest.raises(OSError):
            client.stats()
        # Both extra attempts redialed and were counted.
        assert client.reconnects == 2

    def test_client_built_before_server_starts_works(self):
        # The lazy dial means construction order no longer matters:
        # build the client first, start the server, then talk.
        port = _free_port()
        client = ServiceClient("127.0.0.1", port)
        server = STTSVServer(port=port)
        try:
            server.start()
            assert client.stats()["server"]["bad_requests"] >= 0
            assert client.reconnects == 0
        finally:
            client.close()
            server.stop()
