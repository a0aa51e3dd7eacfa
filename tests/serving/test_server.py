"""Tests for the JSON-lines TCP front end and its network client."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import ClassicalAE, ClassicalVAE
from repro.nn import save_module
from repro.serving import (
    GenerationServer,
    GenerationService,
    NetworkClient,
    ServingError,
    per_molecule_scores,
)
from repro.serving import server as server_module
from repro.serving.service import MAX_SAMPLE_COUNT

# The ``error`` names the server module documents for ``ok: false``.
ERROR_NAMES = {"queue_full", "request_timeout", "service_closed",
               "bad_request", "error"}


@pytest.fixture(scope="module")
def vae_checkpoint(tmp_path_factory):
    model = ClassicalVAE(input_dim=64, latent_dim=6,
                         rng=np.random.default_rng(0))
    return save_module(
        model, tmp_path_factory.mktemp("srv") / "vae",
        metadata={"model": "vae", "input_dim": 64, "n_patches": 4,
                  "n_layers": 3, "latent_dim": 6, "seed": 0},
    )


@pytest.fixture()
def server(vae_checkpoint):
    service = GenerationService(default_checkpoint=vae_checkpoint)
    srv = GenerationServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=srv.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        service.close()
        thread.join(timeout=5.0)


@pytest.fixture(scope="module")
def unserved(vae_checkpoint):
    """A server that never accepts: its ``respond`` runs without sockets."""
    service = GenerationService(default_checkpoint=vae_checkpoint)
    srv = GenerationServer(("127.0.0.1", 0), service)
    try:
        yield srv
    finally:
        srv.server_close()
        service.close()


def client_for(server):
    host, port = server.server_address[:2]
    return NetworkClient(host, port, timeout=30.0)


def raw_reply(client, line: bytes) -> dict:
    """Send raw bytes on the client's connection; parse one reply line."""
    client._sock.sendall(line)
    return json.loads(client._file.readline())


class TestWireProtocol:
    def test_ping(self, server):
        with client_for(server) as client:
            assert client.ping()

    def test_sample_matches_in_process(self, server, vae_checkpoint):
        with client_for(server) as client:
            over_wire = client.sample(4, seed=8)
        entry = server.service.registry.load(vae_checkpoint)
        direct = server.service.sample(4, seed=8)
        assert over_wire.shape == (4, 8, 8)
        # JSON round-trips float64 exactly (repr-based), so even the wire
        # path preserves plain equality.
        assert (over_wire == direct).all()
        assert entry.matrix_size() == 8

    def test_encode_round_trip(self, server):
        features = np.random.default_rng(1).normal(size=(3, 64))
        with client_for(server) as client:
            latents = client.encode(features)
        assert (latents == server.service.encode(features)).all()

    def test_score_round_trip(self, server):
        matrices = np.random.default_rng(2).uniform(size=(3, 8, 8))
        with client_for(server) as client:
            scores = client.score(matrices)
        expected = per_molecule_scores(matrices)
        for name in expected:
            assert (scores[name] == expected[name]).all()

    def test_stats_over_wire(self, server):
        with client_for(server) as client:
            client.sample(2, seed=0)
            stats = client.stats()
        assert stats["models"] == 1
        assert stats["batcher"]["requests"] >= 1

    def test_multiple_requests_per_connection(self, server):
        with client_for(server) as client:
            first = client.sample(2, seed=1)
            second = client.sample(2, seed=1)
        assert (first == second).all()

    def test_concurrent_connections_micro_batch(self, server, worker_held):
        results = {}

        def one(seed):
            with client_for(server) as client:
                results[seed] = client.sample(3, seed=seed)

        threads = [threading.Thread(target=one, args=(s,)) for s in range(5)]
        with worker_held(server.service.batcher) as wait_queued:
            for thread in threads:
                thread.start()
            wait_queued(5)
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        # The five connections' requests ran as one stacked pass.
        assert server.service.stats()["batcher"]["batch_size_max"] == 5
        for seed in range(5):
            assert (results[seed] == server.service.sample(3, seed=seed)).all()


class TestWireErrors:
    def test_unknown_kind_is_bad_request(self, server):
        with client_for(server) as client:
            with pytest.raises(ServingError, match="unknown request kind"):
                client._request({"kind": "teleport"})

    def test_bad_shape_is_bad_request(self, server):
        with client_for(server) as client:
            with pytest.raises(ServingError, match="matrix stack"):
                client.score(np.zeros((2, 8, 9)))

    def test_invalid_json_reported_not_fatal(self, server):
        with client_for(server) as client:
            client._file.write("this is not json\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            assert response["error"] == "bad_request"
            assert client.ping()  # connection survives

    def test_json_that_is_not_an_object_is_bad_request(self, server):
        lines = ['"x"', "[1, 2]", "3", "null"]
        with client_for(server) as client:
            for line in lines:
                client._file.write(line + "\n")
            client._file.flush()
            for line in lines:
                response = json.loads(client._file.readline())
                assert response["ok"] is False, line
                assert response["error"] == "bad_request", line
                assert "JSON object" in response["message"]
            # One reply per line: the next reply on the same connection
            # answers the ping.
            assert client.ping()

    @pytest.mark.parametrize("line", [b"\x80abc\n", b"[" * 5000 + b"\n"],
                             ids=["invalid_utf8", "nested_5000_deep"])
    def test_undecodable_line_is_bad_request_not_fatal(self, server, line):
        # Each used to kill the handler thread (UnicodeDecodeError,
        # RecursionError): the client saw EOF, and a ping got no answer.
        with client_for(server) as client:
            response = raw_reply(client, line)
            assert response["ok"] is False
            assert response["error"] == "bad_request"
            assert response["message"].startswith("invalid JSON")
            assert client.ping()  # exactly one reply; connection survives

    def test_line_over_the_cap_is_refused_then_closed(self, server,
                                                      monkeypatch):
        # Lines used to be read until a newline, however long: a client
        # streaming bytes with no newline grew the server without bound.
        monkeypatch.setattr(server_module, "MAX_LINE_BYTES", 256)
        head = b'{"kind": "ping", "pad": "'
        with client_for(server) as client:
            client._sock.settimeout(10.0)
            at_cap = head + b"x" * (256 - len(head) - 3) + b'"}\n'
            assert len(at_cap) == 256
            assert raw_reply(client, at_cap) == {"ok": True}
            # No newline follows: the server must answer without one.
            response = raw_reply(client, head + b"x" * 4096)
            assert response == {
                "ok": False, "error": "bad_request",
                "message": "request line longer than 256 bytes; closing "
                           "the connection",
            }
            assert client._file.readline() == ""  # then EOF

    @pytest.mark.parametrize("message, field", [
        ({"kind": "sample"}, "count"),
        ({"kind": "sample", "seed": 3}, "count"),
        ({"kind": "encode"}, "features"),
        ({"kind": "score"}, "matrices"),
    ], ids=["sample", "sample_with_seed", "encode", "score"])
    def test_missing_field_names_kind_and_field(self, server, message,
                                                field):
        # Used to answer with the bare KeyError repr, e.g. "'count'".
        with client_for(server) as client:
            response = raw_reply(client, json.dumps(message).encode() + b"\n")
            assert response == {
                "ok": False, "error": "bad_request",
                "message": f"{message['kind']} request is missing the "
                           f"required field {field!r}",
            }
            assert client.ping()

    @pytest.mark.parametrize("message", [
        {"kind": "sample", "count": 2.9},
        {"kind": "sample", "count": True},
        {"kind": "sample", "count": "2"},
        {"kind": "sample", "count": 2, "seed": 1.5},
        {"kind": "sample", "count": 2, "seed": False},
    ], ids=["float_count", "bool_count", "string_count", "float_seed",
            "bool_seed"])
    def test_count_and_seed_must_be_json_integers(self, server, message):
        # 2.9 used to sample 2 matrices and true 1.
        with client_for(server) as client:
            client._file.write(json.dumps(message) + "\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            assert response["error"] == "bad_request"
            assert "must be a JSON integer" in response["message"]
            assert client.ping()

    def test_negative_seed_is_bad_request(self, server):
        # A negative seed used to fail inside the worker's default_rng with
        # a message that did not name the field.
        with client_for(server) as client:
            response = raw_reply(
                client, b'{"kind": "sample", "count": 2, "seed": -1}\n'
            )
            assert response == {
                "ok": False, "error": "bad_request",
                "message": "seed must be non-negative, got -1",
            }
            assert client.ping()
        # Refused on the calling thread: nothing reached the batcher.
        assert server.service.stats()["batcher"]["requests"] == 0

    def test_sample_count_cap_in_process(self, server):
        accepted = server.dispatch({"kind": "sample",
                                    "count": MAX_SAMPLE_COUNT})
        assert accepted["ok"] is True
        assert len(accepted["matrices"]) == MAX_SAMPLE_COUNT
        refused = server.dispatch({"kind": "sample",
                                   "count": MAX_SAMPLE_COUNT + 1})
        assert refused["ok"] is False
        assert refused["error"] == "bad_request"
        assert f"at most {MAX_SAMPLE_COUNT}" in refused["message"]

    def test_sample_count_cap_over_wire(self, server):
        with client_for(server) as client:
            matrices = client.sample(MAX_SAMPLE_COUNT, seed=4)
            assert matrices.shape == (MAX_SAMPLE_COUNT, 8, 8)
            line = json.dumps({"kind": "sample",
                               "count": MAX_SAMPLE_COUNT + 1})
            client._file.write(line + "\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            assert response["error"] == "bad_request"
            assert f"at most {MAX_SAMPLE_COUNT}" in response["message"]
            assert client.ping()  # connection survives

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("kind", ["encode", "score"])
    def test_non_finite_arrays_are_bad_requests(self, server, kind, bad):
        # Python's json reads NaN/Infinity, so these reach the service.
        if kind == "encode":
            rows = np.ones((1, 64)).tolist()
            rows[0][5] = bad
            message = {"kind": "encode", "features": rows}
        else:
            rows = np.zeros((1, 8, 8)).tolist()
            rows[0][2][2] = bad
            message = {"kind": "score", "matrices": rows}
        line = json.dumps(message)
        assert "NaN" in line or "Infinity" in line
        with client_for(server) as client:
            client._file.write(line + "\n")
            client._file.flush()
            response = json.loads(client._file.readline())
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "must be finite" in response["message"]

    def test_sample_from_plain_ae_maps_to_bad_request(self, tmp_path):
        path = save_module(
            ClassicalAE(input_dim=64, latent_dim=6,
                        rng=np.random.default_rng(0)),
            tmp_path / "ae",
            metadata={"model": "ae", "input_dim": 64, "n_patches": 4,
                      "n_layers": 3, "latent_dim": 6, "seed": 0},
        )
        service = GenerationService(default_checkpoint=path)
        srv = GenerationServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=srv.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            with client_for(srv) as client:
                with pytest.raises(ServingError,
                                   match="vanilla autoencoder"):
                    client.sample(2)
        finally:
            srv.shutdown()
            srv.server_close()
            service.close()
            thread.join(timeout=5.0)


def assert_one_reply(reply: bytes) -> None:
    """One JSON object on one line, with a boolean ``ok`` and, on failure,
    one of the documented error names."""
    assert reply.endswith(b"\n") and reply.count(b"\n") == 1
    response = json.loads(reply)
    assert isinstance(response, dict)
    assert isinstance(response["ok"], bool)
    if not response["ok"]:
        assert response["error"] in ERROR_NAMES
        assert isinstance(response["message"], str)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=30,
)
# Objects shaped like requests, so the property reaches every kind's
# validation rather than stopping at "unknown kind".
REQUESTS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["ping", "stats", "sample", "encode", "score"])
     | JSON_VALUES},
    optional={"count": st.integers(-3, MAX_SAMPLE_COUNT + 3) | JSON_VALUES,
              "seed": JSON_VALUES, "features": JSON_VALUES,
              "matrices": JSON_VALUES},
)


def _nested(depth: int, opener: str) -> str:
    if opener == "[":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "1" + "}" * depth


class TestEveryLineGetsOneReply:
    """Property: every non-blank line gets exactly one well-formed reply."""

    @settings(max_examples=300, deadline=None)
    @given(line=st.binary(min_size=1).filter(
        lambda b: b"\n" not in b and b.strip()))
    def test_arbitrary_bytes(self, unserved, line):
        assert_one_reply(unserved.respond(line))

    @settings(max_examples=150, deadline=None)
    @given(value=JSON_VALUES | REQUESTS)
    def test_arbitrary_json_values(self, unserved, value):
        assert_one_reply(unserved.respond(json.dumps(value).encode()))

    @settings(max_examples=40, deadline=None)
    @given(depth=st.integers(1, 6000), opener=st.sampled_from("[{"))
    def test_arbitrarily_deep_nesting(self, unserved, depth, opener):
        line = _nested(depth, opener).encode()
        assert_one_reply(unserved.respond(line))


class TestLifetime:
    def test_max_requests_shuts_the_server_down(self, vae_checkpoint):
        service = GenerationService(default_checkpoint=vae_checkpoint)
        srv = GenerationServer(("127.0.0.1", 0), service, max_requests=3)
        thread = threading.Thread(target=srv.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            with client_for(srv) as client:
                for __ in range(3):  # pings count toward the budget
                    client.ping()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            srv.server_close()
            service.close()
