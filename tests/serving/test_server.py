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


def _vae_file(path, seed):
    return save_module(
        ClassicalVAE(input_dim=64, latent_dim=6,
                     rng=np.random.default_rng(seed)),
        path,
        metadata={"model": "vae", "input_dim": 64, "n_patches": 4,
                  "n_layers": 3, "latent_dim": 6, "seed": seed},
    )


@pytest.fixture(scope="module")
def vae_checkpoint(tmp_path_factory):
    return _vae_file(tmp_path_factory.mktemp("srv") / "vae", 0)


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

    @pytest.mark.parametrize("shape", [(1, 32, 32), (MAX_SAMPLE_COUNT, 8, 8)],
                             ids=["side_32", "max_rows"])
    def test_score_at_the_caps_is_scored(self, unserved, shape):
        line = json.dumps({"kind": "score", "matrices": np.zeros(shape).tolist()})
        response = json.loads(unserved.respond(line.encode()))
        assert response["ok"] is True
        assert len(response["usable"]) == shape[0]

    @pytest.mark.parametrize("shape", [(1, 33, 33), (MAX_SAMPLE_COUNT + 1, 8, 8)],
                             ids=["side_33", "too_many_rows"])
    def test_score_past_the_caps_is_bad_request(self, unserved, shape):
        # A 1024 x 1024 stack used to hold the scorer for five minutes and
        # expire every request queued behind it.
        before = unserved.service.stats()["batcher"]["requests"]
        line = json.dumps({"kind": "score", "matrices": np.zeros(shape).tolist()})
        reply = unserved.respond(line.encode())
        assert_one_reply(reply)
        response = json.loads(reply)
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert response["message"].startswith("matrices")
        assert unserved.service.stats()["batcher"]["requests"] == before

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


@pytest.fixture(scope="module")
def checkpoint_tree(tmp_path_factory):
    """``served/`` holds the default and a sibling; the rest lies outside.

    ``served/link.npz`` is a symlink to ``elsewhere/other.npz``,
    ``served/loop.npz`` a symlink to itself, and ``elsewhere/secret.txt``
    stands in for any readable non-checkpoint.
    """
    root = tmp_path_factory.mktemp("tree")
    (root / "served" / "sub").mkdir(parents=True)
    (root / "elsewhere").mkdir()
    paths = {
        "default": _vae_file(root / "served" / "sq", 0),
        "sibling": _vae_file(root / "served" / "other", 1),
        "nested": _vae_file(root / "served" / "sub" / "deep", 2),
        "outside": _vae_file(root / "elsewhere" / "other", 3),
    }
    (root / "elsewhere" / "secret.txt").write_text("not a checkpoint\n")
    paths["secret"] = root / "elsewhere" / "secret.txt"
    paths["link"] = root / "served" / "link.npz"
    paths["link"].symlink_to(paths["outside"])
    (root / "served" / "loop.npz").symlink_to("loop.npz")
    paths["root"] = root
    return paths


@pytest.fixture()
def tree_server(checkpoint_tree, monkeypatch):
    """An unsocketed server on ``served/sq.npz`` that records every
    checkpoint its registry is asked to open."""
    service = GenerationService(default_checkpoint=checkpoint_tree["default"])
    srv = GenerationServer(("127.0.0.1", 0), service)
    opened = []
    load = service.registry.load

    def recording_load(checkpoint):
        opened.append(checkpoint)
        return load(checkpoint)

    monkeypatch.setattr(service.registry, "load", recording_load)
    srv.opened = opened
    try:
        yield srv
    finally:
        srv.server_close()
        service.close()


def _escapes(tree):
    """Wire ``checkpoint`` values the server must refuse, by case name."""
    served = tree["root"] / "served"
    return {
        "outside_directory": str(tree["outside"]),
        "readable_non_checkpoint": str(tree["secret"]),
        "dotdot_escape": str(served / ".." / "elsewhere" / "other.npz"),
        "symlink_escape": str(tree["link"]),
        "subdirectory": str(served / "sub" / "deep.npz"),
        "the_directory_itself": str(served),
        "missing_in_directory": str(served / "missing.npz"),
        "nul_byte": str(served / "sq\x00.npz"),
        "symlink_loop": str(served / "loop.npz"),
        "overlong_name": str(served / ("x" * 5000)),
    }


ESCAPE_CASES = ["outside_directory", "readable_non_checkpoint",
                "dotdot_escape", "symlink_escape", "subdirectory",
                "the_directory_itself", "missing_in_directory", "nul_byte",
                "symlink_loop", "overlong_name"]


class TestWireCheckpoint:
    """A wire ``checkpoint`` names a file beside the default, or nothing.

    Each escape used to be served: another directory's checkpoint loaded
    into the registry, ``/etc/hostname``-like files reached ``np.load``,
    and a missing file answered ``"error": "error"``.
    """

    @pytest.mark.parametrize("case", ESCAPE_CASES)
    @pytest.mark.parametrize("kind", ["sample", "encode"])
    def test_escape_is_refused_before_any_file_opens(
            self, tree_server, checkpoint_tree, kind, case):
        message = {"kind": kind, "checkpoint": _escapes(checkpoint_tree)[case]}
        if kind == "sample":
            message["count"] = 2
        else:
            message["features"] = np.ones((1, 64)).tolist()
        response = json.loads(tree_server.respond(json.dumps(message).encode()))
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert response["message"].startswith("checkpoint ")
        assert tree_server.opened == []
        assert len(tree_server.service.registry) == 1

    @pytest.mark.parametrize("value", [5, None, True, ["a.npz"],
                                       {"path": "a.npz"}],
                             ids=["int", "null", "bool", "list", "object"])
    def test_non_string_is_refused(self, tree_server, value):
        response = tree_server.dispatch(
            {"kind": "encode", "features": np.ones((1, 64)).tolist(),
             "checkpoint": value})
        assert response == {
            "ok": False, "error": "bad_request",
            "message": f"checkpoint must be a string, got {value!r}",
        }
        assert tree_server.opened == []

    @pytest.mark.parametrize("spelling", ["absolute", "relative",
                                          "no_suffix"])
    def test_sibling_in_the_directory_is_served(
            self, tree_server, checkpoint_tree, monkeypatch, spelling):
        monkeypatch.chdir(checkpoint_tree["root"])
        value = {"absolute": str(checkpoint_tree["sibling"]),
                 "relative": "served/other.npz",
                 "no_suffix": "served/other"}[spelling]
        features = np.random.default_rng(4).normal(size=(2, 64))
        response = tree_server.dispatch(
            {"kind": "encode", "features": features.tolist(),
             "checkpoint": value})
        assert response["ok"] is True
        assert tree_server.opened == [value]
        assert len(tree_server.service.registry) == 2
        expected = tree_server.service.encode(
            features, checkpoint=checkpoint_tree["sibling"])
        assert (np.asarray(response["latents"]) == expected).all()
        sampled = tree_server.dispatch(
            {"kind": "sample", "count": 3, "seed": 2, "checkpoint": value})
        assert (np.asarray(sampled["matrices"]) == tree_server.service.sample(
            3, seed=2, checkpoint=checkpoint_tree["sibling"])).all()

    def test_default_named_explicitly_is_served(self, tree_server,
                                                checkpoint_tree):
        response = tree_server.dispatch(
            {"kind": "sample", "count": 2, "seed": 5,
             "checkpoint": str(checkpoint_tree["default"])})
        assert (np.asarray(response["matrices"])
                == tree_server.service.sample(2, seed=5)).all()
        assert len(tree_server.service.registry) == 1

    def test_server_without_default_refuses_every_checkpoint(
            self, checkpoint_tree):
        service = GenerationService()
        srv = GenerationServer(("127.0.0.1", 0), service)
        try:
            response = srv.dispatch(
                {"kind": "sample", "count": 2,
                 "checkpoint": str(checkpoint_tree["default"])})
            assert response["ok"] is False
            assert response["error"] == "bad_request"
            assert response["message"].startswith("checkpoint: ")
            assert len(service.registry) == 0
        finally:
            srv.server_close()
            service.close()

    @pytest.mark.parametrize("case", ["vae_arrays_as_ae",
                                      "wrong_latent_dim"])
    def test_arrays_that_do_not_match_the_metadata(self, tree_server,
                                                   checkpoint_tree, case):
        # A VAE's arrays under AE metadata used to load with the two heads
        # dropped and answer ``ok``; a latent width the arrays do not have
        # failed on shape.  Both are one bad_request, and nothing joins
        # the registry.
        metadata = {"model": "vae", "input_dim": 64, "n_patches": 4,
                    "n_layers": 3, "latent_dim": 6, "seed": 9}
        if case == "vae_arrays_as_ae":
            metadata["model"] = "ae"
        else:
            metadata["latent_dim"] = 5
        path = save_module(
            ClassicalVAE(input_dim=64, latent_dim=6,
                         rng=np.random.default_rng(9)),
            checkpoint_tree["root"] / "served" / f"mismatch_{case}",
            metadata=metadata,
        )
        reply = tree_server.respond(json.dumps(
            {"kind": "encode", "features": np.ones((1, 64)).tolist(),
             "checkpoint": str(path)}).encode())
        assert_one_reply(reply)
        response = json.loads(reply)
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert tree_server.opened == [str(path)]
        assert len(tree_server.service.registry) == 1

    def test_in_process_api_is_not_confined(self, tree_server,
                                            checkpoint_tree):
        latents = tree_server.service.encode(
            np.ones((1, 64)), checkpoint=checkpoint_tree["outside"])
        assert latents.shape == (1, 6)

    def test_live_socket(self, checkpoint_tree):
        service = GenerationService(
            default_checkpoint=checkpoint_tree["default"])
        srv = GenerationServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=srv.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        escapes = _escapes(checkpoint_tree)
        try:
            with client_for(srv) as client:
                for case in ESCAPE_CASES + ["non_string"]:
                    value = escapes.get(case, 7)
                    line = json.dumps({"kind": "sample", "count": 2,
                                       "checkpoint": value}).encode()
                    response = raw_reply(client, line + b"\n")
                    assert response["ok"] is False, case
                    assert response["error"] == "bad_request", case
                    assert response["message"].startswith("checkpoint"), case
                    assert client.ping()  # the connection stays open
                line = json.dumps({"kind": "sample", "count": 2, "seed": 1,
                                   "checkpoint": str(
                                       checkpoint_tree["sibling"])}).encode()
                response = raw_reply(client, line + b"\n")
                assert response["ok"] is True
                assert (np.asarray(response["matrices"]) == service.sample(
                    2, seed=1, checkpoint=checkpoint_tree["sibling"])).all()
            assert len(service.registry) == 2
        finally:
            srv.shutdown()
            srv.server_close()
            service.close()
            thread.join(timeout=5.0)


HUGE = "x" * 1_000_000
# A JSON integer of 4,000 digits, under the parser's int-conversion limit.
HUGE_INT = 10**4000 - 1


class TestHostileValuesAreNotEchoed:
    """An error reply echoes a rejected value as a short prefix and its
    length.  Each of these lines used to come back whole: a 1 MB string
    in a 1 MB reply, a 200,000-element list in a 600 KB one, a 4,000-digit
    out-of-range ``count`` or ``seed`` in a 4 KB one."""

    def _assert_short_bad_request(self, server, message, field):
        line = json.dumps(message).encode()
        reply = server.respond(line)
        assert_one_reply(reply)
        assert len(reply) < 1024
        response = json.loads(reply)
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert response["message"].startswith(field)
        return response["message"]

    def test_count(self, unserved):
        message = self._assert_short_bad_request(
            unserved, {"kind": "sample", "count": HUGE}, "count")
        assert message.endswith(f"... (length {len(HUGE)})")

    def test_seed(self, unserved):
        message = self._assert_short_bad_request(
            unserved, {"kind": "sample", "count": 2, "seed": HUGE}, "seed")
        assert message.endswith(f"... (length {len(HUGE)})")

    @pytest.mark.parametrize("count", [-HUGE_INT, HUGE_INT],
                             ids=["below_one", "above_max"])
    def test_count_out_of_range(self, unserved, count):
        message = self._assert_short_bad_request(
            unserved, {"kind": "sample", "count": count}, "count")
        assert message.endswith(f"... (length {len(str(count))})")

    def test_negative_seed(self, unserved):
        message = self._assert_short_bad_request(
            unserved, {"kind": "sample", "count": 2, "seed": -HUGE_INT},
            "seed")
        assert message.endswith(f"... (length {len(str(-HUGE_INT))})")

    def test_kind(self, unserved):
        message = self._assert_short_bad_request(
            unserved, {"kind": HUGE}, "unknown request kind")
        assert message.endswith(f"... (length {len(HUGE)})")

    @pytest.mark.parametrize("kind", ["sample", "encode"])
    def test_checkpoint_string(self, tree_server, kind):
        message = {"kind": kind, "checkpoint": HUGE}
        if kind == "sample":
            message["count"] = 2
        else:
            message["features"] = np.ones((1, 64)).tolist()
        text = self._assert_short_bad_request(tree_server, message,
                                              "checkpoint")
        assert f"(length {len(HUGE)}) is not a file" in text
        assert tree_server.opened == []

    def test_checkpoint_list(self, tree_server):
        value = list(range(200_000))
        text = self._assert_short_bad_request(
            tree_server, {"kind": "sample", "count": 2, "checkpoint": value},
            "checkpoint")
        assert text.startswith("checkpoint must be a string, got [0, 1, 2")
        assert text.endswith(f"... (length {len(value)})")
        assert tree_server.opened == []

    @pytest.mark.parametrize("value", [
        "s" * (server_module.ECHO_CHARS - 2),  # its repr fills the cap
        ["a.npz"] * 8,
        {"path": "a.npz"},
    ], ids=["string_at_cap", "list", "object"])
    def test_short_value_is_echoed_whole(self, unserved, value):
        response = unserved.dispatch({"kind": "sample", "count": value})
        assert response["message"] == \
            f"count must be a JSON integer, got {value!r}"

    @pytest.mark.parametrize("value", [
        "s" * (server_module.ECHO_CHARS - 1),
        list(range(40)),
        10**100,
    ], ids=["string", "list", "int"])
    def test_long_value_is_cut_to_prefix_and_length(self, value):
        length = len(repr(value)) if isinstance(value, int) else len(value)
        assert server_module._brief(value) == (
            f"{repr(value)[:server_module.ECHO_CHARS]}... (length {length})")


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
              "matrices": JSON_VALUES, "checkpoint": JSON_VALUES},
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
