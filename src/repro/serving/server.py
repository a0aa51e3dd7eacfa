"""JSON-lines TCP front end for :class:`GenerationService`.

The wire protocol is deliberately tiny and dependency-free: one JSON
object per line in each direction, arrays as nested lists.  Requests::

    {"kind": "sample", "count": 8, "seed": 3}
    {"kind": "encode", "features": [[...], ...]}
    {"kind": "score", "matrices": [[[...], ...], ...]}
    {"kind": "ping"} / {"kind": "stats"}

``count`` and ``seed`` must be JSON integers (a float, boolean or string
is not coerced), ``count`` lies in 1..``service.MAX_SAMPLE_COUNT``,
``seed`` is non-negative, and every array value must be finite.  Each of
these is checked before the request is queued, so a bad request fails
alone, never the batch it would have been fused into.

``sample`` and ``encode`` may name another model with ``"checkpoint":
"<path>"``.  The path must be a string; a relative one is taken from the
server's working directory, and a name without ``.npz`` falls back to the
suffixed file, as on the command line.  It must then resolve, symlinks
followed, to an existing file directly inside the directory that holds
the service's default checkpoint.  Anything else is one ``bad_request``
naming ``checkpoint``, answered before any file is opened: another
directory, a ``..`` or symlink escape, a subdirectory, a missing file.
A service without a default checkpoint serves no wire ``checkpoint`` at
all.  The in-process :class:`GenerationService` API is not confined.

Responses carry ``{"ok": true, ...}`` with the result fields, or
``{"ok": false, "error": <name>, "message": <text>}`` where ``error`` is
one of ``queue_full`` / ``request_timeout`` / ``service_closed`` /
``bad_request`` / ``error`` — :class:`repro.serving.client.NetworkClient`
maps these back onto the :class:`ServingError` hierarchy.  Every
non-blank line gets exactly one reply.  A line that cannot be decoded
(invalid UTF-8, malformed JSON, nesting deeper than the parser allows),
is JSON but not an object, or lacks a field its kind requires gets one
``bad_request`` reply and the connection stays open.  A line longer than
:data:`MAX_LINE_BYTES` gets one ``bad_request`` naming the cap, and the
server then closes that connection, because the unread rest of the line
cannot be told apart from the next request.

Each connection gets its own handler thread
(``socketserver.ThreadingTCPServer``), so concurrent connections submit
concurrently and the :class:`MicroBatcher` fuses their requests into
stacked passes — the TCP layer is just transport, all batching lives in
the service.
"""

from __future__ import annotations

import json
import socketserver
import threading
from pathlib import Path

import numpy as np

from .batcher import QueueFull, RequestTimeout, ServiceClosed

__all__ = ["GenerationServer", "MAX_LINE_BYTES"]

# Longest request line read, its newline included.  The largest request
# the wire carries is a 1024-row ``encode`` or ``score`` of 1024 floats
# (32 x 32 PDBbind matrices).  ``json.dumps`` writes a float64 in at most
# 24 characters plus ", ", so that line stays under 28 MB.
MAX_LINE_BYTES = 32 * 2**20


# Characters of a rejected value's repr that an error reply echoes.
ECHO_CHARS = 80


def _brief(value) -> str:
    """``repr(value)`` for an error reply, cut to ``ECHO_CHARS`` characters
    and the value's length when longer, so a reply never echoes a hostile
    value whole."""
    # A string is cut before its repr is built; the repr of any other JSON
    # value is bounded by the line cap.
    text = repr(value[:ECHO_CHARS] if isinstance(value, str) else value)
    if len(text) <= ECHO_CHARS:
        return text
    length = len(value) if isinstance(value, (str, list, dict)) else len(text)
    return f"{text[:ECHO_CHARS]}... (length {length})"


def _required(message: dict, kind: str, name: str):
    """``message[name]``, or ``bad_request`` naming the kind and field."""
    try:
        return message[name]
    except KeyError:
        raise ValueError(
            f"{kind} request is missing the required field {name!r}"
        ) from None


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer, else ``bad_request``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{name} must be a JSON integer, got {_brief(value)}"
        )
    return value


def _bad_request(message: str) -> dict:
    return {"ok": False, "error": "bad_request", "message": message}


def _error_name(exc: Exception) -> str:
    if isinstance(exc, QueueFull):
        return "queue_full"
    if isinstance(exc, RequestTimeout):
        return "request_timeout"
    if isinstance(exc, ServiceClosed):
        return "service_closed"
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        return "bad_request"
    return "error"


def _encode(response: dict) -> bytes:
    return (json.dumps(response) + "\n").encode("utf-8")


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):  # pragma: no cover - exercised via live sockets
        while True:
            # Bounded: a line with no newline in sight stops filling the
            # buffer one byte past the cap.
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not line:
                return
            too_long = len(line) > MAX_LINE_BYTES
            if too_long:
                reply = _encode(_bad_request(
                    f"request line longer than {MAX_LINE_BYTES} bytes; "
                    "closing the connection"
                ))
            elif line.strip():
                reply = self.server.respond(line)
            else:
                continue
            self.wfile.write(reply)
            self.wfile.flush()
            if self.server.count_request() or too_long:
                return


class GenerationServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server delegating every request to one service.

    ``max_requests > 0`` shuts the server down after serving that many
    requests (pings included) — used by tests and smoke runs to give
    ``serve`` a finite lifetime.  Bind to port 0 to let the OS pick; the
    bound address is ``server_address``.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service,
                 max_requests: int = 0):
        super().__init__(address, _Handler)
        self.service = service
        self.max_requests = max_requests
        self._served = 0
        self._count_lock = threading.Lock()
        default = service.default_entry
        # The one directory a wire ``checkpoint`` may name a file in.
        self._checkpoint_dir = (
            default.path.parent.resolve()
            if default is not None and default.path is not None else None
        )

    # ------------------------------------------------------------------
    def respond(self, line: bytes) -> bytes:
        """The reply to one request line: one JSON object and a newline."""
        try:
            message = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and invalid UTF-8;
            # RecursionError, arrays or objects nested past the parser's
            # depth.
            return _encode(_bad_request(f"invalid JSON: {exc}"))
        return _encode(self.dispatch(message))

    def dispatch(self, message) -> dict:
        try:
            if not isinstance(message, dict):
                raise TypeError("request must be a JSON object")
            kind = message.get("kind")
            if kind == "ping":
                return {"ok": True}
            if kind == "stats":
                return {"ok": True, "stats": self.service.stats()}
            if kind == "sample":
                matrices = self.service.sample(
                    _json_int(_required(message, kind, "count"), "count"),
                    seed=_json_int(message.get("seed", 0), "seed"),
                    checkpoint=self._checkpoint(message),
                )
                return {"ok": True, "matrices": matrices.tolist()}
            if kind == "encode":
                latents = self.service.encode(
                    np.asarray(_required(message, kind, "features"),
                               dtype=np.float64),
                    checkpoint=self._checkpoint(message),
                )
                return {"ok": True, "latents": latents.tolist()}
            if kind == "score":
                scores = self.service.score(
                    np.asarray(_required(message, kind, "matrices"),
                               dtype=np.float64)
                )
                return {
                    "ok": True,
                    "usable": scores["usable"].tolist(),
                    "qed": scores["qed"].tolist(),
                    "logp": scores["logp"].tolist(),
                    "sa": scores["sa"].tolist(),
                }
            raise ValueError(f"unknown request kind {_brief(kind)}")
        except Exception as exc:  # noqa: BLE001 - every failure goes on the wire
            return {"ok": False, "error": _error_name(exc),
                    "message": str(exc)}

    def _checkpoint(self, message: dict) -> str | None:
        """A request's ``checkpoint``, passed on only if it names a file in
        the default checkpoint's directory (see the module docstring)."""
        if "checkpoint" not in message:
            return None
        value = message["checkpoint"]
        if not isinstance(value, str):
            raise ValueError(
                f"checkpoint must be a string, got {_brief(value)}"
            )
        if self._checkpoint_dir is None:
            raise ValueError(
                "checkpoint: this server has no default checkpoint, so it "
                "serves no other"
            )
        try:
            path = Path(value)
            if not path.exists() and path.suffix != ".npz":
                path = path.with_suffix(path.suffix + ".npz")
            resolved = path.resolve()
            allowed = (resolved.parent == self._checkpoint_dir
                       and resolved.is_file())
        except (OSError, ValueError, RuntimeError):
            # NUL bytes, over-long names, symlink loops.
            allowed = False
        if not allowed:
            raise ValueError(
                f"checkpoint {_brief(value)} is not a file in the directory "
                "of the served checkpoint"
            )
        return value

    def count_request(self) -> bool:
        """Count one served request; True when the lifetime budget is spent.

        The shutdown is kicked off from a helper thread because
        ``shutdown()`` blocks until ``serve_forever`` returns — calling it
        from a handler thread of the same server would deadlock the
        handler ``serve_forever`` is joining on.
        """
        if self.max_requests <= 0:
            return False
        with self._count_lock:
            self._served += 1
            spent = self._served >= self.max_requests
        if spent:
            threading.Thread(target=self.shutdown, daemon=True).start()
        return spent
