"""The shard-service wire protocol: one definition for every transport.

A length-prefixed binary frame protocol between the query coordinator and
its shard nodes (:mod:`repro.serving.cluster`, over TCP) and between
gateway clients and the gateway (:mod:`repro.serving.gateway`).  This
module is the single home of everything those peers share, so no two of
them can drift apart:

* **framing** — :func:`send_frame` / :func:`recv_frame`: every message is a
  4-byte big-endian payload length followed by that many payload bytes,
  with frames above a configured ceiling refused on both ends *before* any
  allocation;
* **payload codec** — :class:`Reader` (sequential field reads over one
  payload) and the ``pack``/``encode`` helpers; all integers are
  big-endian, all arrays use the canonical big-endian wire dtypes, so the
  protocol is well-defined across machines and the f64 byte swap is
  lossless (degree bits survive the round trip);
* **request/response constants** — the one-byte opcodes and statuses used
  by every shard service (``score``, ``rank``, ``invalidate``, ``stats``,
  ``shutdown``, plus the cluster-only ``hello``, ``hydrate`` and
  ``hydrate delta``, plus the client-facing gateway ``query`` and
  ``gateway stats``);
* **handshake** — the versioned ``hello`` exchange of the TCP transport: a
  connecting coordinator announces its protocol version and
  ``data_version``; the node acknowledges with its own version, the
  version of the snapshot it is hydrated against, and the slice ids it
  owns.  Version skew is a typed :class:`HandshakeError`, never a hang or
  a silently misinterpreted stream;
* **errors** — the transport error hierarchy (:class:`RpcError`,
  :class:`FrameTooLargeError`, :class:`ProtocolError`,
  :class:`WorkerCrashedError`, :class:`HandshakeError`) shared by all
  shard-service layers.
"""

from __future__ import annotations

import socket
import struct
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ExecutionError

#: Version of the frame/handshake protocol this build speaks.  Bumped on
#: any wire-visible change; the ``hello`` handshake refuses every other
#: version with a typed :class:`HandshakeError`.
#: Version 2 added the ``score bounded`` opcode (threshold-pruned scoring
#: with a per-row exactness mask in the response).  Version 3 added the
#: ``hydrate delta`` opcode and the snapshot container's flags byte
#: (compressed / delta hydration frames).  Version 4 added
#: the ``local_store`` flag to the hello acknowledgement: a node backed by
#: a persistent data directory (``repro.storage``) advertises that it can
#: hydrate slices from local disk, so a coordinator at the same
#: ``data_version`` skips the ``hydrate`` snapshot frames entirely.
#: Version 5 added the optional trailing **trace field** on ``score`` /
#: ``score bounded`` / gateway ``query`` requests (distributed tracing,
#: :mod:`repro.obs`) and the ``traces`` opcode for querying a peer's span
#: ring buffer.  Version 6 replaced ``score bounded`` with ``rank``: the
#: coordinator ships a pruned query's predicates, WHERE tree, limit and
#: candidate rows, and each node answers with its exact local top-k.
PROTOCOL_VERSION = 6

#: Default ceiling on one frame's payload size (requests and responses).
#: Generous for degree vectors (8 bytes per entity) while still refusing a
#: corrupt or hostile length prefix before allocating anything.  Column
#: snapshots travel in ``hydrate`` frames, so cluster deployments with very
#: large attribute slices may need to raise it.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

OP_SCORE = 1
OP_INVALIDATE = 2
OP_STATS = 3
OP_SHUTDOWN = 4
OP_HELLO = 5
OP_HYDRATE = 6
OP_QUERY = 7
OP_GATEWAY_STATS = 8
# 9 was ``score bounded`` (protocol versions 2-5).
OP_HYDRATE_DELTA = 10
OP_TRACES = 11
OP_RANK = 12

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_OVERLOADED = 2

_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_HEADER = _U32

#: Canonical wire dtypes: big-endian, so the protocol stays well-defined
#: across machines.  The byte swap is lossless, so degree bits survive the
#: round trip.
WIRE_F64 = ">f8"
WIRE_U32 = ">u4"


class RpcError(ExecutionError):
    """A shard-service RPC failed (transport fault or node-side error)."""


class FrameTooLargeError(RpcError):
    """A frame exceeded the configured maximum payload size."""


class ProtocolError(RpcError):
    """A frame's bytes do not decode: truncated, trailing bytes, or a field out of range."""


class WorkerCrashedError(RpcError):
    """A shard worker/node died (or closed its socket) mid-request."""


class HandshakeError(RpcError):
    """The versioned ``hello`` handshake failed (skew or a malformed reply)."""


class GatewayOverloadedError(RpcError):
    """The gateway refused a request under admission control (typed, retryable).

    Transported as a :data:`STATUS_OVERLOADED` response frame: the request
    was never admitted, no partial work happened, and the connection stays
    usable — the client may retry after backing off.
    """


# --------------------------------------------------------------------------
# Frame transport
# --------------------------------------------------------------------------

def send_frame(sock: socket.socket, payload: bytes, max_frame_bytes: int) -> None:
    """Write one length-prefixed frame, refusing oversized payloads locally.

    The send-side check means a misconfigured caller fails fast instead of
    making the peer drop the connection after reading the length prefix.
    """
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {max_frame_bytes} bytes)"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def frame_bytes(payload: bytes, max_frame_bytes: int) -> bytes:
    """``payload`` as one wire-ready frame (header + payload), size-checked.

    The buffered cluster transport appends frames to per-node output
    buffers instead of writing them to a socket immediately;
    this is its :func:`send_frame` analog.
    """
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"refusing to queue a {len(payload)}-byte frame "
            f"(limit {max_frame_bytes} bytes)"
        )
    return _HEADER.pack(len(payload)) + payload


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """``count`` bytes from ``sock``; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise RpcError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks else b""


def recv_frame(sock: socket.socket, max_frame_bytes: int) -> bytes | None:
    """Read one length-prefixed frame; ``None`` on clean EOF between frames.

    A length prefix above ``max_frame_bytes`` raises
    :class:`FrameTooLargeError` *before* any payload allocation — the
    stream cannot be resynchronised afterwards, so the caller must close
    the connection.  EOF in the middle of a frame raises :class:`RpcError`.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"peer announced a {length}-byte frame (limit {max_frame_bytes} bytes)"
        )
    if length == 0:
        return b""
    payload = _recv_exact(sock, length)
    if payload is None:
        raise RpcError("connection closed mid-frame")
    return payload


# --------------------------------------------------------------------------
# Payload codec
# --------------------------------------------------------------------------

def pack_str(text: str) -> bytes:
    """A UTF-8 string field: 4-byte big-endian length + bytes."""
    data = text.encode("utf-8")
    return _U32.pack(len(data)) + data


class Reader:
    """Sequential field reader over one frame payload."""

    def __init__(self, payload: bytes) -> None:
        self._view = memoryview(payload)
        self._offset = 0

    def _take(self, count: int) -> memoryview:
        start, end = self._offset, self._offset + count
        if end > len(self._view):
            raise ProtocolError("truncated frame payload")
        self._offset = end
        return self._view[start:end]

    @property
    def remaining(self) -> int:
        """Bytes left to read in the payload."""
        return len(self._view) - self._offset

    def read_u8(self) -> int:
        """One unsigned byte."""
        return _U8.unpack(self._take(_U8.size))[0]

    def read_u32(self) -> int:
        """One big-endian unsigned 32-bit integer."""
        return _U32.unpack(self._take(_U32.size))[0]

    def read_u64(self) -> int:
        """One big-endian unsigned 64-bit integer."""
        return _U64.unpack(self._take(_U64.size))[0]

    def read_str(self) -> str:
        """One length-prefixed UTF-8 string."""
        data = bytes(self._take(self.read_u32()))
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"string field is not UTF-8 ({error})") from error

    def read_bytes(self) -> bytes:
        """One length-prefixed opaque byte field."""
        return bytes(self._take(self.read_u32()))

    def read_rest(self) -> bytes:
        """Every byte left in the payload (may be empty)."""
        offset = self._offset
        self._offset = len(self._view)
        return bytes(self._view[offset:])

    def read_raw(self, count: int) -> bytes:
        """``count`` raw bytes (for fixed-size fields without a length prefix)."""
        return bytes(self._take(count))

    def read_u32_array(self, count: int) -> list[int]:
        """``count`` big-endian u32 values as a plain int list."""
        data = self._take(4 * count)
        return np.frombuffer(data, dtype=WIRE_U32).astype(np.intp).tolist()

    def read_u32_vector(self, count: int) -> np.ndarray:
        """``count`` big-endian u32 values as a native index array."""
        return np.frombuffer(self._take(4 * count), dtype=WIRE_U32).astype(np.intp)

    def read_f64_array(self, count: int) -> np.ndarray:
        """``count`` big-endian f64 values as a native float64 array."""
        data = self._take(8 * count)
        return np.frombuffer(data, dtype=WIRE_F64).astype(np.float64)


def pack_trace_field(trace: tuple[int, int] | None) -> bytes:
    """The optional trailing trace field: ``(trace_id, span_id)`` or absent.

    Encoded as a presence byte plus two u64 ids; ``None`` encodes to
    **zero bytes**, so an untraced frame pays nothing and receivers detect
    the field purely from leftover payload (:func:`read_trace_field`).
    """
    if trace is None:
        return b""
    trace_id, span_id = trace
    return _U8.pack(1) + _U64.pack(trace_id) + _U64.pack(span_id)


def read_trace_field(reader: Reader) -> tuple[int, int] | None:
    """Decode the optional trailing trace field; ``None`` when absent.

    Must be called after every fixed field of the request has been read:
    the field is detected by payload remaining, so an untraced frame
    (nothing left) and an explicit absent marker both return ``None``.
    """
    if reader.remaining == 0:
        return None
    if not reader.read_u8():
        return None
    return reader.read_u64(), reader.read_u64()


def encode_score_request(
    slice_id: int,
    attribute: str,
    phrase: str,
    start: int,
    stop: int,
    rows: Sequence[int] | None,
    trace: tuple[int, int] | None = None,
) -> bytes:
    """The ``score`` request frame: one slice's scoring work, indices only.

    ``rows`` (slice-relative, ``None`` for a full-slice pass) mirrors the
    in-process sparse-gather heuristic.  Arrays never travel — the service
    resolves ``(slice_id, attribute, start, stop, rows)`` against its own
    rebuilt or hydrated columns.  ``trace`` optionally appends the trace
    field (see :func:`pack_trace_field`).
    """
    parts = [
        _U8.pack(OP_SCORE),
        _U32.pack(slice_id),
        pack_str(attribute),
        pack_str(phrase),
        _U32.pack(start),
        _U32.pack(stop),
    ]
    if rows is None:
        parts.append(_U8.pack(0))
    else:
        parts.append(_U8.pack(1))
        parts.append(_U32.pack(len(rows)))
        parts.append(np.asarray(rows, dtype=WIRE_U32).tobytes())
    parts.append(pack_trace_field(trace))
    return b"".join(parts)


class ScoreRequest(NamedTuple):
    """One decoded ``score`` request (opcode already read)."""

    slice_id: int
    attribute: str
    phrase: str
    start: int
    stop: int
    rows: list[int] | None
    trace: tuple[int, int] | None


def _end_of_request(reader: Reader) -> tuple[int, int] | None:
    """The trailing trace field, then the end of the payload — anything after is refused."""
    trace = read_trace_field(reader)
    if reader.remaining:
        raise ProtocolError(f"{reader.remaining} trailing bytes after the request's last field")
    return trace


def read_score_request(reader: Reader) -> ScoreRequest:
    """Decode the body of a ``score`` request frame (:func:`encode_score_request`).

    Bytes left over after the trace field make the frame malformed — a
    :class:`ProtocolError`, never a served answer.
    """
    slice_id = reader.read_u32()
    attribute = reader.read_str()
    phrase = reader.read_str()
    start = reader.read_u32()
    stop = reader.read_u32()
    rows = reader.read_u32_array(reader.read_u32()) if reader.read_u8() else None
    return ScoreRequest(slice_id, attribute, phrase, start, stop, rows, _end_of_request(reader))


def encode_score_bounded_response(
    values: np.ndarray, exact_mask: np.ndarray, scored: int, pruned: int
) -> bytes:
    """The retired ``score bounded`` response: values, per-row exactness, counters.

    No opcode answers with it since protocol v6; the codec stays for the
    end-to-end benchmark's codec probes.

    ``values`` holds exact degrees where ``exact_mask`` is set and degree
    upper bounds elsewhere; ``scored``/``pruned`` are the worker-side row
    counts behind the mask, carried explicitly so coordinators aggregate
    counters without re-deriving them.
    """
    return (
        _U8.pack(STATUS_OK)
        + _U32.pack(len(values))
        + np.asarray(values, dtype=WIRE_F64).tobytes()
        + np.asarray(exact_mask, dtype=np.uint8).tobytes()
        + _U32.pack(scored)
        + _U32.pack(pruned)
    )


def read_score_bounded_response(
    reader: Reader,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Decode a ``score bounded`` response body (after its status byte).

    Returns ``(values, exact_mask, scored, pruned)`` with the mask as a
    boolean array aligned with ``values``.
    """
    count = reader.read_u32()
    values = reader.read_f64_array(count)
    exact_mask = np.frombuffer(reader.read_raw(count), dtype=np.uint8).astype(bool)
    scored = reader.read_u32()
    pruned = reader.read_u32()
    return values, exact_mask, scored, pruned


# --------------------------------------------------------------------------
# The rank frame (a pruned query shipped to a node)
# --------------------------------------------------------------------------

#: Token kinds of the prefix-encoded WHERE tree (``repro.serving.sharded``
#: builds and reads the trees): AND / OR carry their operand count, NOT
#: none, a predicate or crisp leaf its index.
TREE_AND, TREE_OR, TREE_NOT, TREE_PREDICATE, TREE_CRISP = range(5)

#: Deepest WHERE tree a rank frame may carry (trees are walked recursively).
MAX_TREE_DEPTH = 64

_COMBINATORS = ("and", "or")


class RankRequest(NamedTuple):
    """One decoded ``rank`` request (opcode already read).

    ``predicates`` are ``(text, combinator, on_and_path, pairs)`` tuples
    with ``pairs`` a tuple of ``(attribute, phrase)``; ``tree`` the WHERE
    tree as prefix ``(kind, argument)`` tokens; ``slices`` the
    ``(slice_id, start, stop)`` row ranges to rank; ``rows`` the
    candidates' rows (ascending, each inside one of the slices) and
    ``positions`` their positions in the coordinator's candidate list;
    ``crisp`` one 0/1 vector per crisp leaf over those candidates.
    """

    limit: int
    logic: str
    chunk_size: int
    chunk_growth: int
    predicates: list[tuple[str, str, bool, tuple[tuple[str, str], ...]]]
    tree: list[tuple[int, int]]
    slices: list[tuple[int, int, int]]
    rows: np.ndarray
    positions: np.ndarray
    crisp: list[np.ndarray]
    trace: tuple[int, int] | None


def encode_rank_request(
    limit: int,
    logic: str,
    chunk_size: int,
    chunk_growth: int,
    predicates: Sequence[tuple[str, str, bool, Sequence[tuple[str, str]]]],
    tree: Sequence[tuple[int, int]],
    slices: Sequence[tuple[int, int, int]],
    rows: np.ndarray,
    positions: np.ndarray,
    crisp: Sequence[np.ndarray],
    trace: tuple[int, int] | None = None,
) -> bytes:
    """The ``rank`` request frame: one pruned query for the slices of one node.

    Layout after the opcode: ``limit`` (u32), the logic name, the first
    scan chunk and its growth factor (u32 each); the predicates, each as
    text, combinator (u8: 0 and, 1 or), AND-path flag (u8) and its
    ``(attribute, phrase)`` pairs; the WHERE tree as ``(kind u8, argument
    u32)`` tokens in prefix order; the ``(slice_id, start, stop)`` slices;
    the candidates as ascending rows plus their candidate positions (u32
    arrays); one bitmap per crisp leaf over those candidates
    (``numpy.packbits`` order); the optional trace field.  See
    :class:`RankRequest` for the decoded form.
    """
    parts = [
        _U8.pack(OP_RANK),
        _U32.pack(limit),
        pack_str(logic),
        _U32.pack(chunk_size),
        _U32.pack(chunk_growth),
        _U32.pack(len(predicates)),
    ]
    for text, combinator, on_and_path, pairs in predicates:
        parts += [
            pack_str(text),
            _U8.pack(0 if combinator == "and" else 1),
            _U8.pack(1 if on_and_path else 0),
            _U32.pack(len(pairs)),
        ]
        for attribute, phrase in pairs:
            parts += [pack_str(attribute), pack_str(phrase)]
    parts.append(_U32.pack(len(tree)))
    parts += [_U8.pack(kind) + _U32.pack(argument) for kind, argument in tree]
    parts.append(_U32.pack(len(slices)))
    parts += [
        _U32.pack(slice_id) + _U32.pack(start) + _U32.pack(stop)
        for slice_id, start, stop in slices
    ]
    parts += [
        _U32.pack(len(rows)),
        np.asarray(rows, dtype=WIRE_U32).tobytes(),
        np.asarray(positions, dtype=WIRE_U32).tobytes(),
        _U32.pack(len(crisp)),
    ]
    parts += [np.packbits(np.asarray(vector) != 0).tobytes() for vector in crisp]
    parts.append(pack_trace_field(trace))
    return b"".join(parts)


def check_where_tree(tree: Sequence[tuple[int, int]], predicates: int, crisp: int) -> None:
    """Refuse any token stream that is not exactly one well-formed tree.

    Also run by the coordinator before it ships a tree, so a query no node
    would accept (one deeper than :data:`MAX_TREE_DEPTH`) takes the
    unpruned path instead of failing on every node.
    """
    open_slots = [1]  # operands still owed per open connective, innermost last
    for kind, argument in tree:
        if not open_slots:
            raise ProtocolError("tokens after the end of the WHERE tree")
        open_slots[-1] -= 1
        if kind in (TREE_AND, TREE_OR):
            if argument < 1:
                raise ProtocolError("a connective with no operands")
            open_slots.append(argument)
        elif kind == TREE_NOT:
            open_slots.append(1)
        elif kind == TREE_PREDICATE:
            if argument >= predicates:
                raise ProtocolError(f"predicate {argument} of {predicates}")
        elif kind == TREE_CRISP:
            if argument >= crisp:
                raise ProtocolError(f"crisp leaf {argument} of {crisp}")
        else:
            raise ProtocolError(f"unknown WHERE-tree token kind {kind}")
        if len(open_slots) > MAX_TREE_DEPTH:
            raise ProtocolError(f"WHERE tree deeper than {MAX_TREE_DEPTH}")
        while open_slots and open_slots[-1] == 0:
            open_slots.pop()
    if open_slots:
        raise ProtocolError("truncated WHERE tree")


def read_rank_request(reader: Reader) -> RankRequest:
    """Decode the body of a ``rank`` request (:func:`encode_rank_request`).

    Every field is checked before the node acts on it — the tree is one
    well-formed tree of bounded depth whose indices are in range, slices
    are ordered and disjoint, candidate rows ascend inside them, the
    bitmaps have their exact length and nothing trails the last field — so
    a hostile or corrupt frame raises :class:`ProtocolError`, never a
    ``struct.error`` or a wrong answer built from misread fields.
    """
    limit = reader.read_u32()
    if limit < 1:
        raise ProtocolError("rank limit must be positive")
    logic = reader.read_str()
    chunk_size = reader.read_u32()
    chunk_growth = reader.read_u32()
    predicates = []
    for _ in range(reader.read_u32()):
        text = reader.read_str()
        combinator = reader.read_u8()
        on_and_path = reader.read_u8()
        if combinator > 1 or on_and_path > 1:
            raise ProtocolError("predicate flags out of range")
        pairs = tuple((reader.read_str(), reader.read_str()) for _ in range(reader.read_u32()))
        if not pairs:
            raise ProtocolError(f"predicate {text!r} has no pairs")
        predicates.append((text, _COMBINATORS[combinator], bool(on_and_path), pairs))
    if not predicates:
        raise ProtocolError("a rank frame needs at least one predicate")
    tree = [(reader.read_u8(), reader.read_u32()) for _ in range(reader.read_u32())]
    slices = [
        (reader.read_u32(), reader.read_u32(), reader.read_u32())
        for _ in range(reader.read_u32())
    ]
    count = reader.read_u32()
    rows = reader.read_u32_vector(count)
    positions = reader.read_u32_vector(count)
    crisp_count = reader.read_u32()
    width = (count + 7) // 8
    crisp = []
    for _ in range(crisp_count):
        bits = np.frombuffer(reader.read_raw(width), dtype=np.uint8)
        crisp.append(np.unpackbits(bits, count=count).astype(np.float64))
    trace = _end_of_request(reader)
    check_where_tree(tree, len(predicates), crisp_count)
    for (_, start, stop), following in zip(slices, slices[1:] + [None]):
        if start > stop or (following is not None and stop > following[1]):
            raise ProtocolError("slices must be ordered, disjoint row ranges")
    if count:
        if np.any(np.diff(rows) <= 0):
            raise ProtocolError("candidate rows must ascend")
        starts = np.array([start for _, start, _ in slices], dtype=np.intp)
        stops = np.array([stop for _, _, stop in slices], dtype=np.intp)
        owner = np.searchsorted(starts, rows, side="right") - 1
        if np.any(owner < 0) or np.any(rows >= stops[np.maximum(owner, 0)]):
            raise ProtocolError("a candidate row lies outside the shipped slices")
    return RankRequest(
        limit,
        logic,
        chunk_size,
        chunk_growth,
        predicates,
        tree,
        slices,
        rows,
        positions,
        crisp,
        trace,
    )


class RankReply(NamedTuple):
    """One decoded ``rank`` response: a node's exact local top-k.

    ``degrees[i, p]`` is entry ``i``'s degree of the request's predicate
    ``p``; ``scanned`` / ``scored`` / ``pruned`` are the node's candidate
    rows fetched, rows scored exactly, and rows dismissed on a bound.
    """

    positions: np.ndarray
    scores: np.ndarray
    degrees: np.ndarray
    scanned: int
    scored: int
    pruned: int


def encode_rank_response(
    positions: Sequence[int],
    scores: Sequence[float],
    degrees: np.ndarray,
    scanned: int,
    scored: int,
    pruned: int,
) -> bytes:
    """The ``rank`` response: up to ``limit`` entries in ranking order, then counters.

    Layout after the status byte: entry count and predicate count (u32
    each), the entries' candidate positions (u32), scores (f64) and
    degrees (f64, row-major entries × predicates), then ``scanned``,
    ``scored`` and ``pruned`` (u32 each).
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    return b"".join(
        [
            _U8.pack(STATUS_OK),
            _U32.pack(len(positions)),
            _U32.pack(degrees.shape[1] if degrees.ndim == 2 else 0),
            np.asarray(positions, dtype=WIRE_U32).tobytes(),
            np.asarray(scores, dtype=WIRE_F64).tobytes(),
            degrees.astype(WIRE_F64).tobytes(),
            _U32.pack(scanned),
            _U32.pack(scored),
            _U32.pack(pruned),
        ]
    )


def read_rank_response(reader: Reader) -> RankReply:
    """Decode a ``rank`` response body (after its status byte); strict like the request."""
    count = reader.read_u32()
    width = reader.read_u32()
    positions = reader.read_u32_vector(count)
    scores = reader.read_f64_array(count)
    degrees = reader.read_f64_array(count * width).reshape(count, width)
    scanned, scored, pruned = reader.read_u32(), reader.read_u32(), reader.read_u32()
    if reader.remaining:
        raise ProtocolError(f"{reader.remaining} trailing bytes after the response's last field")
    return RankReply(positions, scores, degrees, scanned, scored, pruned)


def encode_error(message: str) -> bytes:
    """An error response frame transporting ``message`` to the peer."""
    return _U8.pack(STATUS_ERROR) + pack_str(message)


def encode_invalidate_request(data_version: int) -> bytes:
    """The ``invalidate`` request frame carrying the caller's data version."""
    return _U8.pack(OP_INVALIDATE) + _U64.pack(data_version)


def encode_hydrate_request(snapshot_bytes: bytes) -> bytes:
    """The ``hydrate`` request frame shipping one packed column snapshot.

    The snapshot (:class:`repro.core.columnar.ColumnSnapshot`) is
    self-describing — attribute, slice id, row range, data version and a
    checksum all live inside ``snapshot_bytes`` — so the frame is just the
    opcode plus the opaque payload.
    """
    return _U8.pack(OP_HYDRATE) + snapshot_bytes


def encode_hydrate_delta_request(delta_bytes: bytes) -> bytes:
    """The ``hydrate delta`` request frame shipping one packed snapshot delta.

    The delta (:class:`repro.core.columnar.SnapshotDelta`) is
    self-describing exactly like a full snapshot — base version, new
    version, slice identity, changed rows and a checksum all live inside
    ``delta_bytes`` (compression too: it rides in the snapshot container's
    flags byte) — so the frame is just the opcode plus the opaque payload.
    A node that no longer holds the delta's base responds with a
    transported error and the coordinator falls back to a full snapshot.
    """
    return _U8.pack(OP_HYDRATE_DELTA) + delta_bytes


# --------------------------------------------------------------------------
# The versioned hello handshake (TCP transport)
# --------------------------------------------------------------------------

def encode_hello(protocol_version: int, data_version: int) -> bytes:
    """The coordinator's ``hello``: its protocol version and data version.

    The first frame on every new TCP connection.  The node refuses any
    other opcode first, and refuses a protocol version other than its own
    (:data:`PROTOCOL_VERSION`) with a transported error — so skew is always
    a typed failure.
    """
    return _U8.pack(OP_HELLO) + _U32.pack(protocol_version) + _U64.pack(data_version)


def encode_hello_ack(
    protocol_version: int,
    data_version: int,
    owned_slice_ids: Sequence[int],
    local_store: bool = False,
) -> bytes:
    """The node's ``hello`` acknowledgement.

    Carries the node's protocol version, the ``data_version`` of the
    snapshot its hydrated slices were packed from (0 before any
    hydration), the slice ids it currently owns, and a ``local_store``
    flag advertising that the node can hydrate slices from a local
    persistent data directory at that ``data_version`` — a coordinator
    holding the same version then skips shipping snapshot frames.
    """
    return (
        _U8.pack(STATUS_OK)
        + _U32.pack(protocol_version)
        + _U64.pack(data_version)
        + _U32.pack(len(owned_slice_ids))
        + np.asarray(list(owned_slice_ids), dtype=WIRE_U32).tobytes()
        + _U8.pack(1 if local_store else 0)
    )


# --------------------------------------------------------------------------
# The gateway request/response codec (client-facing front door)
# --------------------------------------------------------------------------
#
# Unlike the strictly sequential shard-node exchanges, gateway clients may
# pipeline: several requests can be outstanding on one connection and the
# gateway answers them as they complete, not in arrival order.  Every
# gateway frame therefore carries a client-chosen ``request_id`` (u32),
# echoed verbatim in the response, so replies match requests without any
# ordering assumption.


def encode_gateway_query(
    request_id: int,
    sql: str,
    top_k: int | None = None,
    trace: tuple[int, int] | None = None,
) -> bytes:
    """The gateway ``query`` request frame: one SQL string plus an optional top-k.

    ``trace`` optionally appends the trace field so a client carrying
    its own trace context can parent the gateway's spans on it.
    """
    parts = [_U8.pack(OP_QUERY), _U32.pack(request_id), pack_str(sql)]
    if top_k is None:
        parts.append(_U8.pack(0))
    else:
        parts.append(_U8.pack(1))
        parts.append(_U32.pack(top_k))
    parts.append(pack_trace_field(trace))
    return b"".join(parts)


def encode_traces_request(trace_id: int = 0, limit: int = 0) -> bytes:
    """The shard-service ``traces`` request: query a peer's span buffer.

    ``trace_id`` filters to one trace (0 = all buffered spans); ``limit``
    keeps only the newest N matches (0 = no limit).  The response is a
    :data:`STATUS_OK` byte plus one string field holding a JSON array of
    span dicts (:meth:`repro.obs.TraceStore.to_json`).
    """
    return _U8.pack(OP_TRACES) + _U64.pack(trace_id) + _U32.pack(limit)


def encode_gateway_traces_request(request_id: int, trace_id: int = 0, limit: int = 0) -> bytes:
    """The gateway ``traces`` request (same opcode, gateway framing).

    Gateway frames always carry the client's ``request_id`` after the
    opcode; the filter fields match :func:`encode_traces_request` and the
    response is a standard gateway response whose JSON body is the span
    array.
    """
    return _U8.pack(OP_TRACES) + _U32.pack(request_id) + _U64.pack(trace_id) + _U32.pack(limit)


def encode_gateway_stats_request(request_id: int) -> bytes:
    """The gateway ``stats`` request frame (gateway counters + engine stats)."""
    return _U8.pack(OP_GATEWAY_STATS) + _U32.pack(request_id)


def encode_gateway_response(request_id: int, body: str) -> bytes:
    """A successful gateway response: echoed request id plus a JSON body."""
    return _U8.pack(STATUS_OK) + _U32.pack(request_id) + pack_str(body)


def encode_gateway_error(request_id: int, message: str) -> bytes:
    """A failed gateway response transporting ``message`` to the client."""
    return _U8.pack(STATUS_ERROR) + _U32.pack(request_id) + pack_str(message)


def encode_gateway_overload(request_id: int, message: str) -> bytes:
    """A typed admission-control rejection (the request was never admitted)."""
    return _U8.pack(STATUS_OVERLOADED) + _U32.pack(request_id) + pack_str(message)


def read_gateway_response(payload: bytes) -> tuple[int, str]:
    """Decode one gateway response into ``(request_id, json_body)``.

    A transported gateway-side failure raises :class:`RpcError`; a typed
    admission-control rejection raises :class:`GatewayOverloadedError`.
    Both carry the echoed request id on the exception as ``request_id`` so
    pipelining clients can resolve the right outstanding call.
    """
    reader = Reader(payload)
    status = reader.read_u8()
    request_id = reader.read_u32()
    message = reader.read_str()
    if status == STATUS_OK:
        return request_id, message
    if status == STATUS_OVERLOADED:
        error: RpcError = GatewayOverloadedError(message)
    else:
        error = RpcError(message)
    error.request_id = request_id
    raise error


def read_hello_ack(payload: bytes) -> tuple[int, int, list[int], bool]:
    """Decode a ``hello`` acknowledgement; typed errors, never a hang.

    Returns ``(protocol_version, data_version, owned_slice_ids,
    local_store)``.  A transported node-side error or an acknowledged
    version other than :data:`PROTOCOL_VERSION` raises
    :class:`HandshakeError`; a malformed (truncated) acknowledgement does
    too.
    """
    try:
        reader = Reader(payload)
        status = reader.read_u8()
        if status != STATUS_OK:
            raise HandshakeError(f"node refused the handshake: {reader.read_str()}")
        version = reader.read_u32()
        if version != PROTOCOL_VERSION:
            raise HandshakeError(
                f"protocol version mismatch: node speaks {version}, "
                f"coordinator speaks {PROTOCOL_VERSION}"
            )
        data_version = reader.read_u64()
        owned = reader.read_u32_array(reader.read_u32())
        local_store = bool(reader.read_u8())
    except HandshakeError:
        raise
    except RpcError as error:
        raise HandshakeError(f"malformed hello acknowledgement ({error})") from error
    return version, data_version, owned, local_store
