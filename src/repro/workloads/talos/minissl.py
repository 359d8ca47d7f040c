"""The enclavised TLS library behind TaLoS's OpenSSL-shaped interface.

A miniature TLS implementation with OpenSSL's *semantics* where they matter
to the paper's analysis:

* errors are pushed to an error queue polled via ``ERR_peek_error`` /
  ``ERR_clear_error`` instead of being returned — the extra enclave
  transitions §5.2.1 calls out;
* network I/O happens through read/write **ocalls** on the connection's
  file descriptor, with OpenSSL's ``WANT_READ`` non-blocking behaviour;
* ``SSL_read`` buffers all records obtained by one ocall, so repeated
  reads may be served in-enclave;
* ``SSL_write`` fragments application data into small TLS records, each
  written with its own ocall (nginx's many short writes per response).

The handshake is a simplified TLS-1.2-style exchange whose key schedule
uses the repository's own HKDF; record protection uses the keyed stream
cipher with per-record sequence nonces.  Payloads genuinely round-trip —
the client (``repro.workloads.talos.client``) implements the same wire
format.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.cost import stream_cost_ns
from repro.crypto.hmac import hkdf_like, hmac_sha256
from repro.crypto.stream import stream_xor
from repro.sdk.trts import TrustedContext

# Wire frame types.
FT_CLIENT_HELLO = 1
FT_SERVER_HELLO = 2
FT_KEY_EXCHANGE = 3
FT_FINISHED = 4
FT_APP_DATA = 5
FT_CLOSE_NOTIFY = 6

# OpenSSL-style error codes.
SSL_ERROR_NONE = 0
SSL_ERROR_WANT_READ = 2
SSL_ERROR_SYSCALL = 5
SSL_ERROR_ZERO_RETURN = 6

RECORD_SIZE = 128  # bytes of plaintext per TLS record on the write path
READ_CHUNK = 16 * 1024

# In-enclave compute costs.
HANDSHAKE_CRYPTO_NS = 58_000  # key exchange + key schedule
RECORD_NS = 1_300  # framing + MAC bookkeeping per record
SHORT_CALL_NS = 320  # trivial getters/setters


def encode_frame(frame_type: int, body: bytes) -> bytes:
    """Serialise one wire frame."""
    return bytes([frame_type]) + len(body).to_bytes(2, "big") + body


def split_frames(buffer: bytearray) -> list[tuple[int, bytes]]:
    """Pop all complete frames off the front of ``buffer``."""
    frames: list[tuple[int, bytes]] = []
    while len(buffer) >= 3:
        length = int.from_bytes(buffer[1:3], "big")
        if len(buffer) < 3 + length:
            break
        frames.append((buffer[0], bytes(buffer[3 : 3 + length])))
        del buffer[: 3 + length]
    return frames


def derive_session_key(pre_master: bytes, client_random: bytes, server_random: bytes) -> bytes:
    """The session key schedule (same on both sides of the wire)."""
    return hkdf_like(pre_master + client_random + server_random, b"talos-session")


def record_nonce(direction: bytes, sequence: int) -> bytes:
    """Per-record nonce: direction tag + sequence number."""
    return direction + sequence.to_bytes(6, "big")


class SslState(enum.Enum):
    """Connection lifecycle."""

    INIT = "init"
    HANDSHAKE = "handshake"
    OPEN = "open"
    SHUTDOWN = "shutdown"


@dataclass
class SslConnection:
    """Per-connection state living inside the enclave."""

    ssl_id: int
    fd: int = -1
    state: SslState = SslState.INIT
    accept_mode: bool = False
    quiet_shutdown: bool = False
    raw: bytearray = field(default_factory=bytearray)
    records: list[bytes] = field(default_factory=list)
    session_key: bytes = b""
    seq_in: int = 0
    seq_out: int = 0
    server_random: bytes = b""
    client_random: bytes = b""
    last_error: int = SSL_ERROR_NONE
    peer_closed: bool = False


class MiniSslLibrary:
    """The trusted TLS library (TaLoS's in-enclave LibreSSL analogue)."""

    def __init__(self, server_identity: bytes = b"talos-server-cert") -> None:
        self.identity = server_identity
        self.connections: dict[int, SslConnection] = {}
        self.error_queue: list[int] = []
        self._next_id = 1
        self.stats = {"handshakes": 0, "records_in": 0, "records_out": 0}

    # -- connection management ----------------------------------------------

    def ssl_new(self, ctx: TrustedContext) -> int:
        """``SSL_new``: allocate a connection object."""
        ctx.compute(ctx.sim.rng.jitter_ns("ssl:new", 8_600))
        ssl_id = self._next_id
        self._next_id += 1
        self.connections[ssl_id] = SslConnection(ssl_id=ssl_id)
        return ssl_id

    def conn(self, ssl_id: int) -> SslConnection:
        """Look up a connection (raises on bad handle)."""
        connection = self.connections.get(ssl_id)
        if connection is None:
            raise KeyError(f"bad SSL handle {ssl_id}")
        return connection

    def ssl_set_fd(self, ctx: TrustedContext, ssl_id: int, fd: int) -> int:
        """``SSL_set_fd``."""
        ctx.compute(SHORT_CALL_NS)
        self.conn(ssl_id).fd = fd
        return 1

    def ssl_set_accept_state(self, ctx: TrustedContext, ssl_id: int) -> int:
        """``SSL_set_accept_state``."""
        ctx.compute(SHORT_CALL_NS)
        self.conn(ssl_id).accept_mode = True
        return 1

    def ssl_set_quiet_shutdown(self, ctx: TrustedContext, ssl_id: int, mode: int) -> int:
        """``SSL_set_quiet_shutdown``."""
        ctx.compute(SHORT_CALL_NS)
        self.conn(ssl_id).quiet_shutdown = bool(mode)
        return 1

    def ssl_get_rbio(self, ctx: TrustedContext, ssl_id: int) -> int:
        """``SSL_get_rbio``: the read BIO is identified by the fd here."""
        ctx.compute(SHORT_CALL_NS)
        return self.conn(ssl_id).fd

    def bio_int_ctrl(self, ctx: TrustedContext, fd: int, cmd: int) -> int:
        """``BIO_int_ctrl``: nginx uses this to configure the read BIO."""
        ctx.compute(SHORT_CALL_NS)
        return 1

    # -- error handling (the OpenSSL error queue, §5.2.1) ----------------------

    def _push_error(self, code: int) -> None:
        self.error_queue.append(code)

    def err_peek_error(self, ctx: TrustedContext) -> int:
        """``ERR_peek_error``."""
        ctx.compute(SHORT_CALL_NS)
        return self.error_queue[0] if self.error_queue else 0

    def err_clear_error(self, ctx: TrustedContext) -> int:
        """``ERR_clear_error``."""
        ctx.compute(SHORT_CALL_NS)
        self.error_queue.clear()
        return 0

    def ssl_get_error(self, ctx: TrustedContext, ssl_id: int, ret: int) -> int:
        """``SSL_get_error``."""
        ctx.compute(SHORT_CALL_NS)
        return self.conn(ssl_id).last_error

    # -- network plumbing ---------------------------------------------------------

    def _fill_raw(self, ctx: TrustedContext, connection: SslConnection) -> bool:
        """One read ocall; returns False on EAGAIN."""
        data = ctx.ocall("enclave_ocall_read", connection.fd, READ_CHUNK)
        if data is None:  # EAGAIN on the non-blocking socket
            return False
        if data == b"":
            connection.peer_closed = True
            return False
        connection.raw.extend(data)
        return True

    def _drain_frames(self, ctx: TrustedContext, connection: SslConnection) -> list[tuple[int, bytes]]:
        frames = split_frames(connection.raw)
        if frames:
            ctx.compute(RECORD_NS * len(frames))
        return frames

    def _send_frame(
        self, ctx: TrustedContext, connection: SslConnection, frame_type: int, body: bytes
    ) -> None:
        ctx.compute(RECORD_NS)
        frame = encode_frame(frame_type, body)
        ctx.ocall("enclave_ocall_write", connection.fd, frame, len(frame))

    # -- handshake -------------------------------------------------------------------

    def ssl_do_handshake(self, ctx: TrustedContext, ssl_id: int) -> int:
        """``SSL_do_handshake`` (server side).

        Served by blocking reads on the freshly accepted socket, so nginx
        calls it exactly once per connection (Figure 5's count of 1000).
        Fires the SSL_CTX info callback ocalls TaLoS forwards to the
        application, plus the ALPN selection callback.
        """
        connection = self.conn(ssl_id)
        if not connection.accept_mode:
            raise RuntimeError("client-mode handshake not modelled")
        connection.state = SslState.HANDSHAKE
        ctx.ocall("enclave_ocall_time", 0)  # handshake timestamp
        ctx.ocall("enclave_ocall_execute_ssl_ctx_info_callback", 1)

        frames = self._handshake_read(ctx, connection, expected=FT_CLIENT_HELLO)
        connection.client_random = frames[FT_CLIENT_HELLO]
        connection.server_random = bytes(
            (b ^ 0x5A) for b in hmac_sha256(self.identity, connection.client_random)[:32]
        )
        self._send_frame(ctx, connection, FT_SERVER_HELLO, connection.server_random)
        self._send_frame(ctx, connection, FT_KEY_EXCHANGE, self.identity)
        ctx.ocall("enclave_ocall_alpn_select_cb", 1)

        frames = self._handshake_read(ctx, connection, expected=FT_FINISHED)
        pre_master = frames[FT_KEY_EXCHANGE]
        ctx.compute(ctx.sim.rng.jitter_ns("ssl:kex", HANDSHAKE_CRYPTO_NS))
        connection.session_key = derive_session_key(
            pre_master, connection.client_random, connection.server_random
        )
        expected_mac = hmac_sha256(connection.session_key, b"client-finished")
        if frames[FT_FINISHED] != expected_mac:
            self._push_error(0x1408F119)  # decryption failed alert, OpenSSL-style
            connection.last_error = SSL_ERROR_SYSCALL
            return -1
        ctx.ocall("enclave_ocall_execute_ssl_ctx_info_callback", 2)
        self._send_frame(
            ctx, connection, FT_FINISHED, hmac_sha256(connection.session_key, b"server-finished")
        )
        ctx.ocall("enclave_ocall_execute_ssl_ctx_info_callback", 3)
        connection.state = SslState.OPEN
        connection.last_error = SSL_ERROR_NONE
        self.stats["handshakes"] += 1
        return 1

    def _handshake_read(
        self, ctx: TrustedContext, connection: SslConnection, expected: int
    ) -> dict[int, bytes]:
        """Blocking-socket read until the expected frame arrives."""
        collected: dict[int, bytes] = {}
        while expected not in collected:
            if not self._fill_raw(ctx, connection):
                if connection.peer_closed:
                    raise ConnectionError("peer closed during handshake")
                continue  # blocking fd: ocall only returns with data
            for frame_type, body in self._drain_frames(ctx, connection):
                collected[frame_type] = body
        return collected

    # -- application data -----------------------------------------------------------------

    def ssl_read(self, ctx: TrustedContext, ssl_id: int, num: int) -> "int | bytes":
        """``SSL_read``: one decrypted record, WANT_READ, or 0 at close."""
        connection = self.conn(ssl_id)
        ctx.compute(ctx.sim.rng.jitter_ns("ssl:read", 1_900))
        if not connection.records:
            got = self._fill_raw(ctx, connection)
            for frame_type, body in self._drain_frames(ctx, connection):
                if frame_type == FT_CLOSE_NOTIFY:
                    connection.peer_closed = True
                elif frame_type == FT_APP_DATA:
                    connection.records.append(body)
            if not connection.records:
                if connection.peer_closed:
                    connection.last_error = SSL_ERROR_ZERO_RETURN
                    return 0
                connection.last_error = SSL_ERROR_WANT_READ
                self._push_error(0)  # OpenSSL pushes nothing but apps peek anyway
                return -1
        body = connection.records.pop(0)
        ctx.compute(stream_cost_ns(len(body)))
        plaintext = stream_xor(
            connection.session_key,
            record_nonce(b"c>", connection.seq_in),
            body,
        )
        connection.seq_in += 1
        connection.last_error = SSL_ERROR_NONE
        self.stats["records_in"] += 1
        return plaintext[:num] if num else plaintext

    def ssl_write(self, ctx: TrustedContext, ssl_id: int, data: bytes, num: int) -> int:
        """``SSL_write``: fragment into records, one write ocall each."""
        connection = self.conn(ssl_id)
        ctx.compute(ctx.sim.rng.jitter_ns("ssl:write", 2_100))
        offset = 0
        while offset < len(data):
            chunk = data[offset : offset + RECORD_SIZE]
            ctx.compute(stream_cost_ns(len(chunk)))
            body = stream_xor(
                connection.session_key,
                record_nonce(b"s>", connection.seq_out),
                chunk,
            )
            connection.seq_out += 1
            self._send_frame(ctx, connection, FT_APP_DATA, body)
            self.stats["records_out"] += 1
            offset += len(chunk)
        connection.last_error = SSL_ERROR_NONE
        return len(data)

    def ssl_shutdown(self, ctx: TrustedContext, ssl_id: int) -> int:
        """``SSL_shutdown``: close-notify out, then confirm (two calls)."""
        connection = self.conn(ssl_id)
        ctx.compute(ctx.sim.rng.jitter_ns("ssl:shutdown", 1_500))
        if connection.state is SslState.OPEN:
            # Quiet shutdown skips *waiting* for the peer's close-notify;
            # the outgoing alert is still sent.
            self._send_frame(ctx, connection, FT_CLOSE_NOTIFY, b"")
            connection.state = SslState.SHUTDOWN
            return 0  # sent, not yet confirmed
        return 1  # bidirectional shutdown complete

    def ssl_free(self, ctx: TrustedContext, ssl_id: int) -> int:
        """``SSL_free``."""
        ctx.compute(ctx.sim.rng.jitter_ns("ssl:free", 7_100))
        self.connections.pop(ssl_id, None)
        return 0

    def generic_short_call(self, ctx: TrustedContext, *args) -> int:
        """Every other OpenSSL entry point: a short in-enclave call."""
        ctx.compute(ctx.sim.rng.jitter_ns("ssl:misc", SHORT_CALL_NS + 180))
        return 1
