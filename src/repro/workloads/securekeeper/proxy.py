"""The SecureKeeper proxy enclave (paper §5.2.4).

SecureKeeper sits between clients and ZooKeeper, storing data transparently
encrypted: client-proxy traffic is transport-encrypted, and the proxy
en-/decrypts payload and path of every packet inside an enclave so
ZooKeeper only ever sees ciphertext.

The enclave interface is deliberately narrow — exactly two ecalls
(``sgx_ecall_handle_input_from_client`` and
``sgx_ecall_handle_input_from_zookeeper``) and six ocalls (a debug print,
a time source, and the SDK's four sync ocalls).  Access to the shared
connection map is guarded by an SDK mutex: when many clients connect
simultaneously the lock is contended and the sleep/wake ocalls of §2.3.2
fire — the 18 sync ocalls the paper observed during the connect phase.
Per-client queues see no contention, so they lock without ocalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.cost import stream_cost_ns
from repro.crypto.hmac import hkdf_like
from repro.crypto.stream import stream_xor
from repro.sdk.edger8r import EnclaveHandle, build_enclave
from repro.sdk.errors import EnclaveLostError, SgxError
from repro.sdk.trts import TrustedBuffer, TrustedContext
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sim.net import Listener, SimSocket, SocketTimeout
from repro.sim.process import SimProcess
from repro.workloads.securekeeper.zookeeper import ZkRequest, ZkResponse, ZkServer

ECALL_FROM_CLIENT = "sgx_ecall_handle_input_from_client"
ECALL_FROM_ZOOKEEPER = "sgx_ecall_handle_input_from_zookeeper"

_EDL = f"""
enclave {{
    trusted {{
        public int {ECALL_FROM_CLIENT}([in, out, size=len] uint8_t* buf, size_t len);
        public int {ECALL_FROM_ZOOKEEPER}([in, out, size=len] uint8_t* buf, size_t len);
    }};
    untrusted {{
        void ocall_print([in, string] char* msg, size_t len);
        long ocall_get_time(void);
    }};
}};
"""

MSG_CONNECT = 0
MSG_REQUEST = 1

# Networked front-end: the proxy's reply when the circuit breaker sheds a
# request instead of handling it (clients treat it as retryable).
SHED_REPLY = b"\x00SHED"


def send_frame(sock: SimSocket, payload: bytes) -> None:
    """Send one length-prefixed frame, looping through short writes."""
    data = len(payload).to_bytes(4, "big") + payload
    while data:
        sent = sock.send(data)
        data = data[sent:]


def _recv_exact(sock: SimSocket, nbytes: int, allow_eof: bool) -> Optional[bytes]:
    buf = b""
    while len(buf) < nbytes:
        data = sock.recv(nbytes - len(buf), blocking=True)
        if data == b"":
            if allow_eof and not buf:
                return None
            raise ConnectionError(f"{sock.name}: peer closed mid-frame")
        buf += data
    return buf


def recv_frame(sock: SimSocket) -> Optional[bytes]:
    """Receive one length-prefixed frame; ``None`` on clean EOF."""
    header = _recv_exact(sock, 4, allow_eof=True)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length == 0:
        return b""
    return _recv_exact(sock, length, allow_eof=False)

# In-enclave processing costs (parsing, queue management, bookkeeping) —
# calibrated with the crypto costs so the two ecalls measure ≈14 µs and
# ≈18 µs as in the paper.
CLIENT_PARSE_NS = 6_300
ZK_PARSE_NS = 8_600
QUEUE_OP_NS = 900
CONNECT_SETUP_NS = 35_000
QUEUE_BYTES = 40 * 1024  # per-client queue arena

# Start-up arena (session table, buffers): sized so the start-up working
# set lands near the paper's 322 pages (1.26 MiB).
STARTUP_ARENA_BYTES = 900 * 1024


@dataclass
class _Session:
    """Per-client state inside the enclave."""

    client_id: int
    client_key: bytes
    zk_key: bytes
    queue: TrustedBuffer
    pending: int = 0
    requests: int = 0


class SecureKeeperEnclave:
    """Trusted half of the proxy: state plus the two ecall implementations."""

    def __init__(self, master_key: bytes) -> None:
        self.master_key = master_key
        self.sessions: dict[int, _Session] = {}
        self._arena: Optional[TrustedBuffer] = None
        self.stats = {"connects": 0, "client_inputs": 0, "zk_inputs": 0}

    # Key derivation mirrors what clients do (repro.workloads.securekeeper
    # .loadgen) so payloads really round-trip.

    def _client_key(self, client_id: int) -> bytes:
        return hkdf_like(self.master_key, b"client" + client_id.to_bytes(4, "big"))

    def _zk_key(self, client_id: int) -> bytes:
        return hkdf_like(self.master_key, b"zk" + client_id.to_bytes(4, "big"))

    def _ensure_arena(self, ctx: TrustedContext) -> None:
        if self._arena is None:
            self._arena = ctx.malloc(STARTUP_ARENA_BYTES)
            ctx.compute(CONNECT_SETUP_NS)

    # -- ecall: input from a client ------------------------------------------

    def handle_input_from_client(self, ctx: TrustedContext, buf: bytes, length: int):
        """Decrypt a client packet and produce the ZooKeeper-bound packet."""
        self.stats["client_inputs"] += 1
        client_id = int.from_bytes(buf[:4], "big")
        msg_type = buf[4]
        nonce = bytes(buf[5:13])
        body = bytes(buf[13:])
        ctx.compute(ctx.sim.rng.heavy_tail_ns("sk:client-parse", CLIENT_PARSE_NS))

        if msg_type == MSG_CONNECT:
            return self._connect(ctx, client_id)

        session = self.sessions.get(client_id)
        if session is None:
            return b"\x00ERR no session"
        # Decrypt the client request (transport layer).
        ctx.compute(stream_cost_ns(len(body)))
        plain = stream_xor(session.client_key, nonce, body)
        request = ZkRequest.decode(plain)
        # Re-encrypt path (deterministically, so ZooKeeper can key on it)
        # and payload for the ZooKeeper side.
        ctx.compute(stream_cost_ns(len(request.path) + len(request.payload)))
        enc_path = stream_xor(session.zk_key, b"path0000", request.path)
        enc_payload = stream_xor(session.zk_key, nonce, request.payload)
        outbound = ZkRequest(op=request.op, path=enc_path, payload=enc_payload)
        # Track the in-flight request in the per-client queue.  One handler
        # thread per client means this mutex is effectively uncontended —
        # locking it stays inside the enclave (§2.3.2 fast path).
        queue_mutex = ctx.mutex(f"queue-{client_id}")
        queue_mutex.lock(ctx)
        ctx.compute(QUEUE_OP_NS)
        ctx.touch(session.queue, write=True)
        session.pending += 1
        session.requests += 1
        queue_mutex.unlock(ctx)
        return client_id.to_bytes(4, "big") + nonce + outbound.encode()

    def _connect(self, ctx: TrustedContext, client_id: int) -> bytes:
        """First packet of a client: register it in the connection map.

        All clients connect at benchmark start, so this lock is *contended*
        and lock/unlock issue the sleep/wake ocalls the paper counts.
        """
        map_mutex = ctx.mutex("connection_map")
        map_mutex.lock(ctx)
        # Arena setup must happen under the lock: ctx.malloc consumes
        # (interruptible) compute time, so a bare check-then-allocate would
        # race between concurrently connecting clients.
        self._ensure_arena(ctx)
        ctx.compute(ctx.sim.rng.jitter_ns("sk:key-derivation", 14_000))
        session = _Session(
            client_id=client_id,
            client_key=self._client_key(client_id),
            zk_key=self._zk_key(client_id),
            queue=ctx.malloc(QUEUE_BYTES),
        )
        self.sessions[client_id] = session
        self.stats["connects"] += 1
        map_mutex.unlock(ctx)
        ctx.ocall("ocall_print", f"client {client_id} connected", 32)
        return b"\x01OK" + client_id.to_bytes(4, "big")

    # -- ecall: input from ZooKeeper ---------------------------------------------

    def handle_input_from_zookeeper(self, ctx: TrustedContext, buf: bytes, length: int):
        """Decrypt a ZooKeeper response and produce the client-bound packet."""
        self.stats["zk_inputs"] += 1
        client_id = int.from_bytes(buf[:4], "big")
        nonce = bytes(buf[4:12])
        body = bytes(buf[12:])
        ctx.compute(ctx.sim.rng.heavy_tail_ns("sk:zk-parse", ZK_PARSE_NS))
        session = self.sessions.get(client_id)
        if session is None:
            return b"\x00ERR no session"
        response = ZkResponse.decode(body)
        # Decrypt the ZooKeeper-side payload, re-encrypt for the client.
        ctx.compute(2 * stream_cost_ns(len(response.payload)) + 2_600)
        plain_payload = stream_xor(session.zk_key, nonce, response.payload)
        client_body = ZkResponse(ok=response.ok, payload=plain_payload).encode()
        ctx.compute(stream_cost_ns(len(client_body)))
        encrypted = stream_xor(session.client_key, nonce, client_body)
        queue_mutex = ctx.mutex(f"queue-{client_id}")
        queue_mutex.lock(ctx)
        ctx.compute(QUEUE_OP_NS)
        ctx.touch(session.queue, write=True)
        session.pending -= 1
        queue_mutex.unlock(ctx)
        return nonce + encrypted


class SecureKeeperProxy:
    """The untrusted proxy application hosting the enclave."""

    def __init__(
        self,
        process: SimProcess,
        device: SgxDevice,
        master_key: bytes = b"securekeeper-master-key-000000/0",
        tcs_count: int = 16,
        plan=None,
    ) -> None:
        self.process = process
        self.sim = process.sim
        self.urts = Urts(process, device)
        self.trusted = SecureKeeperEnclave(master_key)
        self._tcs_count = tcs_count
        self._plan = plan
        self._resilient = None
        self.handle: EnclaveHandle = self._build_handle()

    def _build_handle(self) -> EnclaveHandle:
        return build_enclave(
            self.urts,
            _EDL,
            trusted_impls={
                ECALL_FROM_CLIENT: self.trusted.handle_input_from_client,
                ECALL_FROM_ZOOKEEPER: self.trusted.handle_input_from_zookeeper,
            },
            untrusted_impls={
                "ocall_print": self._ocall_print,
                "ocall_get_time": self._ocall_get_time,
            },
            interface_plan=self._plan,
            config=EnclaveConfig(
                name="securekeeper",
                code_bytes=420 * 1024,
                data_bytes=32 * 1024,
                heap_bytes=2 * 1024 * 1024,
                stack_bytes=128 * 1024,
                tcs_count=self._tcs_count,
                debug=True,
            ),
            code_identity=b"securekeeper-proxy",
        )

    def make_resilient(self, max_attempts: int = 5, backoff_ns: int = 100_000, logger=None):
        """Route the two ecalls through a loss-surviving wrapper.

        :class:`SecureKeeperEnclave` state (sessions, keys) lives outside
        the enclave memory model, so a re-created enclave resumes proxying
        without re-registering clients.  Idempotent; returns the
        :class:`ResilientEnclave`.
        """
        from repro.sdk.resilience import ResilientEnclave

        if self._resilient is None:
            first = [self.handle]

            def factory() -> EnclaveHandle:
                if first:
                    return first.pop()
                self.handle = self._build_handle()
                return self.handle

            self._resilient = ResilientEnclave(
                factory, max_attempts=max_attempts, backoff_ns=backoff_ns, logger=logger
            )
        return self._resilient

    def _ocall_print(self, uctx, msg: str, length: int) -> None:
        uctx.compute_jittered("sk:print", 2_300)

    def _ocall_get_time(self, uctx) -> int:
        uctx.compute_jittered("sk:time", 180)
        return self.sim.now_ns

    # -- data path -------------------------------------------------------------

    def input_from_client(self, packet: bytes) -> bytes:
        """Feed one client packet through the enclave."""
        if self._resilient is not None:
            return self._resilient.ecall(ECALL_FROM_CLIENT, packet, len(packet))
        return self.handle.ecall(ECALL_FROM_CLIENT, packet, len(packet))

    def input_from_zookeeper(self, packet: bytes) -> bytes:
        """Feed one ZooKeeper response through the enclave."""
        if self._resilient is not None:
            return self._resilient.ecall(ECALL_FROM_ZOOKEEPER, packet, len(packet))
        return self.handle.ecall(ECALL_FROM_ZOOKEEPER, packet, len(packet))

    def close(self) -> None:
        """Tear the enclave down."""
        if self._resilient is not None:
            self._resilient.destroy()
        else:
            self.handle.destroy()


class SecureKeeperNetServer:
    """Socket front-end for the proxy (chaos-mode serving path).

    The paper's deployment terminates client connections in the untrusted
    proxy process; this models that: length-prefixed packet frames over
    simulated sockets, one handler thread per connection, the ZooKeeper
    round-trip performed server-side.  A circuit breaker (optional) sheds
    requests with :data:`SHED_REPLY` while open, and connection-level
    failures are absorbed per connection instead of killing the server.

    The default direct-call path (:meth:`SecureKeeperProxy.input_from_client`)
    is untouched — this front-end is only built in chaos runs.
    """

    def __init__(
        self,
        proxy: SecureKeeperProxy,
        listener: Listener,
        zk: ZkServer,
        breaker=None,
        serving=None,
    ) -> None:
        self.proxy = proxy
        self.listener = listener
        self.zk = zk
        self.breaker = breaker
        self.serving = serving
        self.stats = {"connections": 0, "frames": 0, "shed": 0, "failed": 0}

    def serve_until_closed(self) -> dict:
        """Accept connections until the listener closes."""
        while True:
            sock = self.listener.accept(blocking=True)
            if sock is None:
                return self.stats
            self.stats["connections"] += 1
            self.proxy.process.pthread_create(
                self._handle_connection,
                sock,
                name=f"sk-conn-{self.stats['connections']}",
            )

    def _handle_connection(self, sock: SimSocket) -> None:
        try:
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    return
                self.stats["frames"] += 1
                if self.breaker is not None and not self.breaker.allow():
                    self.stats["shed"] += 1
                    if self.serving is not None:
                        self.serving.record_shed(f"breaker open on {sock.name}")
                    send_frame(sock, SHED_REPLY)
                    continue
                try:
                    reply = self._process(frame)
                except (SgxError, EnclaveLostError) as exc:
                    # Unrecoverable enclave failure for this request: tell
                    # the client to retry, count it against the breaker.
                    self.stats["failed"] += 1
                    if self.breaker is not None:
                        self.breaker.record_failure()
                    send_frame(sock, b"\x00ERR " + type(exc).__name__.encode())
                    continue
                if self.breaker is not None:
                    self.breaker.record_success()
                send_frame(sock, reply)
        except (ConnectionError, SocketTimeout):
            pass  # connection died (reset/partition); the client retries
        finally:
            sock.close()

    def _process(self, packet: bytes) -> bytes:
        proxy = self.proxy
        if packet[4] == MSG_CONNECT:
            return proxy.input_from_client(packet)
        zk_bound = proxy.input_from_client(packet)
        if zk_bound.startswith(b"\x00ERR"):
            return zk_bound
        raw_response = self.zk.handle(zk_bound[12:])
        return proxy.input_from_zookeeper(zk_bound[:12] + raw_response)
