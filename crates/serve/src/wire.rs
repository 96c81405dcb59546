//! The wire front end: an HTTP-shaped delta server over a local TCP socket, plus the
//! matching subscriber client.
//!
//! The registry is offline, so the framing is hand-rolled over `std::net` — a deliberately
//! small HTTP/1.1 subset: `GET` only, bodies framed by `Content-Length`, and persistent
//! connections (HTTP/1.1's default): a subscriber sends every exchange over one held
//! connection, and the server answers requests on a connection until the peer closes it, a
//! request asks it to close (`Connection: close`, or HTTP/1.0), or it sits idle past the
//! server's I/O deadline. Three endpoints:
//!
//! | endpoint              | reply                                                        |
//! |-----------------------|--------------------------------------------------------------|
//! | `GET /v1/head`        | `{"kind":"head",...}` — published revision + epoch vector    |
//! | `GET /v1/snapshot`    | `{"kind":"snapshot",...}` — the full published view          |
//! | `GET /v1/delta?since=R` | `{"kind":"delta",...}` when `R` is still in the delta ring, else the full snapshot (`X-Sync` header says which) |
//!
//! **Cache validators.** Every reply carries `ETag: "<revision>.<epochs joined by .>"` — the
//! revision and epoch vector are the identity of a published view — plus an `X-Revision`
//! header. Both name the view the body encodes: a snapshot's own revision and shard epochs,
//! a patch's `to_revision` and its last step's shard epochs (the one place a delta carries
//! an epoch). A request whose `If-None-Match` matches the published ETag gets a
//! `304 Not Modified` with no body, so a caught-up subscriber polling costs a handful of
//! header bytes.

use crate::codec::{decode_message, encode_head, encode_patch, encode_snapshot, WireMessage};
use crate::mirror::{Mirror, MirrorError};
use crate::{Received, SyncOutcome, SyncReport};
use dynsld_engine::{FaultPlan, ReadHandle, ServiceSnapshot, SyncResponse, WireFault};
use dynsld_telemetry::Telemetry;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether an I/O error is a deadline expiry (the two kinds `set_read_timeout` /
/// `set_write_timeout` surface across platforms).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A wire-layer failure on the subscriber side.
#[derive(Debug)]
pub enum WireError {
    /// A socket-level failure.
    Io(std::io::Error),
    /// A read, write, or connect deadline expired ([`WireConfig::io_timeout`] /
    /// [`WireConfig::connect_timeout`]).
    Timeout {
        /// What was being waited on (`"connect"`, `"request"`, `"response"`).
        operation: &'static str,
    },
    /// The peer spoke something that is not the expected HTTP subset or payload shape.
    Protocol(String),
    /// The body did not decode as a wire payload.
    Codec(crate::codec::CodecError),
    /// The decoded patch did not apply to the local mirror.
    Mirror(MirrorError),
    /// Every attempt of a [`WireSubscriber::sync`] retry loop failed; `last` is the final
    /// attempt's error.
    RetriesExhausted {
        /// How many attempts were made ([`WireConfig::max_attempts`]).
        attempts: u32,
        /// The error of the last attempt.
        last: Box<WireError>,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Timeout { operation } => {
                write!(f, "wire deadline expired while waiting on {operation}")
            }
            WireError::Protocol(m) => write!(f, "wire protocol error: {m}"),
            WireError::Codec(e) => write!(f, "{e}"),
            WireError::Mirror(e) => write!(f, "{e}"),
            WireError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "sync failed after {attempts} attempts, last error: {last}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<crate::codec::CodecError> for WireError {
    fn from(e: crate::codec::CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl From<MirrorError> for WireError {
    fn from(e: MirrorError) -> Self {
        WireError::Mirror(e)
    }
}

/// The ETag of a published view: its revision, then its epoch vector, dot-joined, quoted.
///
/// The revision must be part of the validator: a quarantine or recovery republishes (new
/// revision, new health) at an *unchanged* epoch vector, and an epoch-only ETag would keep
/// answering 304 across that transition forever.
fn etag_of(revision: u64, epochs: &[u64]) -> String {
    let joined = epochs
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(".");
    format!("\"{revision}.{joined}\"")
}

/// Server-side hardening knobs (and the fault hook) for [`DeltaServer::bind_with`].
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Read and write deadline per connection. A client that stalls mid-request
    /// (slow-loris) gets a `408 Request Timeout` when this expires instead of pinning a
    /// handler thread forever; a held connection that sends no next request for this long
    /// is closed without a reply. Default: 2 s.
    pub io_timeout: Duration,
    /// Upper bound on the total request head (request line + headers). Anything larger is
    /// answered `413 Payload Too Large` without buffering the remainder. Default: 32 KiB.
    pub max_request_bytes: usize,
    /// Deterministic fault injection per exchange (dropped connections, delayed replies,
    /// torn writes) — see [`FaultPlan`]. Disabled by default.
    pub faults: FaultPlan,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            io_timeout: Duration::from_secs(2),
            max_request_bytes: 32 * 1024,
            faults: FaultPlan::disabled(),
        }
    }
}

/// The delta server: accepts connections on a local socket and answers sync requests from
/// the service's published state via a [`ReadHandle`].
///
/// One accept thread plus one thread per open connection, which answers that connection's
/// requests in turn until the peer closes it, a request asks to close, or it sits idle past
/// [`ServerOptions::io_timeout`]. [`DeltaServer::shutdown`] stops accepting, closes the
/// connections still held (a subscriber waiting between polls does not delay it), joins all
/// handlers, and returns; dropping the server does the same.
pub struct DeltaServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// How many handler threads the accept loop held after its last spawn.
    #[cfg(test)]
    retained: Arc<std::sync::atomic::AtomicUsize>,
}

impl DeltaServer {
    /// Binds a listener (e.g. on `"127.0.0.1:0"` for an ephemeral port) and starts serving
    /// `read`'s service with default [`ServerOptions`] (2 s deadlines, 32 KiB request cap,
    /// no fault injection). `telemetry` records `serve.delta_ns` (time to build each reply),
    /// `serve.bytes_out` (body bytes written), and the counters `serve.connections` (accepted
    /// connections) and `serve.exchanges` (requests read, one fault ordinal each); pass
    /// [`Telemetry::disabled`] to opt out.
    pub fn bind(
        addr: impl ToSocketAddrs,
        read: ReadHandle,
        telemetry: Telemetry,
    ) -> std::io::Result<DeltaServer> {
        Self::bind_with(addr, read, telemetry, ServerOptions::default())
    }

    /// [`DeltaServer::bind`] with explicit deadlines, request-size bounds, and fault
    /// injection ([`ServerOptions`]).
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        read: ReadHandle,
        telemetry: Telemetry,
        options: ServerOptions,
    ) -> std::io::Result<DeltaServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        #[cfg(test)]
        let retained = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        #[cfg(test)]
        let held = Arc::clone(&retained);
        let accept_thread = std::thread::spawn(move || {
            // Each handler with a second handle on its socket, through which the loop's end
            // closes a connection the handler is holding open between requests.
            let mut handlers: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Ok(closer) = stream.try_clone() else {
                    continue;
                };
                telemetry.add("serve.connections", 1);
                let read = read.clone();
                let telemetry = telemetry.clone();
                let options = options.clone();
                // Reap the handlers that are done, so a long-lived server holds only the
                // connections still open, not one finished thread per connection it served.
                let mut i = 0;
                while i < handlers.len() {
                    if handlers[i].0.is_finished() {
                        let _ = handlers.swap_remove(i).0.join();
                    } else {
                        i += 1;
                    }
                }
                let handler = std::thread::spawn(move || {
                    // A torn-down client mid-exchange is the client's problem, not ours.
                    let _ = serve_connection(&stream, &read, &telemetry, &options);
                    // The accept loop holds the socket too: end the connection explicitly so
                    // the peer sees it closed now, not when the handle is reaped.
                    let _ = stream.shutdown(Shutdown::Both);
                });
                handlers.push((handler, closer));
                #[cfg(test)]
                held.store(handlers.len(), Ordering::Release);
            }
            for (_, closer) in &handlers {
                let _ = closer.shutdown(Shutdown::Both);
            }
            for (handler, _) in handlers {
                let _ = handler.join();
            }
        });
        Ok(DeltaServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            #[cfg(test)]
            retained,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every held connection, and joins the accept thread and every
    /// handler.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `incoming()`; poke it with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept_thread.join();
    }
}

impl Drop for DeltaServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Answers the requests of one connection in turn. Read/write deadlines and the request-size
/// bound come from [`ServerOptions`]. Returns when the peer closes, when the connection sits
/// idle past the deadline (no reply: nothing was asked), after a reply to a request that asked
/// to close or could not be read in full, and when an injected fault ends the exchange. Each
/// reply draws one [`FaultPlan::connection_fault`]: a drop closes without replying, a delay
/// stalls the reply, a torn write sends the first `k` bytes of it and closes.
fn serve_connection(
    stream: &TcpStream,
    read: &ReadHandle,
    telemetry: &Telemetry,
    options: &ServerOptions,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(options.io_timeout))?;
    stream.set_write_timeout(Some(options.io_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    loop {
        // Between requests: wait for the first byte of the next one. A peer that closes, or
        // stays silent past the deadline, ends the connection quietly — neither is a stalled
        // request.
        match reader.fill_buf() {
            Ok([]) => return Ok(()),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => return Ok(()),
            Err(e) => return Err(e),
        }
        let (reply, close) = match read_request(&mut reader, options.max_request_bytes) {
            Ok(None) => return Ok(()),
            Ok(Some(request)) => {
                let started = telemetry.is_enabled().then(Instant::now);
                let reply = route(&request, read);
                if let Some(started) = started {
                    telemetry.record_duration("serve.delta_ns", started.elapsed());
                    telemetry.add("serve.bytes_out", reply.body.len() as u64);
                }
                (reply, request.close)
            }
            // The request never fully arrived; say why and close. Timeouts (slow-loris, a
            // stalled peer) count toward the service's wire_timeouts metric.
            Err(RequestError::Timeout) => {
                read.record_wire_timeout();
                (Reply::plain("408 Request Timeout"), true)
            }
            Err(RequestError::TooLarge) => (Reply::plain("413 Payload Too Large"), true),
            Err(RequestError::Malformed) => (Reply::plain("400 Bad Request"), true),
            Err(RequestError::Io(e)) => return Err(e),
        };
        // Counted before the reply goes out, so a client that has its reply sees it counted.
        telemetry.add("serve.exchanges", 1);
        let torn = match options.faults.connection_fault() {
            Some(WireFault::Drop) => return Ok(()),
            Some(WireFault::Delay(pause)) => {
                std::thread::sleep(pause);
                None
            }
            Some(WireFault::TornWrite(bytes)) => Some(bytes),
            None => None,
        };
        let mut writer = stream;
        write_response(&mut writer, &reply, close, torn)?;
        if close || torn.is_some() {
            return Ok(());
        }
    }
}

struct Request {
    method: String,
    path: String,
    query: Option<String>,
    if_none_match: Option<String>,
    /// Whether the client asked to close after the reply (`Connection: close`, or HTTP/1.0,
    /// whose connections do not persist by default).
    close: bool,
}

/// Why a request head could not be read.
enum RequestError {
    /// The read deadline expired mid-request.
    Timeout,
    /// The request head exceeded [`ServerOptions::max_request_bytes`] (or one line
    /// exceeded the per-line bound).
    TooLarge,
    /// Not the expected HTTP subset (no terminated request line, non-UTF-8 head, …).
    Malformed,
    /// Any other socket failure.
    Io(std::io::Error),
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        if is_timeout(&e) {
            RequestError::Timeout
        } else {
            RequestError::Io(e)
        }
    }
}

/// Reads one `\n`-terminated line of at most `limit` bytes. `Ok(None)` on a cleanly closed
/// peer; an unterminated line is [`RequestError::TooLarge`] when the bound was hit and
/// [`RequestError::Malformed`] when the peer closed mid-line.
fn read_line_bounded(
    reader: &mut BufReader<&TcpStream>,
    limit: usize,
) -> Result<Option<String>, RequestError> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(limit as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(if n > limit {
            RequestError::TooLarge
        } else {
            RequestError::Malformed
        });
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| RequestError::Malformed)
}

/// Upper bound on the request line alone; the full head is bounded by the caller's budget.
const MAX_REQUEST_LINE: usize = 8 * 1024;

/// Reads one request head (request line + headers), bounded by `max_request_bytes` total.
/// `Ok(None)` on an immediately-closed connection.
fn read_request(
    reader: &mut BufReader<&TcpStream>,
    max_request_bytes: usize,
) -> Result<Option<Request>, RequestError> {
    let Some(line) = read_line_bounded(reader, MAX_REQUEST_LINE.min(max_request_bytes))? else {
        return Ok(None);
    };
    let mut budget = max_request_bytes.saturating_sub(line.len());
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::Malformed);
    };
    if !version.starts_with("HTTP/") {
        return Err(RequestError::Malformed);
    }
    let method = method.to_string();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    let mut close = version == "HTTP/1.0";
    let mut if_none_match = None;
    while let Some(header) = read_line_bounded(reader, budget)? {
        budget = budget.saturating_sub(header.len());
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("if-none-match") {
                if_none_match = Some(value.trim().to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                close |= value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"));
            }
        } else {
            return Err(RequestError::Malformed);
        }
    }
    Ok(Some(Request {
        method,
        path,
        query,
        if_none_match,
        close,
    }))
}

struct Reply {
    status: &'static str,
    etag: Option<String>,
    revision: Option<u64>,
    sync_mode: Option<&'static str>,
    body: Vec<u8>,
}

impl Reply {
    fn plain(status: &'static str) -> Reply {
        Reply {
            status,
            etag: None,
            revision: None,
            sync_mode: None,
            body: Vec::new(),
        }
    }
}

fn route(request: &Request, read: &ReadHandle) -> Reply {
    if request.method != "GET" {
        return Reply::plain("405 Method Not Allowed");
    }
    match request.path.as_str() {
        "/v1/head" | "/v1/snapshot" | "/v1/delta" => {}
        _ => return Reply::plain("404 Not Found"),
    }
    let snapshot = read.snapshot();
    let etag = etag_of(snapshot.revision(), &snapshot.epochs());
    // Cache validator: a matching ETag answers any endpoint with a no-body 304.
    if request.if_none_match.as_deref() == Some(etag.as_str()) {
        return Reply {
            status: "304 Not Modified",
            etag: Some(etag),
            revision: Some(snapshot.revision()),
            sync_mode: None,
            body: Vec::new(),
        };
    }
    // The headers name the view the body encodes: a publish may land between the validator
    // check above and the `sync_from` below.
    let full = |view: ServiceSnapshot| {
        let body = encode_snapshot(&view);
        (Some("full"), view.revision(), view.epochs(), body)
    };
    let (sync_mode, revision, epochs, body) = match request.path.as_str() {
        "/v1/head" => {
            let body = encode_head(snapshot.revision(), &snapshot.epochs());
            (None, snapshot.revision(), snapshot.epochs(), body)
        }
        "/v1/snapshot" => {
            // Through sync_from (not `snapshot` directly) so the pull counts toward the
            // service's `snapshots_served` metric like every other full reply.
            let SyncResponse::Full(view) = read.sync_from(None) else {
                unreachable!("a sync without a base revision is always a full snapshot");
            };
            full(view)
        }
        "/v1/delta" => {
            let since = request
                .query
                .as_deref()
                .into_iter()
                .flat_map(|q| q.split('&'))
                .find_map(|pair| pair.strip_prefix("since="))
                .and_then(|r| r.parse::<u64>().ok());
            match read.sync_from(since) {
                SyncResponse::Unchanged { revision, epochs } => {
                    return Reply {
                        status: "304 Not Modified",
                        etag: Some(etag_of(revision, &epochs)),
                        revision: Some(revision),
                        sync_mode: None,
                        body: Vec::new(),
                    };
                }
                SyncResponse::Delta(patch) => {
                    let body = encode_patch(&patch);
                    // Delta bytes count toward the service's `delta_bytes_out` metric.
                    read.record_served_bytes(body.len() as u64);
                    let last = patch
                        .deltas
                        .last()
                        .expect("a patch holds at least one step");
                    let epochs = last.shards.iter().map(|shard| shard.epoch).collect();
                    (Some("delta"), patch.to_revision, epochs, body)
                }
                SyncResponse::Full(view) => full(view),
            }
        }
        _ => unreachable!("path matched above"),
    };
    Reply {
        status: "200 OK",
        etag: Some(etag_of(revision, &epochs)),
        revision: Some(revision),
        sync_mode,
        body: body.into_bytes(),
    }
}

/// Writes `reply`, saying `Connection: close` when the server closes after it; `torn`
/// truncates it to its first `k` bytes (injected fault).
fn write_response(
    stream: &mut impl Write,
    reply: &Reply,
    close: bool,
    torn: Option<usize>,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reply.status,
        reply.body.len()
    );
    if close {
        head.push_str("Connection: close\r\n");
    }
    if let Some(etag) = &reply.etag {
        head.push_str(&format!("ETag: {etag}\r\n"));
    }
    if let Some(revision) = reply.revision {
        head.push_str(&format!("X-Revision: {revision}\r\n"));
    }
    if let Some(mode) = reply.sync_mode {
        head.push_str(&format!("X-Sync: {mode}\r\n"));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&reply.body);
    if let Some(cut) = torn {
        // Injected torn write: ship only the first `cut` bytes, then close. The client sees
        // a response truncated mid-head or mid-body and must recover by retrying.
        stream.write_all(&bytes[..cut.min(bytes.len())])?;
        return stream.flush();
    }
    stream.write_all(&bytes)?;
    stream.flush()
}

/// One HTTP exchange from the client side.
struct Response {
    status: u16,
    etag: Option<String>,
    revision: Option<u64>,
    sync_mode: Option<String>,
    /// The server said `Connection: close`: it will not read another request here.
    close: bool,
    body: Vec<u8>,
}

/// Client-side deadlines and retry policy for a [`WireSubscriber`].
#[derive(Clone, Copy, Debug)]
pub struct WireConfig {
    /// Deadline for establishing the TCP connection. Default: 1 s.
    pub connect_timeout: Duration,
    /// Read/write deadline per exchange; expiry surfaces as [`WireError::Timeout`].
    /// Default: 2 s.
    pub io_timeout: Duration,
    /// Attempts per [`WireSubscriber::sync`] before [`WireError::RetriesExhausted`]
    /// (so `max_attempts - 1` retries). Default: 5.
    pub max_attempts: u32,
    /// First retry backoff; doubles per retry. Default: 10 ms.
    pub backoff_base: Duration,
    /// Backoff ceiling for the exponential doubling. Default: 500 ms.
    pub backoff_cap: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(2),
            max_attempts: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// Wire-client counters, accumulated across every exchange of one [`WireSubscriber`]. Fold
/// them into a service-side [`Metrics`](dynsld_engine::Metrics) value (fields
/// `wire_retries` / `wire_timeouts`) to aggregate client- and server-side fault handling in
/// one place.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Failed attempts that were retried by [`WireSubscriber::sync`].
    pub retries: u64,
    /// Attempts that failed specifically on an expired deadline.
    pub timeouts: u64,
}

/// Opens a connection to `addr` under `config`'s deadlines.
fn open(addr: SocketAddr, config: &WireConfig) -> Result<BufReader<TcpStream>, WireError> {
    let stream = TcpStream::connect_timeout(&addr, config.connect_timeout).map_err(|e| {
        if is_timeout(&e) {
            WireError::Timeout {
                operation: "connect",
            }
        } else {
            WireError::Io(e)
        }
    })?;
    stream.set_read_timeout(Some(config.io_timeout))?;
    stream.set_write_timeout(Some(config.io_timeout))?;
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

/// Whether a held connection can carry the next request: the server has not closed it (an
/// idle timeout, a restart) and has sent nothing that was not asked for. One non-blocking
/// peek; sends nothing.
fn reusable(conn: &BufReader<TcpStream>) -> bool {
    if !conn.buffer().is_empty() {
        return false;
    }
    let stream = conn.get_ref();
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let quiet = matches!(
        stream.peek(&mut [0u8; 1]),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
    );
    stream.set_nonblocking(false).is_ok() && quiet
}

/// One request–response exchange on `conn`: a `GET` of `path`, validator-guarded when
/// `if_none_match` is given.
fn exchange(
    conn: &mut BufReader<TcpStream>,
    addr: SocketAddr,
    path: &str,
    if_none_match: Option<&str>,
) -> Result<Response, WireError> {
    let classify = |operation: &'static str| {
        move |e: std::io::Error| {
            if is_timeout(&e) {
                WireError::Timeout { operation }
            } else {
                WireError::Io(e)
            }
        }
    };
    let mut request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some(etag) = if_none_match {
        request.push_str(&format!("If-None-Match: {etag}\r\n"));
    }
    request.push_str("\r\n");
    conn.get_mut()
        .write_all(request.as_bytes())
        .map_err(classify("request"))?;

    let mut status_line = String::new();
    conn.read_line(&mut status_line)
        .map_err(classify("response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| WireError::Protocol(format!("bad status line {status_line:?}")))?;
    let mut content_length = 0usize;
    let mut etag = None;
    let mut revision = None;
    let mut sync_mode = None;
    let mut close = false;
    loop {
        let mut header = String::new();
        if conn.read_line(&mut header).map_err(classify("response"))? == 0 {
            return Err(WireError::Protocol("connection closed mid-headers".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| WireError::Protocol("bad Content-Length".into()))?;
        } else if name.eq_ignore_ascii_case("etag") {
            etag = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("x-revision") {
            revision = value.parse().ok();
        } else if name.eq_ignore_ascii_case("x-sync") {
            sync_mode = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body).map_err(classify("response"))?;
    Ok(Response {
        status,
        etag,
        revision,
        sync_mode,
        close,
        body,
    })
}

/// A remote subscriber: keeps a [`Mirror`] in sync with a [`DeltaServer`] over the wire,
/// using `If-None-Match` validators and `since=`-anchored delta requests so a caught-up or
/// slightly-behind subscriber never pulls the full view.
///
/// [`sync`](Self::sync) is self-healing: a failed exchange (dropped connection, torn write,
/// expired deadline, mirror divergence) is retried with capped exponential backoff up to
/// [`WireConfig::max_attempts`] times. A mirror-level failure additionally drops the local
/// replica so the next attempt resyncs from scratch — delta chain if the server's ring still
/// covers the gap, full snapshot otherwise. After a server restart, [`reconnect`](Self::reconnect)
/// repoints the subscriber while *keeping* the mirror, so a ring-covered gap still syncs as
/// deltas.
///
/// Every exchange goes over one held connection. Before reusing it the subscriber checks that
/// the server has not closed it in the meantime (an idle timeout, a restart), and opens a new
/// one if so — that is not a failed attempt. A failed exchange drops the connection; the
/// retry opens a new one.
pub struct WireSubscriber {
    addr: SocketAddr,
    mirror: Option<Mirror>,
    etag: Option<String>,
    config: WireConfig,
    stats: WireStats,
    /// The connection held between exchanges: none before the first one, after a failed
    /// one, after the server said it closes, and after [`reconnect`](Self::reconnect).
    conn: Option<BufReader<TcpStream>>,
}

impl WireSubscriber {
    /// Points a subscriber at a server address with default deadlines and retry policy
    /// ([`WireConfig`]). The connection opens with the first exchange.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<WireSubscriber> {
        Self::connect_with(addr, WireConfig::default())
    }

    /// [`WireSubscriber::connect`] with explicit deadlines and retry policy.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: WireConfig,
    ) -> std::io::Result<WireSubscriber> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved")
        })?;
        Ok(WireSubscriber {
            addr,
            mirror: None,
            etag: None,
            config,
            stats: WireStats::default(),
            conn: None,
        })
    }

    /// Repoints the subscriber at a (re)started server, keeping the local mirror and its
    /// revision anchor: if the new server's delta ring still covers the mirror's revision,
    /// the next [`sync`](Self::sync) catches up with deltas instead of a full pull. The held
    /// connection, if any, is dropped.
    pub fn reconnect(&mut self, addr: impl ToSocketAddrs) -> std::io::Result<()> {
        self.addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved")
        })?;
        self.conn = None;
        Ok(())
    }

    /// One exchange over the held connection (a new one when there is none, or the server
    /// has closed it). The connection is kept for the next exchange unless this one failed or
    /// the server said it closes.
    fn fetch(&mut self, path: &str, if_none_match: Option<&str>) -> Result<Response, WireError> {
        let mut conn = match self.conn.take() {
            Some(conn) if reusable(&conn) => conn,
            _ => open(self.addr, &self.config)?,
        };
        let response = exchange(&mut conn, self.addr, path, if_none_match)?;
        if !response.close {
            self.conn = Some(conn);
        }
        Ok(response)
    }

    /// Retry/timeout counters accumulated by this subscriber.
    pub fn stats(&self) -> WireStats {
        self.stats
    }

    /// The server's published revision and epoch vector, without touching the mirror.
    /// Retries under the same backoff policy as [`sync`](Self::sync).
    pub fn head(&mut self) -> Result<(u64, Vec<u64>), WireError> {
        self.with_retries(|sub| {
            let response = sub.fetch("/v1/head", None)?;
            match decode_message(
                std::str::from_utf8(&response.body)
                    .map_err(|_| WireError::Protocol("head body is not UTF-8".into()))?,
            )? {
                WireMessage::Head { revision, epochs } => Ok((revision, epochs)),
                other => Err(WireError::Protocol(format!(
                    "expected a head payload, got {other:?}"
                ))),
            }
        })
    }

    /// Brings the local mirror up to date, retrying failed exchanges with capped
    /// exponential backoff (see the type docs for the recovery semantics). Returns the
    /// report of the first successful exchange, or [`WireError::RetriesExhausted`] wrapping
    /// the last attempt's error once [`WireConfig::max_attempts`] attempts all failed.
    pub fn sync(&mut self) -> Result<SyncReport, WireError> {
        self.with_retries(Self::sync_once)
    }

    /// Runs `exchange` under the retry policy: capped exponential backoff between
    /// attempts, timeout/retry counters on [`WireStats`], and a mirror reset when the
    /// failure says the mirror no longer lines up with the server.
    fn with_retries<T>(
        &mut self,
        mut exchange: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut backoff = self.config.backoff_base;
        let mut last = None;
        for attempt in 0..self.config.max_attempts.max(1) {
            if attempt > 0 {
                self.stats.retries += 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(self.config.backoff_cap);
            }
            match exchange(self) {
                Ok(value) => return Ok(value),
                Err(e) => {
                    if matches!(e, WireError::Timeout { .. }) {
                        self.stats.timeouts += 1;
                    }
                    // A mirror that no longer lines up with the server (revision or shard
                    // mismatch after a server-side rebuild) cannot be patched forward; drop
                    // it so the next attempt resyncs from scratch.
                    if matches!(e, WireError::Mirror(_)) {
                        self.mirror = None;
                        self.etag = None;
                    }
                    last = Some(e);
                }
            }
        }
        Err(WireError::RetriesExhausted {
            attempts: self.config.max_attempts.max(1),
            last: Box::new(last.expect("at least one attempt ran")),
        })
    }

    /// One sync exchange, no retries: a validator-guarded delta request when a mirror
    /// exists (304 → [`SyncOutcome::Unchanged`], delta body → [`SyncOutcome::Patched`],
    /// full body → aged-out [`SyncOutcome::Refreshed`]), or an initial full-snapshot pull.
    pub fn sync_once(&mut self) -> Result<SyncReport, WireError> {
        let (path, validator);
        match &self.mirror {
            Some(mirror) => {
                path = format!("/v1/delta?since={}", mirror.revision());
                validator = self.etag.clone();
            }
            None => {
                path = "/v1/snapshot".to_string();
                validator = None;
            }
        }
        let response = self.fetch(&path, validator.as_deref())?;
        if response.status == 304 {
            let mirror = self
                .mirror
                .as_ref()
                .ok_or_else(|| WireError::Protocol("304 without a local mirror".into()))?;
            return Ok(SyncReport {
                outcome: SyncOutcome::Unchanged,
                revision: response.revision.unwrap_or_else(|| mirror.revision()),
                epochs: mirror.epochs(),
            });
        }
        if response.status != 200 {
            return Err(WireError::Protocol(format!(
                "unexpected status {}",
                response.status
            )));
        }
        let body = std::str::from_utf8(&response.body)
            .map_err(|_| WireError::Protocol("body is not UTF-8".into()))?;
        let report = match decode_message(body)? {
            WireMessage::Delta(_) if self.mirror.is_none() => {
                return Err(WireError::Protocol("delta without a local mirror".into()));
            }
            WireMessage::Delta(patch) => Received::Patch(patch).fold_into(&mut self.mirror)?,
            WireMessage::Snapshot(mirror) => {
                debug_assert_eq!(response.sync_mode.as_deref(), Some("full"));
                Received::View(mirror).fold_into(&mut self.mirror)?
            }
            WireMessage::Head { .. } => {
                return Err(WireError::Protocol("unexpected head payload".into()));
            }
        };
        self.etag = response.etag;
        Ok(report)
    }

    /// The local replica, once at least one [`WireSubscriber::sync`] has succeeded.
    pub fn mirror(&self) -> Option<&Mirror> {
        self.mirror.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyncOutcome;
    use dynsld_engine::{FlushPolicy, GraphUpdate, ServiceBuilder};
    use dynsld_forest::VertexId;

    fn ins(a: u32, b: u32, w: f64) -> GraphUpdate {
        GraphUpdate::Insert {
            u: VertexId(a),
            v: VertexId(b),
            weight: w,
        }
    }

    /// One exchange on a fresh connection, closed after it.
    fn fetch(
        addr: SocketAddr,
        path: &str,
        if_none_match: Option<&str>,
        config: &WireConfig,
    ) -> Result<Response, WireError> {
        exchange(&mut open(addr, config)?, addr, path, if_none_match)
    }

    /// The value of a telemetry counter (0 when never bumped).
    fn counter(telemetry: &Telemetry, name: &str) -> u64 {
        telemetry.snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn wire_subscriber_follows_the_server_through_deltas_and_304s() {
        let service = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .flush_policy(FlushPolicy::Manual)
            .delta_ring(16)
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let telemetry = Telemetry::enabled();
        let server =
            DeltaServer::bind("127.0.0.1:0", read.clone(), telemetry.clone()).expect("bind");
        let mut driver = service.into_driver();
        let mut subscriber = WireSubscriber::connect(server.local_addr()).expect("connect");

        assert_eq!(subscriber.head().unwrap().0, 0);
        let first = subscriber.sync().unwrap();
        assert!(matches!(first.outcome, SyncOutcome::Refreshed { .. }));
        // Caught up: the validator-guarded poll comes back 304 with no body.
        assert!(matches!(
            subscriber.sync().unwrap().outcome,
            SyncOutcome::Unchanged
        ));

        for (a, b, w) in [(0, 1, 1.0), (4, 5, 2.0), (1, 4, 3.0)] {
            ingest.submit(ins(a, b, w)).unwrap();
            driver.pump().unwrap();
            driver.flush().unwrap();
        }
        let report = subscriber.sync().unwrap();
        assert!(matches!(
            report.outcome,
            SyncOutcome::Patched { deltas: 3, .. }
        ));

        // The wire-replayed replica is bit-identical to the published view.
        let published = read.snapshot();
        let mirror = subscriber.mirror().expect("synced");
        assert_eq!(mirror.revision(), published.revision());
        for (mirror_shard, shard) in mirror.shards().zip(published.shard_snapshots()) {
            assert_eq!(mirror_shard, shard.dendrogram());
        }
        for tau in [1.5, 2.5, f64::INFINITY] {
            let a = mirror.flat_clustering(tau);
            let b = published.flat_clustering(tau);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.clusters, b.clusters);
        }

        // Delta bytes flowed into the service metrics and the serve telemetry.
        let metrics = driver.service().metrics();
        assert!(metrics.delta_bytes_out > 0);
        assert_eq!(metrics.deltas_served, 1);
        let telemetry_snapshot = telemetry.snapshot();
        assert!(telemetry_snapshot.counter("serve.bytes_out").unwrap() > 0);
        assert!(telemetry_snapshot.histogram("serve.delta_ns").is_some());

        // Unknown paths and non-GET methods are rejected without wedging the server.
        assert!(matches!(
            fetch(server.local_addr(), "/nope", None, &WireConfig::default()).map(|r| r.status),
            Ok(404)
        ));
        server.shutdown();
    }

    #[test]
    fn reply_headers_name_the_view_the_body_encodes() {
        let service = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .delta_ring(4)
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let server = DeltaServer::bind("127.0.0.1:0", read, Telemetry::disabled()).expect("bind");
        let mut driver = service.into_driver();
        let stop = Arc::new(AtomicBool::new(false));
        let flusher = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // One edge in and out, one publish per event.
                let (u, v) = (VertexId(0), VertexId(5));
                for i in 0u32.. {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let update = if i % 2 == 0 {
                        GraphUpdate::Insert { u, v, weight: 1.0 }
                    } else {
                        GraphUpdate::Delete { u, v }
                    };
                    ingest.submit(update).unwrap();
                    driver.pump().unwrap();
                    driver.flush().unwrap();
                }
            })
        };
        let config = WireConfig::default();
        let mut since = 0;
        for round in 0..200 {
            let path = if round % 2 == 0 {
                format!("/v1/delta?since={since}")
            } else {
                "/v1/snapshot".to_string()
            };
            let response = fetch(server.local_addr(), &path, None, &config).unwrap();
            if response.status == 304 {
                continue;
            }
            let body = std::str::from_utf8(&response.body).unwrap();
            let (revision, epochs) = match decode_message(body).unwrap() {
                WireMessage::Snapshot(mirror) => (mirror.revision(), mirror.epochs()),
                WireMessage::Delta(patch) => {
                    let last = patch.deltas.last().unwrap();
                    let epochs = last.shards.iter().map(|shard| shard.epoch).collect();
                    (patch.to_revision, epochs)
                }
                other => panic!("expected a view or a patch, got {other:?}"),
            };
            assert_eq!(response.revision, Some(revision), "{path}");
            assert_eq!(response.etag, Some(etag_of(revision, &epochs)), "{path}");
            since = revision;
        }
        stop.store(true, Ordering::Release);
        flusher.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn etag_carries_the_revision_ahead_of_the_epochs() {
        assert_eq!(etag_of(3, &[1, 2]), "\"3.1.2\"");
        // Health-only republishes bump the revision at an unchanged epoch vector; the
        // validator must change with them.
        assert_ne!(etag_of(3, &[1, 2]), etag_of(4, &[1, 2]));
    }

    /// Writes raw bytes to the server and returns the reply's status code.
    fn raw_status(addr: SocketAddr, bytes: &[u8]) -> u16 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(bytes).expect("send");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        line.split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("numeric status")
    }

    #[test]
    fn server_bounds_malformed_oversize_and_stalled_requests() {
        let service = ServiceBuilder::new().vertices(4).build().unwrap();
        let read = service.read_handle();
        let server = DeltaServer::bind_with(
            "127.0.0.1:0",
            read,
            Telemetry::disabled(),
            ServerOptions {
                io_timeout: Duration::from_millis(100),
                max_request_bytes: 256,
                faults: FaultPlan::disabled(),
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        // Not a request line → 400.
        assert_eq!(raw_status(addr, b"garbage\r\n\r\n"), 400);
        // A header line blowing the 256-byte request budget → 413, without buffering it.
        let oversize = format!(
            "GET /v1/head HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "j".repeat(512)
        );
        assert_eq!(raw_status(addr, oversize.as_bytes()), 413);
        // Slow-loris: an unterminated request line stalls until the read deadline → 408,
        // and the expiry lands in the service's wire_timeouts metric.
        assert_eq!(raw_status(addr, b"GET /v1/head HT"), 408);
        assert_eq!(service.metrics().wire_timeouts, 1);
        // The server is still healthy for well-formed requests afterwards.
        assert_eq!(raw_status(addr, b"GET /v1/head HTTP/1.1\r\n\r\n"), 200);
        server.shutdown();
    }

    #[test]
    fn subscriber_retries_through_injected_drops_and_torn_writes() {
        let service = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .flush_policy(FlushPolicy::Manual)
            .delta_ring(16)
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let mut driver = service.into_driver();
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        driver.pump().unwrap();
        driver.flush().unwrap();
        // Exchange 1 is dropped without a reply; exchange 2 is torn 20 bytes into the
        // response head; exchange 3 succeeds. Each fault closes the connection it hit, and
        // one sync() call absorbs all of it.
        let server = DeltaServer::bind_with(
            "127.0.0.1:0",
            read.clone(),
            Telemetry::disabled(),
            ServerOptions {
                faults: FaultPlan::parse("drop_conn=conn:1;torn_write=conn:2,after:20")
                    .expect("valid spec"),
                ..ServerOptions::default()
            },
        )
        .expect("bind");
        let mut subscriber = WireSubscriber::connect_with(
            server.local_addr(),
            WireConfig {
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                ..WireConfig::default()
            },
        )
        .expect("connect");
        let report = subscriber
            .sync()
            .expect("retries absorb the injected faults");
        assert!(matches!(report.outcome, SyncOutcome::Refreshed { .. }));
        assert_eq!(subscriber.stats().retries, 2);
        // The replica converged despite the faults.
        let published = read.snapshot();
        let mirror = subscriber.mirror().expect("synced");
        assert_eq!(mirror.revision(), published.revision());
        let (a, b) = (mirror.flat_clustering(1.5), published.flat_clustering(1.5));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.clusters, b.clusters);
        server.shutdown();
    }

    #[test]
    fn a_subscriber_holds_one_connection_across_publishes() {
        let service = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .flush_policy(FlushPolicy::Manual)
            .delta_ring(16)
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let telemetry = Telemetry::enabled();
        let server = DeltaServer::bind("127.0.0.1:0", read.clone(), telemetry.clone()).unwrap();
        let mut driver = service.into_driver();
        let mut subscriber = WireSubscriber::connect(server.local_addr()).unwrap();
        let mut requests = 0;
        for (a, b, w) in [(0, 1, 1.0), (4, 5, 2.0), (1, 4, 3.0), (6, 7, 0.5)] {
            assert!(subscriber.sync().is_ok());
            assert_eq!(subscriber.head().unwrap().0, read.revision());
            requests += 2;
            ingest.submit(ins(a, b, w)).unwrap();
            driver.pump().unwrap();
            driver.flush().unwrap();
        }
        let report = subscriber.sync().unwrap();
        assert!(matches!(
            report.outcome,
            SyncOutcome::Patched { deltas: 1, .. }
        ));
        assert!(matches!(
            subscriber.sync().unwrap().outcome,
            SyncOutcome::Unchanged
        ));
        requests += 2;
        assert_eq!(subscriber.stats(), WireStats::default());
        assert_eq!(counter(&telemetry, "serve.connections"), 1);
        assert_eq!(counter(&telemetry, "serve.exchanges"), requests);
        server.shutdown();
    }

    #[test]
    fn a_request_that_asks_to_close_gets_its_reply_then_eof() {
        let service = ServiceBuilder::new().vertices(4).build().unwrap();
        let server = DeltaServer::bind("127.0.0.1:0", service.read_handle(), Telemetry::disabled())
            .expect("bind");
        for request in [
            "GET /v1/head HTTP/1.1\r\nConnection: close\r\n\r\n",
            "GET /v1/head HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n",
            "GET /v1/head HTTP/1.0\r\n\r\n",
        ] {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            // A server that held the connection would leave `read_to_string` waiting here.
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            let mut reply = String::new();
            stream
                .read_to_string(&mut reply)
                .expect("the reply, then EOF");
            assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
            assert!(reply.contains("\r\nConnection: close\r\n"), "{reply}");
            assert!(reply.ends_with('}'), "{reply}");
        }
        // Without either, two requests on one connection get two replies.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"GET /v1/head HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        for expected in ["HTTP/1.1 200 OK", "HTTP/1.1 404 Not Found"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), expected);
            let mut length = 0;
            loop {
                line.clear();
                reader.read_line(&mut line).unwrap();
                assert!(!line.eq_ignore_ascii_case("connection: close\r\n"));
                match line.trim_end().split_once(": ") {
                    Some(("Content-Length", n)) => length = n.parse().unwrap(),
                    None => break,
                    _ => {}
                }
            }
            reader.read_exact(&mut vec![0; length]).unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn an_idle_held_connection_closes_quietly() {
        let service = ServiceBuilder::new().vertices(4).build().unwrap();
        let telemetry = Telemetry::enabled();
        let server = DeltaServer::bind_with(
            "127.0.0.1:0",
            service.read_handle(),
            telemetry.clone(),
            ServerOptions {
                io_timeout: Duration::from_millis(100),
                ..ServerOptions::default()
            },
        )
        .expect("bind");
        let mut conn = open(server.local_addr(), &WireConfig::default()).unwrap();
        let response = exchange(&mut conn, server.local_addr(), "/v1/head", None).unwrap();
        assert_eq!((response.status, response.close), (200, false));
        // Nothing more is asked: past the deadline the server closes, without a reply.
        let started = Instant::now();
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest)
            .expect("EOF, not a read deadline");
        assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest));
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(service.metrics().wire_timeouts, 0);
        assert_eq!(counter(&telemetry, "serve.exchanges"), 1);
        server.shutdown();
    }

    #[test]
    fn a_subscriber_reopens_a_connection_the_server_closed_without_a_retry() {
        let service = ServiceBuilder::new().vertices(4).build().unwrap();
        let telemetry = Telemetry::enabled();
        let server = DeltaServer::bind_with(
            "127.0.0.1:0",
            service.read_handle(),
            telemetry.clone(),
            ServerOptions {
                io_timeout: Duration::from_millis(50),
                ..ServerOptions::default()
            },
        )
        .expect("bind");
        let mut subscriber = WireSubscriber::connect(server.local_addr()).unwrap();
        subscriber.sync().unwrap();
        // The server drops the idle connection; the next sync notices and opens another.
        std::thread::sleep(Duration::from_millis(250));
        assert!(matches!(
            subscriber.sync().unwrap().outcome,
            SyncOutcome::Unchanged
        ));
        assert_eq!(subscriber.stats(), WireStats::default());
        assert_eq!(counter(&telemetry, "serve.connections"), 2);
        // `reconnect` lets go of the held connection.
        subscriber.reconnect(server.local_addr()).unwrap();
        subscriber.head().unwrap();
        assert_eq!(counter(&telemetry, "serve.connections"), 3);
        assert_eq!(subscriber.stats(), WireStats::default());
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_held_connections_at_once() {
        let service = ServiceBuilder::new().vertices(4).build().unwrap();
        // The default 2 s deadline: a shutdown that waited for the idle subscriber's
        // connection to time out would take that long.
        let server = DeltaServer::bind("127.0.0.1:0", service.read_handle(), Telemetry::disabled())
            .expect("bind");
        let mut subscriber = WireSubscriber::connect(server.local_addr()).unwrap();
        subscriber.sync().unwrap();
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
    }

    #[test]
    fn the_accept_loop_reaps_finished_handlers() {
        let service = ServiceBuilder::new().vertices(4).build().unwrap();
        let server = DeltaServer::bind("127.0.0.1:0", service.read_handle(), Telemetry::disabled())
            .expect("bind");
        let addr = server.local_addr();
        let exchanges = 20;
        for _ in 0..exchanges {
            assert_eq!(raw_status(addr, b"GET /v1/head HTTP/1.1\r\n\r\n"), 200);
            // The reply is out; give its handler a moment to return.
            std::thread::sleep(Duration::from_millis(5));
        }
        // Each spawn first joins the handlers that are done: without that, the loop would
        // hold one handle per exchange served.
        let held = server.retained.load(Ordering::Acquire);
        assert!(
            held <= exchanges / 4,
            "{held} handlers held after {exchanges} exchanges"
        );
        server.shutdown();
    }

    #[test]
    fn sync_reports_retries_exhausted_against_a_dead_server() {
        // Bind, learn the port, shut down — nothing listens there afterwards.
        let service = ServiceBuilder::new().vertices(2).build().unwrap();
        let server = DeltaServer::bind("127.0.0.1:0", service.read_handle(), Telemetry::disabled())
            .expect("bind");
        let addr = server.local_addr();
        server.shutdown();
        let mut subscriber = WireSubscriber::connect_with(
            addr,
            WireConfig {
                max_attempts: 2,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                connect_timeout: Duration::from_millis(200),
                ..WireConfig::default()
            },
        )
        .expect("resolve");
        match subscriber.sync() {
            Err(WireError::RetriesExhausted { attempts: 2, .. }) => {}
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(subscriber.stats().retries, 1);
    }
}
