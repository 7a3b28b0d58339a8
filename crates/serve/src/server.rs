//! The suggestion server: a hand-rolled TCP accept loop.
//!
//! The container has no async runtime, so the server is plain `std::net`:
//! an accept thread spawns one handler thread per connection (bounded by
//! [`ServeConfig::max_connections`]), each speaking the newline-delimited
//! JSON protocol of [`crate::protocol`]. Connections are long-lived —
//! editor plug-ins keep one open — which is exactly why a fixed pool
//! multiplexing *connections* would be wrong: an idle connection would
//! pin a worker and starve queued ones (a bug the serve smoke harness
//! caught in an earlier pool-based design). Handler threads poll the stop
//! flag through bounded reads, so shutdown never waits on an idle client.
//!
//! Responses are appended to a per-connection output buffer and written
//! with one `write_all` once the read buffer holds no further complete
//! request line (so the next read could block), once the buffer passes
//! `OUT_CAP`, and before the handler returns. A pipelined burst thus
//! costs one system call instead of one per response, while a lone
//! request is still written the moment it is answered; `stats` counts the
//! writes.
//!
//! Three properties the tests pin down:
//!
//! * **Sub-ms suggestion path** — a `suggest` request is a symbol lookup,
//!   a candidate gather, and a stable sort of a short list against the
//!   precomputed [`PatternIndex`]; the per-request latency (measured
//!   server-side around exactly that work) feeds the stats histogram.
//! * **Hot swap without dropping requests** — handlers pin the index via
//!   [`EpochPtr::load_with_epoch`]; a concurrent reload publishes a new
//!   generation without invalidating pinned ones, and every response
//!   reports the epoch that answered it.
//! * **Panic-proofing** — each request runs under `catch_unwind`; a panic
//!   becomes an error response and a `panics_caught` tick, never a dead
//!   worker. Reloads that fail (including [`WicleanError::InternerFull`](wiclean_types::WicleanError::InternerFull)
//!   surfaced as a build error) are rejected while the previous index
//!   stays live.

use crate::epoch::EpochPtr;
use crate::index::{ActionSig, PatternIndex};
use crate::protocol::{
    error_line, parse_request, write_suggest_response, AckResponse, ReloadResponse, Request,
    StatsResponse,
};
use crate::stats::ServeStats;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wiclean_types::Universe;

/// Longest request line a handler buffers, newline excluded. A longer
/// line is answered with an error and skipped up to its newline, so a
/// client can neither grow a handler's buffer without bound nor lose its
/// connection by overrunning it.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Response bytes a connection buffers before it writes them out, even
/// while further pipelined requests are waiting to be answered.
const OUT_CAP: usize = 64 << 10;

/// Rebuilds a [`PatternIndex`] on demand for the `reload` op. The argument
/// is the request's optional `spec` string; the closure owns whatever it
/// needs (store, universe, miner config) to produce a fresh index. Errors
/// are human-readable one-liners; the server keeps the previous index.
pub type ReloadFn = Box<dyn Fn(Option<&str>) -> Result<PatternIndex, String> + Send + Sync>;

/// Server construction options.
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Concurrent-connection cap; further accepts wait until a handler
    /// thread finishes.
    pub max_connections: usize,
    /// Enables the `panic` op (panic-proofing harness only).
    pub enable_debug_ops: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            enable_debug_ops: false,
        }
    }
}

/// A running server. Dropping the handle stops it (see
/// [`ServeHandle::shutdown`]).
pub struct ServeHandle {
    addr: SocketAddr,
    epoch: Arc<EpochPtr<PatternIndex>>,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
}

struct Shared {
    addr: SocketAddr,
    epoch: Arc<EpochPtr<PatternIndex>>,
    stats: Arc<ServeStats>,
    universe: Arc<Universe>,
    reload: Option<ReloadFn>,
    stop: Arc<AtomicBool>,
    enable_debug_ops: bool,
}

/// Starts a server over `index`. `reload` powers the `reload` op (absent →
/// the op is rejected). Returns once the listener is bound.
pub fn serve(
    config: ServeConfig,
    universe: Arc<Universe>,
    index: PatternIndex,
    reload: Option<ReloadFn>,
) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let epoch = Arc::new(EpochPtr::new(index));
    let stats = Arc::new(ServeStats::new());
    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        addr,
        epoch: Arc::clone(&epoch),
        stats: Arc::clone(&stats),
        universe,
        reload,
        stop: Arc::clone(&stop),
        enable_debug_ops: config.enable_debug_ops,
    });

    let conns: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let max_connections = config.max_connections.max(1);
    let accept_conns = Arc::clone(&conns);
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.stop.load(Ordering::Acquire) {
                return;
            }
            let Ok(stream) = stream else { continue };
            // One-line responses must not sit in Nagle's buffer waiting
            // for a delayed ACK (a 40 ms round-trip tax otherwise).
            stream.set_nodelay(true).ok();
            // Reap finished handlers; if still at the cap, wait for one to
            // finish rather than queueing the connection behind long-lived
            // ones it could never overtake.
            loop {
                let mut conns = accept_conns.lock();
                conns.retain(|h| !h.is_finished());
                if conns.len() < max_connections {
                    let shared = Arc::clone(&accept_shared);
                    conns.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                    }));
                    break;
                }
                drop(conns);
                if accept_shared.stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    });

    Ok(ServeHandle {
        addr,
        epoch,
        stats,
        stop,
        accept_thread: Some(accept_thread),
        conns,
    })
}

impl ServeHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serving counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The current index generation.
    pub fn epoch(&self) -> u64 {
        self.epoch.epoch()
    }

    /// Hot-swaps `index` in from the host process (the admin `reload` op
    /// does the same through the wire). Returns the new epoch.
    pub fn swap_index(&self, index: PatternIndex) -> u64 {
        let e = self.epoch.swap(index);
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        e
    }

    /// Blocks until the server stops (e.g. a wire `shutdown` request),
    /// joining all threads.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        loop {
            let Some(t) = self.conns.lock().pop() else {
                return;
            };
            let _ = t.join();
        }
    }

    /// Stops the server and joins all threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.wait();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // Bounded reads so an idle connection re-checks the stop flag.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    // The request line so far, kept across read timeouts: a request split
    // by a pause arrives whole, and bytes are decoded only once the line
    // is complete, so a multi-byte character split across reads survives.
    let mut line: Vec<u8> = Vec::new();
    // Responses not yet written, each with its line break. A pipelined
    // burst is answered in one write, not one write per response.
    let mut out: Vec<u8> = Vec::new();
    // Set once the current line overran MAX_REQUEST_BYTES and was
    // answered: its remaining bytes are skipped up to the newline.
    let mut skipping = false;
    loop {
        let room = (MAX_REQUEST_BYTES + 2 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => {
                // Client closed.
                let _ = flush(&mut writer, &mut out, shared);
                return;
            }
            Ok(_) => {
                let complete = line.last() == Some(&b'\n');
                if skipping {
                    skipping = !complete;
                } else if line.len() - usize::from(complete) > MAX_REQUEST_BYTES {
                    skipping = !complete;
                    reject_line(
                        shared,
                        &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                        &mut out,
                    );
                } else {
                    // A complete line, or the last one before the client
                    // closed without a newline.
                    match std::str::from_utf8(&line) {
                        Ok(text) if text.trim().is_empty() => {}
                        Ok(text) => handle_request_guarded(text.trim(), shared, &mut out),
                        Err(_) => reject_line(shared, "request line is not valid UTF-8", &mut out),
                    }
                }
                line.clear();
                let stop = shared.stop.load(Ordering::Acquire);
                // Write out once no further complete request is buffered
                // (the next read could block), the buffer is full, or the
                // handler is about to return.
                if (stop || out.len() >= OUT_CAP || !reader.buffer().contains(&b'\n'))
                    && flush(&mut writer, &mut out, shared).is_err()
                {
                    return;
                }
                if stop {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(_) => {
                let _ = flush(&mut writer, &mut out, shared);
                return;
            }
        }
    }
}

/// Writes the buffered responses with one `write_all` and empties the
/// buffer.
fn flush(writer: &mut TcpStream, out: &mut Vec<u8>, shared: &Shared) -> std::io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    shared.stats.writes.fetch_add(1, Ordering::Relaxed);
    let written = writer.write_all(out);
    out.clear();
    written
}

/// Answers a line that never reached the request parser (too long, not
/// UTF-8) with an error, counted like any rejected request.
fn reject_line(shared: &Shared, message: &str, out: &mut Vec<u8>) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    push_error(shared, message, out);
    out.push(b'\n');
}

/// Runs one request under `catch_unwind` and appends its response line to
/// `out`: a handler panic becomes an error response, never a dead worker
/// thread or a half-rendered line.
fn handle_request_guarded(line: &str, shared: &Shared, out: &mut Vec<u8>) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let start = out.len();
    if catch_unwind(AssertUnwindSafe(|| handle_request(line, shared, out))).is_err() {
        shared.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        out.truncate(start);
        out.extend_from_slice(
            error_line(shared.epoch.epoch(), "internal error: handler panicked").as_bytes(),
        );
    }
    out.push(b'\n');
}

/// Appends `response` to `out` as compact JSON.
fn push_json<T: serde::Serialize>(out: &mut Vec<u8>, response: &T) {
    let json = serde_json::to_string(response).expect("response serializes");
    out.extend_from_slice(json.as_bytes());
}

/// Appends an error response to `out`, counted as an error.
fn push_error(shared: &Shared, message: &str, out: &mut Vec<u8>) {
    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    out.extend_from_slice(error_line(shared.epoch.epoch(), message).as_bytes());
}

/// Answers one request, appending its response (without the line break)
/// to `out`.
fn handle_request(line: &str, shared: &Shared, out: &mut Vec<u8>) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return push_error(shared, &e, out),
    };
    match request {
        Request::Suggest { entity, sig } => {
            shared
                .stats
                .suggest_requests
                .fetch_add(1, Ordering::Relaxed);
            // Resolve the wire signature before the timed section: name →
            // id resolution is request parsing, not suggestion lookup.
            let sig = match sig {
                None => None,
                Some(ws) => match shared.universe.lookup_relation(&ws.rel) {
                    Some(rel) => Some(ActionSig { op: ws.op, rel }),
                    None => {
                        return push_error(shared, &format!("unknown relation {:?}", ws.rel), out)
                    }
                },
            };
            // The timed suggestion path: pin the index generation, look up,
            // rank. This is the server-side latency each response carries
            // and `stats` aggregates; rendering comes after it.
            let t0 = Instant::now();
            let (index, epoch) = shared.epoch.load_with_epoch();
            let found = index.suggest_by_name(&entity, sig);
            let latency_ns = t0.elapsed().as_nanos() as u64;
            shared.stats.record_latency_ns(latency_ns);
            shared
                .stats
                .suggestions_returned
                .fetch_add(found.len() as u64, Ordering::Relaxed);
            write_suggest_response(out, epoch, &found, latency_ns);
        }
        Request::Stats => {
            let (index, epoch) = shared.epoch.load_with_epoch();
            push_json(
                out,
                &StatsResponse {
                    ok: true,
                    epoch,
                    serve: shared.stats.snapshot(epoch),
                    index: index.stats().clone(),
                },
            );
        }
        Request::Reload { spec } => {
            let Some(reload) = &shared.reload else {
                shared
                    .stats
                    .reloads_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return push_error(shared, "reload not configured", out);
            };
            match reload(spec.as_deref()) {
                Ok(index) => {
                    let patterns = index.stats().patterns;
                    let suggestions = index.stats().suggestions;
                    let epoch = shared.epoch.swap(index);
                    shared.stats.swaps.fetch_add(1, Ordering::Relaxed);
                    push_json(
                        out,
                        &ReloadResponse {
                            ok: true,
                            epoch,
                            patterns,
                            suggestions,
                        },
                    );
                }
                Err(e) => {
                    shared
                        .stats
                        .reloads_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    push_error(shared, &format!("reload rejected: {e}"), out);
                }
            }
        }
        Request::Ping => push_json(
            out,
            &AckResponse {
                ok: true,
                epoch: shared.epoch.epoch(),
                ack: "pong".to_string(),
            },
        ),
        Request::Shutdown => {
            shared.stop.store(true, Ordering::Release);
            // Unblock the accept loop so the server actually winds down.
            let _ = TcpStream::connect(shared.addr);
            push_json(
                out,
                &AckResponse {
                    ok: true,
                    epoch: shared.epoch.epoch(),
                    ack: "shutting down".to_string(),
                },
            );
        }
        Request::Panic => {
            if shared.enable_debug_ops {
                panic!("debug op: deliberate panic");
            }
            push_error(shared, "debug ops disabled", out);
        }
    }
}
