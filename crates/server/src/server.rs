//! The service: a blocking accept loop that gives every connection its
//! own thread, and a pool of reusable codec session sets that those
//! threads borrow one request at a time.
//!
//! # Architecture
//!
//! ```text
//!   accept()  blocks; a ShutdownHandle wakes it with one loopback connect
//!      │      workers + queue_capacity connections live ──▶ Busy reply, close
//!      ▼
//!   one thread per connection          (std::thread::scope: the drain joins all)
//!      │  read one whole frame         (an idle socket waits here, holding no session)
//!      ▼
//!   borrow a session set  ◀──────▶  pool of `workers` sets: registry,
//!      │  serve the request            EncoderSession, DecoderSession
//!      ▼  return the set               (Mutex + Condvar)
//!   write the reply
//! ```
//!
//! A connection has at most one request in flight, so at most
//! `queue_capacity` requests ever wait for a session, and the thread that
//! read a frame serves it with no hand-off to another thread.
//!
//! Shutdown stops the accept loop, and requests in flight finish. A later
//! request on a live connection is answered [`Status::Draining`] before
//! the socket closes, so a SIGTERM never abandons a request mid-reply. A
//! thread idle in `read` ends at EOF, at its next request, or at the read
//! timeout.

use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use cbic_core::{CodecConfig, DecoderSession, EncoderSession};
use cbic_image::registry::CodecRegistry;
use cbic_image::{CbicError, DecodeOptions, EncodeOptions, Image, Parallelism};
use cbic_universal::codecs::default_registry;

use crate::metrics::Metrics;
use crate::protocol::{
    error_body, read_frame, split_decode_roi, write_frame, EncodeRequest, Frame, Op, Status,
    PAYLOAD_BITS_UNTRACKED,
};

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Codec session sets in the pool, so the number of requests served
    /// at once. `0` means one per available hardware thread.
    pub workers: usize,
    /// Requests that may wait for a session set. The server keeps at most
    /// `workers + queue_capacity` connections live and answers the next
    /// one [`Status::Busy`].
    pub queue_capacity: usize,
    /// Largest accepted request frame body, in bytes. Larger frames are
    /// answered [`Status::TooLarge`] without reading the body.
    pub max_frame_bytes: usize,
    /// Per-socket read timeout; an idle connection is dropped after it.
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// Interval of the one-line stderr metrics summary. `None` disables
    /// the reporter thread.
    pub summary_interval: Option<Duration>,
}

impl Default for ServerConfig {
    /// One session set per hardware thread, 64 waiting requests, a 64 MiB
    /// frame ceiling, 10 s socket timeouts, no stderr reporter.
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 64,
            max_frame_bytes: 64 << 20,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            summary_interval: None,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            thread::available_parallelism().map_or(1, usize::from)
        }
    }
}

/// Stops a running [`Server`]. Clones stop the same server.
#[derive(Clone)]
pub struct ShutdownHandle {
    /// The shutdown flag and the condition variable the stats reporter
    /// waits on.
    requested: Arc<(Mutex<bool>, Condvar)>,
    /// The listener's address as a client reaches it.
    wake: SocketAddr,
}

impl ShutdownHandle {
    /// Begins the drain without waiting for it: raises the shutdown flag,
    /// wakes the stats reporter, and makes one loopback connection that
    /// wakes the blocked `accept`. Live connections get
    /// [`Status::Draining`] on their next request. Calls after the first
    /// do nothing.
    pub fn shutdown(&self) {
        if self.raise() {
            // Nothing else wakes a thread blocked in `accept`. The accept
            // loop sees the flag and drops this connection unserved.
            if let Err(e) = TcpStream::connect(self.wake) {
                eprintln!("cbic-serve: waking the accept loop at {}: {e}", self.wake);
            }
        }
    }

    /// Whether shutdown has begun.
    pub fn is_requested(&self) -> bool {
        *lock(&self.requested.0)
    }

    /// Raises the flag and wakes the reporter; `true` on the first call.
    fn raise(&self) -> bool {
        let mut requested = lock(&self.requested.0);
        let first = !*requested;
        *requested = true;
        self.requested.1.notify_all();
        first
    }

    /// Waits up to `timeout` for shutdown; `true` once it has begun.
    fn wait(&self, timeout: Duration) -> bool {
        let guard = lock(&self.requested.0);
        let (requested, _) = self
            .requested
            .1
            .wait_timeout_while(guard, timeout, |requested| !*requested)
            .unwrap_or_else(PoisonError::into_inner);
        *requested
    }
}

/// The address a shutdown connects to: the bound address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by the loopback address of
/// its family.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Locks `mutex`, ignoring poisoning: every update under the server's
/// locks is one push, pop or store, so the data stays valid.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bound, not-yet-running service. [`run`](Self::run) blocks the
/// calling thread until a [`ShutdownHandle`] stops it and the drain
/// completes.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    metrics: Arc<Metrics>,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds the listener. The service does not accept until
    /// [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Socket-level failures from bind.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shutdown = ShutdownHandle {
            requested: Arc::new((Mutex::new(false), Condvar::new())),
            wake: wake_address(listener.local_addr()?),
        };
        Ok(Self {
            listener,
            config,
            metrics: Arc::new(Metrics::new()),
            shutdown,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        self.metrics.clone()
    }

    /// A handle that makes [`run`](Self::run) stop accepting, drain, and
    /// return.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Runs the accept loop on the calling thread until shutdown, then
    /// joins every connection thread and the reporter, and prints a final
    /// summary.
    ///
    /// # Errors
    ///
    /// Fatal listener failures only, returned after the drain;
    /// per-connection errors are counted in metrics and never abort the
    /// service.
    pub fn run(self) -> io::Result<()> {
        let Self {
            listener,
            config,
            metrics,
            shutdown,
        } = self;
        let workers = config.effective_workers();
        let max_live = workers.saturating_add(config.queue_capacity);
        let pool = SessionPool::new(workers);
        let live = AtomicUsize::new(0);
        let result = thread::scope(|scope| {
            if let Some(interval) = config.summary_interval {
                let (shutdown, metrics) = (&shutdown, &metrics);
                scope.spawn(move || {
                    while !shutdown.wait(interval) {
                        eprintln!("{}", metrics.summary_line());
                    }
                });
            }
            let result = loop {
                let accepted = listener.accept();
                if shutdown.is_requested() {
                    break Ok(());
                }
                let mut stream = match accepted {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        // Drain what is live, then report the failure.
                        shutdown.raise();
                        break Err(e);
                    }
                };
                metrics.connections.fetch_add(1, Relaxed);
                let _ = stream.set_read_timeout(Some(config.read_timeout));
                let _ = stream.set_write_timeout(Some(config.write_timeout));
                // Replies are single small frames; Nagle + delayed ACK
                // would add ~200 ms to every round trip.
                let _ = stream.set_nodelay(true);
                if live.load(SeqCst) >= max_live {
                    // Explicit backpressure: a structured Busy reply,
                    // never an unbounded queue.
                    metrics.busy_rejections.fetch_add(1, Relaxed);
                    let body = error_body(Status::Busy, "work queue full");
                    let _ = write_frame(&mut stream, &body);
                    continue;
                }
                let slot = LiveSlot::take(&live);
                let (pool, metrics, shutdown, config) = (&pool, &metrics, &shutdown, &config);
                let spawned = thread::Builder::new()
                    .name("cbic-conn".into())
                    .spawn_scoped(scope, move || {
                        let _slot = slot;
                        serve_connection(stream, pool, metrics, shutdown, config);
                    });
                if let Err(e) = spawned {
                    // The closure is dropped with the socket and the slot:
                    // the peer sees the connection close.
                    metrics.io_errors.fetch_add(1, Relaxed);
                    eprintln!("cbic-serve: spawning a connection thread: {e}");
                }
            };
            // Refuse new connections at once instead of leaving them in
            // the backlog until the drain ends.
            drop(listener);
            result
        });
        eprintln!("cbic-serve: drained. {}", metrics.summary_line());
        result
    }

    /// Test/embedding convenience: runs the service on a background
    /// thread and returns a handle that can stop and join it.
    ///
    /// # Errors
    ///
    /// Propagates [`local_addr`](Self::local_addr) failures.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let metrics = self.metrics();
        let shutdown = self.shutdown_handle();
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            metrics,
            shutdown,
            thread,
        })
    }
}

/// Handle to a [`Server`] running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<Metrics>,
    shutdown: ShutdownHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The service's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        self.metrics.clone()
    }

    /// Begins the drain without waiting ([`ShutdownHandle::shutdown`]):
    /// the accept loop stops, and live connections get
    /// [`Status::Draining`] on their next request. Call
    /// [`shutdown_and_join`](Self::shutdown_and_join) to wait for the
    /// drain.
    pub fn begin_shutdown(&self) {
        self.shutdown.shutdown();
    }

    /// Begins the drain, waits for it, and returns the accept loop's
    /// result.
    ///
    /// # Errors
    ///
    /// The accept loop's fatal error, if it had one.
    pub fn shutdown_and_join(self) -> io::Result<()> {
        self.shutdown.shutdown();
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// One of the `workers + queue_capacity` connection slots; dropping it
/// frees the slot, also when a connection thread unwinds.
struct LiveSlot<'a>(&'a AtomicUsize);

impl<'a> LiveSlot<'a> {
    fn take(live: &'a AtomicUsize) -> Self {
        live.fetch_add(1, SeqCst);
        Self(live)
    }
}

impl Drop for LiveSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

/// One session set: the codec registry plus reusable proposed-codec
/// sessions, allocated once and reused across every request it serves
/// (the paper pipeline's context banks and line buffers are reset in
/// place, not reallocated).
struct WorkerState {
    registry: CodecRegistry,
    proposed_magic: [u8; 4],
    encoder: EncoderSession,
    decoder: DecoderSession,
}

impl WorkerState {
    fn new() -> Self {
        let registry = default_registry();
        let proposed_magic = registry
            .by_name("proposed")
            .and_then(|c| c.magic())
            .expect("proposed codec is registered with a magic");
        Self {
            registry,
            proposed_magic,
            encoder: EncoderSession::new(&CodecConfig::default()),
            decoder: DecoderSession::new(),
        }
    }
}

/// The `workers` session sets, lent to connection threads one request at
/// a time.
struct SessionPool {
    idle: Mutex<Vec<WorkerState>>,
    returned: Condvar,
}

impl SessionPool {
    fn new(sets: usize) -> Self {
        Self {
            idle: Mutex::new((0..sets).map(|_| WorkerState::new()).collect()),
            returned: Condvar::new(),
        }
    }

    /// Lends one session set, waiting for a return while all are lent;
    /// the `queue_depth` gauge counts the requests waiting here.
    fn take(&self, metrics: &Metrics) -> Session<'_> {
        let mut idle = lock(&self.idle);
        if idle.is_empty() {
            metrics.queue_depth.fetch_add(1, Relaxed);
            idle = self
                .returned
                .wait_while(idle, |idle| idle.is_empty())
                .unwrap_or_else(PoisonError::into_inner);
            metrics.queue_depth.fetch_sub(1, Relaxed);
        }
        let state = idle.pop().expect("waited until a set was idle");
        Session {
            pool: self,
            state: Some(state),
        }
    }
}

/// A lent session set. Dropping it returns the set to the pool, also when
/// a request unwinds: every session resets its model before it codes.
struct Session<'a> {
    pool: &'a SessionPool,
    state: Option<WorkerState>,
}

impl Deref for Session<'_> {
    type Target = WorkerState;

    fn deref(&self) -> &WorkerState {
        self.state.as_ref().expect("held until drop")
    }
}

impl DerefMut for Session<'_> {
    fn deref_mut(&mut self) -> &mut WorkerState {
        self.state.as_mut().expect("held until drop")
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            lock(&self.pool.idle).push(state);
            self.pool.returned.notify_one();
        }
    }
}

/// Serves one connection until EOF, a transport error, a protocol
/// violation, or shutdown. Never panics on malformed input.
fn serve_connection(
    stream: TcpStream,
    pool: &SessionPool,
    metrics: &Metrics,
    shutdown: &ShutdownHandle,
    config: &ServerConfig,
) {
    // A frame that arrived whole costs one `read`.
    let mut reader = BufReader::new(&stream);
    loop {
        let body = match read_frame(&mut reader, config.max_frame_bytes) {
            Ok(Frame::Body(body)) => body,
            Ok(Frame::Eof) => return,
            Ok(Frame::TooLarge(len)) => {
                metrics.too_large.fetch_add(1, Relaxed);
                let msg = format!(
                    "frame of {len} bytes exceeds the {}-byte ceiling",
                    config.max_frame_bytes
                );
                let _ = reply(&stream, metrics, &error_body(Status::TooLarge, &msg));
                return;
            }
            Err(_) => {
                // Timeout, reset, or EOF mid-frame: count and close —
                // never a panic, never a half-read request served.
                metrics.io_errors.fetch_add(1, Relaxed);
                return;
            }
        };
        metrics.bytes_in.fetch_add(body.len() as u64, Relaxed);
        if shutdown.is_requested() {
            metrics.draining_rejections.fetch_add(1, Relaxed);
            let body = error_body(Status::Draining, "server is draining");
            let _ = reply(&stream, metrics, &body);
            return;
        }
        // The set is held only while the request is served: it goes back
        // to the pool at the end of this statement, before the reply is
        // written.
        let response = handle_request(&body, &mut pool.take(metrics), metrics);
        if reply(&stream, metrics, &response).is_err() {
            metrics.io_errors.fetch_add(1, Relaxed);
            return;
        }
    }
}

fn reply(mut stream: &TcpStream, metrics: &Metrics, body: &[u8]) -> io::Result<()> {
    metrics.bytes_out.fetch_add(body.len() as u64, Relaxed);
    write_frame(&mut stream, body)
}

/// Dispatches one parsed frame body. Infallible: every failure becomes a
/// structured error reply.
fn handle_request(body: &[u8], state: &mut WorkerState, metrics: &Metrics) -> Vec<u8> {
    let Some(&op_byte) = body.first() else {
        metrics.bad_requests.fetch_add(1, Relaxed);
        return error_body(Status::BadRequest, "empty frame body");
    };
    let Some(op) = Op::from_byte(op_byte) else {
        metrics.bad_requests.fetch_add(1, Relaxed);
        return error_body(Status::BadRequest, &format!("unknown op {op_byte}"));
    };
    match op {
        // Codec operations are timed wall-clock around the handler (parse
        // through reply assembly — the part a client can't measure from
        // outside without the transport in the number); only served
        // requests land in the histogram, so rejects don't skew the tail.
        Op::Encode => {
            let start = std::time::Instant::now();
            let reply = handle_encode(&body[1..], state, metrics);
            if reply.first() == Some(&(Status::Ok as u8)) {
                metrics
                    .encode_latency
                    .observe_us(start.elapsed().as_micros() as u64);
            }
            reply
        }
        Op::Decode => {
            let start = std::time::Instant::now();
            let reply = handle_decode(&body[1..], state, metrics);
            if reply.first() == Some(&(Status::Ok as u8)) {
                metrics
                    .decode_latency
                    .observe_us(start.elapsed().as_micros() as u64);
            }
            reply
        }
        Op::Probe => handle_probe(&body[1..], state, metrics),
        Op::Metrics => {
            metrics.metrics_ok.fetch_add(1, Relaxed);
            let text = metrics.render();
            let mut reply = Vec::with_capacity(1 + text.len());
            reply.push(Status::Ok as u8);
            reply.extend_from_slice(text.as_bytes());
            reply
        }
    }
}

fn handle_encode(rest: &[u8], state: &mut WorkerState, metrics: &Metrics) -> Vec<u8> {
    let req = match EncodeRequest::parse(rest) {
        Ok(req) => req,
        Err(msg) => {
            metrics.bad_requests.fetch_add(1, Relaxed);
            return error_body(Status::BadRequest, &msg);
        }
    };
    if req.lanes != 1 {
        metrics.bad_requests.fetch_add(1, Relaxed);
        return error_body(
            Status::BadRequest,
            &format!(
                "lane count {}: coder lanes are retired, only 1 is valid",
                req.lanes
            ),
        );
    }
    if req.model != 0 {
        metrics.bad_requests.fetch_add(1, Relaxed);
        return error_body(
            Status::BadRequest,
            &format!(
                "model byte {}: the wide-hash context model is retired, only 0 is valid",
                req.model
            ),
        );
    }
    let img = match Image::from_samples(
        req.width as usize,
        req.height as usize,
        req.bit_depth,
        req.samples,
    ) {
        Ok(img) => img,
        Err(e) => {
            metrics.bad_requests.fetch_add(1, Relaxed);
            return error_body(Status::BadRequest, &e.to_string());
        }
    };

    let mut container = Vec::new();
    let payload_bits = if let Some((tile_w, tile_h)) = req.tile {
        // A v4 seekable tile grid: the registry codec carries the tile
        // geometry through EncodeOptions (the resident session is the
        // flat-container fast path and does not tile).
        if req.magic != state.proposed_magic {
            metrics.bad_requests.fetch_add(1, Relaxed);
            return error_body(
                Status::BadRequest,
                &format!(
                    "tile geometry applies to the proposed codec, not magic {:?}",
                    req.magic
                ),
            );
        }
        let Some(codec) = state.registry.by_magic(req.magic) else {
            metrics.bad_requests.fetch_add(1, Relaxed);
            return error_body(
                Status::BadRequest,
                &format!("no codec with magic {:?}", req.magic),
            );
        };
        let opts = EncodeOptions::new()
            .with_tile(u32::from(tile_w), u32::from(tile_h))
            .with_parallelism(Parallelism::from_threads(req.threads as usize));
        match codec.encode(img.view(), &opts, &mut container) {
            Ok(stats) => stats.payload_bits,
            Err(e) => return codec_error(metrics, &e),
        }
    } else if req.magic == state.proposed_magic && req.threads <= 1 {
        // The hot path: the worker's resident EncoderSession — context
        // banks and estimator trees reset in place.
        match state.encoder.encode(img.view(), &mut container) {
            Ok(stats) => Some(stats.payload_bits),
            Err(e) => return codec_error(metrics, &e),
        }
    } else {
        let Some(codec) = state.registry.by_magic(req.magic) else {
            metrics.bad_requests.fetch_add(1, Relaxed);
            return error_body(
                Status::BadRequest,
                &format!("no codec with magic {:?}", req.magic),
            );
        };
        let opts =
            EncodeOptions::new().with_parallelism(Parallelism::from_threads(req.threads as usize));
        match codec.encode(img.view(), &opts, &mut container) {
            Ok(stats) => stats.payload_bits,
            Err(e) => return codec_error(metrics, &e),
        }
    };

    metrics.encode_ok.fetch_add(1, Relaxed);
    metrics
        .pixels_encoded
        .fetch_add(img.pixel_count() as u64, Relaxed);
    metrics.observe_bpp(container.len() as f64 * 8.0 / img.pixel_count() as f64);
    let mut reply = Vec::with_capacity(9 + container.len());
    reply.push(Status::Ok as u8);
    reply.extend_from_slice(&payload_bits.unwrap_or(PAYLOAD_BITS_UNTRACKED).to_le_bytes());
    reply.extend_from_slice(&container);
    reply
}

fn decode_container(rest: &[u8], state: &mut WorkerState) -> Result<Image, CbicError> {
    if rest.get(..4) == Some(&state.proposed_magic[..]) {
        // Resident DecoderSession for the paper codec's containers.
        state.decoder.decode(&mut &rest[..])
    } else {
        state
            .registry
            .decode_stream(&mut &rest[..], &DecodeOptions::default())
    }
}

fn handle_decode(rest: &[u8], state: &mut WorkerState, metrics: &Metrics) -> Vec<u8> {
    let (roi, rest) = match split_decode_roi(rest) {
        Ok(parts) => parts,
        Err(msg) => {
            metrics.bad_requests.fetch_add(1, Relaxed);
            return error_body(Status::BadRequest, &msg);
        }
    };
    let decoded = match roi {
        // Every codec answers an ROI through the registry: the proposed
        // codec decodes only the covering tiles of a v4 grid (or the rows
        // down to the rect's last of a flat container), the others decode
        // fully and crop. An empty or out-of-bounds rect is a codec error.
        Some((x, y, w, h)) => {
            let opts = DecodeOptions::new()
                .with_parallelism(Parallelism::Sequential)
                .with_roi(cbic_image::Rect::new(x, y, w, h));
            state.registry.decode_stream(&mut &rest[..], &opts)
        }
        None => decode_container(rest, state),
    };
    let img = match decoded {
        Ok(img) => img,
        Err(e) => return codec_error(metrics, &e),
    };
    metrics.decode_ok.fetch_add(1, Relaxed);
    metrics
        .pixels_decoded
        .fetch_add(img.pixel_count() as u64, Relaxed);
    let wide = img.bit_depth() > 8;
    let mut reply = Vec::with_capacity(10 + img.pixel_count() * if wide { 2 } else { 1 });
    reply.push(Status::Ok as u8);
    reply.extend_from_slice(&(img.width() as u32).to_le_bytes());
    reply.extend_from_slice(&(img.height() as u32).to_le_bytes());
    reply.push(img.bit_depth());
    if wide {
        for &s in img.samples() {
            reply.extend_from_slice(&s.to_le_bytes());
        }
    } else {
        reply.extend(img.samples().iter().map(|&s| s as u8));
    }
    reply
}

fn handle_probe(rest: &[u8], state: &mut WorkerState, metrics: &Metrics) -> Vec<u8> {
    let Some(name) = state.registry.detect(rest).map(|c| c.name()) else {
        metrics.codec_errors.fetch_add(1, Relaxed);
        return error_body(Status::CodecError, "unrecognized container magic");
    };
    let img = match decode_container(rest, state) {
        Ok(img) => img,
        Err(e) => return codec_error(metrics, &e),
    };
    metrics.probe_ok.fetch_add(1, Relaxed);
    let mut reply = Vec::with_capacity(11 + name.len());
    reply.push(Status::Ok as u8);
    reply.push(name.len() as u8);
    reply.extend_from_slice(name.as_bytes());
    reply.extend_from_slice(&(img.width() as u32).to_le_bytes());
    reply.extend_from_slice(&(img.height() as u32).to_le_bytes());
    reply.push(img.bit_depth());
    reply
}

fn codec_error(metrics: &Metrics, err: &dyn std::fmt::Display) -> Vec<u8> {
    metrics.codec_errors.fetch_add(1, Relaxed);
    error_body(Status::CodecError, &err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unspecified_bind_addresses_are_woken_through_loopback() {
        for (bound, wake) in [
            ("0.0.0.0:7", "127.0.0.1:7"),
            ("[::]:7", "[::1]:7"),
            ("127.0.0.1:7", "127.0.0.1:7"),
            ("10.1.2.3:7", "10.1.2.3:7"),
            ("[::1]:7", "[::1]:7"),
        ] {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_address(bound), wake.parse().unwrap(), "{bound}");
        }
    }
}
