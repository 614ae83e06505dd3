//! The service: a TCP accept loop feeding a bounded queue of connections
//! to a sharded pool of worker threads, each owning one reusable
//! [`EncoderSession`]/[`DecoderSession`] pair and one [`CodecRegistry`].
//!
//! # Architecture
//!
//! ```text
//!             accept loop (nonblocking, polls shutdown flag)
//!                  │  try_send          ── full ──▶ Busy reply, close
//!                  ▼
//!       bounded sync_channel<TcpStream>      (explicit backpressure)
//!                  │
//!      ┌───────────┼───────────┐
//!   worker 0    worker 1    worker N-1       (sharded session pool)
//!   sessions    sessions    sessions
//! ```
//!
//! Workers serve a connection request-by-request until the peer closes,
//! a transport error occurs, or shutdown begins. During shutdown the
//! accept loop stops, queued connections are *drained* (their in-flight
//! request is answered), and any further request on a live connection is
//! answered [`Status::Draining`] before the socket closes — so a SIGTERM
//! never abandons a request mid-reply.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use cbic_core::{CodecConfig, DecoderSession, EncoderSession};
use cbic_image::registry::CodecRegistry;
use cbic_image::{CbicError, DecodeOptions, EncodeOptions, Image, ModelMode, Parallelism};
use cbic_universal::codecs::default_registry;

use crate::metrics::Metrics;
use crate::protocol::{
    error_body, read_frame, split_decode_roi, write_frame, EncodeRequest, Frame, Op, Status,
    PAYLOAD_BITS_UNTRACKED,
};

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each owns its own codec sessions). `0` means one
    /// per available hardware thread.
    pub workers: usize,
    /// Bounded work-queue capacity: connections waiting for a worker
    /// beyond this are refused with [`Status::Busy`].
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
    /// One worker per hardware thread, a 64-connection queue, a 64 MiB
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

/// A bound, not-yet-running service. [`run`](Self::run) blocks the
/// calling thread until the shutdown flag is raised (by a signal handler
/// or another thread) and the drain completes.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
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
        Ok(Self {
            listener,
            config,
            metrics: Arc::new(Metrics::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
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

    /// The shutdown flag; raising it makes [`run`](Self::run) stop
    /// accepting, drain, and return.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Runs the accept loop on the calling thread until shutdown, then
    /// drains the queue, joins the workers, and prints a final summary.
    ///
    /// # Errors
    ///
    /// Fatal listener failures only; per-connection errors are counted in
    /// metrics and never abort the service.
    pub fn run(self) -> io::Result<()> {
        let workers = self.config.effective_workers();
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            sync_channel(self.config.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::with_capacity(workers);
        for id in 0..workers {
            let rx = rx.clone();
            let metrics = self.metrics.clone();
            let shutdown = self.shutdown.clone();
            let config = self.config.clone();
            pool.push(
                thread::Builder::new()
                    .name(format!("cbic-worker-{id}"))
                    .spawn(move || worker_loop(&rx, &metrics, &shutdown, &config))
                    .expect("spawn worker"),
            );
        }
        let reporter = self.config.summary_interval.map(|interval| {
            let metrics = self.metrics.clone();
            let shutdown = self.shutdown.clone();
            thread::spawn(move || {
                while !shutdown.load(Relaxed) {
                    thread::sleep(interval);
                    eprintln!("{}", metrics.summary_line());
                }
            })
        });

        self.listener.set_nonblocking(true)?;
        while !self.shutdown.load(Relaxed) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.metrics.connections.fetch_add(1, Relaxed);
                    let _ = stream.set_read_timeout(Some(self.config.read_timeout));
                    let _ = stream.set_write_timeout(Some(self.config.write_timeout));
                    let _ = stream.set_nonblocking(false);
                    // Replies are single small frames; Nagle + delayed ACK
                    // would add ~200 ms to every round trip.
                    let _ = stream.set_nodelay(true);
                    match tx.try_send(stream) {
                        Ok(()) => {
                            self.metrics.queue_depth.fetch_add(1, Relaxed);
                        }
                        Err(TrySendError::Full(mut stream)) => {
                            // Explicit backpressure: a structured Busy
                            // reply, never an unbounded queue.
                            self.metrics.busy_rejections.fetch_add(1, Relaxed);
                            let body = error_body(Status::Busy, "work queue full");
                            let _ = write_frame(&mut stream, &body);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: close the queue; workers finish what is queued (answering
        // Draining to any *new* request on a live connection) and exit.
        drop(tx);
        for handle in pool {
            let _ = handle.join();
        }
        if let Some(handle) = reporter {
            let _ = handle.join();
        }
        eprintln!("cbic-serve: drained. {}", self.metrics.summary_line());
        Ok(())
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
        let shutdown = self.shutdown_flag();
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
    shutdown: Arc<AtomicBool>,
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

    /// Raises the shutdown flag without waiting: the accept loop stops,
    /// and live connections get [`Status::Draining`] on their next
    /// request. Call [`shutdown_and_join`](Self::shutdown_and_join) to
    /// wait for the drain.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Relaxed);
    }

    /// Raises the shutdown flag, waits for the drain, and returns the
    /// accept loop's result.
    ///
    /// # Errors
    ///
    /// The accept loop's fatal error, if it had one.
    pub fn shutdown_and_join(self) -> io::Result<()> {
        self.shutdown.store(true, Relaxed);
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Per-worker state: the codec registry plus reusable proposed-codec
/// sessions, allocated once per worker and reused across every request
/// the worker serves (the paper pipeline's context banks and line
/// buffers are reset in place, not reallocated).
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

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    metrics: &Metrics,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) {
    let mut state = WorkerState::new();
    loop {
        // Holding the lock only for the recv keeps the pool sharded: one
        // queued connection wakes exactly one worker.
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(stream) = stream else { return };
        metrics.queue_depth.fetch_sub(1, Relaxed);
        serve_connection(stream, &mut state, metrics, shutdown, config);
    }
}

/// Serves one connection until EOF, a transport error, a protocol
/// violation, or shutdown. Never panics on malformed input.
fn serve_connection(
    mut stream: TcpStream,
    state: &mut WorkerState,
    metrics: &Metrics,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) {
    loop {
        let body = match read_frame(&mut stream, config.max_frame_bytes) {
            Ok(Frame::Body(body)) => body,
            Ok(Frame::Eof) => return,
            Ok(Frame::TooLarge(len)) => {
                metrics.too_large.fetch_add(1, Relaxed);
                let msg = format!(
                    "frame of {len} bytes exceeds the {}-byte ceiling",
                    config.max_frame_bytes
                );
                let _ = reply(&mut stream, metrics, &error_body(Status::TooLarge, &msg));
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
        if shutdown.load(Relaxed) {
            metrics.draining_rejections.fetch_add(1, Relaxed);
            let body = error_body(Status::Draining, "server is draining");
            let _ = reply(&mut stream, metrics, &body);
            return;
        }
        let response = handle_request(&body, state, metrics);
        if reply(&mut stream, metrics, &response).is_err() {
            metrics.io_errors.fetch_add(1, Relaxed);
            return;
        }
    }
}

fn reply(stream: &mut TcpStream, metrics: &Metrics, body: &[u8]) -> io::Result<()> {
    metrics.bytes_out.fetch_add(body.len() as u64, Relaxed);
    write_frame(stream, body)
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
    let model = if req.model == 0 {
        ModelMode::Classic
    } else {
        ModelMode::WideHash {
            banks_log2: req.model,
        }
    };
    if let Err(msg) = model.validate() {
        metrics.bad_requests.fetch_add(1, Relaxed);
        return error_body(Status::BadRequest, &msg);
    }
    if !model.is_classic() {
        // Codecs that cannot honor the request must refuse it up front —
        // silently encoding with the classic model would hand back a
        // container the client did not ask for.
        let supported = state
            .registry
            .by_magic(req.magic)
            .is_some_and(|c| c.model_modes().contains(&"wide"));
        if !supported {
            metrics.bad_requests.fetch_add(1, Relaxed);
            return error_body(
                Status::BadRequest,
                &format!("magic {:?} does not support the wide-hash model", req.magic),
            );
        }
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
            .with_model(model)
            .with_parallelism(Parallelism::from_threads(req.threads as usize));
        match codec.encode(img.view(), &opts, &mut container) {
            Ok(stats) => stats.payload_bits,
            Err(e) => return codec_error(metrics, &e),
        }
    } else if req.magic == state.proposed_magic && req.threads <= 1 && model.is_classic() {
        // The hot path: the worker's resident EncoderSession — context
        // banks and estimator trees reset in place. Wide-model requests go
        // through the registry codec below, so the resident session's
        // classic context banks are never resized per request.
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
        let opts = EncodeOptions::new()
            .with_model(model)
            .with_parallelism(Parallelism::from_threads(req.threads as usize));
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
    let img = if let Some((x, y, w, h)) = roi {
        let rect = cbic_image::Rect::new(x, y, w, h);
        if rest.get(..4) == Some(&state.proposed_magic[..]) {
            // Proposed-codec containers: over a v4 grid only the
            // covering tiles are decoded; flat containers decode fully and
            // crop. Out-of-bounds rects come back as structured errors.
            match cbic_core::decode_roi_any(rest, rect, Parallelism::Sequential) {
                Ok(img) => img,
                Err(e) => return codec_error(metrics, &e),
            }
        } else {
            // Other codecs have no random-access path: decode, then crop.
            let full = match decode_container(rest, state) {
                Ok(img) => img,
                Err(e) => return codec_error(metrics, &e),
            };
            let (x1, y1) = (u64::from(x) + u64::from(w), u64::from(y) + u64::from(h));
            if w == 0 || h == 0 || x1 > full.width() as u64 || y1 > full.height() as u64 {
                metrics.bad_requests.fetch_add(1, Relaxed);
                return error_body(
                    Status::BadRequest,
                    &format!(
                        "ROI {w}x{h} at ({x}, {y}) outside the {}x{} image",
                        full.width(),
                        full.height()
                    ),
                );
            }
            full.view()
                .crop(x as usize, y as usize, w as usize, h as usize)
                .to_image()
        }
    } else {
        match decode_container(rest, state) {
            Ok(img) => img,
            Err(e) => return codec_error(metrics, &e),
        }
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
