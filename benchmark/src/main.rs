//! The benchmark of record for `cbic`: what a user of the `cbic` command
//! line and of the `cbic-serve` service waits for, and where that time goes.
//!
//! ```text
//! cbic-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                --cbic PATH --serve PATH --work DIR
//! ```
//!
//! `run.py` builds the binaries and passes their paths; `--work` is a
//! scratch directory the harness creates and removes. The last line on
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! # Workloads
//!
//! The three CLI workloads are the end-to-end cells of the layer ledger:
//! the real `cbic` binary on one 2048×2048 8-bit PGM per run, a mosaic of
//! sixteen 512×512 windows of the seven corpus classes.
//!
//! * `cli_flat` — `cbic compress` / `cbic decompress`: the paper's codec
//!   through the streamed flat container, one core.
//! * `cli_grid_t1` — the same with `--tile 256x256 --threads 1`: the v4
//!   tile grid, its index and CRC-32 framing, on one thread.
//! * `cli_grid_t2` — `--tile 256x256 --threads 2`: the grid on two threads.
//!
//! * `serve` — the traffic of `cbic-loadgen` against `cbic-serve --workers
//!   4`: four connections in a closed loop, each sending ENCODE then DECODE
//!   of 64×64 windows of the seven classes, cycling over the proposed,
//!   jpegls, calic and slp codecs as loadgen does.
//!
//! Every operation is checked: each container must equal, byte for byte,
//! the one the library writes for the same pixels, and each decode must
//! give back the input (the PGM file byte for byte, or the samples).
//!
//! # Metrics
//!
//! With `--trace 0`: encode and decode time per job (a job is an input
//! through one codec), taken at the low quantile of the run's operations
//! that measures the host's fast state and averaged over the jobs;
//! container bits per pixel; and `setup_s`, the median of several set-ups
//! (writing the input, or starting the server and connecting, plus one
//! warm-up round trip). Times are normalized to a nominal host speed by a
//! reference process run before each operation, or each epoch of service
//! traffic (see [`reference`]); the raw times go to stderr.
//!
//! With `--trace 1`: one set-up, then the layer ledger (see [`ledger`]),
//! which times each layer alone on the same inputs, and the operations
//! through the binaries in the same rounds, and reports them per pixel
//! with the residuals that reconcile the layers against the whole.

mod inputs;
mod ledger;
mod reference;

use std::fs;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cbic_core::session::{DecoderSession, EncoderSession};
use cbic_core::stream::{StreamDecoder, StreamEncoder};
use cbic_core::{compress, compress_grid, decompress_grid, CodecConfig, TileGeometry};
use cbic_image::registry::CodecRegistry;
use cbic_image::{pgm, DecodeOptions, EncodeOptions, Image, ImageView, Parallelism};
use cbic_server::client::{Client, Reply};
use cbic_server::protocol::EncodeRequest;

use inputs::{Bases, Input, Rng};
use ledger::{Metrics, OpSpans, Recording};
use reference::{quantile, Reference, FAST_QUANTILE};

/// The CLI input: a mosaic of `CLI_MOSAIC`×`CLI_MOSAIC` windows of side
/// `CLI_WINDOW`.
const CLI_MOSAIC: usize = 4;
const CLI_WINDOW: usize = 512;
/// Tile side of the grid workloads, the codec's default geometry.
const GRID_TILE: u32 = 256;
/// Side of the service's images, connections and server workers: the
/// traffic `cbic-loadgen` sends in the service smoke test.
const SERVE_SIDE: usize = 64;
const CONNECTIONS: usize = 4;
const SERVE_WORKERS: usize = 4;
const SERVE_CODECS: [&str; 4] = ["proposed", "jpegls", "calic", "slp"];
/// Round trips each connection makes per epoch of service traffic; one
/// reference run precedes every epoch.
const EPOCH_ROUND_TRIPS: usize = 24;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    CliFlat,
    CliGridT1,
    CliGridT2,
    Serve,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("cli_flat", Self::CliFlat),
        ("cli_grid_t1", Self::CliGridT1),
        ("cli_grid_t2", Self::CliGridT2),
        ("serve", Self::Serve),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|w| w.0 == name).map(|w| w.1)
    }

    fn name(self) -> &'static str {
        Self::ALL.iter().find(|w| w.1 == self).expect("listed").0
    }

    fn threads(self) -> usize {
        if self == Self::CliGridT2 {
            2
        } else {
            1
        }
    }

    fn is_grid(self) -> bool {
        matches!(self, Self::CliGridT1 | Self::CliGridT2)
    }

    /// Set-ups per run; the median is reported. A CLI set-up codes a
    /// 4-megapixel image, a service set-up a few small ones.
    fn setups(self) -> usize {
        if self == Self::Serve {
            5
        } else {
            3
        }
    }

    /// Reference processes run at once: as many as the operations keep
    /// cores busy.
    fn reference_parallel(self) -> usize {
        if self == Self::Serve {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            CONNECTIONS.min(cores)
        } else {
            self.threads()
        }
    }

    fn inputs(self, bases: &Bases, rng: &mut Rng) -> Vec<Input> {
        if self == Self::Serve {
            bases.windows(SERVE_SIDE, rng)
        } else {
            vec![bases.mosaic(CLI_MOSAIC, CLI_WINDOW, rng)]
        }
    }

    /// The operations the workload repeats, with the containers the
    /// program must produce for them.
    fn jobs(self, inputs: &[Input], registry: &CodecRegistry) -> Result<Vec<Job>, String> {
        let cfg = CodecConfig::default();
        if self != Self::Serve {
            let img = inputs[0].img.view();
            let expected = if self.is_grid() {
                let geom = TileGeometry::new(GRID_TILE, GRID_TILE);
                compress_grid(img, &cfg, geom, 1, Parallelism::Sequential)
            } else {
                compress(img, &cfg)
            };
            return Ok(vec![Job::new(
                &inputs[0], 0, "proposed", *b"CBIC", expected,
            )]);
        }
        // Loadgen's cycle: request i of connection c codes image (c + i)
        // mod 7 with codec (c + i) mod 4, so 28 distinct operations.
        (0..inputs.len() * SERVE_CODECS.len())
            .map(|k| {
                let (input, name) = (k % inputs.len(), SERVE_CODECS[k % SERVE_CODECS.len()]);
                let codec = registry
                    .by_name(name)
                    .ok_or_else(|| format!("codec {name} is not registered"))?;
                let magic = codec
                    .magic()
                    .ok_or_else(|| format!("{name} has no magic"))?;
                let mut expected = Vec::new();
                codec
                    .encode(
                        inputs[input].img.view(),
                        &EncodeOptions::new(),
                        &mut expected,
                    )
                    .map_err(|e| format!("{name} encode: {e}"))?;
                Ok(Job::new(&inputs[input], input, name, magic, expected))
            })
            .collect()
    }
}

/// One operation a workload repeats: an input through one codec, and the
/// container the program must produce for it.
struct Job {
    label: String,
    input: usize,
    codec: &'static str,
    magic: [u8; 4],
    expected: Vec<u8>,
}

impl Job {
    fn new(
        input: &Input,
        index: usize,
        codec: &'static str,
        magic: [u8; 4],
        expected: Vec<u8>,
    ) -> Self {
        Self {
            label: format!("{codec} {}", input.label),
            input: index,
            codec,
            magic,
            expected,
        }
    }
}

fn grid_roundtrip(img: ImageView<'_>, par: Parallelism) -> Image {
    let geom = TileGeometry::new(GRID_TILE, GRID_TILE);
    let bytes = compress_grid(img, &CodecConfig::default(), geom, 1, par);
    decompress_grid(&bytes, par).expect("own grid container decodes")
}

/// The in-process library calls the binaries make for a workload.
struct Library {
    workload: Workload,
    registry: CodecRegistry,
    enc: EncoderSession,
    dec: DecoderSession,
}

impl Library {
    fn new(workload: Workload) -> Self {
        Self {
            workload,
            registry: cbic_universal::codecs::default_registry(),
            enc: EncoderSession::new(&CodecConfig::default()),
            dec: DecoderSession::new(),
        }
    }

    /// The paper codec's container on the workload's path, one thread: the
    /// streamed flat container `cbic` writes, the tile grid, or the
    /// server's resident encoder session.
    fn encode(&mut self, img: ImageView<'_>) -> Vec<u8> {
        let cfg = CodecConfig::default();
        match self.workload {
            Workload::CliFlat => {
                let (w, h) = img.dimensions();
                let mut enc = StreamEncoder::with_lanes(Vec::new(), w, h, img.bit_depth(), &cfg, 1)
                    .expect("in-memory stream opens");
                for row in img.rows() {
                    enc.push_row(row).expect("in-memory stream takes rows");
                }
                enc.finish().expect("in-memory stream finishes")
            }
            Workload::CliGridT1 | Workload::CliGridT2 => {
                let geom = TileGeometry::new(GRID_TILE, GRID_TILE);
                compress_grid(img, &cfg, geom, 1, Parallelism::Sequential)
            }
            Workload::Serve => {
                let mut bytes = Vec::new();
                self.enc.encode(img, &mut bytes).expect("session encodes");
                bytes
            }
        }
    }

    /// Decodes a container of [`Self::encode`] on the same path.
    fn decode(&mut self, bytes: &[u8]) -> Image {
        match self.workload {
            Workload::CliFlat => StreamDecoder::new(bytes)
                .and_then(StreamDecoder::decode_all)
                .expect("own stream decodes"),
            Workload::CliGridT1 | Workload::CliGridT2 => {
                decompress_grid(bytes, Parallelism::Sequential).expect("own grid container decodes")
            }
            Workload::Serve => self.dec.decode(&mut &bytes[..]).expect("session decodes"),
        }
    }

    /// [`Self::encode`] then [`Self::decode`].
    fn container(&mut self, img: ImageView<'_>) -> Image {
        let bytes = self.encode(img);
        self.decode(&bytes)
    }

    /// One operation in process, at the workload's thread count.
    fn job(&mut self, img: ImageView<'_>, codec: &str) -> Image {
        match self.workload {
            Workload::CliGridT2 => grid_roundtrip(img, Parallelism::from_threads(2)),
            Workload::Serve if codec != "proposed" => {
                let c = self.registry.by_name(codec).expect("registered codec");
                let mut bytes = Vec::new();
                c.encode(img, &EncodeOptions::new(), &mut bytes)
                    .expect("registry codec encodes");
                self.registry
                    .decode_stream(&mut &bytes[..], &DecodeOptions::default())
                    .expect("registry codec decodes")
            }
            _ => self.container(img),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cbic: PathBuf,
    serve: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut get = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        get.insert(name, value);
    }
    let mut take = |name: &str| {
        get.remove(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = take("workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other}")),
        },
        cbic: take("cbic")?.into(),
        serve: take("serve")?.into(),
        work: take("work")?.into(),
    };
    if let Some(extra) = get.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One completed operation: its job and wall time.
#[derive(Clone, Copy)]
struct Op {
    job: usize,
    secs: f64,
}

/// Operation timings and outcomes of one client, or of the whole run.
#[derive(Default)]
struct Samples {
    encode: Vec<Op>,
    decode: Vec<Op>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    fn merge(&mut self, other: Samples) {
        self.encode.extend(other.encode);
        self.decode.extend(other.decode);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Records one operation of job `job`: its time when it succeeded, a
    /// failure (printed) when it did not.
    fn record(
        &mut self,
        encode: bool,
        job: usize,
        outcome: Result<f64, String>,
        label: &str,
    ) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(secs) => {
                let op = Op { job, secs };
                if encode {
                    self.encode.push(op);
                } else {
                    self.decode.push(op);
                }
                true
            }
            Err(msg) => {
                self.failed += 1;
                eprintln!("{label}: {msg}");
                false
            }
        }
    }
}

/// The time at quantile `q` per job, averaged over the jobs. Jobs differ
/// in cost by class and codec, so a quantile over the pooled operations
/// would jump between them with the few extra operations a run happens to
/// end on.
fn per_job_quantile(ops: &[Op], jobs: usize, q: f64) -> f64 {
    let per_job: Vec<f64> = (0..jobs)
        .filter_map(|j| {
            let times: Vec<f64> = ops
                .iter()
                .filter(|op| op.job == j)
                .map(|op| op.secs)
                .collect();
            (!times.is_empty()).then(|| quantile(&times, q))
        })
        .collect();
    per_job.iter().sum::<f64>() / per_job.len() as f64
}

/// Runs one `cbic` command, returning its wall time.
fn run_cbic(cbic: &Path, args: &[&str]) -> Result<f64, String> {
    let start = Instant::now();
    let out = Command::new(cbic)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("spawning cbic: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    if out.status.success() {
        Ok(secs)
    } else {
        Err(format!(
            "cbic {} failed ({}): {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

fn check_file(path: &Path, expected: &[u8], what: &str) -> Result<(), String> {
    let got = fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    if got == expected {
        Ok(())
    } else {
        Err(format!("{what} differs from the expected bytes"))
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

/// The files of the CLI input and the bytes each must hold.
struct CliItem {
    workload: Workload,
    pgm_path: PathBuf,
    container_path: PathBuf,
    back_path: PathBuf,
    pgm: Vec<u8>,
    container: Vec<u8>,
}

impl CliItem {
    fn new(workload: Workload, dir: &Path, input: &Input, job: &Job) -> Self {
        Self {
            workload,
            pgm_path: dir.join("in.pgm"),
            container_path: dir.join("out.cbic"),
            back_path: dir.join("back.pgm"),
            pgm: pgm::encode(&input.img),
            container: job.expected.clone(),
        }
    }

    /// The flags the grid workloads add to `compress` and to `decompress`.
    fn flags(&self) -> (Vec<String>, Vec<String>) {
        if !self.workload.is_grid() {
            return (Vec::new(), Vec::new());
        }
        let threads = self.workload.threads().to_string();
        let tile = format!("{GRID_TILE}x{GRID_TILE}");
        (
            vec!["--tile".into(), tile, "--threads".into(), threads.clone()],
            vec!["--threads".into(), threads],
        )
    }

    /// `cbic compress` of this item, checked.
    fn compress(&self, cbic: &Path) -> Result<f64, String> {
        let flags = self.flags().0;
        let mut args = vec!["compress"];
        args.extend(flags.iter().map(String::as_str));
        args.extend([path_str(&self.pgm_path), path_str(&self.container_path)]);
        let secs = run_cbic(cbic, &args)?;
        check_file(&self.container_path, &self.container, "container")?;
        Ok(secs)
    }

    /// `cbic decompress` of this item's container, checked.
    fn decompress(&self, cbic: &Path) -> Result<f64, String> {
        let flags = self.flags().1;
        let mut args = vec!["decompress"];
        args.extend(flags.iter().map(String::as_str));
        args.extend([path_str(&self.container_path), path_str(&self.back_path)]);
        let secs = run_cbic(cbic, &args)?;
        check_file(&self.back_path, &self.pgm, "decoded PGM")?;
        Ok(secs)
    }
}

/// One CLI set-up: write the input file, one warm-up round trip. Returns
/// the set-up's time and those of its compress and decompress.
fn setup_cli(item: &CliItem, cbic: &Path) -> Result<(f64, f64, f64), String> {
    let start = Instant::now();
    fs::write(&item.pgm_path, &item.pgm)
        .map_err(|e| format!("writing {}: {e}", item.pgm_path.display()))?;
    let encode = item.compress(cbic)?;
    let decode = item.decompress(cbic)?;
    Ok((start.elapsed().as_secs_f64(), encode, decode))
}

/// Sequential closed loop of round trips until `--seconds` have passed,
/// recorded into `s`.
fn measure_cli(
    item: &CliItem,
    args: &Args,
    reference: &mut Reference,
    s: &mut Samples,
) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        reference.sample()?;
        let encoded = item.compress(&args.cbic);
        if s.record(true, 0, encoded, "compress") {
            reference.sample()?;
            let decoded = item.decompress(&args.cbic);
            s.record(false, 0, decoded, "decompress");
        } else {
            break;
        }
    }
    Ok(())
}

/// A running `cbic-serve`; dropping it kills the process and waits for it.
struct ServerProcess {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProcess {
    fn start(serve: &Path) -> Result<Self, String> {
        let workers = SERVE_WORKERS.to_string();
        let mut child = Command::new(serve)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers,
                "--summary-secs",
                "0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning cbic-serve: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("cbic-serve exited before listening".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("cbic-serve: listening on ") {
                        break addr.to_string();
                    }
                }
            }
        };
        // Keep the pipe drained so the server never blocks on stderr.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        Ok(Self {
            child,
            addr,
            drain: Some(drain),
        })
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One checked ENCODE request; returns its time and the container.
fn serve_encode(client: &mut Client, img: &Image, job: &Job) -> Result<(f64, Vec<u8>), String> {
    let start = Instant::now();
    let reply = client.encode(img.view(), job.magic, 1, 0);
    let secs = start.elapsed().as_secs_f64();
    match reply {
        Ok(Reply::Encoded { container, .. }) if container == job.expected => Ok((secs, container)),
        Ok(Reply::Encoded { .. }) => Err("container differs from the library's".into()),
        Ok(other) => Err(format!("unexpected encode reply {other:?}")),
        Err(e) => Err(format!("encode request: {e}")),
    }
}

/// One checked DECODE request; returns its time.
fn serve_decode(client: &mut Client, img: &Image, container: &[u8]) -> Result<f64, String> {
    let start = Instant::now();
    let reply = client.decode(container);
    let secs = start.elapsed().as_secs_f64();
    match reply {
        Ok(Reply::Decoded(back)) if back == *img => Ok(secs),
        Ok(Reply::Decoded(_)) => Err("decoded image differs from the input".into()),
        Ok(other) => Err(format!("unexpected decode reply {other:?}")),
        Err(e) => Err(format!("decode request: {e}")),
    }
}

/// One service set-up: start the server, open `connections` connections,
/// one warm-up round trip on each.
fn setup_serve(
    serve: &Path,
    inputs: &[Input],
    jobs: &[Job],
    connections: usize,
) -> Result<(f64, ServerProcess, Vec<Client>), String> {
    let start = Instant::now();
    let server = ServerProcess::start(serve)?;
    let mut clients = Vec::new();
    for c in 0..connections {
        let mut client = Client::connect(&server.addr, Duration::from_secs(30))
            .map_err(|e| format!("connecting to {}: {e}", server.addr))?;
        let job = &jobs[c % jobs.len()];
        let img = &inputs[job.input].img;
        let (_, container) = serve_encode(&mut client, img, job)?;
        serve_decode(&mut client, img, &container)?;
        clients.push(client);
    }
    Ok((start.elapsed().as_secs_f64(), server, clients))
}

/// Epochs until `seconds` have passed: the reference runs alone, then
/// every connection makes [`EPOCH_ROUND_TRIPS`] round trips in its own
/// closed loop, continuing loadgen's cycle over the jobs.
fn measure_serve(
    clients: Vec<Client>,
    inputs: &[Input],
    jobs: &[Job],
    seconds: f64,
    reference: &mut Reference,
) -> Result<Samples, String> {
    let start = Instant::now();
    let barrier = Barrier::new(clients.len() + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut s = Samples::default();
                    let mut pick = c;
                    loop {
                        barrier.wait();
                        // The barrier orders this load after the main
                        // thread's store.
                        if stop.load(Ordering::SeqCst) {
                            return s;
                        }
                        for _ in 0..EPOCH_ROUND_TRIPS {
                            let k = pick % jobs.len();
                            pick += 1;
                            let (job, img) = (&jobs[k], &inputs[jobs[k].input].img);
                            match serve_encode(&mut client, img, job) {
                                Ok((secs, container)) => {
                                    s.record(true, k, Ok(secs), &job.label);
                                    let decoded = serve_decode(&mut client, img, &container);
                                    s.record(false, k, decoded, &job.label);
                                }
                                Err(e) => {
                                    s.record(true, k, Err(e), &job.label);
                                }
                            }
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        let mut epochs = 0;
        let mut result = Ok(());
        loop {
            let mut done = epochs > 0 && start.elapsed().as_secs_f64() >= seconds;
            if !done {
                if let Err(e) = reference.sample() {
                    result = Err(e);
                    done = true;
                }
            }
            stop.store(done, Ordering::SeqCst);
            barrier.wait();
            if done {
                break;
            }
            barrier.wait();
            epochs += 1;
        }
        let mut all = Samples::default();
        for h in handles {
            all.merge(h.join().expect("client thread panicked"));
        }
        result.map(|()| all)
    })
}

/// PGM in and out, as the `cbic` CLI reads and writes it.
fn pgm_format(img: &Image) {
    let bytes = pgm::encode(img);
    black_box(pgm::decode(black_box(&bytes)).expect("own PGM parses"));
}

/// The ENCODE request body and the DECODE reply's sample packing, as the
/// service protocol carries them.
fn wire_format(img: &Image, magic: [u8; 4]) {
    let req = EncodeRequest {
        magic,
        lanes: 1,
        threads: 0,
        bit_depth: img.bit_depth(),
        width: img.width() as u32,
        height: img.height() as u32,
        tile: None,
        model: 0,
        samples: img.samples().to_vec(),
    };
    let body = req.to_body();
    let parsed = EncodeRequest::parse(black_box(&body[1..])).expect("own request parses");
    let reply: Vec<u8> = parsed.samples.iter().map(|&s| s as u8).collect();
    black_box(reply);
}

/// The end-to-end loop with no tracing: set-ups, then operations for
/// `--seconds`. Returns the metrics, attempted and failed counts.
fn end_to_end(
    args: &Args,
    inputs: &[Input],
    jobs: &[Job],
    reference: &mut Reference,
) -> Result<(Metrics, u64, u64), String> {
    let workload = args.workload;
    let mut setups = Vec::new();
    let samples = if workload == Workload::Serve {
        let mut last = None;
        for _ in 0..workload.setups() {
            drop(last.take());
            reference.sample()?;
            let (secs, server, clients) = setup_serve(&args.serve, inputs, jobs, CONNECTIONS)?;
            setups.push(secs);
            last = Some((server, clients));
        }
        let (server, clients) = last.expect("at least one set-up");
        let samples = measure_serve(clients, inputs, jobs, args.seconds, reference);
        drop(server);
        samples?
    } else {
        // The set-ups' round trips are checked operations like the loop's,
        // so they count as samples too.
        let item = CliItem::new(workload, &args.work, &inputs[0], &jobs[0]);
        let mut samples = Samples::default();
        for _ in 0..workload.setups() {
            reference.sample()?;
            let (secs, encode, decode) = setup_cli(&item, &args.cbic)?;
            setups.push(secs);
            samples.record(true, 0, Ok(encode), "compress");
            samples.record(false, 0, Ok(decode), "decompress");
        }
        measure_cli(&item, args, reference, &mut samples)?;
        samples
    };
    if samples.encode.is_empty() || samples.decode.is_empty() {
        return Err("no operation completed".into());
    }
    let n = jobs.len();
    let (encode, decode) = (
        per_job_quantile(&samples.encode, n, FAST_QUANTILE),
        per_job_quantile(&samples.decode, n, FAST_QUANTILE),
    );
    let factor = reference.factor();
    eprintln!(
        "{} seed {}: {} encodes, {} decodes, {} failed; raw encode {:.3} ms, decode {:.3} ms \
         (fast quantile), median {:.3} / {:.3} ms; {} reference runs, speed factor {factor:.4}",
        workload.name(),
        args.seed,
        samples.encode.len(),
        samples.decode.len(),
        samples.failed,
        encode * 1e3,
        decode * 1e3,
        per_job_quantile(&samples.encode, n, 0.5) * 1e3,
        per_job_quantile(&samples.decode, n, 0.5) * 1e3,
        reference.samples(),
    );
    let pixels: u64 = jobs
        .iter()
        .map(|j| inputs[j.input].img.pixel_count() as u64)
        .sum();
    let bits: f64 = jobs.iter().map(|j| j.expected.len() as f64 * 8.0).sum();
    let metrics = vec![
        ("encode_ms", encode * factor * 1e3, "ms"),
        ("decode_ms", decode * factor * 1e3, "ms"),
        ("bpp", bits / pixels as f64, "bit/px"),
        ("setup_s", quantile(&setups, 0.5) * factor, "s"),
    ];
    Ok((metrics, samples.attempted, samples.failed))
}

/// One set-up, then the layer ledger with the operations through the
/// binaries timed in its rounds. Returns the metrics, attempted and failed
/// counts.
fn layers(args: &Args, inputs: &[Input], jobs: &[Job]) -> Result<(Metrics, u64, u64), String> {
    let workload = args.workload;
    let mut mismatches = Vec::new();
    let mut lib = Library::new(workload);
    // The container span must write the bytes the program writes.
    for job in jobs.iter().filter(|job| job.codec == "proposed") {
        if lib.encode(inputs[job.input].img.view()) != job.expected {
            mismatches.push(format!(
                "{}: container path bytes differ from the program's",
                job.label
            ));
        }
    }
    let recs: Vec<Recording<'_>> = inputs
        .iter()
        .map(|input| {
            Recording::new(
                &input.label,
                &input.img,
                &mut |view| lib.container(view),
                &mut mismatches,
            )
        })
        .collect();
    for msg in &mismatches {
        eprintln!("ledger: {msg}");
    }
    let pixels: u64 = jobs
        .iter()
        .map(|j| inputs[j.input].img.pixel_count() as u64)
        .sum();
    let mut ops_lib = Library::new(workload);
    let mut library = || {
        for job in jobs {
            black_box(ops_lib.job(inputs[job.input].img.view(), job.codec));
        }
    };
    let has_library = workload == Workload::CliGridT2 || workload == Workload::Serve;
    let started = Instant::now();
    let (metrics, rounds) = if workload == Workload::Serve {
        let (_, server, mut clients) = setup_serve(&args.serve, inputs, jobs, 1)?;
        let client = &mut clients[0];
        let result = ledger::run(
            &recs,
            &mut |view| lib.container(view),
            OpSpans {
                pixels,
                library: Some(&mut library),
                format: &mut || {
                    for job in jobs {
                        wire_format(&inputs[job.input].img, job.magic);
                    }
                },
                surface: &mut || {
                    for job in jobs {
                        let img = &inputs[job.input].img;
                        let (_, container) = serve_encode(client, img, job)?;
                        serve_decode(client, img, &container)?;
                    }
                    Ok(())
                },
            },
            args.seconds,
        );
        drop(server);
        result?
    } else {
        let item = CliItem::new(workload, &args.work, &inputs[0], &jobs[0]);
        setup_cli(&item, &args.cbic)?;
        ledger::run(
            &recs,
            &mut |view| lib.container(view),
            OpSpans {
                pixels,
                library: if has_library {
                    Some(&mut library)
                } else {
                    None
                },
                format: &mut || pgm_format(&inputs[0].img),
                surface: &mut || {
                    item.compress(&args.cbic)?;
                    item.decompress(&args.cbic).map(|_| ())
                },
            },
            args.seconds,
        )?
    };
    eprintln!(
        "{} seed {}: ledger {rounds} rounds in {:.2} s, {} mismatches",
        workload.name(),
        args.seed,
        started.elapsed().as_secs_f64(),
        mismatches.len(),
    );
    let attempted = (recs.len() + rounds * jobs.len()) as u64;
    Ok((metrics, attempted, mismatches.len() as u64))
}

fn run(args: &Args) -> Result<String, String> {
    let started = Instant::now();
    let registry = cbic_universal::codecs::default_registry();
    let inputs = args
        .workload
        .inputs(&Bases::generate(), &mut Rng::new(args.seed));
    let jobs = args.workload.jobs(&inputs, &registry)?;
    eprintln!(
        "{} seed {}: inputs ready in {:.2} s",
        args.workload.name(),
        args.seed,
        started.elapsed().as_secs_f64()
    );
    let (metrics, attempted, failed) = if args.trace {
        layers(args, &inputs, &jobs)?
    } else {
        let mut reference = Reference::new(args.workload.reference_parallel())?;
        end_to_end(args, &inputs, &jobs, &mut reference)?
    };

    let mut fields = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(reference::FLAG) {
        reference::kernel();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("cbic-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fs::create_dir_all(&args.work) {
        eprintln!("cbic-benchmark: creating {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args);
    let _ = fs::remove_dir_all(&args.work);
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("cbic-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
