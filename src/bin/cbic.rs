//! `cbic` — command-line front end for the workspace codecs.
//!
//! Every codec-facing command is registry-driven: codecs are enumerated
//! from [`cbic::all_codecs`] / [`cbic::default_registry`] and used through
//! `&dyn Codec`, so a codec added to the registry appears in `compress`,
//! `decompress`, `bench`, and `codecs` with no CLI changes. Only
//! `compress` of the `proposed` codec calls its streamed and two-stage
//! grid encoders directly (see below).
//!
//! ```text
//! cbic compress   [--codec NAME] [--threads N] [--tile WxH] IN.pgm OUT
//! cbic decompress [--threads N] IN OUT.pgm   (codec auto-detected)
//! cbic crop       --rect X,Y,W,H [--threads N] IN OUT.pgm  (random-access ROI decode)
//! cbic info       IN                         (describe a compressed container)
//! cbic codecs                                (list registered codecs)
//! cbic corpus     [--size N] OUTDIR          (write the synthetic corpus as PGM)
//! cbic bench      IN.pgm                     (bit rate of all codecs, decision profile)
//! ```
//!
//! PGM input may be 8-bit (`maxval ≤ 255`) or deep (two big-endian bytes
//! per sample, `maxval ≤ 65535`); the sample depth rides through every
//! codec and back out to PGM. `compress` and `decompress` accept `-` for
//! stdin/stdout and print their status lines to stderr, so containers pipe
//! cleanly: `cbic compress - - < in.pgm | cbic decompress - - > out.pgm`.
//! A file OUT appears only once its command succeeds: `compress`,
//! `decompress` and `crop` write beside it and rename on success, so a
//! failed run leaves no partial file and an existing OUT untouched.
//! For the default `proposed` codec both directions run the
//! bounded-memory streaming pipeline (the current row and the two above
//! it: the paper's three line buffers, Fig. 3), so image size is limited
//! by the format, not by RAM. That `compress` runs in two stages, as the
//! paper's modelling lines run beside its coder: the model and estimator
//! on the main thread, and the binary arithmetic coder and bit output on
//! one coder thread when more than one CPU is available (inline on one
//! CPU), with a constant 640 KiB decision queue between them. A v4 grid
//! coded by one tile worker (`--tile WxH --threads 1`) takes the same cut
//! ([`compress_grid_two_stage`](cbic::core::grid::compress_grid_two_stage)):
//! the worker models tile k + 1 while the coder thread codes tile k. With
//! more workers every worker codes its tiles inline. `--threads N` counts
//! the tile workers only; the coder thread is not one of them. Both
//! status lines say where the library ran the coder (`coder on its own
//! thread` or `coder inline`).

use cbic::core::stream::{StreamDecoder, StreamEncoder};
use cbic::core::{CodecConfig, TileGeometry};
use cbic::image::pgm;
use cbic::{DecodeOptions, EncodeOptions, Parallelism};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `println!` that tolerates a closed stdout (e.g. `cbic info … | head`):
/// a broken pipe silently ends the report instead of panicking, while any
/// other write failure (full disk, dead redirect target) still aborts with
/// a nonzero exit so a truncated report cannot look like success.
macro_rules! say {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if let Err(e) = writeln!(std::io::stdout(), $($arg)*) {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(1);
        }
    }};
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cbic compress [--codec NAME] [--threads N] [--tile WxH] IN.pgm OUT\n  \
         cbic decompress [--threads N] IN OUT.pgm\n  \
         cbic crop --rect X,Y,W,H [--threads N] IN OUT.pgm\n  cbic info IN\n  cbic codecs\n  \
         cbic corpus [--size N] OUTDIR\n  cbic bench IN.pgm\n\
         (compress/decompress accept `-` for stdin/stdout piping; PGM may be 8- or 16-bit;\n \
         --tile writes the seekable tile grid, which `crop` decodes without reading other tiles;\n \
         --threads N without --tile writes the grid as N full-width tiles;\n \
         without either, compress streams; streamed or with one tile worker, the model runs\n \
         here and the coder on a second thread when more than one CPU is available,\n \
         640 KiB between them; --threads counts tile workers only)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let r = match cmd.as_str() {
        "compress" => cmd_compress(&args[1..]),
        "decompress" => cmd_decompress(&args[1..]),
        "crop" => cmd_crop(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "codecs" => cmd_codecs(),
        "corpus" => cmd_corpus(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        _ => return usage(),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// The flag/value pairs and positional arguments of a command.
type ParsedArgs = (Vec<(String, String)>, Vec<String>);

/// Pulls `--flag value` pairs of the command's `flags` out of an argument
/// list, returning them and the remaining positional arguments. Any other
/// `--name`, and a flag with no value after it, is an error that names
/// it; a lone `-` is a positional (stdin or stdout).
fn parse_flags(cmd: &str, args: &[String], flags: &[&str]) -> Result<ParsedArgs, String> {
    let mut out = Vec::new();
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            continue;
        };
        if !flags.contains(&name) {
            return Err(format!("unknown flag {arg} for {cmd}"));
        }
        let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok((out, positional))
}

fn flag_value<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// `--threads N`: the worker count, 1 unless given; 0 is refused.
fn parse_threads(flags: &[(String, String)]) -> Result<usize, Box<dyn std::error::Error>> {
    let threads = flag_value(flags, "threads")
        .map(str::parse)
        .transpose()?
        .unwrap_or(1);
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(threads)
}

/// "1 thread", "2 threads", … for the status lines.
fn thread_count(threads: usize) -> String {
    if threads == 1 {
        "1 thread".into()
    } else {
        format!("{threads} threads")
    }
}

/// Opens `path` for buffered reading, with `-` meaning stdin.
fn open_input(path: &str) -> std::io::Result<BufReader<Box<dyn Read>>> {
    let inner: Box<dyn Read> = if path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(File::open(path)?)
    };
    Ok(BufReader::new(inner))
}

/// A command's output: stdout for `-`, written as it goes, else a file
/// that appears at its path only on [`Output::commit`]. The bytes go to a
/// temporary file beside the target, renamed over it on success and
/// removed on drop, so a failed command leaves no partial file and an
/// existing target untouched. A target that exists but is not a regular
/// file (a device, a FIFO, a symlink) is written in place.
struct Output {
    out: BufWriter<Box<dyn Write>>,
    /// `(temporary, target)` while a rename is pending.
    rename: Option<(PathBuf, PathBuf)>,
}

impl Output {
    fn create(path: &str) -> std::io::Result<Self> {
        if path == "-" {
            return Ok(Self::new(Box::new(std::io::stdout().lock()), None));
        }
        let target = Path::new(path);
        match std::fs::symlink_metadata(target) {
            Ok(meta) if !meta.is_file() => {
                return Ok(Self::new(Box::new(File::create(target)?), None));
            }
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let mut name = std::ffi::OsString::from(".");
        name.push(target.file_name().unwrap_or(target.as_os_str()));
        name.push(format!(".{}.part", std::process::id()));
        let temp = target.with_file_name(name);
        let file = File::options().write(true).create_new(true).open(&temp)?;
        Ok(Self::new(Box::new(file), Some((temp, target.to_owned()))))
    }

    fn new(inner: Box<dyn Write>, rename: Option<(PathBuf, PathBuf)>) -> Self {
        Self {
            out: BufWriter::new(inner),
            rename,
        }
    }

    /// Flushes the output and puts a file in place.
    fn commit(mut self) -> std::io::Result<()> {
        self.out.flush()?;
        if let Some((temp, target)) = self.rename.take() {
            if let Err(e) = std::fs::rename(&temp, target) {
                let _ = std::fs::remove_file(temp);
                return Err(e);
            }
        }
        Ok(())
    }
}

impl Write for Output {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

impl Drop for Output {
    fn drop(&mut self) {
        if let Some((temp, _)) = &self.rename {
            let _ = std::fs::remove_file(temp);
        }
    }
}

/// Writes `img` to `output` as a PGM, header then row by row: no second
/// image-sized buffer.
fn write_pgm(output: &str, img: &cbic::image::Image) -> CliResult {
    let mut out = Output::create(output)?;
    pgm::write_header(&mut out, img.width(), img.height(), img.max_val())?;
    let mut rows = pgm::RowWriter::new(img.max_val());
    for y in 0..img.height() {
        rows.write_row(&mut out, img.row(y))?;
    }
    Ok(out.commit()?)
}

/// Parses a `--tile WxH` value like `256x256`.
fn parse_tile(value: &str) -> Result<(u32, u32), Box<dyn std::error::Error>> {
    let (w, h) = value
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("--tile wants WxH (e.g. 256x256), got {value}"))?;
    let (w, h): (u32, u32) = (w.trim().parse()?, h.trim().parse()?);
    if w == 0 || h == 0 {
        return Err(format!("--tile {value}: tile dimensions must be nonzero").into());
    }
    Ok((w, h))
}

/// The error for a container magic no registered codec claims. The
/// retired formats get their own messages: multi-threaded encodes wrote
/// the `CBTI` band container before they wrote the v4 tile grid, and
/// `CBUN` multiplexed byte, image and video chunks.
fn unrecognized_magic(magic: &[u8]) -> String {
    if magic.starts_with(b"CBTI") {
        "the CBTI band container is retired and no longer decodes; re-encode the image \
         (`cbic compress --threads N` now writes the v4 tile grid)"
            .into()
    } else if magic.starts_with(b"CBUN") {
        "the CBUN universal container is retired and no longer decodes".into()
    } else {
        "unrecognized container magic".into()
    }
}

/// Parses a `--rect X,Y,W,H` value like `1024,512,256,256`.
fn parse_rect(value: &str) -> Result<cbic::Rect, Box<dyn std::error::Error>> {
    let parts: Vec<&str> = value.split(',').map(str::trim).collect();
    let [x, y, w, h] = parts.as_slice() else {
        return Err(format!("--rect wants X,Y,W,H (e.g. 1024,512,256,256), got {value}").into());
    };
    Ok(cbic::Rect::new(
        x.parse()?,
        y.parse()?,
        w.parse()?,
        h.parse()?,
    ))
}

fn cmd_compress(args: &[String]) -> CliResult {
    let (flags, pos) = parse_flags("compress", args, &["codec", "threads", "tile"])?;
    let [input, output] = pos.as_slice() else {
        return Err("compress needs IN.pgm and OUT (either may be `-`)".into());
    };
    let codec_name = flag_value(&flags, "codec").unwrap_or("proposed");
    let threads = parse_threads(&flags)?;
    let tile = flag_value(&flags, "tile").map(parse_tile).transpose()?;

    // Validate every flag combination *before* touching the output path,
    // so a typo cannot truncate an existing output file. `--tile` and
    // `--threads N` both shape the proposed codec's tile grid.
    let registry = cbic::default_registry();
    for (flag, given) in [("--tile", tile.is_some()), ("--threads", threads > 1)] {
        if given && codec_name != "proposed" {
            return Err(format!("{flag} applies to the proposed codec, not {codec_name}").into());
        }
    }
    if registry.by_name(codec_name).is_none() {
        return Err(format!(
            "unknown codec {codec_name} (available: {})",
            registry.names().join(", ")
        )
        .into());
    }

    if tile.is_none() && codec_name == "proposed" && threads <= 1 {
        // Bounded-memory path: PGM rows flow one at a time through the
        // stream encoder, which keeps only the two rows above, into the
        // output — neither the image nor the container is ever
        // materialized, so `- -` piping handles images far larger than
        // RAM-friendly buffers.
        return compress_streaming(input, output);
    }

    let mut reader = open_input(input)?;
    let mut pgm_bytes = Vec::new();
    reader.read_to_end(&mut pgm_bytes)?;
    let img = pgm::decode(&pgm_bytes)?;
    // The image is already fully resident here, so encode into memory and
    // only write the output once the encode has succeeded.
    let mut container = Vec::new();
    let (payload_len, label) = if codec_name == "proposed" {
        // The v4 seekable tile grid: every tile an independently
        // decodable substream, coded on the tile scheduler. `--threads N`
        // alone asks for N full-width tiles, one per worker. This process
        // has the CPUs to itself, so a lone worker may hand its coder to
        // a thread of its own.
        let (tile_w, tile_h) = match tile {
            Some(tile) => tile,
            None => (
                u32::try_from(img.width())?,
                u32::try_from(img.height().div_ceil(threads))?,
            ),
        };
        let (bytes, _, coder_thread) = cbic::core::grid::compress_grid_two_stage(
            img.view(),
            &CodecConfig::default(),
            TileGeometry::new(tile_w, tile_h),
            Parallelism::from_threads(threads),
        )?;
        container = bytes;
        let (_, _, substreams) = cbic::core::grid::parse_grid(&container)?;
        let label = format!(
            "proposed (v4 grid, {tile_w}x{tile_h} tiles, {}, {})",
            thread_count(threads),
            coder_placement(coder_thread)
        );
        (substreams.len(), label)
    } else {
        let codec = registry.expect_name(codec_name)?;
        let stats = codec.encode(img.view(), &EncodeOptions::default(), &mut container)?;
        // A baseline's payload is one byte-padded stream: its exact bits
        // rounded up to bytes are the payload `info` counts.
        let payload = stats
            .payload_bits
            .map_or(container.len(), |bits| bits.div_ceil(8) as usize);
        (payload, codec_name.to_string())
    };
    let mut out = Output::create(output)?;
    out.write_all(&container)?;
    out.commit()?;
    eprintln!(
        "{input}: {} pixels ({}-bit) -> {} bytes ({:.3} bpp) with {label}",
        img.pixel_count(),
        img.bit_depth(),
        container.len(),
        payload_bpp(payload_len, img.pixel_count())
    );
    Ok(())
}

/// The payload rate the status lines and `info` print: payload bytes
/// (a grid's tile substreams, index excluded) over pixels, so every
/// path of one image reads the same rate.
fn payload_bpp(payload_len: usize, pixels: usize) -> f64 {
    payload_len as f64 * 8.0 / pixels as f64
}

/// The bounded-memory compress path: PGM header off the reader, rows
/// through [`StreamEncoder`], container bytes out as they resolve.
fn compress_streaming(input: &str, output: &str) -> CliResult {
    let mut reader = open_input(input)?;
    let header = pgm::read_header(&mut reader)?;
    let (width, height) = (header.width, header.height);
    let out = Output::create(output)?;
    let cfg = CodecConfig::default();
    let mut enc = StreamEncoder::with_depth(out, width, height, header.bit_depth(), &cfg)?;
    let coder_thread = enc.has_coder_thread();
    let mut row = vec![0u16; width];
    for y in 0..height {
        pgm::read_row(&mut reader, &header, &mut row)
            .map_err(|e| format!("reading pixel row {y}: {e}"))?;
        enc.push_row(&row)?;
    }
    let (out, stats) = enc.finish_with_stats()?;
    out.commit()?;
    let pixels = width * height;
    eprintln!(
        "{input}: {pixels} pixels ({}-bit) -> {} bytes ({:.3} bpp) with proposed \
         (streamed, {}, {})",
        header.bit_depth(),
        stats.container_bytes,
        payload_bpp(stats.payload_bytes as usize, pixels),
        match coder_thread {
            true => "O(3 lines) + 640 KiB memory",
            false => "O(3 lines) memory",
        },
        coder_placement(coder_thread)
    );
    Ok(())
}

/// Where the binary arithmetic coder ran, for the status lines.
fn coder_placement(coder_thread: bool) -> &'static str {
    match coder_thread {
        true => "coder on its own thread",
        false => "coder inline",
    }
}

fn cmd_decompress(args: &[String]) -> CliResult {
    let (flags, pos) = parse_flags("decompress", args, &["threads"])?;
    let [input, output] = pos.as_slice() else {
        return Err("decompress needs IN and OUT.pgm (either may be `-`)".into());
    };
    let threads = parse_threads(&flags)?;
    let mut reader = open_input(input)?;
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|e| format!("reading container magic: {e}"))?;

    if &magic == b"CBIC" {
        // Peek the version byte: a v4 tile grid wants the (optionally
        // parallel) grid decoder, everything flat streams row by row.
        let mut version = [0u8; 1];
        reader
            .read_exact(&mut version)
            .map_err(|e| format!("reading container version: {e}"))?;
        let mut prefix = magic.to_vec();
        prefix.push(version[0]);
        if version[0] == 4 {
            let mut bytes = prefix;
            reader.read_to_end(&mut bytes)?;
            let img = cbic::core::decompress_grid(&bytes, Parallelism::from_threads(threads))?;
            write_pgm(output, &img)?;
            eprintln!(
                "{input}: proposed (v4 grid, {}) -> {}x{} {}-bit PGM",
                thread_count(threads),
                img.width(),
                img.height(),
                img.bit_depth()
            );
            return Ok(());
        }
        // Bounded-memory path: decode rows straight to PGM output without
        // slurping the container or materializing the image.
        let mut chained = (&prefix[..]).chain(reader);
        let mut dec = StreamDecoder::new(&mut chained)?;
        let (width, height) = dec.dimensions();
        let maxval = cbic::image::max_val_for(dec.bit_depth());
        let mut out = Output::create(output)?;
        pgm::write_header(&mut out, width, height, maxval)?;
        let mut row = vec![0u16; width];
        let mut rows = pgm::RowWriter::new(maxval);
        for _ in 0..height {
            dec.next_row(&mut row)?;
            rows.write_row(&mut out, &row)?;
        }
        out.commit()?;
        eprintln!(
            "{input}: proposed (streamed) -> {width}x{height} {}-bit PGM",
            dec.bit_depth()
        );
        return Ok(());
    }

    // Everything else goes through the codec dispatch, each codec
    // through its whole-buffer fallback.
    let registry = cbic::default_registry();
    let codec = registry
        .detect(&magic)
        .ok_or_else(|| unrecognized_magic(&magic))?;
    let opts = DecodeOptions::new().with_parallelism(Parallelism::from_threads(threads));
    let mut chained = (&magic[..]).chain(reader);
    let img = codec.decode(&mut chained, &opts)?;
    write_pgm(output, &img)?;
    eprintln!(
        "{input}: {} -> {}x{} {}-bit PGM",
        codec.name(),
        img.width(),
        img.height(),
        img.bit_depth()
    );
    Ok(())
}

/// `crop`: random-access ROI decode. On a seekable file holding a v4 tile
/// grid this reads the header, the index, and *only the covering tiles'
/// bytes*; on a flat container it decodes the rows down to the rect's
/// last and crops. Stdin is read into memory first. Either way the
/// output PGM is exactly the requested rect.
fn cmd_crop(args: &[String]) -> CliResult {
    let (flags, pos) = parse_flags("crop", args, &["rect", "threads"])?;
    let [input, output] = pos.as_slice() else {
        return Err(
            "crop needs IN and OUT.pgm (IN may be `-`; seekable files skip non-covering tiles)"
                .into(),
        );
    };
    let rect = parse_rect(flag_value(&flags, "rect").ok_or("crop needs --rect X,Y,W,H (pixels)")?)?;
    let threads = parse_threads(&flags)?;
    let par = Parallelism::from_threads(threads);
    let (img, how) = if input == "-" {
        let mut bytes = Vec::new();
        std::io::stdin().lock().read_to_end(&mut bytes)?;
        (cbic::core::decode_roi(&bytes, rect, par)?, "buffered")
    } else {
        // A real file seeks: non-covering tiles' bytes are never read.
        let mut file = File::open(input)?;
        (cbic::core::decode_roi_from(&mut file, rect, par)?, "seek")
    };
    write_pgm(output, &img)?;
    eprintln!(
        "{input}: {}x{} crop at ({}, {}) -> {}-bit PGM ({how} path)",
        rect.w,
        rect.h,
        rect.x,
        rect.y,
        img.bit_depth()
    );
    Ok(())
}

/// `info`: describe a compressed container — codec, dimensions, bit depth,
/// tile layout, payload sizes — without decoding any payload.
fn cmd_info(args: &[String]) -> CliResult {
    let [input] = args else {
        return Err("info needs IN".into());
    };
    let bytes = std::fs::read(input)?;
    let kind = cbic::default_registry()
        .detect(&bytes)
        .map(|c| c.name())
        .ok_or_else(|| unrecognized_magic(&bytes))?;
    say!("container: {kind}, {} bytes", bytes.len());
    match kind {
        "proposed" => {
            let (hdr, payload) = cbic::core::container::parse_header(&bytes)?;
            // The header parsed, so the version byte after the magic is there.
            let version = bytes[4];
            if hdr.tile.is_none() {
                print_proposed_header(version, &hdr, payload.len());
            } else {
                // v4: validate and print the tile index. Length
                // mismatches and malformed indexes surface as the
                // library's structured InvalidContainer/Truncated errors.
                // The payload is the tile substreams, index excluded, so
                // a 1x1 grid reports its flat container's payload.
                let (_, index, substreams) = cbic::core::grid::parse_grid(&bytes)?;
                print_proposed_header(version, &hdr, substreams.len());
                print_grid_index(&index, substreams.len());
            }
        }
        baseline => {
            let (w, h, depth, payload) = match baseline {
                "calic" => cbic::calic::parse_container(&bytes)?,
                "jpegls" => cbic::jpegls::parse_container(&bytes)?,
                "slp" => cbic::slp::parse_container(&bytes)?,
                _ => return Err(format!("info cannot describe {baseline} containers").into()),
            };
            say!("dimensions: {w}x{h}, {depth}-bit samples");
            say!(
                "payload: {} bytes = {:.3} bpp",
                payload.len(),
                payload_bpp(payload.len(), w * h)
            );
        }
    }
    Ok(())
}

fn print_proposed_header(
    version: u8,
    hdr: &cbic::core::container::ContainerHeader,
    payload_len: usize,
) {
    say!(
        "version: {version}, dimensions: {}x{}, {}-bit samples",
        hdr.width,
        hdr.height,
        hdr.bit_depth
    );
    say!(
        "config: {} counter bits, increment {}, feedback={}, aging={}, division={:?}, \
         {} compound contexts",
        hdr.cfg.estimator.count_bits,
        hdr.cfg.estimator.increment,
        hdr.cfg.error_feedback,
        hdr.cfg.aging,
        hdr.cfg.division,
        hdr.cfg.compound_contexts()
    );
    say!(
        "payload: {payload_len} bytes = {:.3} bpp",
        payload_bpp(payload_len, hdr.width * hdr.height)
    );
}

/// Prints a v4 container's tile index: grid shape, tile geometry, and the
/// per-tile (offset, length, checksum) entries the random-access paths
/// seek by.
fn print_grid_index(index: &cbic::core::grid::TileIndex, payload_len: usize) {
    let (tw, th) = index.geometry.tile_size();
    say!(
        "grid: {}x{} tiles of {tw}x{th} px, index {} bytes, substreams {payload_len} bytes",
        index.cols,
        index.rows,
        index.entries.len() * cbic::core::grid::INDEX_ENTRY_LEN
    );
    for (i, e) in index.entries.iter().enumerate() {
        let (x, y, w, h) = index.tile_rect(i % index.cols, i / index.cols);
        say!(
            "  tile ({}, {}): {w}x{h} px at ({x}, {y}), offset {}, {} bytes, crc32 {:08x}",
            i % index.cols,
            i / index.cols,
            e.offset,
            e.len,
            e.crc32
        );
    }
}

fn cmd_codecs() -> CliResult {
    let registry = cbic::default_registry();
    say!("registered codecs ({}):", registry.len());
    for codec in registry.codecs() {
        let magic = codec
            .magic()
            .map(|m| String::from_utf8_lossy(&m).into_owned())
            .unwrap_or_else(|| "-".into());
        let (lo, hi) = codec.bit_depths();
        say!("  {:<10} magic {magic}  depths {lo}..={hi}", codec.name());
    }
    Ok(())
}

fn cmd_corpus(args: &[String]) -> CliResult {
    let (flags, pos) = parse_flags("corpus", args, &["size"])?;
    let [outdir] = pos.as_slice() else {
        return Err("corpus needs OUTDIR".into());
    };
    let size: usize = flag_value(&flags, "size")
        .map(str::parse)
        .transpose()?
        .unwrap_or(512);
    std::fs::create_dir_all(outdir)?;
    for (c, img) in cbic::image::corpus::generate(size) {
        let path = std::path::Path::new(outdir).join(format!("{}.pgm", c.name()));
        pgm::write_file(&path, &img)?;
        say!("wrote {} ({size}x{size})", path.display());
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> CliResult {
    let [input] = args else {
        return Err("bench needs IN.pgm".into());
    };
    let img = pgm::read_file(input)?;
    say!(
        "{input}: {}x{} at {} bits/sample, order-0 entropy {:.3} bpp",
        img.width(),
        img.height(),
        img.bit_depth(),
        img.entropy()
    );
    let raw_bits = f64::from(img.bit_depth());
    say!("  {:<10} {:>9} {:>7}", "codec", "bpp", "ratio");
    let opts = EncodeOptions::default();
    for codec in cbic::all_codecs() {
        // The bpp column stays payload-only (as it always was), so bench
        // numbers remain comparable across versions; container framing is
        // not charged to the codec.
        let bpp = codec.payload_bits_per_pixel(img.view(), &opts)?;
        say!("  {:<10} {bpp:>9.3} {:>7.2}", codec.name(), raw_bits / bpp);
    }
    // Decision profile of the proposed codec's estimator: the static
    // per-pixel budget (the paper's 1 escape + 8 tree levels for 8-bit
    // samples) against the decisions that actually reached the arithmetic
    // coder — the rest were deterministic and coded for free.
    let stats = cbic::core::encode_model_only(img.view(), &CodecConfig::default());
    say!(
        "  proposed model: {:.0} decisions/px budget, {:.2} coded ({:.1}% deterministic)",
        stats.decisions_per_pixel(),
        stats.coded_decisions_per_pixel(),
        stats.deterministic_fraction() * 100.0
    );
    Ok(())
}
