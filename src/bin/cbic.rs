//! `cbic` — command-line front end for the workspace codecs.
//!
//! Every codec-facing command is registry-driven: codecs are enumerated
//! from [`cbic::all_codecs`] / [`cbic::default_registry`] and used through
//! `&dyn Codec`, so a codec added to the registry appears in `compress`,
//! `decompress`, `bench`, and `codecs` with no CLI changes.
//!
//! ```text
//! cbic compress   [--codec NAME] [--near N] [--threads N] [--tile WxH] [--model M] IN.pgm OUT
//! cbic decompress [--threads N] IN OUT.pgm   (codec auto-detected)
//! cbic crop       --rect X,Y,W,H [--threads N] IN OUT.pgm  (random-access ROI decode)
//! cbic info       IN                         (describe a compressed container)
//! cbic codecs                                (list registered codecs)
//! cbic corpus     [--size N] OUTDIR          (write the synthetic corpus as PGM)
//! cbic bench      [--iters N] IN.pgm         (bit rate + encode/decode MP/s of all codecs)
//! ```
//!
//! PGM input may be 8-bit (`maxval ≤ 255`) or deep (two big-endian bytes
//! per sample, `maxval ≤ 65535`); the sample depth rides through every
//! codec and back out to PGM. `compress` and `decompress` accept `-` for
//! stdin/stdout and print their status lines to stderr, so containers pipe
//! cleanly: `cbic compress - - < in.pgm | cbic decompress - - > out.pgm`.
//! For the default `proposed` codec both directions run the
//! bounded-memory streaming pipeline (three line buffers, the paper's
//! Fig. 3 constraint), so image size is limited by the format, not by RAM.

use cbic::core::stream::{StreamDecoder, StreamEncoder};
use cbic::core::CodecConfig;
use cbic::image::pgm;
use cbic::{DecodeOptions, EncodeOptions, Parallelism};
use std::io::{BufReader, BufWriter, Read, Write};
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
        "usage:\n  cbic compress [--codec NAME] [--near N] [--threads N] [--tile WxH] \
         [--model classic|wide[:B]] IN.pgm OUT\n  \
         cbic decompress [--threads N] IN OUT.pgm\n  \
         cbic crop --rect X,Y,W,H [--threads N] IN OUT.pgm\n  cbic info IN\n  cbic codecs\n  \
         cbic corpus [--size N] OUTDIR\n  cbic bench [--iters N] IN.pgm\n\
         (compress/decompress accept `-` for stdin/stdout piping; PGM may be 8- or 16-bit;\n \
         --tile writes the seekable tile grid, which `crop` decodes without reading other tiles;\n \
         --model wide[:B] uses the enlarged hash-banked context model with 2^B banks, v5 container)"
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

/// Pulls `--flag value` out of an argument list, returning remaining
/// positional arguments.
fn parse_flags(args: &[String], flags: &[&str]) -> (Vec<(String, String)>, Vec<String>) {
    let mut out = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if flags.contains(&name) && i + 1 < args.len() {
                out.push((name.to_string(), args[i + 1].clone()));
                i += 2;
                continue;
            }
        }
        positional.push(args[i].clone());
        i += 1;
    }
    (out, positional)
}

fn flag_value<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn parse_threads(flags: &[(String, String)]) -> Result<usize, Box<dyn std::error::Error>> {
    Ok(flag_value(flags, "threads")
        .map(str::parse)
        .transpose()?
        .unwrap_or(0))
}

/// Opens `path` for buffered reading, with `-` meaning stdin.
fn open_input(path: &str) -> std::io::Result<BufReader<Box<dyn Read>>> {
    let inner: Box<dyn Read> = if path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(std::fs::File::open(path)?)
    };
    Ok(BufReader::new(inner))
}

/// Opens `path` for buffered writing, with `-` meaning stdout.
fn open_output(path: &str) -> std::io::Result<BufWriter<Box<dyn Write>>> {
    let inner: Box<dyn Write> = if path == "-" {
        Box::new(std::io::stdout().lock())
    } else {
        Box::new(std::fs::File::create(path)?)
    };
    Ok(BufWriter::new(inner))
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

/// Parses a `--model` value: `classic`, `wide`, or `wide:B` where `B`
/// is the base-2 log of the hash bank count (`4..=16`).
fn parse_model(value: &str) -> Result<cbic::core::ModelMode, Box<dyn std::error::Error>> {
    use cbic::core::ModelMode;
    let model = match value.strip_prefix("wide") {
        None if value == "classic" => ModelMode::Classic,
        Some("") => ModelMode::WideHash {
            banks_log2: cbic::core::bigctx::DEFAULT_BANKS_LOG2,
        },
        Some(rest) if rest.starts_with(':') => ModelMode::WideHash {
            banks_log2: rest[1..].trim().parse()?,
        },
        _ => return Err(format!("--model wants classic or wide[:B], got {value}").into()),
    };
    model
        .validate()
        .map_err(|e| format!("--model {value}: {e}"))?;
    Ok(model)
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
    let (flags, pos) = parse_flags(args, &["codec", "near", "threads", "tile", "model"]);
    let [input, output] = pos.as_slice() else {
        return Err("compress needs IN.pgm and OUT (either may be `-`)".into());
    };
    let codec_name = flag_value(&flags, "codec").unwrap_or("proposed");
    let near: u8 = flag_value(&flags, "near")
        .map(str::parse)
        .transpose()?
        .unwrap_or(0);
    let threads = parse_threads(&flags)?;
    let tile = flag_value(&flags, "tile").map(parse_tile).transpose()?;
    if tile.is_some() && (codec_name != "proposed" || near > 0) {
        return Err(format!("--tile applies to the proposed codec, not {codec_name}").into());
    }
    let model = flag_value(&flags, "model")
        .map(parse_model)
        .transpose()?
        .unwrap_or_default();
    if !model.is_classic() && (codec_name != "proposed" && codec_name != "tiled" || near > 0) {
        return Err(format!(
            "--model wide applies to the proposed and tiled codecs, not {codec_name}"
        )
        .into());
    }

    if let Some((tile_w, tile_h)) = tile {
        // The v4 seekable tile grid: every tile an independently
        // decodable substream, coded on the wavefront scheduler.
        let mut reader = open_input(input)?;
        let mut pgm_bytes = Vec::new();
        reader.read_to_end(&mut pgm_bytes)?;
        let img = pgm::decode(&pgm_bytes)?;
        let opts = EncodeOptions::new()
            .with_tile(tile_w, tile_h)
            .with_model(model)
            .with_parallelism(Parallelism::from_threads(threads));
        let mut container = Vec::new();
        let stats = cbic::default_registry().expect_name("proposed")?.encode(
            img.view(),
            &opts,
            &mut container,
        )?;
        let mut out = open_output(output)?;
        out.write_all(&container)?;
        out.flush()?;
        let model_note = if model.is_classic() {
            String::new()
        } else {
            format!(", {model} model")
        };
        let grid_version = if model.is_classic() { 4 } else { 5 };
        eprintln!(
            "{input}: {} pixels ({}-bit) -> {} bytes ({:.3} bpp) with proposed \
             (v{grid_version} grid, {tile_w}x{tile_h} tiles{model_note}, \
             {threads} threads)",
            stats.pixels,
            img.bit_depth(),
            stats.container_bytes,
            stats.bits_per_pixel()
        );
        return Ok(());
    }

    if codec_name == "proposed" && near == 0 && threads <= 1 {
        // Bounded-memory path: PGM rows flow straight through the
        // three-line-buffer pipeline into the output — neither the image
        // nor the container is ever materialized, so `- -` piping handles
        // images far larger than RAM-friendly buffers.
        return compress_streaming(input, output, model);
    }

    // Validate every flag combination *before* touching the output path,
    // so a typo cannot truncate an existing output file.
    let registry = cbic::default_registry();
    if threads > 1 {
        if codec_name != "proposed" && codec_name != "tiled" {
            return Err(
                format!("--threads applies to the proposed codec, not {codec_name}").into(),
            );
        }
        if near > 0 {
            return Err("--near (jpegls) cannot be combined with --threads".into());
        }
    } else if near > 0 && codec_name != "jpegls" {
        return Err(format!("--near applies to jpegls, not {codec_name}").into());
    }
    if near == 0 && registry.by_name(codec_name).is_none() {
        return Err(format!(
            "unknown codec {codec_name} (available: {})",
            registry.names().join(", ")
        )
        .into());
    }

    let mut reader = open_input(input)?;
    let mut pgm_bytes = Vec::new();
    reader.read_to_end(&mut pgm_bytes)?;
    let img = pgm::decode(&pgm_bytes)?;
    let mut label = codec_name.to_string();
    // The image is already fully resident here, so encode into memory and
    // only open (truncate) the output once the encode has succeeded — a
    // failed encode must not destroy an existing output file. (The
    // streaming path above trades this for bounded memory.)
    let mut container = Vec::new();
    let stats = if threads > 1 {
        // Multi-threaded coding uses the tiled container: one band per
        // worker, each an independent instance of the paper's codec coding
        // a zero-copy row-range view.
        let bands = threads.min(img.height());
        label = format!("tiled ({bands} bands, {threads} threads)");
        if !model.is_classic() {
            label.push_str(&format!(" [{model}]"));
        }
        let opts = EncodeOptions::new()
            .with_tiles(bands)
            .with_parallelism(Parallelism::Threads(threads))
            .with_model(model);
        registry
            .expect_name("tiled")?
            .encode(img.view(), &opts, &mut container)?
    } else if near > 0 {
        // Near-lossless operation is outside the lossless Codec contract;
        // reach the JPEG-LS crate directly, with exactly the configuration
        // `decompress` will rebuild from the container's (depth, NEAR).
        container = cbic::jpegls::compress(
            img.view(),
            &cbic::jpegls::JpeglsConfig::for_depth(img.bit_depth(), near),
        );
        cbic::image::EncodeStats::new(img.pixel_count() as u64, container.len() as u64, None)
    } else {
        let codec = registry.expect_name(codec_name)?;
        if !model.is_classic() {
            label.push_str(&format!(" [{model}]"));
        }
        codec.encode(
            img.view(),
            &EncodeOptions::default().with_model(model),
            &mut container,
        )?
    };
    let mut out = open_output(output)?;
    out.write_all(&container)?;
    out.flush()?;
    eprintln!(
        "{input}: {} pixels ({}-bit) -> {} bytes ({:.3} bpp) with {label}",
        stats.pixels,
        img.bit_depth(),
        stats.container_bytes,
        stats.bits_per_pixel()
    );
    Ok(())
}

/// The bounded-memory compress path: PGM header off the reader, rows
/// through [`StreamEncoder`], container bytes out as they resolve.
fn compress_streaming(input: &str, output: &str, model: cbic::core::ModelMode) -> CliResult {
    let mut reader = open_input(input)?;
    let header = pgm::read_header(&mut reader)?;
    let (width, height) = (header.width, header.height);
    let out = open_output(output)?;
    let cfg = CodecConfig {
        model,
        ..CodecConfig::default()
    };
    let mut enc = StreamEncoder::with_depth(out, width, height, header.bit_depth(), &cfg)?;
    let mut row = vec![0u16; width];
    for y in 0..height {
        pgm::read_row(&mut reader, &header, &mut row)
            .map_err(|e| format!("reading pixel row {y}: {e}"))?;
        enc.push_row(&row)?;
    }
    let (mut out, stats) = enc.finish_with_stats()?;
    out.flush()?;
    let pixels = width * height;
    let label = if model.is_classic() {
        "proposed (streamed, O(3 lines) memory)".to_string()
    } else {
        format!("proposed (streamed, {model} model)")
    };
    // Same payload-bytes-over-pixels rate `cbic info` reports for the
    // finished container, so the two commands agree.
    eprintln!(
        "{input}: {pixels} pixels ({}-bit) -> {} bytes ({:.3} bpp) with {label}",
        header.bit_depth(),
        stats.container_bytes,
        stats.payload_bytes as f64 * 8.0 / pixels as f64
    );
    Ok(())
}

fn cmd_decompress(args: &[String]) -> CliResult {
    let (flags, pos) = parse_flags(args, &["threads"]);
    let [input, output] = pos.as_slice() else {
        return Err("decompress needs IN and OUT.pgm (either may be `-`)".into());
    };
    let threads = parse_threads(&flags)?;
    let mut reader = open_input(input)?;
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|e| format!("reading container magic: {e}"))?;
    if &magic == b"CBUN" {
        return Err("universal containers hold more than one image; use the library API".into());
    }

    if &magic == b"CBIC" {
        // Peek the version byte: a v4 tile grid (or a v5 container whose
        // layout flag says "tiled") wants the (optionally parallel) grid
        // decoder, everything flat streams row by row.
        let mut version = [0u8; 1];
        reader
            .read_exact(&mut version)
            .map_err(|e| format!("reading container version: {e}"))?;
        let mut prefix = magic.to_vec();
        prefix.push(version[0]);
        if version[0] == 5 {
            // The v5 layout flag sits at byte 26 (0 flat, 1 tiled); read
            // through it so a flat container can still stream row by row.
            let mut rest = [0u8; 22];
            reader
                .read_exact(&mut rest)
                .map_err(|e| format!("reading v5 container header: {e}"))?;
            prefix.extend_from_slice(&rest);
        }
        if version[0] == 4 || (version[0] == 5 && prefix[26] == 1) {
            let mut bytes = prefix;
            reader.read_to_end(&mut bytes)?;
            let img = cbic::core::decompress_grid(&bytes, Parallelism::from_threads(threads))?;
            let mut out = open_output(output)?;
            pgm::write_header(&mut out, img.width(), img.height(), img.max_val())?;
            for y in 0..img.height() {
                out.write_all(&pgm::row_bytes(img.row(y), img.max_val()))?;
            }
            out.flush()?;
            eprintln!(
                "{input}: proposed (v{} grid, {threads} threads) -> {}x{} {}-bit PGM",
                version[0],
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
        let mut out = open_output(output)?;
        pgm::write_header(&mut out, width, height, maxval)?;
        let mut row = vec![0u16; width];
        for _ in 0..height {
            dec.next_row(&mut row)?;
            out.write_all(&pgm::row_bytes(&row, maxval))?;
        }
        out.flush()?;
        eprintln!(
            "{input}: proposed (streamed) -> {width}x{height} {}-bit PGM",
            dec.bit_depth()
        );
        return Ok(());
    }

    // Everything else goes through the streaming codec dispatch: tiled
    // containers read band by band, the remaining codecs through their
    // whole-buffer fallback.
    let registry = cbic::default_registry();
    let codec = registry
        .detect(&magic)
        .ok_or("unrecognized container magic")?;
    let opts = DecodeOptions::new().with_parallelism(Parallelism::from_threads(threads));
    let mut chained = (&magic[..]).chain(reader);
    let img = codec.decode(&mut chained, &opts)?;
    let mut out = open_output(output)?;
    // Header then row-by-row wire conversion: no second image-sized buffer.
    pgm::write_header(&mut out, img.width(), img.height(), img.max_val())?;
    for y in 0..img.height() {
        out.write_all(&pgm::row_bytes(img.row(y), img.max_val()))?;
    }
    out.flush()?;
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
/// bytes*; on stdin (or a flat container) it decodes what it must
/// and crops. Either way the output PGM is exactly the requested rect.
fn cmd_crop(args: &[String]) -> CliResult {
    let (flags, pos) = parse_flags(args, &["rect", "threads"]);
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
        (cbic::core::decode_roi_any(&bytes, rect, par)?, "buffered")
    } else {
        // A real file seeks: non-covering tiles' bytes are never read.
        let mut file = std::fs::File::open(input)?;
        match cbic::core::decode_roi_from(&mut file, rect, par) {
            Ok(img) => (img, "seek"),
            Err(cbic::core::CodecError::InvalidHeader(_)) => {
                // Not a v4 grid (flat container): fall back to a
                // full decode + crop of the slurped bytes.
                let bytes = std::fs::read(input)?;
                (cbic::core::decode_roi_any(&bytes, rect, par)?, "buffered")
            }
            Err(e) => return Err(e.into()),
        }
    };
    let mut out = open_output(output)?;
    pgm::write_header(&mut out, img.width(), img.height(), img.max_val())?;
    for y in 0..img.height() {
        out.write_all(&pgm::row_bytes(img.row(y), img.max_val()))?;
    }
    out.flush()?;
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
/// band layout, payload sizes — without decoding any payload.
fn cmd_info(args: &[String]) -> CliResult {
    let [input] = args else {
        return Err("info needs IN".into());
    };
    let bytes = std::fs::read(input)?;
    let kind = if bytes.get(..4) == Some(b"CBUN") {
        "universal"
    } else {
        cbic::default_registry()
            .detect(&bytes)
            .map(|c| c.name())
            .ok_or("unrecognized container magic")?
    };
    say!("container: {kind}, {} bytes", bytes.len());
    match kind {
        "proposed" => {
            let (hdr, payload) = cbic::core::container::parse_header(&bytes)?;
            print_proposed_header(&hdr, payload.len());
            if hdr.tile.is_some() {
                // v4: validate and print the tile index. Length
                // mismatches and malformed indexes surface as the
                // library's structured InvalidHeader/Truncated errors.
                let (_, index, grid_payload) = cbic::core::grid::parse_grid(&bytes)?;
                print_grid_index(&index, grid_payload.len());
            }
        }
        "tiled" => {
            let count_bytes = bytes
                .get(4..8)
                .ok_or("container truncated inside the tiled header")?;
            let tiles = u32::from_le_bytes(count_bytes.try_into().expect("sized")) as usize;
            say!("bands: {tiles}");
            let mut pos = 8usize;
            for t in 0..tiles {
                let len_bytes = bytes
                    .get(pos..pos + 4)
                    .ok_or("container truncated inside band table")?;
                let len = u32::from_le_bytes(len_bytes.try_into().expect("sized")) as usize;
                pos += 4;
                let band = bytes
                    .get(pos..pos + len)
                    .ok_or("container truncated inside a band")?;
                pos += len;
                let (hdr, payload) = cbic::core::container::parse_header(band)?;
                say!(
                    "  band {t}: {}x{} {}-bit, payload {} bytes ({:.3} bpp)",
                    hdr.width,
                    hdr.height,
                    hdr.bit_depth,
                    payload.len(),
                    payload.len() as f64 * 8.0 / (hdr.width * hdr.height) as f64
                );
            }
        }
        "calic" => {
            let (w, h, depth, payload) = cbic::calic::parse_container(&bytes)?;
            print_baseline_header(w, h, depth, payload.len(), None);
        }
        "slp" => {
            let (w, h, depth, payload) = cbic::slp::parse_container(&bytes)?;
            print_baseline_header(w, h, depth, payload.len(), None);
        }
        "jpegls" => {
            let (w, h, depth, near, payload) = cbic::jpegls::parse_container(&bytes)?;
            print_baseline_header(w, h, depth, payload.len(), Some(near));
        }
        "universal" => {
            let count = bytes
                .get(5..9)
                .map(|b| u32::from_le_bytes(b.try_into().expect("sized")))
                .ok_or("container truncated inside the universal header")?;
            say!("version: {}, chunks: {count}", bytes[4]);
        }
        _ => {}
    }
    Ok(())
}

fn print_proposed_header(hdr: &cbic::core::container::ContainerHeader, payload_len: usize) {
    let version = if !hdr.cfg.model.is_classic() {
        5
    } else if hdr.tile.is_some() {
        4
    } else if hdr.bit_depth != 8 {
        2
    } else {
        1
    };
    say!(
        "version: {version}, dimensions: {}x{}, {}-bit samples",
        hdr.width,
        hdr.height,
        hdr.bit_depth
    );
    say!("model: {}", hdr.cfg.model);
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
        payload_len as f64 * 8.0 / (hdr.width * hdr.height) as f64
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

fn print_baseline_header(w: usize, h: usize, depth: u8, payload_len: usize, near: Option<u8>) {
    say!("dimensions: {w}x{h}, {depth}-bit samples");
    if let Some(near) = near {
        say!(
            "near: {near} ({})",
            if near == 0 {
                "lossless"
            } else {
                "near-lossless"
            }
        );
    }
    say!(
        "payload: {payload_len} bytes = {:.3} bpp",
        payload_len as f64 * 8.0 / (w * h) as f64
    );
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
        say!(
            "  {:<10} magic {magic}  depths {lo}..={hi}  models {}",
            codec.name(),
            codec.model_modes().join(", ")
        );
    }
    Ok(())
}

fn cmd_corpus(args: &[String]) -> CliResult {
    let (flags, pos) = parse_flags(args, &["size"]);
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
    let (flags, pos) = parse_flags(args, &["iters"]);
    let [input] = pos.as_slice() else {
        return Err("bench needs IN.pgm (optional: --iters N, default 5)".into());
    };
    let iters: u32 = flag_value(&flags, "iters")
        .map(str::parse)
        .transpose()?
        .unwrap_or(5);
    if iters == 0 {
        return Err("--iters must be at least 1".into());
    }
    let img = pgm::read_file(input)?;
    say!(
        "{input}: {}x{} at {} bits/sample, order-0 entropy {:.3} bpp",
        img.width(),
        img.height(),
        img.bit_depth(),
        img.entropy()
    );
    let raw_bits = f64::from(img.bit_depth());
    let pixels = img.pixel_count() as f64;
    // Best-of-N wall-clock per direction: the minimum is robust against
    // background load, and N stays small because `bench` is interactive.
    let min_time = |f: &mut dyn FnMut()| -> f64 {
        let mut best = f64::MAX;
        for _ in 0..iters {
            let t = std::time::Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    say!(
        "  {:<10} {:>9} {:>7} {:>12} {:>12}",
        "codec",
        "bpp",
        "ratio",
        "enc MP/s",
        "dec MP/s"
    );
    let opts = EncodeOptions::default();
    for codec in cbic::all_codecs() {
        let bytes = codec.encode_vec(img.view(), &opts)?;
        // The bpp column stays payload-only (as it always was), so bench
        // numbers remain comparable across versions; container framing is
        // not charged to the codec.
        let bpp = codec.payload_bits_per_pixel(img.view(), &opts)?;
        let enc_secs = min_time(&mut || {
            std::hint::black_box(codec.encode_vec(img.view(), &opts).expect("Vec sink"));
        });
        let dec_secs = min_time(&mut || {
            std::hint::black_box(
                codec
                    .decode_vec(&bytes, &DecodeOptions::default())
                    .expect("own container"),
            );
        });
        say!(
            "  {:<10} {bpp:>9.3} {:>7.2} {:>12.2} {:>12.2}",
            codec.name(),
            raw_bits / bpp,
            pixels / enc_secs / 1e6,
            pixels / dec_secs / 1e6
        );
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
