//! Reusable coding sessions: the session, not the call, is the unit of
//! work.
//!
//! [`compress`](crate::compress) / [`decompress`](crate::decompress)
//! rebuild the whole model per call — the 512-cell context store (plus its
//! 1 KB division LUT), eight 255-node estimator trees, and the line-error
//! buffer — which is wasted work for a service coding thousands of images
//! back to back. [`EncoderSession`] and [`DecoderSession`] own that state
//! across calls and *reset* it in place between images, eliminating the
//! model-table allocations and LUT rebuilds from the hot path (what
//! remains per call is the arithmetic coder's registers and a 4 KiB
//! transport buffer). Images of different bit depths may be mixed freely;
//! the estimator banks are rebuilt only when the depth actually changes.
//!
//! A reset model is byte-identical to a fresh one (asserted below and by
//! the `session_reuse` differential tests), so sessions are a pure
//! performance feature: same containers in, same containers out.
//!
//! # Examples
//!
//! ```
//! use cbic_core::session::EncoderSession;
//! use cbic_core::CodecConfig;
//! use cbic_image::corpus::CorpusImage;
//!
//! let cfg = CodecConfig::default();
//! let mut session = EncoderSession::new(&cfg);
//! let mut out = Vec::new();
//! for size in [16, 24, 32] {
//!     let img = CorpusImage::Lena.generate(size, size);
//!     out.clear();
//!     let stats = session.encode(img.view(), &mut out)?;
//!     assert_eq!(out, cbic_core::compress(img.view(), &cfg)); // byte-identical
//!     assert_eq!(stats.pixels, (size * size) as u64);
//! }
//! # Ok::<(), cbic_image::CbicError>(())
//! ```

use crate::codec::{decode_rows_checked, CodecConfig, EncodeStats};
use crate::container::{check_container_dimensions, header_bytes, read_header};
use crate::engine::{DecoderState, EncoderState};
use cbic_arith::{BinaryDecoder, BinaryEncoder};
use cbic_bitio::{BitSink, StreamBitReader, StreamBitWriter};
use cbic_image::{CbicError, Image, ImageView};
use std::io::{self, Read, Write};

/// A reusable encoder: owns the context store, estimator trees, and error
/// buffers across [`encode`](Self::encode) calls.
///
/// Every call emits a standard `CBIC` container byte-identical to
/// [`compress`](crate::compress) with the session's configuration; between
/// calls the model state is reset in place instead of reallocated (and
/// rebuilt only when the sample depth changes).
///
/// # Examples
///
/// ```
/// use cbic_core::session::EncoderSession;
/// use cbic_core::CodecConfig;
/// use cbic_image::Image;
///
/// let mut session = EncoderSession::new(&CodecConfig::default());
/// let img = Image::from_fn(16, 16, |x, y| (x * y) as u8);
/// let mut out = Vec::new();
/// session.encode(img.view(), &mut out)?;
/// assert_eq!(cbic_core::decompress(&out).unwrap(), img);
/// # Ok::<(), cbic_image::CbicError>(())
/// ```
#[derive(Debug)]
pub struct EncoderSession {
    cfg: CodecConfig,
    state: EncoderState,
}

impl EncoderSession {
    /// Creates a session for `cfg`, allocating the engine state once
    /// (sized for 8-bit samples; a deeper first image re-arms it).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CodecConfig`]).
    pub fn new(cfg: &CodecConfig) -> Self {
        Self {
            cfg: *cfg,
            state: EncoderState::new(1, 8, cfg),
        }
    }

    /// The configuration every container of this session carries.
    pub fn config(&self) -> &CodecConfig {
        &self.cfg
    }

    /// Encodes the pixels of `img` into a standard container written to
    /// `sink`, byte-identical to [`compress`](crate::compress).
    ///
    /// # Errors
    ///
    /// [`CbicError::Io`] on sink failures (kind preserved) and
    /// [`CbicError::InvalidContainer`] for dimensions beyond the
    /// container's 2^28-pixel ceiling.
    pub fn encode(
        &mut self,
        img: ImageView<'_>,
        sink: &mut dyn Write,
    ) -> Result<EncodeStats, CbicError> {
        let (width, height) = img.dimensions();
        check_container_dimensions(width, height).map_err(CbicError::from)?;
        self.state.reset(width, img.bit_depth());

        let (hdr, len) = header_bytes(&self.cfg, width, height, img.bit_depth());
        sink.write_all(&hdr[..len]).map_err(CbicError::from)?;

        let mut enc = BinaryEncoder::new(StreamBitWriter::wrap(sink));
        self.state.encode_view(img, &mut enc);
        let decisions = enc.decisions();
        let coded_decisions = enc.coded_decisions();
        let mut writer = enc.finish();
        writer.take_error().map_err(CbicError::from)?;
        let payload_bits = writer.bits_written();
        writer.finish().map_err(CbicError::from)?;

        let coder_stats = self.state.coder_stats();
        Ok(EncodeStats {
            pixels: (width * height) as u64,
            payload_bits,
            escapes: coder_stats.escapes,
            estimator_rescales: coder_stats.rescales,
            context_halvings: self.state.halvings(),
            decisions,
            coded_decisions,
        })
    }
}

/// A reusable decoder: the dual of [`EncoderSession`].
///
/// Each [`decode`](Self::decode) call decodes one standard `CBIC`
/// container from the source. The session keeps the model state of the
/// most recent configuration; when consecutive containers carry the same
/// configuration and depth (the common case for a service fed by one
/// encoder) the state is reset in place, otherwise it is rebuilt.
///
/// The container format carries no payload length, so the decoder's
/// buffered transport may read past the container's last byte — hand each
/// call a source delivering exactly one container (a file, a
/// length-delimited slice of a larger stream), not a raw concatenation of
/// containers.
///
/// # Examples
///
/// ```
/// use cbic_core::session::{DecoderSession, EncoderSession};
/// use cbic_core::CodecConfig;
/// use cbic_image::Image;
///
/// let mut enc = EncoderSession::new(&CodecConfig::default());
/// let mut dec = DecoderSession::new();
/// for seed in 0..3u8 {
///     let img = Image::from_fn(12, 12, |x, y| (x * 7 + y) as u8 ^ seed);
///     let mut bytes = Vec::new();
///     enc.encode(img.view(), &mut bytes)?;
///     assert_eq!(dec.decode(&mut &bytes[..])?, img);
/// }
/// # Ok::<(), cbic_image::CbicError>(())
/// ```
#[derive(Debug, Default)]
pub struct DecoderSession {
    state: Option<(CodecConfig, DecoderState)>,
}

impl DecoderSession {
    /// Creates an empty session; model state is built on first use from
    /// the first container's header.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one container from `source` and decodes it.
    ///
    /// # Errors
    ///
    /// [`CbicError::Truncated`] when the stream ends inside the header or
    /// the payload, [`CbicError::Io`] on transport failures (kind
    /// preserved), and the structured header errors otherwise.
    pub fn decode(&mut self, source: &mut dyn Read) -> Result<Image, CbicError> {
        let hdr = read_header(source).map_err(CbicError::from)?;

        if hdr.tile.is_some() {
            // A version-4 grid takes the grid leg every whole-container
            // reader shares (sequential — the session is the
            // latency-oriented path); the held state serves flat
            // containers only.
            return crate::grid::decode_grid(
                &hdr,
                source,
                None,
                cbic_image::Parallelism::Sequential,
            )
            .map_err(CbicError::from);
        }

        let state = match &mut self.state {
            Some((held, state)) if *held == hdr.cfg => {
                state.reset(hdr.width, hdr.bit_depth);
                state
            }
            state => {
                let fresh = (
                    hdr.cfg,
                    DecoderState::new(hdr.width, hdr.bit_depth, &hdr.cfg),
                );
                &mut state.insert(fresh).1
            }
        };

        let mut img = Image::with_depth(hdr.width, hdr.height, hdr.bit_depth);

        let mut dec = BinaryDecoder::new(StreamBitReader::buffered(source));
        // A transport failure ends the input, so padding piles up and the
        // loop stops within a row; the I/O error is the better report.
        let decoded = decode_rows_checked(state, &mut dec, &mut img.view_mut());
        if let Some(e) = dec.source().io_error() {
            // From<io::Error> normalizes UnexpectedEof to Truncated, the
            // same as every other decode path.
            return Err(CbicError::from(io::Error::new(e.kind(), e.to_string())));
        }
        decoded.map_err(CbicError::from)?;
        Ok(img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::compress;
    use cbic_arith::EstimatorConfig;
    use cbic_image::corpus::CorpusImage;

    #[test]
    fn reused_session_is_byte_identical_to_fresh_compress() {
        let cfg = CodecConfig::default();
        let mut session = EncoderSession::new(&cfg);
        let mut out = Vec::new();
        // Varying content, sizes, and widths across one session.
        for (i, (_, img)) in cbic_image::corpus::generate(40).into_iter().enumerate() {
            out.clear();
            let stats = session.encode(img.view(), &mut out).unwrap();
            let reference = compress(img.view(), &cfg);
            assert_eq!(out, reference, "image {i} diverged after reuse");
            let (_, ref_stats) = crate::codec::encode_raw(img.view(), &cfg);
            assert_eq!(stats, ref_stats, "stats diverged on image {i}");
        }
    }

    #[test]
    fn session_resizes_between_widths() {
        let cfg = CodecConfig::default();
        let mut session = EncoderSession::new(&cfg);
        for (w, h) in [(1, 1), (64, 2), (2, 64), (17, 5), (1, 40)] {
            let img = Image::from_fn(w, h, |x, y| (x * 31 + y * 17) as u8);
            let mut out = Vec::new();
            session.encode(img.view(), &mut out).unwrap();
            assert_eq!(out, compress(img.view(), &cfg), "{w}x{h}");
        }
    }

    #[test]
    fn session_switches_between_depths() {
        let cfg = CodecConfig::default();
        let mut enc = EncoderSession::new(&cfg);
        let mut dec = DecoderSession::new();
        for depth in [8u8, 12, 8, 16, 10] {
            let img = Image::from_fn16(20, 14, depth, |x, y| {
                ((x * 19 + y * 7) as u32 % (1u32 << depth.min(15))) as u16
            });
            let mut out = Vec::new();
            let stats = enc.encode(img.view(), &mut out).unwrap();
            assert_eq!(out, compress(img.view(), &cfg), "depth {depth}");
            assert_eq!(stats.pixels, 20 * 14);
            let back = dec.decode(&mut &out[..]).unwrap();
            assert_eq!(back, img, "depth {depth}");
            assert_eq!(back.bit_depth(), depth);
        }
    }

    #[test]
    fn decoder_session_roundtrips_and_reuses_state() {
        let cfg = CodecConfig::default();
        let mut enc = EncoderSession::new(&cfg);
        let mut dec = DecoderSession::new();
        for (_, img) in cbic_image::corpus::generate(32) {
            let mut bytes = Vec::new();
            enc.encode(img.view(), &mut bytes).unwrap();
            assert_eq!(dec.decode(&mut &bytes[..]).unwrap(), img);
        }
    }

    #[test]
    fn decoder_session_rebuilds_on_config_change() {
        let img = CorpusImage::Barb.generate(24, 24);
        let mut dec = DecoderSession::new();
        for cfg in [
            CodecConfig::default(),
            CodecConfig {
                texture_bits: 2,
                ..CodecConfig::default()
            },
            CodecConfig {
                estimator: EstimatorConfig {
                    count_bits: 12,
                    ..EstimatorConfig::default()
                },
                ..CodecConfig::default()
            },
            CodecConfig::default(),
        ] {
            let bytes = compress(img.view(), &cfg);
            assert_eq!(dec.decode(&mut &bytes[..]).unwrap(), img, "{cfg:?}");
        }
    }

    #[test]
    fn session_rejects_oversized_dimensions() {
        let mut session = EncoderSession::new(&CodecConfig::default());
        let img = Image::from_fn(1 << 15, 1, |x, _| x as u8);
        // 2^15 x 1 is fine...
        assert!(session.encode(img.view(), &mut Vec::new()).is_ok());
        // ...but the shared container gate rejects 2^30 pixels, and the
        // session surfaces it as the structured variant.
        assert!(matches!(
            check_container_dimensions(1 << 15, 1 << 15).map_err(CbicError::from),
            Err(CbicError::InvalidContainer(_))
        ));
    }

    #[test]
    fn decoder_session_surfaces_truncation() {
        let cfg = CodecConfig::default();
        let img = CorpusImage::Goldhill.generate(48, 48);
        let bytes = compress(img.view(), &cfg);
        let mut dec = DecoderSession::new();
        let err = dec.decode(&mut &bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, CbicError::Truncated), "{err:?}");
        assert_eq!(err.io_kind(), Some(io::ErrorKind::UnexpectedEof));
        // The session stays usable after an error.
        assert_eq!(dec.decode(&mut &bytes[..]).unwrap(), img);
    }

    #[test]
    fn encoder_session_surfaces_sink_errors_with_kind() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut session = EncoderSession::new(&CodecConfig::default());
        let img = Image::from_fn(8, 8, |x, y| (x + y) as u8);
        let err = session.encode(img.view(), &mut Failing).unwrap_err();
        assert_eq!(err.io_kind(), Some(io::ErrorKind::BrokenPipe));
    }
}
