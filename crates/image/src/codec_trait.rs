//! The unified interface over the workspace's lossless image codecs.
//!
//! One trait, [`Codec`], covers what used to be three surfaces: the
//! buffered `ImageCodec`, the `StreamingCodec` extension, and the free
//! tiled entry points. The *sink/source* methods ([`Codec::encode`],
//! [`Codec::decode`]) are primary; the buffered `Vec<u8>` methods are thin
//! conveniences layered on top, and size queries run through a
//! [`CountingSink`] so they never materialize the container.
//!
//! Encoding consumes a borrowed [`ImageView`], not an owned `Image`:
//! sub-image windows (tile bands, crops) are coded zero-copy, and an owned
//! [`Image`] lends its view with [`Image::view`]. Sample depth travels on
//! the view (`bit_depth`, 8–16 bits), so deep imagery flows through the
//! same trait.

use crate::{CbicError, DecodeOptions, EncodeOptions, Image, ImageView};
use std::io::{self, Read, Write};

/// A [`Write`] sink that counts bytes instead of (or in addition to)
/// storing them.
///
/// `CountingSink::new()` counts into the void — the backing of the
/// [`Codec::measure`] path, which answers "how many bits would this image
/// cost?" without allocating the container. `CountingSink::wrap(w)` counts
/// while forwarding to a real writer, which is how codec implementations
/// report [`EncodeStats::container_bytes`] exactly.
///
/// # Examples
///
/// ```
/// use cbic_image::CountingSink;
/// use std::io::Write;
///
/// let mut sink = CountingSink::new();
/// sink.write_all(b"12345").unwrap();
/// assert_eq!(sink.bytes_written(), 5);
///
/// let mut tee = CountingSink::wrap(Vec::new());
/// tee.write_all(b"abc").unwrap();
/// assert_eq!(tee.bytes_written(), 3);
/// assert_eq!(tee.into_inner(), b"abc");
/// ```
#[derive(Debug)]
pub struct CountingSink<W = io::Sink> {
    inner: W,
    bytes: u64,
}

impl CountingSink {
    /// A sink that discards the bytes and keeps only the count.
    pub fn new() -> Self {
        Self {
            inner: io::sink(),
            bytes: 0,
        }
    }
}

impl Default for CountingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: Write> CountingSink<W> {
    /// Counts bytes while forwarding them to `inner`.
    pub fn wrap(inner: W) -> CountingSink<W> {
        CountingSink { inner, bytes: 0 }
    }

    /// Bytes successfully written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Consumes the sink, returning the wrapped writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CountingSink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What one [`Codec::encode`] call produced.
///
/// `container_bytes` is always exact (every codec counts what it writes);
/// `payload_bits` is the entropy-coded payload alone, excluding container
/// framing — the quantity the paper's Table 1 reports — filled by codecs
/// that track it and `None` otherwise.
///
/// The struct is `#[non_exhaustive]`; construct it with
/// [`EncodeStats::new`].
///
/// # Examples
///
/// ```
/// use cbic_image::EncodeStats;
///
/// let stats = EncodeStats::new(256, 64, Some(480));
/// assert_eq!(stats.bits_per_pixel(), 2.0);
/// assert_eq!(stats.payload_bits_per_pixel(), 1.875);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EncodeStats {
    /// Pixels coded.
    pub pixels: u64,
    /// Total container bytes written (header + payload).
    pub container_bytes: u64,
    /// Exact entropy-coded payload bits, when the codec tracks them.
    pub payload_bits: Option<u64>,
}

impl EncodeStats {
    /// Assembles the stats of one encode call.
    pub fn new(pixels: u64, container_bytes: u64, payload_bits: Option<u64>) -> Self {
        Self {
            pixels,
            container_bytes,
            payload_bits,
        }
    }

    /// Whole-container bit rate in bits per pixel.
    pub fn bits_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            0.0
        } else {
            self.container_bytes as f64 * 8.0 / self.pixels as f64
        }
    }

    /// Bit rate of the entropy-coded payload alone (Table 1's unit),
    /// falling back to the full container when the codec does not track
    /// payload bits separately.
    pub fn payload_bits_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            return 0.0;
        }
        match self.payload_bits {
            Some(bits) => bits as f64 / self.pixels as f64,
            None => self.bits_per_pixel(),
        }
    }
}

/// A lossless grayscale image codec with a self-describing container:
/// the single surface every codec in the workspace implements.
///
/// The required methods are *session-friendly streams*: [`encode`] reads
/// pixels from a zero-copy [`ImageView`] and writes the container into any
/// [`Write`]; [`decode`] reads one container from any [`Read`], so pipes,
/// sockets, and files all work without intermediate buffers. The provided
/// methods derive the buffered and measuring conveniences from them.
///
/// [`encode`]: Self::encode
/// [`decode`]: Self::decode
///
/// # Contract
///
/// For every view `img` and options `opts`, decoding the bytes written by
/// `encode(img, opts, sink)` must reproduce `img`'s pixels (and bit depth)
/// exactly, under *any* decode options — options select schedules and
/// transports, never bits. The bits may not depend on the view's stride:
/// a strided window encodes identically to its contiguous copy.
///
/// # Examples
///
/// ```
/// use cbic_image::{
///     CbicError, Codec, DecodeOptions, EncodeOptions, EncodeStats, Image,
///     ImageView,
/// };
/// use std::io::{Read, Write};
///
/// /// A trivial stored-only "codec" demonstrating the contract
/// /// (8-bit only, for brevity).
/// struct Stored;
///
/// impl Codec for Stored {
///     fn name(&self) -> &'static str {
///         "stored"
///     }
///     fn encode(
///         &self,
///         img: ImageView<'_>,
///         _opts: &EncodeOptions,
///         sink: &mut dyn Write,
///     ) -> Result<EncodeStats, CbicError> {
///         sink.write_all(&(img.width() as u32).to_le_bytes())?;
///         sink.write_all(&(img.height() as u32).to_le_bytes())?;
///         for row in img.rows() {
///             let bytes: Vec<u8> = row.iter().map(|&s| s as u8).collect();
///             sink.write_all(&bytes)?; // row-slice iteration, stride-blind
///         }
///         let bytes = 8 + img.pixel_count() as u64;
///         Ok(EncodeStats::new(img.pixel_count() as u64, bytes, None))
///     }
///     fn decode(
///         &self,
///         source: &mut dyn Read,
///         _opts: &DecodeOptions,
///     ) -> Result<Image, CbicError> {
///         let mut dims = [0u8; 8];
///         source.read_exact(&mut dims)?; // EOF becomes CbicError::Truncated
///         let w = u32::from_le_bytes(dims[0..4].try_into().unwrap()) as usize;
///         let h = u32::from_le_bytes(dims[4..8].try_into().unwrap()) as usize;
///         let mut pixels = vec![0u8; w.saturating_mul(h)];
///         source.read_exact(&mut pixels)?;
///         Image::from_vec(w, h, pixels).map_err(CbicError::from)
///     }
/// }
///
/// let img = Image::from_fn(4, 4, |x, y| (x + y) as u8);
/// let codec: &dyn Codec = &Stored;
/// let opts = EncodeOptions::default();
/// let bytes = codec.encode_vec(img.view(), &opts)?;
/// assert_eq!(codec.decode_vec(&bytes, &DecodeOptions::default())?, img);
/// // Size queries never materialize the container:
/// assert_eq!(codec.bits_per_pixel(img.view(), &opts)?, 12.0); // 8 header bytes on 16 px
/// // A zero-copy band encodes without touching the rest of the image:
/// let band = img.view().row_range(1, 2);
/// let band_bytes = codec.encode_vec(band, &opts)?;
/// assert_eq!(
///     codec.decode_vec(&band_bytes, &DecodeOptions::default())?,
///     band.to_image()
/// );
/// # Ok::<(), CbicError>(())
/// ```
pub trait Codec: Send + Sync {
    /// Short identifier (Table 1 column name).
    fn name(&self) -> &'static str;

    /// The 4-byte container magic, when the codec's output is
    /// self-describing. Codecs that return `Some` participate in
    /// magic-byte auto-detection through
    /// [`CodecRegistry::detect`](crate::registry::CodecRegistry::detect).
    fn magic(&self) -> Option<[u8; 4]> {
        None
    }

    /// The sample bit depths this codec encodes, as an inclusive
    /// `(min, max)` range. The workspace codecs all answer `(1, 16)`;
    /// front ends can consult this before routing deep imagery.
    fn bit_depths(&self) -> (u8, u8) {
        (1, 16)
    }

    /// Encodes the pixels of `img` into a self-describing container
    /// written to `sink`, returning what it cost.
    ///
    /// # Errors
    ///
    /// [`CbicError::Io`] when the sink fails (kind preserved), and
    /// codec-specific structured errors otherwise.
    fn encode(
        &self,
        img: ImageView<'_>,
        opts: &EncodeOptions,
        sink: &mut dyn Write,
    ) -> Result<EncodeStats, CbicError>;

    /// Reads one container from `source` and decodes it.
    ///
    /// Implementations consume exactly one container where the framing
    /// allows it; codecs whose container has no length information may
    /// consume the source to end-of-stream (suiting one-container streams:
    /// files and pipes, not multiplexed transports).
    ///
    /// # Errors
    ///
    /// [`CbicError::Truncated`] when the stream ends early,
    /// [`CbicError::Io`] on transport failures (kind preserved), and the
    /// structured container errors otherwise.
    fn decode(&self, source: &mut dyn Read, opts: &DecodeOptions) -> Result<Image, CbicError>;

    /// Buffered convenience over [`encode`](Self::encode): the container
    /// as a `Vec<u8>`.
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode) (a `Vec` sink itself cannot fail).
    fn encode_vec(&self, img: ImageView<'_>, opts: &EncodeOptions) -> Result<Vec<u8>, CbicError> {
        let mut out = Vec::new();
        self.encode(img, opts, &mut out)?;
        Ok(out)
    }

    /// Buffered convenience over [`decode`](Self::decode).
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    fn decode_vec(&self, bytes: &[u8], opts: &DecodeOptions) -> Result<Image, CbicError> {
        let mut source = bytes;
        self.decode(&mut source, opts)
    }

    /// Encodes into a [`CountingSink`], returning the stats without ever
    /// materializing the container.
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode).
    fn measure(&self, img: ImageView<'_>, opts: &EncodeOptions) -> Result<EncodeStats, CbicError> {
        let mut sink = CountingSink::new();
        self.encode(img, opts, &mut sink)
    }

    /// Compressed container size in bits per pixel, measured through a
    /// [`CountingSink`] (one encode pass, no container buffer).
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode).
    fn bits_per_pixel(&self, img: ImageView<'_>, opts: &EncodeOptions) -> Result<f64, CbicError> {
        Ok(self.measure(img, opts)?.bits_per_pixel())
    }

    /// Bits per pixel of the entropy-coded payload alone (the paper's
    /// Table 1 quantity), from the same single counting pass as
    /// [`bits_per_pixel`](Self::bits_per_pixel).
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode).
    fn payload_bits_per_pixel(
        &self,
        img: ImageView<'_>,
        opts: &EncodeOptions,
    ) -> Result<f64, CbicError> {
        Ok(self.measure(img, opts)?.payload_bits_per_pixel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stored;

    impl Codec for Stored {
        fn name(&self) -> &'static str {
            "stored"
        }
        fn encode(
            &self,
            img: ImageView<'_>,
            _opts: &EncodeOptions,
            sink: &mut dyn Write,
        ) -> Result<EncodeStats, CbicError> {
            sink.write_all(&(img.width() as u32).to_le_bytes())?;
            sink.write_all(&(img.height() as u32).to_le_bytes())?;
            for row in img.rows() {
                let bytes: Vec<u8> = row.iter().map(|&s| s as u8).collect();
                sink.write_all(&bytes)?;
            }
            Ok(EncodeStats::new(
                img.pixel_count() as u64,
                8 + img.pixel_count() as u64,
                None,
            ))
        }
        fn decode(&self, source: &mut dyn Read, _opts: &DecodeOptions) -> Result<Image, CbicError> {
            let mut dims = [0u8; 8];
            source.read_exact(&mut dims)?;
            let w = u32::from_le_bytes(dims[0..4].try_into().unwrap()) as usize;
            let h = u32::from_le_bytes(dims[4..8].try_into().unwrap()) as usize;
            let mut pixels = vec![0u8; w.saturating_mul(h)];
            source.read_exact(&mut pixels)?;
            Image::from_vec(w, h, pixels).map_err(CbicError::from)
        }
    }

    #[test]
    fn buffered_conveniences_match_streams() {
        let img = Image::from_fn(5, 3, |x, y| (x * y) as u8);
        let opts = EncodeOptions::default();
        let buffered = Stored.encode_vec(img.view(), &opts).unwrap();
        let mut streamed = Vec::new();
        let stats = Stored.encode(img.view(), &opts, &mut streamed).unwrap();
        assert_eq!(buffered, streamed);
        assert_eq!(stats.container_bytes, buffered.len() as u64);
        assert_eq!(
            Stored
                .decode_vec(&buffered, &DecodeOptions::default())
                .unwrap(),
            img
        );
    }

    #[test]
    fn strided_views_encode_like_their_copies() {
        let img = Image::from_fn(9, 7, |x, y| (x * 13 + y * 29) as u8);
        let opts = EncodeOptions::default();
        let window = img.view().crop(2, 1, 5, 4);
        assert!(!window.is_contiguous());
        let from_view = Stored.encode_vec(window, &opts).unwrap();
        let from_copy = Stored.encode_vec(window.to_image().view(), &opts).unwrap();
        assert_eq!(from_view, from_copy, "bits must not depend on the stride");
    }

    #[test]
    fn measure_never_materializes_but_counts_exactly() {
        let img = Image::from_fn(8, 8, |x, _| x as u8);
        let opts = EncodeOptions::default();
        let stats = Stored.measure(img.view(), &opts).unwrap();
        assert_eq!(stats.container_bytes, 8 + 64);
        assert_eq!(
            Stored.bits_per_pixel(img.view(), &opts).unwrap(),
            72.0 * 8.0 / 64.0
        );
        assert_eq!(
            Stored.payload_bits_per_pixel(img.view(), &opts).unwrap(),
            Stored.bits_per_pixel(img.view(), &opts).unwrap(),
            "no payload_bits tracked -> falls back to container size"
        );
    }

    #[test]
    fn truncated_decode_surfaces_structured_error() {
        let img = Image::from_fn(4, 4, |_, _| 9);
        let bytes = Stored
            .encode_vec(img.view(), &EncodeOptions::default())
            .unwrap();
        let err = Stored
            .decode_vec(&bytes[..bytes.len() - 3], &DecodeOptions::default())
            .unwrap_err();
        assert!(matches!(err, CbicError::Truncated));
        assert_eq!(err.io_kind(), Some(io::ErrorKind::UnexpectedEof));
    }

    #[test]
    fn failing_sink_preserves_error_kind() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let img = Image::from_fn(2, 2, |_, _| 7);
        let err = Stored
            .encode(img.view(), &EncodeOptions::default(), &mut Failing)
            .unwrap_err();
        assert_eq!(err.io_kind(), Some(io::ErrorKind::StorageFull));
    }

    #[test]
    fn trait_objects_stream() {
        let codec: &dyn Codec = &Stored;
        let img = Image::from_fn(3, 3, |x, _| x as u8);
        let mut sink = Vec::new();
        codec
            .encode(img.view(), &EncodeOptions::default(), &mut sink)
            .unwrap();
        let mut source: &[u8] = &sink;
        assert_eq!(
            codec
                .decode(&mut source, &DecodeOptions::default())
                .unwrap(),
            img
        );
    }

    #[test]
    fn default_bit_depth_range_is_full() {
        assert_eq!(Stored.bit_depths(), (1, 16));
    }

    #[test]
    fn counting_sink_tracks_partial_writes() {
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CountingSink::wrap(Trickle(Vec::new()));
        sink.write_all(b"0123456789").unwrap();
        assert_eq!(sink.bytes_written(), 10);
        assert_eq!(sink.into_inner().0, b"0123456789");
    }
}
