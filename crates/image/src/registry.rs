//! A registry of [`Codec`] implementations with name lookup and magic-byte
//! auto-detection.
//!
//! Tools that work over *every* codec — the CLI, the server, the Table 1
//! benchmark harness — are written once against this registry instead of
//! hard-coding one `match` arm per codec.
//! Adding a codec to the workspace then means implementing [`Codec`] and
//! registering it in one place (`cbic_universal::codecs::all_codecs`), not
//! editing every front end.

use crate::{CbicError, Codec, DecodeOptions, Image};
use std::fmt;
use std::io::Read;

/// Errors returned by [`CodecRegistry::try_register`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegistryError {
    /// A codec with this name is already registered.
    DuplicateName(String),
    /// Another registered codec already claims this container magic, so
    /// auto-detection could never reach the new codec.
    MagicCollision {
        /// The contested 4-byte magic.
        magic: [u8; 4],
        /// Codec that holds the magic.
        holder: String,
        /// Codec whose registration was rejected.
        rejected: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateName(name) => {
                write!(f, "codec name {name:?} is already registered")
            }
            Self::MagicCollision {
                magic,
                holder,
                rejected,
            } => write!(
                f,
                "magic {:?} of codec {rejected:?} collides with registered codec {holder:?}",
                String::from_utf8_lossy(magic)
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// An ordered collection of codecs, addressable by name or container magic.
///
/// Registration rejects name duplicates and magic collisions up front
/// (every magic is exactly the 4 bytes [`detect`](Self::detect) reads, so
/// two codecs sharing one would make auto-detection silently pick
/// whichever registered first).
///
/// # Examples
///
/// ```
/// use cbic_image::registry::CodecRegistry;
/// use cbic_image::{
///     CbicError, Codec, DecodeOptions, EncodeOptions, EncodeStats, Image,
///     ImageView,
/// };
/// use std::io::{Read, Write};
///
/// struct Stored;
/// impl Codec for Stored {
///     fn name(&self) -> &'static str { "stored" }
///     fn magic(&self) -> Option<[u8; 4]> { Some(*b"STOR") }
///     fn encode(
///         &self,
///         img: ImageView<'_>,
///         _opts: &EncodeOptions,
///         sink: &mut dyn Write,
///     ) -> Result<EncodeStats, CbicError> {
///         sink.write_all(b"STOR")?;
///         sink.write_all(&(img.width() as u32).to_le_bytes())?;
///         sink.write_all(&(img.height() as u32).to_le_bytes())?;
///         for row in img.rows() {
///             // Row-slice iteration: works for strided views too.
///             let bytes: Vec<u8> = row.iter().map(|&s| s as u8).collect();
///             sink.write_all(&bytes)?;
///         }
///         Ok(EncodeStats::new(
///             img.pixel_count() as u64,
///             12 + img.pixel_count() as u64,
///             None,
///         ))
///     }
///     fn decode(
///         &self,
///         source: &mut dyn Read,
///         _opts: &DecodeOptions,
///     ) -> Result<Image, CbicError> {
///         let mut head = [0u8; 12];
///         source.read_exact(&mut head)?;
///         if &head[..4] != b"STOR" {
///             return Err(CbicError::bad_magic(&head));
///         }
///         let w = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
///         let h = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
///         let mut pixels = vec![0u8; w.saturating_mul(h)];
///         source.read_exact(&mut pixels)?;
///         Image::from_vec(w, h, pixels).map_err(CbicError::from)
///     }
/// }
///
/// let mut registry = CodecRegistry::new();
/// registry.register(Box::new(Stored));
/// let img = Image::from_fn(8, 8, |x, y| (x ^ y) as u8);
/// let opts = EncodeOptions::default();
/// let bytes = registry
///     .by_name("stored")
///     .unwrap()
///     .encode_vec(img.view(), &opts)?;
/// assert_eq!(registry.detect(&bytes).unwrap().name(), "stored");
/// assert_eq!(registry.decode_auto(&bytes, &DecodeOptions::default())?, img);
/// # Ok::<(), CbicError>(())
/// ```
#[derive(Default)]
pub struct CodecRegistry {
    entries: Vec<Box<dyn Codec>>,
}

impl CodecRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a codec, rejecting registrations that would make
    /// [`by_name`](Self::by_name) or [`detect`](Self::detect) ambiguous.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateName`] when a codec with the same name is
    /// already present; [`RegistryError::MagicCollision`] when the codec's
    /// container magic is already claimed.
    pub fn try_register(&mut self, codec: Box<dyn Codec>) -> Result<(), RegistryError> {
        if self.by_name(codec.name()).is_some() {
            return Err(RegistryError::DuplicateName(codec.name().into()));
        }
        if let Some(magic) = codec.magic() {
            if let Some(holder) = self.codecs().find(|c| c.magic() == Some(magic)) {
                return Err(RegistryError::MagicCollision {
                    magic,
                    holder: holder.name().into(),
                    rejected: codec.name().into(),
                });
            }
        }
        self.entries.push(codec);
        Ok(())
    }

    /// Appends a codec.
    ///
    /// # Panics
    ///
    /// Panics on the collisions [`try_register`](Self::try_register)
    /// rejects — duplicate registration is a programming error in the
    /// registry assembly, not a runtime condition.
    pub fn register(&mut self, codec: Box<dyn Codec>) {
        if let Err(e) = self.try_register(codec) {
            panic!("invalid codec registration: {e}");
        }
    }

    /// All registered codecs, in registration order.
    pub fn codecs(&self) -> impl Iterator<Item = &dyn Codec> {
        self.entries.iter().map(AsRef::as_ref)
    }

    /// Number of registered codecs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry holds no codecs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered codec names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.codecs().map(Codec::name).collect()
    }

    /// Looks a codec up by its [`Codec::name`].
    pub fn by_name(&self, name: &str) -> Option<&dyn Codec> {
        self.codecs().find(|c| c.name() == name)
    }

    /// [`by_name`](Self::by_name) with a structured error for service
    /// code paths.
    ///
    /// # Errors
    ///
    /// [`CbicError::UnknownCodec`] when no codec answers to `name`.
    pub fn expect_name(&self, name: &str) -> Result<&dyn Codec, CbicError> {
        self.by_name(name)
            .ok_or_else(|| CbicError::UnknownCodec(name.into()))
    }

    /// Looks a codec up by its exact 4-byte container magic — the routing
    /// primitive for wire protocols that carry the magic instead of a
    /// codec name (e.g. `cbic-server` requests).
    pub fn by_magic(&self, magic: [u8; 4]) -> Option<&dyn Codec> {
        self.codecs().find(|c| c.magic() == Some(magic))
    }

    /// Identifies which codec produced `bytes` from its container magic.
    pub fn detect(&self, bytes: &[u8]) -> Option<&dyn Codec> {
        let magic: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
        self.by_magic(magic)
    }

    /// Auto-detects the producing codec and decodes the buffered
    /// container.
    ///
    /// # Errors
    ///
    /// [`CbicError::BadMagic`] when no registered codec claims the
    /// container's magic, or the detected codec's error when decoding
    /// fails.
    pub fn decode_auto(&self, bytes: &[u8], opts: &DecodeOptions) -> Result<Image, CbicError> {
        match self.detect(bytes) {
            Some(codec) => codec.decode_vec(bytes, opts),
            None => Err(CbicError::bad_magic(bytes)),
        }
    }

    /// Streaming [`decode_auto`](Self::decode_auto): reads the 4-byte
    /// magic off `input`, routes to the owning codec, and lets it consume
    /// the rest of the stream through [`Codec::decode`].
    ///
    /// # Errors
    ///
    /// [`CbicError::Truncated`]/[`CbicError::Io`] when the magic cannot be
    /// read, [`CbicError::BadMagic`] for an unclaimed magic, and the
    /// codec's own error otherwise.
    pub fn decode_stream(
        &self,
        input: &mut dyn Read,
        opts: &DecodeOptions,
    ) -> Result<Image, CbicError> {
        let mut magic = [0u8; 4];
        input.read_exact(&mut magic)?;
        let codec = self
            .detect(&magic)
            .ok_or(CbicError::BadMagic { found: Some(magic) })?;
        let mut chained = (&magic[..]).chain(input);
        codec.decode(&mut chained, opts)
    }
}

impl std::fmt::Debug for CodecRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodecRegistry")
            .field("codecs", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodeOptions, EncodeStats, ImageView};
    use std::io::Write;

    struct Fake(&'static str, [u8; 4]);

    impl Codec for Fake {
        fn name(&self) -> &'static str {
            self.0
        }
        fn magic(&self) -> Option<[u8; 4]> {
            Some(self.1)
        }
        fn encode(
            &self,
            _img: ImageView<'_>,
            _opts: &EncodeOptions,
            sink: &mut dyn Write,
        ) -> Result<EncodeStats, CbicError> {
            sink.write_all(&self.1)?;
            Ok(EncodeStats::new(1, 4, None))
        }
        fn decode(
            &self,
            _source: &mut dyn Read,
            _opts: &DecodeOptions,
        ) -> Result<Image, CbicError> {
            Ok(Image::from_fn(1, 1, |_, _| 0))
        }
    }

    fn sample() -> CodecRegistry {
        let mut r = CodecRegistry::new();
        r.register(Box::new(Fake("aaaa", *b"AAAA")));
        r.register(Box::new(Fake("bbbb", *b"BBBB")));
        r
    }

    #[test]
    fn name_lookup_and_listing() {
        let r = sample();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.names(), vec!["aaaa", "bbbb"]);
        assert_eq!(r.by_name("bbbb").unwrap().name(), "bbbb");
        assert!(r.by_name("cccc").is_none());
        assert!(matches!(
            r.expect_name("cccc"),
            Err(CbicError::UnknownCodec(name)) if name == "cccc"
        ));
    }

    #[test]
    fn detection_by_magic() {
        let r = sample();
        assert_eq!(r.by_magic(*b"AAAA").unwrap().name(), "aaaa");
        assert!(r.by_magic(*b"ZZZZ").is_none());
        assert_eq!(r.detect(b"BBBBxyz").unwrap().name(), "bbbb");
        assert!(r.detect(b"ZZZZ").is_none());
        assert!(r.detect(b"AB").is_none());
        assert!(r.detect(b"").is_none());
    }

    #[test]
    fn auto_decode_reports_unknown_magic() {
        let r = sample();
        let err = r
            .decode_auto(b"ZZZZ....", &DecodeOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, CbicError::BadMagic { found: Some(m) } if &m == b"ZZZZ"),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut r = sample();
        let err = r
            .try_register(Box::new(Fake("aaaa", *b"CCCC")))
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateName("aaaa".into()));
        assert_eq!(r.len(), 2, "rejected codec must not be kept");
    }

    #[test]
    fn rejects_magic_collisions() {
        let mut r = sample();
        let err = r
            .try_register(Box::new(Fake("cccc", *b"AAAA")))
            .unwrap_err();
        assert_eq!(
            err,
            RegistryError::MagicCollision {
                magic: *b"AAAA",
                holder: "aaaa".into(),
                rejected: "cccc".into(),
            }
        );
        assert!(err.to_string().contains("AAAA"), "{err}");
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid codec registration")]
    fn register_panics_on_collision() {
        let mut r = sample();
        r.register(Box::new(Fake("dddd", *b"BBBB")));
    }

    #[test]
    fn magicless_codecs_always_register() {
        struct NoMagic;
        impl Codec for NoMagic {
            fn name(&self) -> &'static str {
                "nomagic"
            }
            fn encode(
                &self,
                _img: ImageView<'_>,
                _opts: &EncodeOptions,
                _sink: &mut dyn Write,
            ) -> Result<EncodeStats, CbicError> {
                Ok(EncodeStats::default())
            }
            fn decode(
                &self,
                _source: &mut dyn Read,
                _opts: &DecodeOptions,
            ) -> Result<Image, CbicError> {
                Ok(Image::from_fn(1, 1, |_, _| 0))
            }
        }
        let mut r = sample();
        r.try_register(Box::new(NoMagic)).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn stream_decode_routes_by_magic() {
        let r = sample();
        let opts = DecodeOptions::default();
        let mut input = &b"AAAAtail"[..];
        assert_eq!(
            r.decode_stream(&mut input, &opts).unwrap(),
            Image::from_fn(1, 1, |_, _| 0)
        );
        let mut unknown = &b"ZZZZ...."[..];
        assert!(matches!(
            r.decode_stream(&mut unknown, &opts),
            Err(CbicError::BadMagic { .. })
        ));
        let mut short = &b"AB"[..];
        assert!(matches!(
            r.decode_stream(&mut short, &opts),
            Err(CbicError::Truncated)
        ));
    }
}
