//! The workspace-wide error type.
//!
//! Every fallible entry point of the codec crates, on the unified
//! [`Codec`](crate::Codec) surface and off it, returns [`CbicError`], so a
//! service front end holds one `match` for every codec in the registry.
//! Two domain errors with fields of their own nest inside it and convert
//! into it via `From`: [`ImageError`] and [`RegistryError`].

use crate::{ImageError, RegistryError};
use std::fmt;
use std::io;

/// The unified error type of the codec workspace.
///
/// Variants are structured — a caller can match on [`Truncated`]
/// (`CbicError::Truncated`) without parsing strings — and the [`Io`]
/// (`CbicError::Io`) variant carries the full [`std::io::Error`], so the
/// underlying [`io::ErrorKind`] is never lost. The enum is
/// `#[non_exhaustive]`: new failure classes may appear without a breaking
/// change, so always keep a `_` arm.
///
/// Mid-stream end-of-file is normalized: [`From<io::Error>`] maps
/// [`io::ErrorKind::UnexpectedEof`] to [`CbicError::Truncated`], and
/// [`CbicError::io_kind`] maps it back, so the kind survives the round
/// trip either way.
///
/// [`Truncated`]: Self::Truncated
/// [`Io`]: Self::Io
///
/// # Examples
///
/// ```
/// use cbic_image::CbicError;
/// use std::io;
///
/// let e = CbicError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "cut"));
/// assert!(matches!(e, CbicError::Truncated));
/// assert_eq!(e.io_kind(), Some(io::ErrorKind::UnexpectedEof));
///
/// let e = CbicError::from(io::Error::new(io::ErrorKind::PermissionDenied, "ro"));
/// assert_eq!(e.io_kind(), Some(io::ErrorKind::PermissionDenied));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum CbicError {
    /// The stream does not start with a recognized container magic.
    BadMagic {
        /// The magic bytes actually found, when enough were readable.
        found: Option<[u8; 4]>,
    },
    /// The container declares a version this build does not support.
    UnsupportedVersion(u8),
    /// The container declares a codec identifier this build does not know.
    UnsupportedCodec(u8),
    /// The stream ended before its declared content did (short header, or
    /// a payload cut off mid-image).
    Truncated,
    /// A header or framing field holds a value no encoder produces.
    InvalidContainer(String),
    /// No registered codec answers to this name.
    UnknownCodec(String),
    /// Image construction or PGM parsing failed.
    Image(ImageError),
    /// Codec registration failed (duplicate name or magic collision).
    Registry(RegistryError),
    /// An underlying transport failure, with its [`io::ErrorKind`]
    /// preserved. End-of-file is normalized to [`Self::Truncated`] instead.
    Io(io::Error),
}

impl CbicError {
    /// Builds [`CbicError::BadMagic`] from the first bytes of a stream.
    pub fn bad_magic(bytes: &[u8]) -> Self {
        Self::BadMagic {
            found: bytes.get(..4).map(|b| b.try_into().expect("sized")),
        }
    }

    /// The underlying [`io::ErrorKind`], when this error corresponds to
    /// one: the preserved kind for [`Self::Io`], and
    /// [`io::ErrorKind::UnexpectedEof`] for [`Self::Truncated`] (a
    /// truncated decode *is* an unexpected end-of-file, whichever layer
    /// detected it).
    pub fn io_kind(&self) -> Option<io::ErrorKind> {
        match self {
            Self::Io(e) => Some(e.kind()),
            Self::Truncated => Some(io::ErrorKind::UnexpectedEof),
            _ => None,
        }
    }
}

impl fmt::Display for CbicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic { found: Some(m) } => {
                write!(
                    f,
                    "unrecognized container magic {:?}",
                    String::from_utf8_lossy(m)
                )
            }
            Self::BadMagic { found: None } => write!(f, "missing container magic"),
            // The CBIC container's retired versions, the only ones a
            // reader refuses by number.
            Self::UnsupportedVersion(3) => write!(
                f,
                "unsupported container version 3: the lane-interleaved format is retired"
            ),
            Self::UnsupportedVersion(5) => write!(
                f,
                "unsupported container version 5: the wide-hash context model is retired"
            ),
            Self::UnsupportedVersion(v) => write!(f, "unsupported container version {v}"),
            Self::UnsupportedCodec(c) => write!(f, "unsupported codec id {c}"),
            Self::Truncated => write!(f, "truncated container"),
            Self::InvalidContainer(msg) => write!(f, "invalid container: {msg}"),
            Self::UnknownCodec(name) => write!(f, "unknown codec {name:?}"),
            Self::Image(e) => write!(f, "image error: {e}"),
            Self::Registry(e) => write!(f, "registry error: {e}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CbicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Image(e) => Some(e),
            Self::Registry(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CbicError {
    /// Preserves the error kind; [`io::ErrorKind::UnexpectedEof`] is
    /// normalized to [`CbicError::Truncated`] (recoverable through
    /// [`CbicError::io_kind`]).
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Self::Truncated
        } else {
            Self::Io(e)
        }
    }
}

impl From<ImageError> for CbicError {
    fn from(e: ImageError) -> Self {
        match e {
            ImageError::Io(msg) => Self::Io(io::Error::other(msg)),
            other => Self::Image(other),
        }
    }
}

impl From<RegistryError> for CbicError {
    fn from(e: RegistryError) -> Self {
        Self::Registry(e)
    }
}

impl From<CbicError> for io::Error {
    /// Embeds the error in `std::io` plumbing without losing the kind:
    /// [`CbicError::Io`] unwraps, [`CbicError::Truncated`] maps to
    /// [`io::ErrorKind::UnexpectedEof`], everything else becomes
    /// [`io::ErrorKind::InvalidData`] with the error as source.
    fn from(e: CbicError) -> Self {
        match e {
            CbicError::Io(inner) => inner,
            CbicError::Truncated => io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()),
            other => io::Error::new(io::ErrorKind::InvalidData, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eof_normalizes_to_truncated_and_back() {
        let e = CbicError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "cut"));
        assert!(matches!(e, CbicError::Truncated));
        assert_eq!(e.io_kind(), Some(io::ErrorKind::UnexpectedEof));
        let back = io::Error::from(e);
        assert_eq!(back.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn io_kind_is_preserved() {
        for kind in [
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::WriteZero,
        ] {
            let e = CbicError::from(io::Error::new(kind, "transport"));
            assert_eq!(e.io_kind(), Some(kind), "{kind:?}");
            assert_eq!(io::Error::from(e).kind(), kind, "{kind:?}");
        }
    }

    #[test]
    fn image_error_conversion_is_structured() {
        let e = CbicError::from(ImageError::EmptyImage);
        assert!(matches!(e, CbicError::Image(ImageError::EmptyImage)));
        let e = CbicError::from(ImageError::Io("disk on fire".into()));
        assert!(matches!(e, CbicError::Io(_)));
    }

    #[test]
    fn registry_error_conversion_keeps_source() {
        use std::error::Error as _;
        let e = CbicError::from(RegistryError::DuplicateName("proposed".into()));
        assert!(matches!(e, CbicError::Registry(_)));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("proposed"));
    }

    #[test]
    fn bad_magic_captures_found_bytes() {
        let e = CbicError::bad_magic(b"WXYZrest");
        assert!(matches!(e, CbicError::BadMagic { found: Some(m) } if &m == b"WXYZ"));
        assert!(CbicError::bad_magic(b"ab").io_kind().is_none());
        assert!(matches!(
            CbicError::bad_magic(b"ab"),
            CbicError::BadMagic { found: None }
        ));
    }

    #[test]
    fn display_messages_are_informative() {
        assert!(CbicError::bad_magic(b"WXYZ").to_string().contains("WXYZ"));
        assert!(CbicError::UnsupportedVersion(9).to_string().contains('9'));
        for (v, names) in [(3, "lane-interleaved"), (5, "wide-hash")] {
            let msg = CbicError::UnsupportedVersion(v).to_string();
            assert!(
                msg.contains(&format!("version {v}")) && msg.contains(names),
                "{msg}"
            );
            assert!(msg.contains("retired"), "{msg}");
        }
        assert!(CbicError::UnknownCodec("zstd".into())
            .to_string()
            .contains("zstd"));
        assert!(CbicError::Truncated.to_string().contains("truncated"));
    }
}
