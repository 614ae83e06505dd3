//! Typed options for the unified [`Codec`](crate::Codec) surface.
//!
//! The knobs that used to be scattered across free functions and codec
//! struct fields — worker-thread counts, tiling geometry — travel in
//! [`EncodeOptions`] / [`DecodeOptions`] instead, so every codec is called
//! the same way and new knobs can be added without breaking signatures
//! (both structs are `#[non_exhaustive]`; build them with the `with_*`
//! methods).

/// How many worker threads a codec with a parallel path may use.
///
/// The choice never changes the produced bytes — only the wall-clock time.
/// Codecs without a parallel path ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker, which takes the jobs one after another (the reference
    /// path). It runs on the calling thread; an encoder may still hand
    /// its binary coder to one helper thread when more than one CPU is
    /// available, as the proposed codec's two-stage grid entry point
    /// does, with the same bytes.
    #[default]
    Sequential,
    /// Up to this many worker threads via [`std::thread::scope`]. `0` and
    /// `1` degrade to [`Parallelism::Sequential`].
    Threads(usize),
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Parallelism {
    /// CLI helper: maps a `--threads N` value (`0`/`1` meaning one worker,
    /// [`Parallelism::Sequential`]) onto the matching variant.
    pub fn from_threads(n: usize) -> Self {
        if n <= 1 {
            Self::Sequential
        } else {
            Self::Threads(n)
        }
    }

    /// Number of workers to spawn for `jobs` independent jobs.
    pub fn workers(self, jobs: usize) -> usize {
        let cap = match self {
            Self::Sequential => 1,
            Self::Threads(n) => n.max(1),
            Self::Auto => std::thread::available_parallelism().map_or(1, usize::from),
        };
        cap.min(jobs.max(1))
    }
}

/// A rectangular region of an image, in pixels.
///
/// Used by [`DecodeOptions::with_roi`] to request a random-access crop
/// decode: codecs with a seekable tile index (container v4 of the
/// proposed codec) decode only the tiles covering the rectangle, while
/// other codecs decode the full image and crop. Either way the returned
/// image is exactly `w`×`h` with its origin at `(x, y)` of the source.
///
/// # Examples
///
/// ```
/// use cbic_image::Rect;
///
/// let r = Rect::new(10, 20, 30, 40);
/// assert_eq!((r.x, r.y, r.w, r.h), (10, 20, 30, 40));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Left edge, in pixels from the image's left edge.
    pub x: u32,
    /// Top edge, in pixels from the image's top edge.
    pub y: u32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Rect {
    /// A rectangle of `w`×`h` pixels whose top-left corner is `(x, y)`.
    pub fn new(x: u32, y: u32, w: u32, h: u32) -> Self {
        Self { x, y, w, h }
    }
}

/// Typed knobs for [`Codec::encode`](crate::Codec::encode).
///
/// The codec-specific model configuration (e.g. `cbic-core`'s
/// `CodecConfig`) stays on the codec value itself; these options carry the
/// orchestration knobs every codec understands the same way.
///
/// # Examples
///
/// ```
/// use cbic_image::{EncodeOptions, Parallelism};
///
/// let opts = EncodeOptions::new()
///     .with_parallelism(Parallelism::Threads(4))
///     .with_tile(256, 256);
/// assert_eq!(opts.parallelism, Parallelism::Threads(4));
/// assert_eq!(opts.tile, Some((256, 256)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EncodeOptions {
    /// Worker threads for codecs with a parallel encode path (the
    /// proposed codec's tile grid codes its tiles on these workers).
    pub parallelism: Parallelism,
    /// 2D tile size `(tile_w, tile_h)` for codecs with a seekable tile
    /// grid (container v4 of the proposed codec). `None` keeps the flat
    /// single-stream container. Codecs without a grid path ignore it;
    /// grid-aware codecs validate the geometry themselves.
    pub tile: Option<(u32, u32)>,
}

impl Default for EncodeOptions {
    /// [`Parallelism::Auto`], no tile grid.
    fn default() -> Self {
        Self {
            parallelism: Parallelism::Auto,
            tile: None,
        }
    }
}

impl EncodeOptions {
    /// The default options ([`Parallelism::Auto`], no tile grid).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Requests a 2D tile grid of `tile_w`×`tile_h`-pixel tiles from
    /// grid-aware codecs (container v4 of the proposed codec).
    pub fn with_tile(mut self, tile_w: u32, tile_h: u32) -> Self {
        self.tile = Some((tile_w, tile_h));
        self
    }
}

/// Typed knobs for [`Codec::decode`](crate::Codec::decode).
///
/// # Examples
///
/// ```
/// use cbic_image::{DecodeOptions, Parallelism};
///
/// let opts = DecodeOptions::new().with_parallelism(Parallelism::Sequential);
/// assert_eq!(opts.parallelism, Parallelism::Sequential);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct DecodeOptions {
    /// Worker threads for codecs with a parallel decode path.
    pub parallelism: Parallelism,
    /// Region of interest: decode only this rectangle of the image. This
    /// is the one option that changes the *returned pixels* (a `w`×`h`
    /// crop instead of the full image), never the interpretation of the
    /// container bytes. Codecs with a seekable tile index touch only the
    /// covering tiles; others decode fully and crop. `None` (the default)
    /// decodes the whole image.
    pub roi: Option<Rect>,
}

impl Default for DecodeOptions {
    /// [`Parallelism::Auto`], full-image decode.
    fn default() -> Self {
        Self {
            parallelism: Parallelism::Auto,
            roi: None,
        }
    }
}

impl DecodeOptions {
    /// The default options ([`Parallelism::Auto`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Requests a region-of-interest decode: only `roi` is returned.
    pub fn with_roi(mut self, roi: Rect) -> Self {
        self.roi = Some(roi);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_threads_degrades_small_counts() {
        assert_eq!(Parallelism::from_threads(0), Parallelism::Sequential);
        assert_eq!(Parallelism::from_threads(1), Parallelism::Sequential);
        assert_eq!(Parallelism::from_threads(8), Parallelism::Threads(8));
    }

    #[test]
    fn workers_bounded_by_jobs() {
        assert_eq!(Parallelism::Sequential.workers(10), 1);
        assert_eq!(Parallelism::Threads(4).workers(10), 4);
        assert_eq!(Parallelism::Threads(4).workers(2), 2);
        assert_eq!(Parallelism::Threads(0).workers(5), 1);
        assert!(Parallelism::Auto.workers(64) >= 1);
        assert_eq!(Parallelism::Auto.workers(0), 1);
    }

    #[test]
    fn builders_set_fields() {
        assert_eq!(EncodeOptions::default().tile, None);
        assert_eq!(
            EncodeOptions::new().with_tile(256, 128).tile,
            Some((256, 128))
        );
        let d = DecodeOptions::new().with_parallelism(Parallelism::Threads(2));
        assert_eq!(d.parallelism, Parallelism::Threads(2));
        assert_eq!(d.roi, None);
        let r = DecodeOptions::new().with_roi(Rect::new(1, 2, 3, 4));
        assert_eq!(r.roi, Some(Rect::new(1, 2, 3, 4)));
    }
}
