//! The grayscale image container: owned, contiguous `u16` samples at an
//! 8–16-bit depth, lending zero-copy [`ImageView`]s to the codecs.

use crate::view::{ImageView, ImageViewMut};
use crate::{CbicError, Rect};
use std::fmt;

/// Errors produced by image construction and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageError {
    /// Pixel buffer length does not equal `width * height`.
    DimensionMismatch {
        /// Declared width.
        width: usize,
        /// Declared height.
        height: usize,
        /// Actual buffer length.
        len: usize,
    },
    /// Width or height is zero.
    EmptyImage,
    /// Bit depth outside the supported `1..=16` range.
    UnsupportedBitDepth(u8),
    /// A sample does not fit the declared bit depth.
    SampleOutOfRange {
        /// The offending sample value.
        value: u16,
        /// The largest value the bit depth allows.
        max_val: u16,
    },
    /// A view's geometry (stride, buffer length) is inconsistent.
    InvalidView(String),
    /// A PGM stream could not be parsed.
    PgmParse(String),
    /// A compressed container could not be parsed (used by codec
    /// implementations to surface their codec-specific errors).
    Codec(String),
    /// Underlying I/O failure (message form, to keep the error `Clone`).
    Io(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch { width, height, len } => write!(
                f,
                "pixel buffer of {len} samples does not match {width}x{height} image"
            ),
            Self::EmptyImage => write!(f, "image dimensions must be nonzero"),
            Self::UnsupportedBitDepth(d) => {
                write!(f, "bit depth {d} outside the supported 1..=16 range")
            }
            Self::SampleOutOfRange { value, max_val } => {
                write!(f, "sample {value} exceeds the bit-depth maximum {max_val}")
            }
            Self::InvalidView(msg) => write!(f, "invalid view geometry: {msg}"),
            Self::PgmParse(msg) => write!(f, "invalid PGM stream: {msg}"),
            Self::Codec(msg) => write!(f, "invalid compressed container: {msg}"),
            Self::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<std::io::Error> for ImageError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// Largest sample value representable at `bit_depth` bits
/// (`2^bit_depth − 1`) — the one place the depth-16 edge case lives.
///
/// # Examples
///
/// ```
/// assert_eq!(cbic_image::max_val_for(8), 255);
/// assert_eq!(cbic_image::max_val_for(16), u16::MAX);
/// ```
#[inline]
pub fn max_val_for(bit_depth: u8) -> u16 {
    debug_assert!((1..=16).contains(&bit_depth));
    if bit_depth == 16 {
        u16::MAX
    } else {
        (1u16 << bit_depth) - 1
    }
}

/// A grayscale image in row-major order: `u16` samples at a declared
/// 8–16-bit depth (depths down to 1 are accepted for completeness).
///
/// This is the *owned* pixel container; every codec consumes the borrowed
/// [`ImageView`] it lends through [`Self::view`]. 8-bit images (the
/// paper's n = 8) remain the fast path and the default of every
/// constructor that does not name a depth.
///
/// # Examples
///
/// ```
/// use cbic_image::Image;
///
/// let img = Image::from_fn(4, 2, |x, y| (x * 10 + y) as u8);
/// assert_eq!(img.get(3, 1), 31);
/// assert_eq!(img.bit_depth(), 8);
/// assert_eq!(img.samples().len(), 8);
///
/// let deep = Image::from_fn16(4, 2, 12, |x, y| (x * 1000 + y) as u16);
/// assert_eq!(deep.max_val(), 4095);
/// assert_eq!(deep.view().row(1)[3], 3001);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Image {
    width: usize,
    height: usize,
    bit_depth: u8,
    data: Vec<u16>,
}

impl Image {
    /// Creates a black (all-zero) 8-bit image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Self::with_depth(width, height, 8)
    }

    /// Creates a black (all-zero) image at the given bit depth.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the depth is outside `1..=16`.
    pub fn with_depth(width: usize, height: usize, bit_depth: u8) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert!(
            (1..=16).contains(&bit_depth),
            "bit depth {bit_depth} outside 1..=16"
        );
        Self {
            width,
            height,
            bit_depth,
            data: vec![0; width * height],
        }
    }

    /// Wraps an existing row-major 8-bit pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::DimensionMismatch`] if `data.len()` is not
    /// `width * height`, or [`ImageError::EmptyImage`] for zero dimensions.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Result<Self, ImageError> {
        if width == 0 || height == 0 {
            return Err(ImageError::EmptyImage);
        }
        if data.len() != width * height {
            return Err(ImageError::DimensionMismatch {
                width,
                height,
                len: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            bit_depth: 8,
            data: data.into_iter().map(u16::from).collect(),
        })
    }

    /// Wraps an existing row-major `u16` sample buffer at the given depth.
    ///
    /// # Errors
    ///
    /// [`ImageError::DimensionMismatch`] / [`ImageError::EmptyImage`] as
    /// [`Self::from_vec`], [`ImageError::UnsupportedBitDepth`] outside
    /// `1..=16`, and [`ImageError::SampleOutOfRange`] when a sample does
    /// not fit the depth.
    pub fn from_samples(
        width: usize,
        height: usize,
        bit_depth: u8,
        data: Vec<u16>,
    ) -> Result<Self, ImageError> {
        if width == 0 || height == 0 {
            return Err(ImageError::EmptyImage);
        }
        if !(1..=16).contains(&bit_depth) {
            return Err(ImageError::UnsupportedBitDepth(bit_depth));
        }
        if data.len() != width * height {
            return Err(ImageError::DimensionMismatch {
                width,
                height,
                len: data.len(),
            });
        }
        let max_val = max_val_for(bit_depth);
        if let Some(&value) = data.iter().find(|&&v| v > max_val) {
            return Err(ImageError::SampleOutOfRange { value, max_val });
        }
        Ok(Self {
            width,
            height,
            bit_depth,
            data,
        })
    }

    /// Builds an 8-bit image by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        Self::from_fn16(width, height, 8, |x, y| u16::from(f(x, y)))
    }

    /// Builds an image at the given depth by evaluating `f(x, y)` for
    /// every pixel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, the depth is outside `1..=16`,
    /// or `f` produces a sample that does not fit the depth.
    pub fn from_fn16(
        width: usize,
        height: usize,
        bit_depth: u8,
        mut f: impl FnMut(usize, usize) -> u16,
    ) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert!(
            (1..=16).contains(&bit_depth),
            "bit depth {bit_depth} outside 1..=16"
        );
        let max_val = max_val_for(bit_depth);
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                let v = f(x, y);
                assert!(v <= max_val, "sample {v} exceeds {bit_depth}-bit maximum");
                data.push(v);
            }
        }
        Self {
            width,
            height,
            bit_depth,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Sample bit depth (`1..=16`; 8 for classic grayscale).
    #[inline]
    pub fn bit_depth(&self) -> u8 {
        self.bit_depth
    }

    /// Largest representable sample value, `2^bit_depth − 1`.
    #[inline]
    pub fn max_val(&self) -> u16 {
        max_val_for(self.bit_depth)
    }

    /// Total number of pixels.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    /// Lends the whole image as a zero-copy read-only [`ImageView`].
    ///
    /// The owned buffer was range-validated at construction, so lending a
    /// view is O(1) — no per-sample re-scan.
    #[inline]
    pub fn view(&self) -> ImageView<'_> {
        ImageView::new_unchecked_samples(
            &self.data,
            self.width,
            self.height,
            self.width,
            self.bit_depth,
        )
        .expect("owned images always have valid view geometry")
    }

    /// Lends the whole image as a mutable [`ImageViewMut`].
    #[inline]
    pub fn view_mut(&mut self) -> ImageViewMut<'_> {
        ImageViewMut::new_unchecked_samples(
            &mut self.data,
            self.width,
            self.height,
            self.width,
            self.bit_depth,
        )
        .expect("owned images always have valid view geometry")
    }

    /// The `roi` crop of a fully decoded image — how a codec without
    /// random access answers [`DecodeOptions::roi`](crate::DecodeOptions::roi).
    /// `None` returns the image itself.
    ///
    /// # Errors
    ///
    /// [`CbicError::InvalidContainer`] for a rectangle that is empty or
    /// reaches outside the image (the bounds rule of [`Rect::fits`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use cbic_image::{Image, Rect};
    ///
    /// let img = Image::from_fn(8, 8, |x, y| (x * 8 + y) as u8);
    /// let crop = img.clone().crop_to(Some(Rect::new(2, 3, 4, 5)))?;
    /// assert_eq!(crop, img.view().crop(2, 3, 4, 5).to_image());
    /// assert!(img.crop_to(Some(Rect::new(6, 0, 4, 1))).is_err());
    /// # Ok::<(), cbic_image::CbicError>(())
    /// ```
    pub fn crop_to(self, roi: Option<Rect>) -> Result<Self, CbicError> {
        let Some(roi) = roi else { return Ok(self) };
        if !roi.fits(self.width, self.height) {
            return Err(CbicError::InvalidContainer(format!(
                "ROI {roi} outside the {}x{} image",
                self.width, self.height
            )));
        }
        let (x, y) = (roi.x as usize, roi.y as usize);
        Ok(self
            .view()
            .crop(x, y, roi.w as usize, roi.h as usize)
            .to_image())
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u16 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds or the value exceeds
    /// the bit depth.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: u16) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        // A hard check, not a debug assert: `view()` skips the per-sample
        // range scan on the strength of this invariant, and an oversized
        // sample would silently wrap inside the codecs.
        assert!(
            value <= self.max_val(),
            "sample {value} exceeds {}-bit maximum",
            self.bit_depth
        );
        self.data[y * self.width + x] = value;
    }

    /// Row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &[u16] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Row `y` as a mutable slice.
    ///
    /// This is the raw escape hatch past the range checks of
    /// [`set`](Self::set)/[`from_samples`](Self::from_samples): the caller
    /// must keep every written sample within [`max_val`](Self::max_val),
    /// or a later encode will silently wrap it modulo the sample range
    /// (the in-workspace decode paths only write already-valid values).
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [u16] {
        assert!(y < self.height, "row out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// The whole sample buffer, row-major.
    #[inline]
    pub fn samples(&self) -> &[u16] {
        &self.data
    }

    /// Consumes the image, returning the sample buffer.
    pub fn into_samples(self) -> Vec<u16> {
        self.data
    }

    /// Order-0 (histogram) entropy in bits per pixel.
    ///
    /// An upper bound on what a memoryless coder could achieve; context
    /// modeling exists precisely to beat this.
    pub fn entropy(&self) -> f64 {
        let mut hist = vec![0u64; usize::from(self.max_val()) + 1];
        for &p in &self.data {
            hist[usize::from(p)] += 1;
        }
        let n = self.data.len() as f64;
        hist.iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum()
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f64 {
        self.data.iter().map(|&p| f64::from(p)).sum::<f64>() / self.data.len() as f64
    }

    /// Entropy (bits/pixel) of the horizontal first differences — a quick
    /// proxy for how predictable the image is.
    pub fn gradient_entropy(&self) -> f64 {
        let modulus = u32::from(self.max_val()) + 1;
        let mut hist = vec![0u64; modulus as usize];
        let mut n = 0u64;
        for y in 0..self.height {
            let row = self.row(y);
            for x in 1..self.width {
                let d = (u32::from(row[x]) + modulus - u32::from(row[x - 1])) % modulus;
                hist[d as usize] += 1;
                n += 1;
            }
        }
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        hist.iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let img = Image::new(3, 2);
        assert_eq!(img.dimensions(), (3, 2));
        assert_eq!(img.bit_depth(), 8);
        assert!(img.samples().iter().all(|&p| p == 0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Image::from_vec(2, 2, vec![0; 4]).is_ok());
        let err = Image::from_vec(2, 2, vec![0; 5]).unwrap_err();
        assert!(matches!(err, ImageError::DimensionMismatch { len: 5, .. }));
        assert_eq!(Image::from_vec(0, 2, vec![]), Err(ImageError::EmptyImage));
    }

    #[test]
    fn from_samples_validates_depth_and_range() {
        assert!(Image::from_samples(2, 2, 12, vec![0, 4095, 17, 2000]).is_ok());
        assert_eq!(
            Image::from_samples(2, 2, 12, vec![0, 4096, 0, 0]),
            Err(ImageError::SampleOutOfRange {
                value: 4096,
                max_val: 4095
            })
        );
        assert_eq!(
            Image::from_samples(2, 2, 0, vec![0; 4]),
            Err(ImageError::UnsupportedBitDepth(0))
        );
        assert_eq!(
            Image::from_samples(2, 2, 17, vec![0; 4]),
            Err(ImageError::UnsupportedBitDepth(17))
        );
        assert!(Image::from_samples(2, 2, 16, vec![u16::MAX; 4]).is_ok());
    }

    #[test]
    fn from_fn_row_major_order() {
        let img = Image::from_fn(3, 2, |x, y| (y * 3 + x) as u8);
        assert_eq!(img.samples(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(img.row(1), &[3, 4, 5]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = Image::new(4, 4);
        img.set(2, 3, 99);
        assert_eq!(img.get(2, 3), 99);
    }

    #[test]
    fn sixteen_bit_images_hold_wide_samples() {
        let img = Image::from_fn16(4, 4, 16, |x, y| (x * 16000 + y) as u16);
        assert_eq!(img.max_val(), 65535);
        assert_eq!(img.get(3, 2), 48002);
        assert_eq!(img.view().max_val(), 65535);
    }

    #[test]
    #[should_panic(expected = "exceeds 10-bit maximum")]
    fn from_fn16_rejects_oversized_samples() {
        let _ = Image::from_fn16(2, 2, 10, |_, _| 1024);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let img = Image::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    fn constant_image_has_zero_entropy() {
        let img = Image::from_fn(16, 16, |_, _| 42);
        assert_eq!(img.entropy(), 0.0);
        assert_eq!(img.mean(), 42.0);
        assert_eq!(img.gradient_entropy(), 0.0);
    }

    #[test]
    fn uniform_histogram_has_eight_bits() {
        let img = Image::from_fn(256, 256, |x, _| x as u8);
        assert!((img.entropy() - 8.0).abs() < 1e-9);
        // ...but it is perfectly predictable horizontally.
        assert!(img.gradient_entropy() < 0.1);
    }

    #[test]
    fn sixteen_bit_entropy_uses_full_histogram() {
        let img = Image::from_fn16(64, 64, 16, |x, y| (y * 64 + x) as u16 * 16);
        assert!((img.entropy() - 12.0).abs() < 1e-9, "{}", img.entropy());
        assert!(img.gradient_entropy() < 0.1);
    }

    #[test]
    fn error_display_messages() {
        let e = ImageError::PgmParse("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        assert!(ImageError::EmptyImage.to_string().contains("nonzero"));
        assert!(ImageError::UnsupportedBitDepth(3).to_string().contains('3'));
        let e = ImageError::SampleOutOfRange {
            value: 300,
            max_val: 255,
        };
        assert!(e.to_string().contains("300"));
    }
}
