//! Borrowed, strided pixel views — the zero-copy core of the pixel API.
//!
//! [`ImageView`] and [`ImageViewMut`] describe a rectangular window over a
//! row-major `u16` sample buffer: a slice, a width, a height, a row
//! *stride* (samples between the starts of consecutive rows), and a bit
//! depth. Every codec in the workspace consumes [`ImageView`] — an owned
//! [`Image`](crate::Image) lends one with [`Image::view`](crate::Image::view) —
//! so sub-images (tile bands, crops, regions of interest) are coded
//! **without copying a single pixel**.
//!
//! # Examples
//!
//! ```
//! use cbic_image::Image;
//!
//! let img = Image::from_fn(8, 8, |x, y| (x * 8 + y) as u8);
//! let view = img.view();
//! // A zero-copy band of rows 2..5:
//! let band = view.row_range(2, 3);
//! assert_eq!(band.dimensions(), (8, 3));
//! assert_eq!(band.row(0), img.row(2));
//! // A strided interior crop:
//! let crop = view.crop(2, 1, 4, 6);
//! assert_eq!(crop.get(0, 0), img.get(2, 1));
//! assert_eq!(crop.stride(), 8); // rows still step by the parent width
//! ```

use crate::{Image, ImageError};

/// Validates the (width, height, stride, bit_depth, buffer length)
/// invariants shared by both view types.
fn check_geometry(
    len: usize,
    width: usize,
    height: usize,
    stride: usize,
    bit_depth: u8,
) -> Result<(), ImageError> {
    if width == 0 || height == 0 {
        return Err(ImageError::EmptyImage);
    }
    if !(1..=16).contains(&bit_depth) {
        return Err(ImageError::UnsupportedBitDepth(bit_depth));
    }
    if stride < width {
        return Err(ImageError::InvalidView(format!(
            "stride {stride} shorter than width {width}"
        )));
    }
    // The last row needs only `width` samples, not a full stride.
    let needed = (height - 1)
        .checked_mul(stride)
        .and_then(|n| n.checked_add(width));
    match needed {
        Some(n) if n <= len => Ok(()),
        _ => Err(ImageError::InvalidView(format!(
            "{width}x{height} view with stride {stride} needs more than the {len} samples provided"
        ))),
    }
}

/// Validates that every sample inside the window fits the bit depth (out-
/// of-window backing samples of a strided buffer are not the view's
/// business). Codecs rely on this: an oversized sample would silently wrap
/// modulo `2^depth` and break losslessness.
fn check_window_samples(
    data: &[u16],
    width: usize,
    height: usize,
    stride: usize,
    bit_depth: u8,
) -> Result<(), ImageError> {
    let max_val = crate::image::max_val_for(bit_depth);
    if max_val == u16::MAX {
        return Ok(());
    }
    for y in 0..height {
        let row = &data[y * stride..y * stride + width];
        if let Some(&value) = row.iter().find(|&&v| v > max_val) {
            return Err(ImageError::SampleOutOfRange { value, max_val });
        }
    }
    Ok(())
}

/// A borrowed, read-only, possibly strided window over `u16` samples.
///
/// Copyable and cheap: three `usize`s, a byte, and a slice. See the
/// module documentation for the geometry rules.
///
/// Equality is *pixel-wise*: two views are equal when their dimensions,
/// bit depth, and window contents match, regardless of stride or the
/// backing buffer around the window.
#[derive(Debug, Clone, Copy)]
pub struct ImageView<'a> {
    data: &'a [u16],
    width: usize,
    height: usize,
    stride: usize,
    bit_depth: u8,
}

impl PartialEq for ImageView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.height == other.height
            && self.bit_depth == other.bit_depth
            && self.rows().eq(other.rows())
    }
}

impl Eq for ImageView<'_> {}

impl<'a> ImageView<'a> {
    /// Wraps a row-major sample buffer as a view.
    ///
    /// # Errors
    ///
    /// [`ImageError::EmptyImage`] for zero dimensions,
    /// [`ImageError::UnsupportedBitDepth`] outside `1..=16`,
    /// [`ImageError::InvalidView`] when `stride < width` or the buffer is
    /// too short for the geometry, and [`ImageError::SampleOutOfRange`]
    /// when a sample inside the window exceeds the depth (silent wrap-around
    /// would break losslessness downstream).
    pub fn new(
        data: &'a [u16],
        width: usize,
        height: usize,
        stride: usize,
        bit_depth: u8,
    ) -> Result<Self, ImageError> {
        check_geometry(data.len(), width, height, stride, bit_depth)?;
        check_window_samples(data, width, height, stride, bit_depth)?;
        Ok(Self {
            data,
            width,
            height,
            stride,
            bit_depth,
        })
    }

    /// [`Self::new`] without the per-sample range scan — for callers that
    /// already guarantee the samples fit the depth (an owned [`Image`]
    /// lending its buffer). Geometry is still validated.
    pub(crate) fn new_unchecked_samples(
        data: &'a [u16],
        width: usize,
        height: usize,
        stride: usize,
        bit_depth: u8,
    ) -> Result<Self, ImageError> {
        check_geometry(data.len(), width, height, stride, bit_depth)?;
        Ok(Self {
            data,
            width,
            height,
            stride,
            bit_depth,
        })
    }

    /// View width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// View height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Samples between the starts of consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Sample bit depth (`1..=16`).
    #[inline]
    pub fn bit_depth(&self) -> u8 {
        self.bit_depth
    }

    /// Largest representable sample value, `2^bit_depth − 1`.
    #[inline]
    pub fn max_val(&self) -> u16 {
        crate::image::max_val_for(self.bit_depth)
    }

    /// Total number of pixels in the window.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// `true` when rows are adjacent (`stride == width`), i.e. the window
    /// is one contiguous run of samples.
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.stride == self.width
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u16 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.stride + x]
    }

    /// Row `y` as a slice of exactly `width` samples.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &'a [u16] {
        assert!(y < self.height, "row out of bounds");
        let start = y * self.stride;
        &self.data[start..start + self.width]
    }

    /// Iterates over the rows, top to bottom.
    pub fn rows(&self) -> impl Iterator<Item = &'a [u16]> + '_ {
        (0..self.height).map(|y| self.row(y))
    }

    /// A zero-copy view of rows `y0 .. y0 + rows` at full width.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the view or `rows` is zero.
    #[inline]
    pub fn row_range(&self, y0: usize, rows: usize) -> ImageView<'a> {
        assert!(
            rows >= 1 && y0 < self.height && rows <= self.height - y0,
            "row range {y0}..{} outside 0..{}",
            y0 + rows,
            self.height
        );
        ImageView {
            data: &self.data[y0 * self.stride..],
            width: self.width,
            height: rows,
            stride: self.stride,
            bit_depth: self.bit_depth,
        }
    }

    /// A zero-copy rectangular crop. The result keeps the parent stride,
    /// so interior crops are genuinely strided views.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle leaves the view or has a zero side.
    pub fn crop(&self, x0: usize, y0: usize, width: usize, height: usize) -> ImageView<'a> {
        assert!(width >= 1 && height >= 1, "crop dimensions must be nonzero");
        assert!(
            x0 < self.width
                && y0 < self.height
                && width <= self.width - x0
                && height <= self.height - y0,
            "crop {width}x{height}+{x0}+{y0} outside {}x{}",
            self.width,
            self.height
        );
        ImageView {
            data: &self.data[y0 * self.stride + x0..],
            width,
            height,
            stride: self.stride,
            bit_depth: self.bit_depth,
        }
    }

    /// Materializes the window as an owned [`Image`] (row-wise
    /// `copy_from_slice`, the only place a view copies pixels).
    pub fn to_image(&self) -> Image {
        let mut data = vec![0u16; self.width * self.height];
        for (dst, src) in data.chunks_exact_mut(self.width).zip(self.rows()) {
            dst.copy_from_slice(src);
        }
        Image::from_samples(self.width, self.height, self.bit_depth, data)
            .expect("view geometry is validated")
    }
}

impl<'a> From<&'a Image> for ImageView<'a> {
    fn from(img: &'a Image) -> Self {
        img.view()
    }
}

/// A borrowed, mutable, possibly strided window over `u16` samples — the
/// decode-side dual of [`ImageView`]: decoders write their rows straight
/// into a preallocated image through it.
#[derive(Debug)]
pub struct ImageViewMut<'a> {
    data: &'a mut [u16],
    width: usize,
    height: usize,
    stride: usize,
    bit_depth: u8,
}

impl<'a> ImageViewMut<'a> {
    /// Wraps a mutable row-major sample buffer as a view.
    ///
    /// # Errors
    ///
    /// As [`ImageView::new`], including
    /// [`ImageError::SampleOutOfRange`] when a window sample exceeds the
    /// bit depth.
    pub fn new(
        data: &'a mut [u16],
        width: usize,
        height: usize,
        stride: usize,
        bit_depth: u8,
    ) -> Result<Self, ImageError> {
        check_geometry(data.len(), width, height, stride, bit_depth)?;
        check_window_samples(data, width, height, stride, bit_depth)?;
        Ok(Self {
            data,
            width,
            height,
            stride,
            bit_depth,
        })
    }

    /// [`Self::new`] without the per-sample range scan (see
    /// [`ImageView::new_unchecked_samples`]).
    pub(crate) fn new_unchecked_samples(
        data: &'a mut [u16],
        width: usize,
        height: usize,
        stride: usize,
        bit_depth: u8,
    ) -> Result<Self, ImageError> {
        check_geometry(data.len(), width, height, stride, bit_depth)?;
        Ok(Self {
            data,
            width,
            height,
            stride,
            bit_depth,
        })
    }

    /// View width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// View height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Samples between the starts of consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Sample bit depth (`1..=16`).
    #[inline]
    pub fn bit_depth(&self) -> u8 {
        self.bit_depth
    }

    /// Largest representable sample value, `2^bit_depth − 1`.
    #[inline]
    pub fn max_val(&self) -> u16 {
        crate::image::max_val_for(self.bit_depth)
    }

    /// Reborrows as a read-only view.
    #[inline]
    pub fn as_view(&self) -> ImageView<'_> {
        ImageView {
            data: self.data,
            width: self.width,
            height: self.height,
            stride: self.stride,
            bit_depth: self.bit_depth,
        }
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u16 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.stride + x]
    }

    /// Sets the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds or the value exceeds
    /// the bit depth (oversized samples would silently wrap inside the
    /// codecs).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: u16) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        assert!(
            value <= self.max_val(),
            "sample {value} exceeds {}-bit maximum",
            self.bit_depth
        );
        self.data[y * self.stride + x] = value;
    }

    /// Row `y` as a mutable slice of exactly `width` samples.
    ///
    /// This is the raw escape hatch past [`set`](Self::set)'s range
    /// check: the caller must keep every written sample within
    /// [`max_val`](Self::max_val), or a later encode will silently wrap
    /// it modulo the sample range (the in-workspace decode paths only
    /// write already-valid values).
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [u16] {
        assert!(y < self.height, "row out of bounds");
        let start = y * self.stride;
        &mut self.data[start..start + self.width]
    }

    /// The causal split at row `y`: the two rows above it (read-only,
    /// `None` where the image boundary cuts them off) plus row `y` itself
    /// mutably — exactly the state a raster-order decoder needs while
    /// reconstructing row `y` in place.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn causal_rows_mut(&mut self, y: usize) -> (Option<&[u16]>, Option<&[u16]>, &mut [u16]) {
        assert!(y < self.height, "row out of bounds");
        let (above, at) = self.data.split_at_mut(y * self.stride);
        let cur = &mut at[..self.width];
        let row_above = |d: usize| {
            let start = (y - d) * self.stride;
            &above[start..start + self.width]
        };
        let n1 = (y >= 1).then(|| row_above(1));
        let n2 = (y >= 2).then(|| row_above(2));
        (n2, n1, cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> Image {
        Image::from_fn(6, 5, |x, y| (y * 6 + x) as u8)
    }

    #[test]
    fn full_view_matches_image() {
        let img = img();
        let v = img.view();
        assert_eq!(v.dimensions(), (6, 5));
        assert!(v.is_contiguous());
        assert_eq!(v.bit_depth(), 8);
        assert_eq!(v.max_val(), 255);
        for y in 0..5 {
            assert_eq!(v.row(y), img.row(y));
            for x in 0..6 {
                assert_eq!(v.get(x, y), img.get(x, y));
            }
        }
    }

    #[test]
    fn row_range_is_zero_copy_and_correct() {
        let img = img();
        let band = img.view().row_range(1, 3);
        assert_eq!(band.dimensions(), (6, 3));
        assert_eq!(band.row(0), img.row(1));
        assert_eq!(band.row(2), img.row(3));
        assert_eq!(band.to_image().row(1), img.row(2));
    }

    #[test]
    fn crop_is_strided() {
        let img = img();
        let crop = img.view().crop(2, 1, 3, 2);
        assert!(!crop.is_contiguous());
        assert_eq!(crop.stride(), 6);
        assert_eq!(crop.get(0, 0), img.get(2, 1));
        assert_eq!(crop.row(1), &img.row(2)[2..5]);
        let owned = crop.to_image();
        assert_eq!(owned.dimensions(), (3, 2));
        assert_eq!(owned.get(2, 1), img.get(4, 2));
    }

    #[test]
    fn geometry_validation() {
        let data = vec![0u16; 10];
        assert!(ImageView::new(&data, 5, 2, 5, 8).is_ok());
        assert!(ImageView::new(&data, 3, 3, 4, 8).is_err(), "too short");
        assert!(matches!(
            ImageView::new(&data, 5, 2, 4, 8),
            Err(ImageError::InvalidView(_))
        ));
        assert!(matches!(
            ImageView::new(&data, 0, 2, 5, 8),
            Err(ImageError::EmptyImage)
        ));
        assert!(matches!(
            ImageView::new(&data, 5, 2, 5, 17),
            Err(ImageError::UnsupportedBitDepth(17))
        ));
        // Last row only needs `width` samples, not a full stride.
        let nine = vec![0u16; 9];
        assert!(ImageView::new(&nine, 4, 2, 5, 8).is_ok());
    }

    #[test]
    fn constructors_reject_out_of_depth_samples() {
        let data = vec![0u16, 1023, 1024, 0];
        assert!(matches!(
            ImageView::new(&data, 2, 2, 2, 10),
            Err(ImageError::SampleOutOfRange {
                value: 1024,
                max_val: 1023
            })
        ));
        // Out-of-window backing samples of a strided buffer don't count.
        let data = vec![5u16, 9000, 6, 9000];
        assert!(ImageView::new(&data, 1, 2, 2, 10).is_ok());
        let mut data = vec![0u16, 4096];
        assert!(matches!(
            ImageViewMut::new(&mut data, 2, 1, 2, 12),
            Err(ImageError::SampleOutOfRange { .. })
        ));
        // 16-bit windows accept everything.
        let all = vec![u16::MAX; 4];
        assert!(ImageView::new(&all, 2, 2, 2, 16).is_ok());
    }

    #[test]
    fn equality_is_pixel_wise_not_representational() {
        let img = img();
        let band = img.view().row_range(1, 3);
        let copy = band.to_image();
        // Different stride (6 vs 6? row_range keeps stride 6; compare a
        // crop) and different backing buffers: still equal when the
        // pixels are.
        assert_eq!(band, copy.view());
        let crop = img.view().crop(1, 1, 4, 3);
        let crop_copy = crop.to_image();
        assert!(!crop.is_contiguous() && crop_copy.view().is_contiguous());
        assert_eq!(crop, crop_copy.view());
        // ...and unequal when a pixel differs.
        let mut other = crop.to_image();
        other.set(0, 0, 99);
        assert_ne!(crop, other.view());
    }

    #[test]
    fn mut_view_writes_through() {
        let mut img = Image::new(4, 3);
        {
            let mut v = img.view_mut();
            v.set(1, 2, 99);
            v.row_mut(0).copy_from_slice(&[1, 2, 3, 4]);
        }
        assert_eq!(img.get(1, 2), 99);
        assert_eq!(img.row(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn causal_rows_split() {
        let mut img = img();
        let mut v = img.view_mut();
        let (n2, n1, cur) = v.causal_rows_mut(0);
        assert!(n2.is_none() && n1.is_none());
        assert_eq!(cur.len(), 6);
        let (n2, n1, _) = v.causal_rows_mut(1);
        assert!(n2.is_none());
        assert_eq!(n1.unwrap()[0], 0);
        let (n2, n1, cur) = v.causal_rows_mut(3);
        assert_eq!(n2.unwrap()[0], 6);
        assert_eq!(n1.unwrap()[0], 12);
        cur[5] = 1000;
        assert_eq!(v.get(5, 3), 1000);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn row_range_out_of_bounds_panics() {
        let img = img();
        let _ = img.view().row_range(3, 3);
    }
}
