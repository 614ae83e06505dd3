//! Property-based tests: SLP losslessness over arbitrary images.

use proptest::prelude::*;

use crate::{compress, decode_raw, decompress, encode_raw};
use cbic_image::Image;

fn arb_image() -> impl Strategy<Value = Image> {
    (1usize..24, 1usize..24).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |data| Image::from_vec(w, h, data).expect("sized to match"))
    })
}

proptest! {
    /// Arbitrary pixels round-trip.
    #[test]
    fn roundtrip_arbitrary_images(img in arb_image()) {
        let (bytes, stats) = encode_raw(img.view());
        prop_assert_eq!(stats.pixels as usize, img.pixel_count());
        prop_assert_eq!(decode_raw(&bytes, img.width(), img.height(), img.bit_depth()).ok(), Some(img));
    }

    /// The container API round-trips and validates.
    #[test]
    fn container_roundtrip(img in arb_image()) {
        let bytes = compress(img.view());
        prop_assert_eq!(decompress(&bytes).expect("valid container"), img);
    }

    /// Worst-case expansion is bounded by the Golomb length limit.
    #[test]
    fn expansion_is_bounded(img in arb_image()) {
        let (bytes, _) = encode_raw(img.view());
        prop_assert!(bytes.len() * 8 <= img.pixel_count() * 33 + 64);
    }

    /// Predictor-use counters account for every pixel.
    #[test]
    fn predictor_uses_sum_to_pixels(img in arb_image()) {
        let (_, stats) = encode_raw(img.view());
        let total: u64 = stats.predictor_uses.iter().sum();
        prop_assert_eq!(total, stats.pixels);
    }
}
