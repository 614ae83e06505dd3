//! Property-based tests: JPEG-LS losslessness over arbitrary images.

use proptest::prelude::*;

use crate::{decode_raw, encode_raw};
use cbic_image::Image;

fn arb_image() -> impl Strategy<Value = Image> {
    (1usize..24, 1usize..24).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |data| Image::from_vec(w, h, data).expect("sized to match"))
    })
}

proptest! {
    /// Arbitrary pixel content round-trips exactly.
    #[test]
    fn lossless_roundtrip(img in arb_image()) {
        let (bytes, stats) = encode_raw(img.view());
        prop_assert_eq!(stats.pixels as usize, img.pixel_count());
        let back = decode_raw(&bytes, img.width(), img.height(), img.bit_depth());
        prop_assert_eq!(back.ok(), Some(img));
    }

    /// The length limit bounds worst-case expansion: never more than
    /// LIMIT bits per pixel plus run-mode framing.
    #[test]
    fn expansion_is_bounded(img in arb_image()) {
        let (bytes, _) = encode_raw(img.view());
        prop_assert!(bytes.len() * 8 <= img.pixel_count() * 33 + 64);
    }
}
