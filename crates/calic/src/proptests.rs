//! Property-based tests: CALIC losslessness over arbitrary images.

use proptest::prelude::*;

use crate::codec::{decode_raw, encode_raw};
use cbic_image::Image;

fn arb_image() -> impl Strategy<Value = Image> {
    (1usize..20, 1usize..20).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |data| Image::from_vec(w, h, data).expect("sized to match"))
    })
}

proptest! {
    /// Arbitrary pixels round-trip.
    #[test]
    fn roundtrip_arbitrary_images(img in arb_image()) {
        let (bytes, _) = encode_raw(img.view());
        prop_assert_eq!(decode_raw(&bytes, img.width(), img.height(), img.bit_depth()).ok(), Some(img));
    }

    /// The sign-flipping trick is an involution: encoder and decoder agree
    /// on every flip, so stats match exactly.
    #[test]
    fn encoder_decoder_stats_agree(img in arb_image()) {
        let (bytes, enc_stats) = encode_raw(img.view());
        let back = decode_raw(&bytes, img.width(), img.height(), img.bit_depth());
        prop_assert_eq!(back.ok(), Some(img));
        prop_assert!(enc_stats.payload_bits <= bytes.len() as u64 * 8);
    }
}
