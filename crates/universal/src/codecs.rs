//! The workspace codec registry: every [`Codec`] the workspace ships.
//!
//! This is the single place a new codec is registered. The CLI, the
//! server, and the Table 1 benchmark harness all enumerate codecs from
//! here instead of hard-coding per-codec `match` arms.

use cbic_image::{Codec, CodecRegistry};

/// The four Table 1 codecs — the paper's scheme and its three baselines —
/// in the paper's column order.
///
/// Every entry is a [`Codec`]: the baselines buffer their containers when
/// streamed, while the proposed codec runs its bounded-memory row
/// pipeline through the same `encode`/`decode` signatures.
///
/// # Examples
///
/// ```
/// use cbic_image::corpus::CorpusImage;
/// use cbic_image::{DecodeOptions, EncodeOptions};
/// use cbic_universal::codecs::all_codecs;
///
/// let img = CorpusImage::Lena.generate(32, 32);
/// let (enc, dec) = (EncodeOptions::default(), DecodeOptions::default());
/// for codec in all_codecs() {
///     let bytes = codec.encode_vec(img.view(), &enc).unwrap();
///     assert_eq!(codec.decode_vec(&bytes, &dec).unwrap(), img, "{}", codec.name());
/// }
/// ```
pub fn all_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(cbic_jpegls::Jpegls),
        Box::new(cbic_slp::Slp),
        Box::new(cbic_calic::Calic),
        Box::new(cbic_core::Proposed::default()),
    ]
}

/// A registry of every decodable container format: the four Table 1
/// codecs (the proposed codec's container covers its multi-core tile
/// grid). Schedules (worker threads, tile grids) are chosen per call
/// through [`EncodeOptions`](cbic_image::EncodeOptions) /
/// [`DecodeOptions`](cbic_image::DecodeOptions), so one registry serves
/// every configuration.
///
/// Registration is collision-checked: a new codec whose name or container
/// magic clashes with an existing one panics here instead of silently
/// losing auto-detection (see
/// [`CodecRegistry::try_register`](cbic_image::registry::CodecRegistry::try_register)).
pub fn default_registry() -> CodecRegistry {
    let mut registry = CodecRegistry::new();
    for codec in all_codecs() {
        registry.register(codec);
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_image::corpus::CorpusImage;
    use cbic_image::{DecodeOptions, EncodeOptions};

    #[test]
    fn table1_codecs_are_all_registered() {
        let names: Vec<_> = all_codecs().iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["jpegls", "slp", "calic", "proposed"]);
    }

    #[test]
    fn registry_detects_every_container_format() {
        let registry = default_registry();
        assert_eq!(registry.len(), 4);
        let img = CorpusImage::Peppers.generate(24, 24);
        for codec in registry.codecs() {
            let bytes = codec
                .encode_vec(img.view(), &EncodeOptions::default())
                .unwrap();
            let detected = registry.detect(&bytes).expect("magic registered");
            assert_eq!(detected.name(), codec.name());
            assert_eq!(
                registry
                    .decode_auto(&bytes, &DecodeOptions::default())
                    .unwrap(),
                img
            );
        }
    }

    #[test]
    fn magics_are_unique() {
        let registry = default_registry();
        let mut seen = std::collections::HashSet::new();
        for codec in registry.codecs() {
            let magic = codec.magic().expect("all workspace codecs have magics");
            assert!(seen.insert(magic), "duplicate magic {magic:?}");
        }
    }
}
