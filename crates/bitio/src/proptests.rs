//! Property-based tests: whatever a `BitWriter` produces, a `BitReader`
//! must read back verbatim, regardless of how the bit stream is chunked —
//! and the writer and the reader must agree bit for bit with the
//! bit-at-a-time model.

use proptest::prelude::*;

use crate::model::Buffered;
use crate::{BitReader, BitSink, BitSource, BitWriter, StreamBitReader, StreamBitWriter};

proptest! {
    /// Round-trip of an arbitrary bit sequence written bit by bit.
    #[test]
    fn roundtrip_single_bits(bits in proptest::collection::vec(any::<bool>(), 0..2048)) {
        let mut w = BitWriter::new();
        for &b in &bits {
            w.write_bit(b);
        }
        prop_assert_eq!(w.bits_written(), bits.len() as u64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &bits {
            prop_assert_eq!(r.read_bit(), b);
        }
        // Padding (if any) must read as zero.
        while let Some(bit) = r.try_read_bit() {
            prop_assert!(!bit);
        }
    }

    /// Round-trip of arbitrary (value, width) chunks through write_bits/read_bits.
    #[test]
    fn roundtrip_chunks(chunks in proptest::collection::vec((any::<u64>(), 0u32..=64), 0..256)) {
        let chunks: Vec<(u64, u32)> = chunks
            .into_iter()
            .map(|(v, n)| (if n == 64 { v } else { v & ((1u64 << n) - 1) }, n))
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &chunks {
            w.write_bits(v, n);
        }
        let total: u64 = chunks.iter().map(|&(_, n)| u64::from(n)).sum();
        prop_assert_eq!(w.bits_written(), total);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &chunks {
            prop_assert_eq!(r.read_bits(n), v);
        }
    }

    /// Unary write/read round-trip interleaved with fixed-width fields.
    #[test]
    fn roundtrip_unary(values in proptest::collection::vec(0u64..200, 0..128)) {
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_run(false, v);
            w.write_bit(true);
            w.write_bits(v & 0x7, 3);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(r.read_unary(), Some(v));
            prop_assert_eq!(r.read_bits(3), v & 0x7);
        }
    }

    /// The output is always ceil(bits/8) bytes long.
    #[test]
    fn byte_len_matches_bits(nbits in 0u64..1000) {
        let mut w = BitWriter::new();
        for i in 0..nbits {
            w.write_bit(i % 3 == 0);
        }
        prop_assert_eq!(w.into_bytes().len() as u64, nbits.div_ceil(8));
    }

    /// Strict reads see exactly the number of written bits, then None.
    #[test]
    fn strict_reader_sees_padded_length(nbits in 0u64..256) {
        let mut w = BitWriter::new();
        for _ in 0..nbits {
            w.write_bit(true);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut seen = 0u64;
        while r.try_read_bit().is_some() {
            seen += 1;
        }
        prop_assert_eq!(seen, nbits.div_ceil(8) * 8);
    }

    /// The writer produces the exact bytes the bit-at-a-time model packs
    /// for an arbitrary chunk sequence, and the reader reads them back as
    /// the model does — through the strict reads too, and on past the end.
    #[test]
    fn streaming_adapters_match_buffered(chunks in proptest::collection::vec((any::<u64>(), 0u32..=64), 0..256)) {
        let chunks: Vec<(u64, u32)> = chunks
            .into_iter()
            .map(|(v, n)| (if n == 64 { v } else { v & ((1u64 << n) - 1) }, n))
            .collect();
        let mut model = Buffered::default();
        let mut streamed = StreamBitWriter::wrap(Vec::new());
        for &(v, n) in &chunks {
            model.write_bits(v, n);
            streamed.write_bits(v, n);
        }
        prop_assert_eq!(model.bits_written(), streamed.bits_written());
        let bytes = streamed.finish().expect("Vec sink");
        prop_assert_eq!(&bytes, &model.bytes());

        let mut model = Buffered::reading(&bytes);
        let mut sr = StreamBitReader::buffered(&bytes[..]);
        for (i, &(v, n)) in chunks.iter().enumerate() {
            let got = if i % 2 == 0 { sr.read_bits(n) } else { sr.try_read_bits(n).expect("real bits") };
            prop_assert_eq!(got, v);
            prop_assert_eq!(model.read_bits(n), v);
        }
        // Both end and pad identically.
        prop_assert_eq!(sr.try_read_bits(64), model.try_read_bits(64));
        for _ in 0..16 {
            prop_assert_eq!(model.read_bit(), sr.read_bit());
        }
        prop_assert_eq!(model.padding_bits(), sr.padding_bits());
        prop_assert_eq!(model.bits_read(), sr.bits_read());
    }
}
