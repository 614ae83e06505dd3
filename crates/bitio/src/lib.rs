//! Bit-level I/O primitives shared by every codec in the `cbic` workspace.
//!
//! The compression pipelines in this workspace (arithmetic coding in
//! `cbic-arith`, Golomb-Rice coding in `cbic-rice`, and the JPEG-LS
//! baseline) all produce and consume individual bits, MSB-first, through
//! one bit writer and one bit reader:
//!
//! * [`StreamBitWriter`] — a bit sink that stages bits in a 64-bit
//!   register and moves whole bytes into any `std::io::Write`, counting
//!   the exact number of bits written (the bit-rate accounting of the
//!   experiment harness). [`BitWriter`] is its in-memory instance, over a
//!   `Vec<u8>`.
//! * [`StreamBitReader`] — the matching bit source, which takes bytes
//!   straight out of any `std::io::BufRead` ([`StreamBitReader::buffered`]
//!   gives any other `std::io::Read` a 4 KiB buffer). Reads past the end
//!   of the input yield zero bits, which is the convention arithmetic
//!   decoders rely on when the final code word was truncated at a byte
//!   boundary; the strict [`BitSource::try_read_bit`] and
//!   [`BitSource::try_read_bits`] report exhaustion instead. [`BitReader`]
//!   is its in-memory instance, over a byte slice, which it reads in
//!   place.
//! * [`BitSink`] / [`BitSource`] — the traits the coders are generic over.
//!
//! # Examples
//!
//! ```
//! use cbic_bitio::{BitReader, BitSink, BitSource, BitWriter};
//!
//! let mut w = BitWriter::new();
//! w.write_bit(true);
//! w.write_bits(0b1011, 4);
//! assert_eq!(w.bits_written(), 5);
//! let bytes = w.into_bytes();
//!
//! let mut r = BitReader::new(&bytes);
//! assert!(r.read_bit());
//! assert_eq!(r.read_bits(4), 0b1011);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stream;
mod traits;

pub use stream::{BitReader, BitWriter, StreamBitReader, StreamBitWriter};
pub use traits::{BitSink, BitSource};

#[cfg(test)]
mod proptests;

/// The bit-at-a-time model the tests check the accumulator code against.
#[cfg(test)]
mod model {
    use crate::{BitSink, BitSource};

    /// Keeps every bit as a `bool`, packs them MSB-first and zero-padded
    /// only when asked, and reads them back one at a time. The traits'
    /// default multi-bit methods, bit loops, run on it unchanged; only
    /// `try_read_bits` is made exact, as the real reader's is.
    #[derive(Debug, Default)]
    pub(crate) struct Buffered {
        bits: Vec<bool>,
        pos: usize,
        padding: u64,
    }

    impl Buffered {
        /// A model that reads `bytes`, MSB-first.
        pub(crate) fn reading(bytes: &[u8]) -> Self {
            let bits = bytes
                .iter()
                .flat_map(|&b| (0..8).rev().map(move |k| (b >> k) & 1 == 1))
                .collect();
            Self {
                bits,
                ..Self::default()
            }
        }

        /// The bits written, packed MSB-first, the last byte zero-padded.
        pub(crate) fn bytes(&self) -> Vec<u8> {
            self.bits
                .chunks(8)
                .map(|byte| {
                    (0..8).fold(0u8, |acc, k| {
                        (acc << 1) | u8::from(byte.get(k).copied().unwrap_or(false))
                    })
                })
                .collect()
        }
    }

    impl BitSink for Buffered {
        fn write_bit(&mut self, bit: bool) {
            self.bits.push(bit);
        }

        fn bits_written(&self) -> u64 {
            self.bits.len() as u64
        }
    }

    impl BitSource for Buffered {
        fn try_read_bit(&mut self) -> Option<bool> {
            let bit = *self.bits.get(self.pos)?;
            self.pos += 1;
            Some(bit)
        }

        fn read_bit(&mut self) -> bool {
            match self.try_read_bit() {
                Some(bit) => bit,
                None => {
                    self.padding += 1;
                    false
                }
            }
        }

        fn bits_read(&self) -> u64 {
            self.pos as u64 + self.padding
        }

        fn padding_bits(&self) -> u64 {
            self.padding
        }

        fn try_read_bits(&mut self, count: u32) -> Option<u64> {
            (count as usize <= self.bits.len() - self.pos).then(|| self.read_bits(count))
        }
    }
}

/// Tests of [`BitReader`], the reader over a byte slice.
#[cfg(test)]
mod reader {
    mod tests {
        use crate::model::Buffered;
        use crate::{BitReader, BitSource};

        #[test]
        fn reads_msb_first() {
            let mut r = BitReader::new(&[0b1010_0000]);
            assert!(r.read_bit());
            assert!(!r.read_bit());
            assert!(r.read_bit());
            assert!(!r.read_bit());
        }

        #[test]
        fn read_bits_assembles_value() {
            let mut r = BitReader::new(&[0xDE, 0xAD]);
            assert_eq!(r.read_bits(16), 0xDEAD);
        }

        #[test]
        fn padded_reads_return_zero_after_end() {
            let mut r = BitReader::new(&[0xFF]);
            assert_eq!(r.read_bits(8), 0xFF);
            assert_eq!(r.read_bits(8), 0);
            assert!(!r.read_bit());
            assert_eq!(r.bits_read(), 17);
        }

        #[test]
        fn read_bits_straddling_the_end_pads_low_zeros() {
            // 12 real bits, a 16-bit read: the low 4 bits must be padding.
            let mut r = BitReader::new(&[0xAB, 0xC0]);
            r.read_bits(4);
            assert_eq!(r.read_bits(16), 0xBC00);
            assert_eq!(r.padding_bits(), 4);
            assert_eq!(r.bits_read(), 20);
        }

        /// Every split of a long stream into chunked reads must agree with
        /// the bit-at-a-time model (the u64 cache has corners at multiples
        /// of 64 and at the end of input).
        #[test]
        fn read_bits_differential_across_chunkings() {
            let bytes: Vec<u8> = (0..97u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
                .collect();
            let reference: Vec<bool> = {
                let mut model = Buffered::reading(&bytes);
                (0..bytes.len() * 8 + 70)
                    .map(|_| model.read_bit())
                    .collect()
            };
            for seed in 0..5u64 {
                let mut r = BitReader::new(&bytes);
                let mut at = 0usize;
                let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                while at < reference.len() {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let count = ((state >> 59) as u32 + 1).min((reference.len() - at) as u32);
                    let got = r.read_bits(count);
                    for k in 0..count {
                        let bit = (got >> (count - 1 - k)) & 1 == 1;
                        assert_eq!(bit, reference[at + k as usize], "seed {seed} bit {at}");
                    }
                    at += count as usize;
                }
                assert_eq!(r.bits_read(), reference.len() as u64);
                assert_eq!(r.padding_bits(), 70);
            }
        }

        #[test]
        fn strict_reads_stop_at_end() {
            let mut r = BitReader::new(&[0b1000_0000]);
            assert_eq!(r.try_read_bits(8), Some(0b1000_0000));
            assert_eq!(r.try_read_bit(), None);
            assert_eq!(r.try_read_bits(1), None);
            assert_eq!(r.padding_bits(), 0);
        }

        #[test]
        fn unary_counts_zeros() {
            // 0b0001_0000: three zeros then a one.
            let mut r = BitReader::new(&[0b0001_0000]);
            assert_eq!(r.read_unary(), Some(3));
        }

        #[test]
        fn unary_spanning_many_zero_bytes() {
            let mut bytes = vec![0u8; 20];
            bytes[19] = 0b0000_0100;
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_unary(), Some(19 * 8 + 5));
            assert_eq!(r.read_bits(2), 0);
            assert_eq!(r.padding_bits(), 0);
        }

        #[test]
        fn unary_none_when_no_terminator() {
            let mut r = BitReader::new(&[0x00]);
            assert_eq!(r.read_unary(), None);
        }

        #[test]
        fn empty_input_is_exhausted_immediately() {
            let mut r = BitReader::new(&[]);
            assert_eq!(r.try_read_bit(), None);
            assert_eq!(r.try_read_bits(0), Some(0));
            assert!(!r.read_bit());
            assert_eq!(r.padding_bits(), 1);
        }
    }
}

/// Tests of [`BitWriter`], the writer into a `Vec<u8>`.
#[cfg(test)]
mod writer {
    mod tests {
        use crate::model::Buffered;
        use crate::{BitSink, BitWriter};

        #[test]
        fn empty_writer_produces_no_bytes() {
            let w = BitWriter::new();
            assert_eq!(w.bits_written(), 0);
            assert_eq!(w.into_bytes(), Vec::<u8>::new());
        }

        #[test]
        fn single_bit_is_msb_aligned() {
            let mut w = BitWriter::new();
            w.write_bit(true);
            assert_eq!(w.into_bytes(), vec![0b1000_0000]);
        }

        #[test]
        fn eight_bits_form_one_byte() {
            let mut w = BitWriter::new();
            for bit in [true, false, true, false, true, false, true, false] {
                w.write_bit(bit);
            }
            assert_eq!(w.into_bytes(), vec![0b1010_1010]);
        }

        #[test]
        fn write_bits_matches_bit_by_bit() {
            let mut a = BitWriter::new();
            let mut b = BitWriter::new();
            a.write_bits(0b110_0101_0111, 11);
            for bit in [
                true, true, false, false, true, false, true, false, true, true, true,
            ] {
                b.write_bit(bit);
            }
            assert_eq!(a.into_bytes(), b.into_bytes());
        }

        /// Mixed-width appends must agree with the bit-at-a-time model
        /// across every accumulator offset (the u64 accumulator has
        /// fill/spill corners at multiples of 64).
        #[test]
        fn write_bits_differential_across_offsets() {
            let mut fast = BitWriter::new();
            let mut model = Buffered::default();
            for i in 0..2000u64 {
                let count = (i % 65) as u32;
                let value = if count == 64 {
                    i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                } else {
                    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1u64 << count) - 1)
                };
                fast.write_bits(value, count);
                for k in (0..count).rev() {
                    model.write_bit((value >> k) & 1 == 1);
                }
            }
            assert_eq!(fast.bits_written(), model.bits_written());
            assert_eq!(fast.into_bytes(), model.bytes());
        }

        #[test]
        fn write_bits_zero_count_is_noop() {
            let mut w = BitWriter::new();
            w.write_bits(0, 0);
            assert_eq!(w.bits_written(), 0);
        }

        #[test]
        fn write_full_64_bits() {
            let mut w = BitWriter::new();
            w.write_bits(u64::MAX, 64);
            assert_eq!(w.bits_written(), 64);
            assert_eq!(w.into_bytes(), vec![0xFF; 8]);
        }

        #[test]
        #[should_panic(expected = "does not fit")]
        fn write_bits_rejects_oversized_value() {
            let mut w = BitWriter::new();
            w.write_bits(0b100, 2);
        }

        #[test]
        fn write_run_counts_bits() {
            let mut w = BitWriter::new();
            w.write_run(true, 10);
            assert_eq!(w.bits_written(), 10);
            assert_eq!(w.into_bytes(), vec![0xFF, 0b1100_0000]);
        }

        #[test]
        fn long_runs_cross_accumulator_flushes() {
            let mut w = BitWriter::new();
            w.write_bit(true);
            w.write_run(false, 130);
            w.write_bit(true);
            assert_eq!(w.bits_written(), 132);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), 17);
            assert_eq!(bytes[0], 0b1000_0000);
            assert!(bytes[1..16].iter().all(|&b| b == 0));
            // Bit 131 (0-based) is the final 1: byte 16, bit position 3.
            assert_eq!(bytes[16], 0b0001_0000);
        }

        #[test]
        fn align_pads_with_zeros_and_keeps_count() {
            let mut w = BitWriter::new();
            w.write_bits(0b11, 2);
            w.align_to_byte();
            assert_eq!(w.bits_written(), 2, "padding is not counted");
            w.write_bit(true);
            assert_eq!(w.into_bytes(), vec![0b1100_0000, 0b1000_0000]);
        }

        #[test]
        fn align_when_already_aligned_is_noop() {
            let mut w = BitWriter::new();
            w.write_bits(0xAB, 8);
            w.align_to_byte();
            w.align_to_byte();
            assert_eq!(w.into_bytes(), vec![0xAB]);
        }

        /// Aligning moves every whole byte of the accumulator out ahead of
        /// the bits written after it.
        #[test]
        fn align_flushes_whole_buffered_bytes() {
            let mut w = BitWriter::new();
            w.write_bits(0xDEAD, 16);
            w.write_bits(0b101, 3);
            w.align_to_byte();
            w.write_bits(0xFF, 8);
            assert_eq!(w.bits_written(), 27);
            assert_eq!(w.into_bytes(), vec![0xDE, 0xAD, 0b1010_0000, 0xFF]);
        }
    }
}
