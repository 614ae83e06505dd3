//! The abstract bit-sink/bit-source interfaces every coder codes against.
//!
//! [`StreamBitWriter`](crate::StreamBitWriter) and
//! [`StreamBitReader`](crate::StreamBitReader) are the one implementation
//! of each, over any `std::io` writer or reader; [`BitWriter`](crate::BitWriter)
//! and [`BitReader`](crate::BitReader) name their in-memory instances. The
//! traits keep the arithmetic coder (and everything above it) apart from
//! the transport, so test doubles and recorders can stand in for the bit
//! I/O.

/// An MSB-first sink of individual bits.
///
/// The first bit written becomes bit 7 of the first output byte, matching
/// the serialization order of the hardware shift registers the paper
/// targets.
pub trait BitSink {
    /// Appends a single bit (`true` = 1).
    fn write_bit(&mut self, bit: bool);

    /// Total number of bits written so far (not counting flush padding).
    fn bits_written(&self) -> u64;

    /// Appends the low `count` bits of `value`, most significant bit first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`, or if `value` has bits set above `count`
    /// (that would silently lose data).
    #[inline]
    fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count < 64 {
            assert!(
                value >> count == 0,
                "value {value:#x} does not fit in {count} bits"
            );
        }
        for i in (0..count).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Appends `count` copies of `bit`. Used by unary (Golomb) coders.
    #[inline]
    fn write_run(&mut self, bit: bool, count: u64) {
        for _ in 0..count {
            self.write_bit(bit);
        }
    }
}

/// An MSB-first source of individual bits.
///
/// Two read flavours are required: padded reads yield `0` bits once the real input is exhausted (the
/// convention arithmetic decoders rely on when the final code word was
/// truncated at a byte boundary), while the `try_` variants report
/// exhaustion.
pub trait BitSource {
    /// Reads one bit, or `None` if the input is exhausted.
    fn try_read_bit(&mut self) -> Option<bool>;

    /// Reads one bit, yielding `false` once the input is exhausted.
    /// Padding bits are counted by both [`Self::bits_read`] and
    /// [`Self::padding_bits`].
    fn read_bit(&mut self) -> bool;

    /// Total bits consumed so far, including zero-padding reads.
    fn bits_read(&self) -> u64;

    /// Number of zero-padding bits served past the end of the real input.
    ///
    /// A decoder that consumed a well-formed stream reads at most a few
    /// dozen padding bits (its register preload); a large count is the
    /// signature of a truncated stream.
    fn padding_bits(&self) -> u64;

    /// Reads `count` bits MSB-first, zero-padding past the end of input.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    fn read_bits(&mut self, count: u32) -> u64 {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        let mut v = 0u64;
        for _ in 0..count {
            v = (v << 1) | u64::from(self.read_bit());
        }
        v
    }

    /// Reads `count` bits MSB-first, or `None` if fewer than `count` remain.
    ///
    /// On `None` the source position is unspecified (the stream is treated
    /// as corrupt).
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    fn try_read_bits(&mut self, count: u32) -> Option<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        let mut v = 0u64;
        for _ in 0..count {
            v = (v << 1) | u64::from(self.try_read_bit()?);
        }
        Some(v)
    }

    /// Reads bits until a `true` bit is consumed, returning the number of
    /// `false` bits skipped. Used to decode unary (Golomb quotient) codes.
    ///
    /// Returns `None` if the input ends before a `true` bit is found.
    fn read_unary(&mut self) -> Option<u64> {
        let mut zeros = 0u64;
        loop {
            match self.try_read_bit()? {
                true => return Some(zeros),
                false => zeros += 1,
            }
        }
    }
}
