//! The wire protocol: length-framed binary requests and replies.
//!
//! Every message is one *frame*: a `u32` little-endian body length
//! followed by that many body bytes. Frames never exceed the server's
//! configured ceiling; a request frame whose declared length is larger is
//! answered with [`Status::TooLarge`] and the connection is closed without
//! reading the body. A reply that would be larger (a DECODE of a
//! container smaller than the ceiling can expand past it) is answered
//! with [`Status::TooLarge`] instead, and the connection serves on.
//!
//! Request bodies start with an [`Op`] byte:
//!
//! ```text
//! ENCODE  = [1][magic 4B][lanes u8][threads u8][depth u8][width u32][height u32]
//!              [tile_w u16][tile_h u16][model u8][samples]
//! DECODE  = [2][roi?][container bytes]    roi = [0x01][x u32][y u32][w u32][h u32]
//! PROBE   = [3][container bytes]
//! METRICS = [4]
//! ```
//!
//! `samples` are row-major, one byte per sample for depths ≤ 8 and two
//! little-endian bytes otherwise. `magic` routes the request to a codec by
//! its container magic (`CBIC`, `CBLS`, …); `threads` maps onto
//! [`EncodeOptions`](cbic_image::EncodeOptions) parallelism. `lanes` is
//! the byte of the retired coder lanes: it must be 1, and the server
//! answers any other value with [`Status::BadRequest`].
//! `tile_w`/`tile_h` of `0, 0` keep the flat container; nonzero values
//! request the proposed codec's v4 seekable tile grid. `model` is the
//! byte of the retired wide-hash context model: it must be 0, and the
//! server answers any other value with [`Status::BadRequest`].
//!
//! A DECODE body may carry an optional region-of-interest prefix: a
//! `0x01` sentinel byte then four `u32` LE fields (x, y, w, h in pixels).
//! The sentinel can never collide with a container, because every
//! registered magic starts with an ASCII letter (`C` = `0x43`). With an
//! ROI the reply holds only the crop's samples — over a v4 grid the
//! server decodes just the covering tiles.
//!
//! Reply bodies start with a [`Status`] byte:
//!
//! ```text
//! OK(ENCODE)  = [0][payload_bits u64][container]       payload_bits = u64::MAX when untracked
//! OK(DECODE)  = [0][width u32][height u32][depth u8][samples]
//! OK(PROBE)   = [0][name_len u8][name][width u32][height u32][depth u8]
//! OK(METRICS) = [0][utf-8 text]
//! error       = [status][msg_len u16][msg utf-8]
//! ```

use std::io::{self, IoSlice, Read, Write};

use cbic_image::ImageView;

/// Sentinel `payload_bits` value in an ENCODE reply: the codec does not
/// track exact payload bits for this container.
pub const PAYLOAD_BITS_UNTRACKED: u64 = u64::MAX;

/// Request operations (first body byte of a request frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Compress raw samples into a container.
    Encode = 1,
    /// Decompress a container into raw samples.
    Decode = 2,
    /// Decode a container but return only its geometry and codec name.
    Probe = 3,
    /// Fetch the metrics registry as Prometheus-style text.
    Metrics = 4,
}

impl Op {
    /// Parses an op byte; `None` for unknown operations.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(Op::Encode),
            2 => Some(Op::Decode),
            3 => Some(Op::Probe),
            4 => Some(Op::Metrics),
            _ => None,
        }
    }
}

/// Reply status (first body byte of a reply frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request served; payload follows per op.
    Ok = 0,
    /// Work queue full — retry later. The connection is closed.
    Busy = 1,
    /// Malformed frame body (bad op, short fields, invalid samples).
    BadRequest = 2,
    /// Request frame, reply or image larger than the server's configured
    /// ceiling.
    TooLarge = 3,
    /// The codec rejected the payload (bad magic, truncation, …).
    CodecError = 4,
    /// Server is draining for shutdown; no further requests are served.
    Draining = 5,
}

impl Status {
    /// Parses a status byte; `None` for unknown statuses.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Busy),
            2 => Some(Status::BadRequest),
            3 => Some(Status::TooLarge),
            4 => Some(Status::CodecError),
            5 => Some(Status::Draining),
            _ => None,
        }
    }
}

/// Writes one frame: `u32` LE length then the body.
///
/// Prefix and body go out in one gathered write, so over a socket a
/// frame leaves as one write (one segment when it fits) and the body is
/// not copied. `write_all` finishes a short write.
///
/// # Errors
///
/// Propagates the sink's I/O errors.
pub fn write_frame(sink: &mut dyn Write, body: &[u8]) -> io::Result<()> {
    let prefix = (body.len() as u32).to_le_bytes();
    let sent = match sink.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(body)]) {
        Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
        sent => sent?,
    };
    sink.write_all(&prefix[sent.min(4)..])?;
    sink.write_all(&body[sent.saturating_sub(4)..])?;
    sink.flush()
}

/// What [`read_frame`] found at the head of the stream.
#[derive(Debug)]
pub enum Frame {
    /// A complete frame body.
    Body(Vec<u8>),
    /// The peer closed the stream cleanly before a length prefix.
    Eof,
    /// The length prefix exceeds `max_len`; the body was *not* read.
    TooLarge(u32),
}

/// Reads one frame, enforcing the body-length ceiling *before* any
/// allocation proportional to the declared length, and before waiting
/// for any of the body. Over a socket, read through a
/// [`BufReader`](std::io::BufReader): a frame that arrived whole then
/// costs one `read`.
///
/// # Errors
///
/// Propagates the source's I/O errors; EOF mid-frame (after the length
/// prefix) surfaces as [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(source: &mut dyn Read, max_len: usize) -> io::Result<Frame> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte means the peer is done.
    match source.read(&mut len_buf) {
        Ok(0) => return Ok(Frame::Eof),
        Ok(n) => source.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len as usize > max_len {
        return Ok(Frame::TooLarge(len));
    }
    let mut body = vec![0u8; len as usize];
    source.read_exact(&mut body)?;
    Ok(Frame::Body(body))
}

/// A parsed ENCODE request body (everything after the op byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeRequest {
    /// Container magic selecting the codec.
    pub magic: [u8; 4],
    /// The byte of the retired coder lanes. It stays on the wire, must be
    /// 1, and the server answers any other value with
    /// [`Status::BadRequest`].
    pub lanes: u8,
    /// Worker threads for codecs with a parallel path (`0`/`1` =
    /// sequential).
    pub threads: u8,
    /// Sample bit depth, `1..=16`.
    pub bit_depth: u8,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// 2D tile size for the proposed codec's v4 seekable grid; `None`
    /// keeps the flat container. Carried as two `u16`s on the wire
    /// (`0, 0` = untiled).
    pub tile: Option<(u16, u16)>,
    /// The byte of the retired wide-hash context model: always 0 (the
    /// server answers any other value with [`Status::BadRequest`]).
    pub model: u8,
    /// Row-major samples, already widened to `u16`.
    pub samples: Vec<u16>,
}

impl EncodeRequest {
    /// The request to compress `img` with the codec owning `magic`, on
    /// `threads` workers, as a v4 grid of `tile` tiles (`None` keeps the
    /// flat container). The retired lane and model bytes take their only
    /// accepted values, 1 and 0.
    pub fn new(img: ImageView<'_>, magic: [u8; 4], threads: u8, tile: Option<(u16, u16)>) -> Self {
        Self {
            magic,
            lanes: 1,
            threads,
            bit_depth: img.bit_depth(),
            width: img.width() as u32,
            height: img.height() as u32,
            tile,
            model: 0,
            samples: img.rows().flat_map(<[u16]>::to_vec).collect(),
        }
    }

    /// Serializes the full request body (op byte included).
    pub fn to_body(&self) -> Vec<u8> {
        let wide = self.bit_depth > 8;
        let mut body = Vec::with_capacity(21 + self.samples.len() * if wide { 2 } else { 1 });
        body.push(Op::Encode as u8);
        body.extend_from_slice(&self.magic);
        body.push(self.lanes);
        body.push(self.threads);
        body.push(self.bit_depth);
        body.extend_from_slice(&self.width.to_le_bytes());
        body.extend_from_slice(&self.height.to_le_bytes());
        let (tw, th) = self.tile.unwrap_or((0, 0));
        body.extend_from_slice(&tw.to_le_bytes());
        body.extend_from_slice(&th.to_le_bytes());
        body.push(self.model);
        if wide {
            for &s in &self.samples {
                body.extend_from_slice(&s.to_le_bytes());
            }
        } else {
            body.extend(self.samples.iter().map(|&s| s as u8));
        }
        body
    }

    /// Parses the fields after the op byte.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(rest: &[u8]) -> Result<Self, String> {
        if rest.len() < 20 {
            return Err(format!("encode header needs 20 bytes, got {}", rest.len()));
        }
        let magic = [rest[0], rest[1], rest[2], rest[3]];
        let (lanes, threads, bit_depth) = (rest[4], rest[5], rest[6]);
        let width = u32::from_le_bytes(rest[7..11].try_into().expect("sized"));
        let height = u32::from_le_bytes(rest[11..15].try_into().expect("sized"));
        let tile_w = u16::from_le_bytes([rest[15], rest[16]]);
        let tile_h = u16::from_le_bytes([rest[17], rest[18]]);
        let tile = match (tile_w, tile_h) {
            (0, 0) => None,
            (0, _) | (_, 0) => {
                return Err(format!(
                    "tile geometry {tile_w}x{tile_h}: both dimensions must be nonzero (or both 0 for untiled)"
                ))
            }
            _ => Some((tile_w, tile_h)),
        };
        let model = rest[19];
        let pixels = (width as u64) * (height as u64);
        let data = &rest[20..];
        let wide = bit_depth > 8;
        let expect = pixels * if wide { 2 } else { 1 };
        if data.len() as u64 != expect {
            return Err(format!(
                "{width}x{height} at {bit_depth}-bit needs {expect} sample bytes, got {}",
                data.len()
            ));
        }
        let samples = if wide {
            data.chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect()
        } else {
            data.iter().map(|&b| u16::from(b)).collect()
        };
        Ok(Self {
            magic,
            lanes,
            threads,
            bit_depth,
            width,
            height,
            tile,
            model,
            samples,
        })
    }
}

/// The `0x01` sentinel introducing an optional DECODE region-of-interest
/// prefix. Container bytes can never start with it: every registered
/// magic begins with an ASCII letter.
pub const DECODE_ROI_SENTINEL: u8 = 0x01;

/// A parsed DECODE body: the optional ROI rect `(x, y, w, h)` and the
/// container bytes that follow it.
pub type DecodeRoiSplit<'a> = (Option<(u32, u32, u32, u32)>, &'a [u8]);

/// Splits a DECODE body (the bytes after the op byte) into its optional
/// ROI rect and the container bytes.
///
/// # Errors
///
/// A human-readable message when the sentinel is present but the 16-byte
/// rect is cut short.
pub fn split_decode_roi(rest: &[u8]) -> Result<DecodeRoiSplit<'_>, String> {
    match rest.first() {
        Some(&DECODE_ROI_SENTINEL) => {
            if rest.len() < 17 {
                return Err(format!(
                    "decode ROI prefix needs 17 bytes (sentinel + 4 u32 fields), got {}",
                    rest.len()
                ));
            }
            let f = |i: usize| u32::from_le_bytes(rest[i..i + 4].try_into().expect("sized"));
            Ok((Some((f(1), f(5), f(9), f(13))), &rest[17..]))
        }
        _ => Ok((None, rest)),
    }
}

/// Serializes a DECODE ROI prefix (sentinel + x, y, w, h as `u32` LE).
pub fn encode_decode_roi(x: u32, y: u32, w: u32, h: u32) -> [u8; 17] {
    let mut out = [0u8; 17];
    out[0] = DECODE_ROI_SENTINEL;
    out[1..5].copy_from_slice(&x.to_le_bytes());
    out[5..9].copy_from_slice(&y.to_le_bytes());
    out[9..13].copy_from_slice(&w.to_le_bytes());
    out[13..17].copy_from_slice(&h.to_le_bytes());
    out
}

/// Serializes an error reply body: `[status][msg_len u16][msg]`.
pub fn error_body(status: Status, msg: &str) -> Vec<u8> {
    let msg = msg.as_bytes();
    let len = msg.len().min(u16::MAX as usize);
    let mut body = Vec::with_capacity(3 + len);
    body.push(status as u8);
    body.extend_from_slice(&(len as u16).to_le_bytes());
    body.extend_from_slice(&msg[..len]);
    body
}

/// Parses an error reply body's message (the bytes after the status).
pub fn parse_error_msg(rest: &[u8]) -> String {
    if rest.len() < 2 {
        return String::new();
    }
    let len = u16::from_le_bytes([rest[0], rest[1]]) as usize;
    String::from_utf8_lossy(&rest[2..rest.len().min(2 + len)]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbic_image::Image;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        assert_eq!(&wire[..4], &5u32.to_le_bytes());
        match read_frame(&mut &wire[..], 64).unwrap() {
            Frame::Body(b) => assert_eq!(b, b"hello"),
            other => panic!("{other:?}"),
        }
    }

    /// Accepts at most `limit` bytes per call and counts the calls.
    struct Trickle {
        wire: Vec<u8>,
        limit: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.limit);
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut sent = 0;
            for buf in bufs {
                let n = buf.len().min(self.limit - sent);
                self.wire.extend_from_slice(&buf[..n]);
                sent += n;
            }
            Ok(sent)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_is_one_write_and_survives_short_writes() {
        let body: Vec<u8> = (0..40).collect();
        let mut expect = 40u32.to_le_bytes().to_vec();
        expect.extend_from_slice(&body);
        for limit in [1, 3, 4, 5, 43, 44, 1000] {
            let mut sink = Trickle {
                wire: Vec::new(),
                limit,
                calls: 0,
            };
            write_frame(&mut sink, &body).unwrap();
            assert_eq!(sink.wire, expect, "limit {limit}");
            if limit >= expect.len() {
                assert_eq!(sink.calls, 1, "a whole frame is one write");
            }
        }
    }

    #[test]
    fn frame_reports_clean_eof_and_oversize_without_reading_body() {
        assert!(matches!(read_frame(&mut &[][..], 64).unwrap(), Frame::Eof));
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 100]).unwrap();
        match read_frame(&mut &wire[..], 64).unwrap() {
            Frame::TooLarge(len) => assert_eq!(len, 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frame_errors_on_mid_frame_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[7u8; 32]).unwrap();
        let err = read_frame(&mut &wire[..10], 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Cut inside the length prefix itself.
        let err = read_frame(&mut &wire[..2], 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn encode_request_roundtrips_both_sample_widths() {
        for (depth, samples) in [(8u8, vec![0u16, 255, 7]), (12, vec![0, 4095, 300])] {
            for tile in [None, Some((256u16, 128u16))] {
                for model in [0u8, 11] {
                    let req = EncodeRequest {
                        magic: *b"CBIC",
                        lanes: 4,
                        threads: 2,
                        bit_depth: depth,
                        width: 3,
                        height: 1,
                        tile,
                        model,
                        samples: samples.clone(),
                    };
                    let body = req.to_body();
                    assert_eq!(body[0], Op::Encode as u8);
                    assert_eq!(body[20], model, "model byte after the tile words");
                    assert_eq!(EncodeRequest::parse(&body[1..]).unwrap(), req);
                }
            }
        }
    }

    #[test]
    fn encode_request_rejects_sample_count_mismatch() {
        let req = EncodeRequest::new(Image::new(4, 4).view(), *b"CBIC", 0, None);
        assert_eq!((req.lanes, req.model, req.samples.len()), (1, 0, 16));
        let mut body = req.to_body();
        assert_eq!(EncodeRequest::parse(&body[1..]).unwrap(), req);
        body.pop();
        assert!(EncodeRequest::parse(&body[1..]).is_err());
        assert!(EncodeRequest::parse(&[0u8; 3]).is_err());
    }

    #[test]
    fn encode_request_rejects_half_zero_tile() {
        let req = EncodeRequest::new(Image::new(2, 2).view(), *b"CBIC", 0, Some((16, 16)));
        let mut body = req.to_body();
        body[18] = 0; // tile_w low byte -> 0x0000 while tile_h stays nonzero
        body[19] = 0;
        assert!(EncodeRequest::parse(&body[1..]).is_err());
    }

    #[test]
    fn decode_roi_prefix_roundtrips_and_absent_means_whole_image() {
        let prefix = encode_decode_roi(7, 9, 100, 50);
        let mut body = prefix.to_vec();
        body.extend_from_slice(b"CBICrest");
        let (roi, container) = split_decode_roi(&body).unwrap();
        assert_eq!(roi, Some((7, 9, 100, 50)));
        assert_eq!(container, b"CBICrest");
        // No sentinel: the whole body is the container.
        let (roi, container) = split_decode_roi(b"CBICrest").unwrap();
        assert_eq!(roi, None);
        assert_eq!(container, b"CBICrest");
        // Sentinel with a short rect is an error, not a panic.
        assert!(split_decode_roi(&[DECODE_ROI_SENTINEL, 1, 2]).is_err());
        // Empty body passes through (the codec will reject it).
        assert_eq!(split_decode_roi(&[]).unwrap(), (None, &[][..]));
    }

    #[test]
    fn error_body_roundtrips_and_truncates() {
        let body = error_body(Status::BadRequest, "nope");
        assert_eq!(body[0], Status::BadRequest as u8);
        assert_eq!(parse_error_msg(&body[1..]), "nope");
        assert_eq!(parse_error_msg(&[]), "");
    }

    #[test]
    fn op_and_status_bytes_roundtrip() {
        for op in [Op::Encode, Op::Decode, Op::Probe, Op::Metrics] {
            assert_eq!(Op::from_byte(op as u8), Some(op));
        }
        assert_eq!(Op::from_byte(0), None);
        for st in [
            Status::Ok,
            Status::Busy,
            Status::BadRequest,
            Status::TooLarge,
            Status::CodecError,
            Status::Draining,
        ] {
            assert_eq!(Status::from_byte(st as u8), Some(st));
        }
        assert_eq!(Status::from_byte(99), None);
    }
}
