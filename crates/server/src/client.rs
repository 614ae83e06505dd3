//! A blocking client for the service protocol, used by `cbic-loadgen`
//! and the integration tests. One [`Client`] wraps one connection and
//! issues request/reply frames in order.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cbic_image::{Image, ImageView};

use crate::protocol::{
    encode_decode_roi, parse_error_msg, read_frame, write_frame, EncodeRequest, Frame, Op, Status,
    PAYLOAD_BITS_UNTRACKED,
};

/// Largest reply body the client will accept (matches the server's
/// default frame ceiling).
const MAX_REPLY_BYTES: usize = 64 << 20;

/// What the service answered.
#[derive(Debug)]
pub enum Reply {
    /// ENCODE: the container plus exact payload bits when tracked.
    Encoded {
        /// The self-describing container bytes.
        container: Vec<u8>,
        /// Exact entropy-coded payload bits, when the codec tracks them.
        payload_bits: Option<u64>,
    },
    /// DECODE: the reconstructed image.
    Decoded(Image),
    /// PROBE: codec name and geometry without the pixels.
    Probed {
        /// Registered name of the codec that owns the container.
        codec: String,
        /// Image width in pixels.
        width: u32,
        /// Image height in pixels.
        height: u32,
        /// Sample bit depth.
        bit_depth: u8,
    },
    /// METRICS: the Prometheus-style text page.
    Metrics(String),
    /// Any non-OK status, with the server's message.
    Error {
        /// The reply status byte.
        status: Status,
        /// Human-readable server-side description.
        message: String,
    },
}

/// One blocking protocol connection.
pub struct Client {
    /// Replies are read through the buffer, so a reply that arrived whole
    /// costs one `read`; requests go straight to the socket.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects and applies the given socket timeout to reads and writes.
    ///
    /// # Errors
    ///
    /// Socket-level connect/configure failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // Requests are single small frames; leaving Nagle on costs a
        // delayed-ACK round trip per request.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::new(stream),
        })
    }

    /// Sends a raw frame body and reads the reply frame.
    ///
    /// # Errors
    ///
    /// Transport failures, a closed connection, or an oversized reply.
    pub fn roundtrip(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(self.stream.get_mut(), body)?;
        self.read_reply()
    }

    /// Compresses `img` remotely with the codec owning `magic`.
    ///
    /// `lanes` is sent as the request's lane byte unchanged. Coder lanes
    /// are retired, so the server accepts only 1 and answers any other
    /// value with a [`Reply::Error`].
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed reply; server-side rejections
    /// come back as [`Reply::Error`].
    pub fn encode(
        &mut self,
        img: ImageView<'_>,
        magic: [u8; 4],
        lanes: u8,
        threads: u8,
    ) -> io::Result<Reply> {
        self.send_encode(EncodeRequest {
            lanes,
            ..encode_request(img, magic, threads, None)
        })
    }

    /// [`encode`](Self::encode) with an optional v4 tile-grid geometry
    /// (proposed codec only; `None` keeps the flat container).
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode).
    pub fn encode_tiled(
        &mut self,
        img: ImageView<'_>,
        magic: [u8; 4],
        threads: u8,
        tile: Option<(u16, u16)>,
    ) -> io::Result<Reply> {
        self.send_encode(encode_request(img, magic, threads, tile))
    }

    /// Sends one ENCODE request and parses its reply.
    fn send_encode(&mut self, req: EncodeRequest) -> io::Result<Reply> {
        let reply = self.roundtrip(&req.to_body())?;
        let rest = check_status(&reply)?;
        let Some(rest) = rest else {
            return parse_error(&reply);
        };
        if rest.len() < 8 {
            return Err(malformed("encode reply shorter than its bit count"));
        }
        let bits = u64::from_le_bytes(rest[..8].try_into().expect("sized"));
        Ok(Reply::Encoded {
            container: rest[8..].to_vec(),
            payload_bits: (bits != PAYLOAD_BITS_UNTRACKED).then_some(bits),
        })
    }

    /// Decompresses a container remotely.
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed reply.
    pub fn decode(&mut self, container: &[u8]) -> io::Result<Reply> {
        let mut body = Vec::with_capacity(1 + container.len());
        body.push(Op::Decode as u8);
        body.extend_from_slice(container);
        self.decode_body(body)
    }

    /// Region-of-interest decode: the reply holds only the `w`×`h` crop
    /// at `(x, y)`. Over a v4 tile-grid container the server decodes only
    /// the covering tiles.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode); an out-of-bounds rect comes back as
    /// [`Reply::Error`].
    pub fn decode_roi(
        &mut self,
        container: &[u8],
        x: u32,
        y: u32,
        w: u32,
        h: u32,
    ) -> io::Result<Reply> {
        let mut body = Vec::with_capacity(18 + container.len());
        body.push(Op::Decode as u8);
        body.extend_from_slice(&encode_decode_roi(x, y, w, h));
        body.extend_from_slice(container);
        self.decode_body(body)
    }

    fn decode_body(&mut self, body: Vec<u8>) -> io::Result<Reply> {
        let reply = self.roundtrip(&body)?;
        let Some(rest) = check_status(&reply)? else {
            return parse_error(&reply);
        };
        if rest.len() < 9 {
            return Err(malformed("decode reply shorter than its geometry"));
        }
        let width = u32::from_le_bytes(rest[..4].try_into().expect("sized")) as usize;
        let height = u32::from_le_bytes(rest[4..8].try_into().expect("sized")) as usize;
        let bit_depth = rest[8];
        let data = &rest[9..];
        let samples: Vec<u16> = if bit_depth > 8 {
            data.chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect()
        } else {
            data.iter().map(|&b| u16::from(b)).collect()
        };
        let img = Image::from_samples(width, height, bit_depth, samples)
            .map_err(|e| malformed(&format!("decode reply: {e}")))?;
        Ok(Reply::Decoded(img))
    }

    /// Asks the service to identify a container without returning pixels.
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed reply.
    pub fn probe(&mut self, container: &[u8]) -> io::Result<Reply> {
        let mut body = Vec::with_capacity(1 + container.len());
        body.push(Op::Probe as u8);
        body.extend_from_slice(container);
        let reply = self.roundtrip(&body)?;
        let Some(rest) = check_status(&reply)? else {
            return parse_error(&reply);
        };
        if rest.is_empty() {
            return Err(malformed("probe reply missing codec name"));
        }
        let name_len = rest[0] as usize;
        if rest.len() < 1 + name_len + 9 {
            return Err(malformed("probe reply shorter than its geometry"));
        }
        let codec = String::from_utf8_lossy(&rest[1..1 + name_len]).into_owned();
        let geo = &rest[1 + name_len..];
        Ok(Reply::Probed {
            codec,
            width: u32::from_le_bytes(geo[..4].try_into().expect("sized")),
            height: u32::from_le_bytes(geo[4..8].try_into().expect("sized")),
            bit_depth: geo[8],
        })
    }

    /// Fetches the metrics text page.
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed reply.
    pub fn metrics(&mut self) -> io::Result<Reply> {
        let reply = self.roundtrip(&[Op::Metrics as u8])?;
        let Some(rest) = check_status(&reply)? else {
            return parse_error(&reply);
        };
        Ok(Reply::Metrics(String::from_utf8_lossy(rest).into_owned()))
    }

    /// Sends raw bytes without framing — for tests that exercise the
    /// server's handling of malformed transports.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.get_mut().write_all(bytes)
    }

    /// Reads one reply frame without sending anything first.
    ///
    /// # Errors
    ///
    /// Transport failures or an oversized reply.
    pub fn read_reply(&mut self) -> io::Result<Vec<u8>> {
        match read_frame(&mut self.stream, MAX_REPLY_BYTES)? {
            Frame::Body(reply) => Ok(reply),
            Frame::Eof => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection before replying",
            )),
            Frame::TooLarge(len) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply frame of {len} bytes exceeds the client ceiling"),
            )),
        }
    }

    /// Half-closes the write side so the server sees a clean EOF.
    ///
    /// # Errors
    ///
    /// Socket shutdown failures.
    pub fn finish(&mut self) -> io::Result<()> {
        self.stream.get_ref().shutdown(std::net::Shutdown::Write)
    }

    /// Reads until the server closes the connection, discarding bytes.
    pub fn drain(&mut self) {
        let _ = io::copy(&mut self.stream, &mut io::sink());
    }
}

/// The ENCODE request for `img`, with the lane byte at its only valid
/// value, 1.
fn encode_request(
    img: ImageView<'_>,
    magic: [u8; 4],
    threads: u8,
    tile: Option<(u16, u16)>,
) -> EncodeRequest {
    EncodeRequest {
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

/// `Ok(Some(rest))` for an OK reply, `Ok(None)` for a recognized non-OK
/// status (parse with [`parse_error`]), `Err` for garbage.
fn check_status(reply: &[u8]) -> io::Result<Option<&[u8]>> {
    let Some(&status_byte) = reply.first() else {
        return Err(malformed("empty reply body"));
    };
    match Status::from_byte(status_byte) {
        Some(Status::Ok) => Ok(Some(&reply[1..])),
        Some(_) => Ok(None),
        None => Err(malformed(&format!("unknown status byte {status_byte}"))),
    }
}

fn parse_error(reply: &[u8]) -> io::Result<Reply> {
    let status = Status::from_byte(reply[0]).expect("checked by check_status");
    Ok(Reply::Error {
        status,
        message: parse_error_msg(&reply[1..]),
    })
}

fn malformed(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}
