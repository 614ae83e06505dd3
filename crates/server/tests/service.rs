//! Live-socket integration tests: a real [`Server`] on an ephemeral
//! port, driven through the real [`Client`] — per-codec round-trips,
//! structured rejection of oversized and truncated requests, busy
//! backpressure, a concurrent soak, idle sockets, fresh-connection
//! latency, and the graceful drain.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cbic_core::{compress, CodecConfig};
use cbic_image::corpus::CorpusImage;
use cbic_image::Image;
use cbic_server::client::{Client, Reply};
use cbic_server::protocol::{EncodeRequest, Status};
use cbic_server::server::{Server, ServerConfig, ServerHandle};
use cbic_universal::codecs::default_registry;

const TIMEOUT: Duration = Duration::from_secs(10);

fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

#[test]
fn every_registry_codec_roundtrips_over_the_socket() {
    let handle = spawn_server(test_config());
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let img = CorpusImage::Goldhill.generate(32, 32);
    let registry = default_registry();
    for codec in registry.codecs() {
        let magic = codec.magic().expect("workspace codecs are magic-routed");
        let Reply::Encoded { container, .. } =
            client.encode(img.view(), magic, 1, 0).expect("encode rpc")
        else {
            panic!("{} encode refused", codec.name());
        };
        assert_eq!(&container[..4], &magic, "{}", codec.name());
        let Reply::Decoded(back) = client.decode(&container).expect("decode rpc") else {
            panic!("{} decode refused", codec.name());
        };
        assert_eq!(back, img, "{}", codec.name());
        // And the service identifies its own output.
        let Reply::Probed {
            codec: probed,
            width,
            height,
            bit_depth,
        } = client.probe(&container).expect("probe rpc")
        else {
            panic!("{} probe refused", codec.name());
        };
        assert_eq!(probed, codec.name());
        assert_eq!((width, height, bit_depth), (32, 32, 8));
    }
    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn encodes_match_the_local_container_bit_for_bit() {
    let handle = spawn_server(test_config());
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let img = CorpusImage::Lena.generate(24, 24);
    let Reply::Encoded {
        container,
        payload_bits,
    } = client
        .encode(img.view(), *b"CBIC", 1, 0)
        .expect("encode rpc")
    else {
        panic!("encode refused");
    };
    assert_eq!(container, compress(img.view(), &CodecConfig::default()));
    // The session path reports exact payload bits, bounded by the
    // container's payload bytes.
    let bits = payload_bits.expect("proposed codec tracks payload bits");
    assert!(bits > 0 && bits <= container.len() as u64 * 8);
    // 16-bit samples over the same wire format.
    let deep = Image::from_fn16(20, 20, 12, |x, y| ((x * 101 + y * 57) % 4096) as u16);
    let Reply::Encoded { container, .. } = client
        .encode(deep.view(), *b"CBIC", 1, 0)
        .expect("encode rpc")
    else {
        panic!("12-bit encode refused");
    };
    let Reply::Decoded(back) = client.decode(&container).expect("decode rpc") else {
        panic!("12-bit decode refused");
    };
    assert_eq!(back, deep);
    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn retired_lanes_get_error_replies_and_the_connection_keeps_serving() {
    // A container of the retired lane-interleaved version 3.
    const V3: &[u8] = include_bytes!("../../../tests/golden/proposed_lanes4_lena_32.bin");
    let handle = spawn_server(test_config());
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let img = CorpusImage::Lena.generate(32, 32);
    for _ in 0..2 {
        let Reply::Error { status, message } = client.decode(V3).expect("decode rpc") else {
            panic!("a version-3 container must be refused");
        };
        assert_eq!(status, Status::CodecError);
        assert!(
            message.contains("version 3") && message.contains("retired"),
            "{message}"
        );
        for lanes in [0u8, 2, 4] {
            let Reply::Error { status, message } = client
                .encode(img.view(), *b"CBIC", lanes, 0)
                .expect("encode rpc")
            else {
                panic!("lanes {lanes} must be refused");
            };
            assert_eq!(status, Status::BadRequest, "lanes {lanes}");
            assert!(message.contains("lane"), "{message}");
        }
        // The same connection still serves a one-lane round trip.
        let Reply::Encoded { container, .. } = client
            .encode(img.view(), *b"CBIC", 1, 0)
            .expect("encode rpc")
        else {
            panic!("one-lane encode refused");
        };
        let Reply::Decoded(back) = client.decode(&container).expect("decode rpc") else {
            panic!("decode refused");
        };
        assert_eq!(back, img);
    }
    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn retired_formats_get_error_replies_and_the_connection_keeps_serving() {
    // The retired band container, a container of the retired wide-hash
    // model (version 5), the retired universal container and a JPEG-LS
    // container of the retired near-lossless mode (the lossless fixture
    // with its NEAR byte forged to 3).
    const CBTI: &[u8] = include_bytes!("../../../tests/golden/tiled_lena_32.bin");
    const V5: &[u8] = include_bytes!("../../../tests/golden/proposed_wide_lena_32.bin");
    const CBUN: &[u8] = include_bytes!("../../../tests/golden/universal_mixed.bin");
    let mut near = include_bytes!("../../../tests/golden/jpegls_lena_32.bin").to_vec();
    near[12] = 3;
    let handle = spawn_server(test_config());
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let img = CorpusImage::Lena.generate(32, 32);
    for _ in 0..2 {
        for (container, expect) in [
            (CBTI, "CBTI"),
            (V5, "version 5: the wide-hash context model is retired"),
            (CBUN, "CBUN"),
            (&near[..], "near-lossless"),
        ] {
            let Reply::Error { status, message } = client.decode(container).expect("decode rpc")
            else {
                panic!("a retired {expect} container must be refused");
            };
            assert_eq!(status, Status::CodecError);
            assert!(message.contains(expect), "{message}");
        }
        // An ENCODE asking for the wide-hash model (banks_log2 10).
        let req = EncodeRequest {
            magic: *b"CBIC",
            lanes: 1,
            threads: 0,
            bit_depth: 8,
            width: 32,
            height: 32,
            tile: None,
            model: 10,
            samples: img.samples().to_vec(),
        };
        let reply = client.roundtrip(&req.to_body()).expect("encode rpc");
        assert_eq!(Status::from_byte(reply[0]), Some(Status::BadRequest));
        // The same connection still serves a classic round trip.
        let Reply::Encoded { container, .. } = client
            .encode(img.view(), *b"CBIC", 1, 0)
            .expect("encode rpc")
        else {
            panic!("classic encode refused");
        };
        assert_eq!(container, compress(img.view(), &CodecConfig::default()));
        let Reply::Decoded(back) = client.decode(&container).expect("decode rpc") else {
            panic!("decode refused");
        };
        assert_eq!(back, img);
    }
    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn forged_huge_container_gets_an_error_reply_and_the_connection_keeps_serving() {
    // A 32x32 container whose header claims 4096x4096: the decoder runs
    // out of payload in the first row and must answer, not decode on.
    let img = CorpusImage::Lena.generate(32, 32);
    let mut forged = compress(img.view(), &CodecConfig::default());
    forged[6..10].copy_from_slice(&4096u32.to_le_bytes());
    forged[10..14].copy_from_slice(&4096u32.to_le_bytes());
    let handle = spawn_server(test_config());
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let Reply::Error { status, message } = client.decode(&forged).expect("decode rpc") else {
        panic!("a forged container must be refused");
    };
    assert_eq!(status, Status::CodecError);
    assert!(message.contains("truncated"), "{message}");
    let Reply::Encoded { container, .. } = client
        .encode(img.view(), *b"CBIC", 1, 0)
        .expect("encode rpc")
    else {
        panic!("encode refused");
    };
    let Reply::Decoded(back) = client.decode(&container).expect("decode rpc") else {
        panic!("decode refused");
    };
    assert_eq!(back, img);
    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn session_reuse_is_deterministic_across_requests() {
    // The same image encoded twice on one connection (same worker
    // session, reset in place) must produce identical bytes — and they
    // must match a fresh server's first encode.
    let handle = spawn_server(ServerConfig {
        workers: 1,
        ..test_config()
    });
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let img = CorpusImage::Barb.generate(32, 32);
    let mut encodes = Vec::new();
    for _ in 0..3 {
        let Reply::Encoded { container, .. } = client
            .encode(img.view(), *b"CBIC", 1, 0)
            .expect("encode rpc")
        else {
            panic!("encode refused");
        };
        encodes.push(container);
    }
    let fresh = compress(img.view(), &CodecConfig::default());
    for container in &encodes {
        assert_eq!(container, &fresh, "session reuse must be stateless");
    }
    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn oversized_frames_are_refused_before_the_body_is_read() {
    let handle = spawn_server(ServerConfig {
        max_frame_bytes: 1024,
        ..test_config()
    });
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    // Declare a 2 MiB frame; send only the prefix. The server must
    // answer TooLarge immediately without waiting for (or allocating)
    // the body.
    client
        .send_raw(&(2u32 << 20).to_le_bytes())
        .expect("send oversized length");
    let reply = client.read_reply().expect("too-large reply");
    assert_eq!(Status::from_byte(reply[0]), Some(Status::TooLarge));
    assert_eq!(handle.metrics().too_large.load(Relaxed), 1);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn replies_over_the_frame_ceiling_are_refused_and_the_connection_keeps_serving() {
    // The container of a 64x64 lena fits a 4096-byte ceiling, but its
    // decoded reply (10 header bytes and 4096 samples) does not.
    let img = CorpusImage::Lena.generate(64, 64);
    let container = compress(img.view(), &CodecConfig::default());
    assert!(container.len() < 4000, "{} bytes", container.len());
    let handle = spawn_server(ServerConfig {
        max_frame_bytes: 4096,
        ..test_config()
    });
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let Reply::Error { status, message } = client.decode(&container).expect("decode rpc") else {
        panic!("a reply over the ceiling must be refused");
    };
    assert_eq!(status, Status::TooLarge);
    assert!(
        message.contains("4106 bytes") && message.contains("4096-byte"),
        "{message}"
    );
    assert_eq!(handle.metrics().too_large.load(Relaxed), 1);
    let Reply::Probed { width, height, .. } = client.probe(&container).expect("probe rpc") else {
        panic!("the same connection must still answer a probe");
    };
    assert_eq!((width, height), (64, 64));
    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn truncated_frames_and_garbage_never_kill_the_server() {
    let handle = spawn_server(test_config());

    // Half a frame, then EOF.
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    client.send_raw(&100u32.to_le_bytes()).expect("length");
    client.send_raw(&[0u8; 10]).expect("partial body");
    client.finish().expect("half-close");
    client.drain();

    // A complete frame holding a malformed encode body.
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let reply = client.roundtrip(&[1u8, 2, 3]).expect("reply");
    assert_eq!(Status::from_byte(reply[0]), Some(Status::BadRequest));

    // An unknown op byte.
    let reply = client.roundtrip(&[99u8]).expect("reply");
    assert_eq!(Status::from_byte(reply[0]), Some(Status::BadRequest));

    // Garbage container bytes to DECODE.
    let mut body = vec![2u8];
    body.extend_from_slice(b"NOPE this is not a container");
    let reply = client.roundtrip(&body).expect("reply");
    assert_eq!(Status::from_byte(reply[0]), Some(Status::CodecError));

    // A truncated (but magic-valid) container to DECODE.
    let img = CorpusImage::Zelda.generate(16, 16);
    let container = cbic_core::compress(img.view(), &CodecConfig::default());
    let mut body = vec![2u8];
    body.extend_from_slice(&container[..container.len() / 2]);
    let reply = client.roundtrip(&body).expect("reply");
    assert_eq!(Status::from_byte(reply[0]), Some(Status::CodecError));

    // After all of that, the server still serves correct work.
    let Reply::Encoded { container, .. } = client
        .encode(img.view(), *b"CBIC", 1, 0)
        .expect("encode rpc")
    else {
        panic!("encode refused");
    };
    let Reply::Decoded(back) = client.decode(&container).expect("decode rpc") else {
        panic!("decode refused");
    };
    assert_eq!(back, img);
    assert!(handle.metrics().io_errors.load(Relaxed) >= 1);
    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn full_queue_answers_busy_instead_of_queueing_unboundedly() {
    let handle = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });

    // Occupy the single worker: a connection holding an unfinished frame
    // keeps it blocked in read until the 2 s socket timeout.
    let mut hog = TcpStream::connect(handle.addr()).expect("connect hog");
    hog.write_all(&64u32.to_le_bytes()).expect("partial frame");
    std::thread::sleep(Duration::from_millis(300));

    // Fill the one queue slot with an idle connection.
    let _queued = TcpStream::connect(handle.addr()).expect("connect queued");
    std::thread::sleep(Duration::from_millis(300));

    // The next connection must be refused with a structured Busy reply.
    let mut refused = Client::connect(handle.addr(), TIMEOUT).expect("connect refused");
    let reply = refused.read_reply().expect("busy reply");
    assert_eq!(Status::from_byte(reply[0]), Some(Status::Busy));
    assert!(handle.metrics().busy_rejections.load(Relaxed) >= 1);
    drop(hog);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn concurrent_soak_counts_every_request_exactly_once() {
    const CONNS: usize = 8;
    const REQS: usize = 12;
    let handle = spawn_server(ServerConfig {
        workers: 4,
        ..test_config()
    });
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for worker in 0..CONNS {
            scope.spawn(move || {
                let mut client = Client::connect(addr, TIMEOUT).expect("connect");
                let img = CorpusImage::ALL[worker % CorpusImage::ALL.len()].generate(24, 24);
                for i in 0..REQS {
                    let Reply::Encoded { container, .. } = client
                        .encode(img.view(), *b"CBIC", 1, 0)
                        .expect("encode rpc")
                    else {
                        panic!("encode refused");
                    };
                    let Reply::Decoded(back) = client.decode(&container).expect("decode rpc")
                    else {
                        panic!("decode refused");
                    };
                    assert_eq!(back, img, "conn {worker} req {i}");
                }
            });
        }
    });
    let metrics = handle.metrics();
    assert_eq!(metrics.encode_ok.load(Relaxed), (CONNS * REQS) as u64);
    assert_eq!(metrics.decode_ok.load(Relaxed), (CONNS * REQS) as u64);
    assert_eq!(
        metrics.pixels_encoded.load(Relaxed),
        (CONNS * REQS * 24 * 24) as u64
    );
    assert_eq!(metrics.queue_depth.load(Relaxed), 0);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn metrics_endpoint_renders_the_counters() {
    let handle = spawn_server(test_config());
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let img = CorpusImage::Peppers.generate(16, 16);
    let Reply::Encoded { .. } = client
        .encode(img.view(), *b"CBIC", 1, 0)
        .expect("encode rpc")
    else {
        panic!("encode refused");
    };
    let Reply::Metrics(text) = client.metrics().expect("metrics rpc") else {
        panic!("metrics refused");
    };
    assert!(text.contains("cbic_encode_requests_total 1"), "{text}");
    assert!(text.contains("cbic_connections_total 1"), "{text}");
    assert!(text.contains("cbic_encode_bpp_bucket"), "{text}");
    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn drain_answers_draining_then_exits_cleanly() {
    let handle = spawn_server(test_config());
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let img = CorpusImage::Boat.generate(16, 16);

    // A request before the drain is served normally.
    let Reply::Encoded { container, .. } = client
        .encode(img.view(), *b"CBIC", 1, 0)
        .expect("encode rpc")
    else {
        panic!("encode refused");
    };

    handle.begin_shutdown();
    std::thread::sleep(Duration::from_millis(100));

    // The live connection's next request gets a structured Draining
    // reply, not a dropped socket mid-write.
    let mut body = vec![2u8];
    body.extend_from_slice(&container);
    let reply = client.roundtrip(&body).expect("draining reply");
    assert_eq!(Status::from_byte(reply[0]), Some(Status::Draining));
    assert!(handle.metrics().draining_rejections.load(Relaxed) >= 1);

    drop(client);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn tiled_encode_and_roi_decode_over_a_live_socket() {
    let handle = spawn_server(test_config());
    let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
    let img = CorpusImage::Barb.generate(64, 48);

    // ENCODE with v4 tile geometry: the container must be a v4 grid.
    let Reply::Encoded { container, .. } = client
        .encode_tiled(img.view(), *b"CBIC", 2, Some((16, 16)))
        .expect("tiled encode rpc")
    else {
        panic!("tiled encode refused");
    };
    assert_eq!(&container[..4], b"CBIC");
    assert_eq!(container[4], 4, "tile geometry must produce a v4 container");

    // Whole-image DECODE of the v4 container still round-trips.
    let Reply::Decoded(back) = client.decode(&container).expect("decode rpc") else {
        panic!("v4 decode refused");
    };
    assert_eq!(back, img);

    // ROI decode returns exactly the crop — including one straddling
    // tile boundaries and a single pixel.
    for (x, y, w, h) in [(10u32, 12u32, 20u32, 20u32), (15, 15, 2, 2), (63, 47, 1, 1)] {
        let Reply::Decoded(crop) = client
            .decode_roi(&container, x, y, w, h)
            .expect("roi decode rpc")
        else {
            panic!("roi decode refused");
        };
        let reference = img
            .view()
            .crop(x as usize, y as usize, w as usize, h as usize)
            .to_image();
        assert_eq!(crop, reference, "roi ({x}, {y}) {w}x{h}");
    }

    // ROI over a *flat* container decodes fully server-side and crops.
    let flat = compress(img.view(), &CodecConfig::default());
    let Reply::Decoded(crop) = client
        .decode_roi(&flat, 5, 5, 10, 10)
        .expect("flat roi rpc")
    else {
        panic!("flat roi refused");
    };
    assert_eq!(crop, img.view().crop(5, 5, 10, 10).to_image());

    // Out-of-bounds rects are structured codec errors, not hangups.
    let Reply::Error { status, .. } = client
        .decode_roi(&container, 60, 40, 10, 10)
        .expect("oob roi rpc")
    else {
        panic!("out-of-bounds roi must be refused");
    };
    assert_eq!(status, Status::CodecError);

    // The codecs without random access decode fully and crop, and refuse
    // an out-of-bounds rect with the same status.
    for codec in default_registry().codecs() {
        let bytes = codec
            .encode_vec(img.view(), &cbic_image::EncodeOptions::default())
            .expect("local encode");
        let Reply::Decoded(crop) = client.decode_roi(&bytes, 5, 5, 10, 10).expect("roi rpc") else {
            panic!("{} roi refused", codec.name());
        };
        assert_eq!(
            crop,
            img.view().crop(5, 5, 10, 10).to_image(),
            "{}",
            codec.name()
        );
        let Reply::Error { status, .. } = client
            .decode_roi(&bytes, 60, 40, 10, 10)
            .expect("oob roi rpc")
        else {
            panic!("{}: out-of-bounds roi must be refused", codec.name());
        };
        assert_eq!(status, Status::CodecError, "{}", codec.name());
    }

    // Tile geometry on a codec without a grid path is a BadRequest.
    let Reply::Error { status, .. } = client
        .encode_tiled(img.view(), *b"CBT1", 0, Some((16, 16)))
        .expect("bad tiled encode rpc")
    else {
        panic!("tiled encode for a gridless codec must be refused");
    };
    assert!(
        matches!(status, Status::BadRequest),
        "expected BadRequest, got {status:?}"
    );

    handle.shutdown_and_join().expect("clean drain");
}

/// Spins until `done` holds; fails the test after `limit`.
fn wait_until(limit: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn idle_sockets_do_not_stall_other_clients() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(30),
        ..test_config()
    });
    // As many silent connections as session sets. A server that parks a
    // session set on each would leave the client below waiting out the
    // 30 s read timeout.
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect idle"))
        .collect();
    let metrics = handle.metrics();
    wait_until(
        Duration::from_secs(10),
        "both idle sockets accepted",
        || metrics.connections.load(Relaxed) >= 2,
    );

    let mut client = Client::connect(handle.addr(), Duration::from_secs(2)).expect("connect");
    for (i, class) in CorpusImage::ALL.iter().cycle().take(8).enumerate() {
        let img = class.generate(16, 16);
        let Reply::Encoded { container, .. } = client
            .encode(img.view(), *b"CBIC", 1, 0)
            .expect("encode rpc")
        else {
            panic!("encode {i} refused");
        };
        let Reply::Decoded(back) = client.decode(&container).expect("decode rpc") else {
            panic!("decode {i} refused");
        };
        assert_eq!(back, img, "round trip {i}");
    }
    drop(client);
    drop(idle);
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn fresh_connections_are_served_without_a_poll_delay() {
    let handle = spawn_server(test_config());
    // Rounds of 16 sequential fresh connections, each timed from connect
    // to METRICS reply. A polling accept loop makes every round wait out
    // its poll period; a later round only absorbs scheduler delays from
    // tests running alongside.
    let limit = Duration::from_millis(2);
    let mut medians = Vec::new();
    for _ in 0..5 {
        let mut waits: Vec<Duration> = (0..16)
            .map(|_| {
                let start = Instant::now();
                let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
                let Reply::Metrics(_) = client.metrics().expect("metrics rpc") else {
                    panic!("metrics refused");
                };
                start.elapsed()
            })
            .collect();
        waits.sort_unstable();
        medians.push(waits[waits.len() / 2]);
        if medians.last() < Some(&limit) {
            break;
        }
    }
    assert!(
        medians.last() < Some(&limit),
        "median connect-to-reply per round: {medians:?}"
    );
    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn shutdown_wakes_a_blocked_accept() {
    let reporter = Some(Duration::from_secs(60));
    for (addr, summary_interval, served_first) in [
        ("127.0.0.1:0", None, false),
        ("127.0.0.1:0", reporter, false),
        // A served request shows the accept loop running, so the
        // reporter, started before it, is inside its 60 s wait.
        ("127.0.0.1:0", reporter, true),
        // An unspecified bind address is woken through loopback.
        ("0.0.0.0:0", None, false),
    ] {
        let config = ServerConfig {
            summary_interval,
            ..test_config()
        };
        let handle = Server::bind(addr, config)
            .expect("bind ephemeral port")
            .spawn()
            .expect("spawn server thread");
        if served_first {
            let mut client = Client::connect(handle.addr(), TIMEOUT).expect("connect");
            let Reply::Metrics(_) = client.metrics().expect("metrics rpc") else {
                panic!("metrics refused");
            };
        }
        // Otherwise no connection ever arrives, so only the shutdown can
        // wake the accept loop. The helper thread keeps a regression from
        // hanging the suite.
        let (done, joined) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = done.send(handle.shutdown_and_join());
        });
        let result = joined
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| {
                panic!("{addr} {summary_interval:?} {served_first}: not drained within 1 s")
            });
        helper.join().expect("helper thread");
        result.expect("clean drain");
    }
}
