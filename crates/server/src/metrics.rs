//! Lock-free service metrics: a fixed set of atomic counters rendered as
//! Prometheus-style text (the METRICS op) and as a one-line stderr
//! summary (the periodic reporter thread).
//!
//! Everything is `Relaxed` atomics — the counters are monotonic tallies
//! read for human consumption, not synchronization points on the request
//! path.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Upper edges of the encode bit-rate histogram, in bits per pixel.
/// The final implicit bucket is `+Inf`.
pub const BPP_BUCKETS: [f64; 6] = [1.0, 2.0, 4.0, 6.0, 8.0, 12.0];

/// Upper edges of the per-operation latency histograms, in microseconds
/// (doubling from 250 µs to 32 ms — a 64×64 encode lands near the bottom,
/// a 4K frame near the top). The final implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS_US: [u64; 8] = [250, 500, 1000, 2000, 4000, 8000, 16000, 32000];

/// One latency histogram: per-bucket counts plus the running sum and
/// count, all `Relaxed` atomics (same discipline as the rest of the
/// registry — tallies, not synchronization).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    /// Count per [`LATENCY_BUCKETS_US`] bucket, plus the trailing `+Inf`.
    pub buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    /// Sum of all observed latencies, in microseconds.
    pub sum_us: AtomicU64,
    /// Number of observations.
    pub count: AtomicU64,
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn observe_us(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&edge| us <= edge)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Relaxed);
        self.sum_us.fetch_add(us, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    /// Mean observed latency in microseconds (zero before the first
    /// observation).
    pub fn mean_us(&self) -> f64 {
        let count = self.count.load(Relaxed);
        if count == 0 {
            return 0.0;
        }
        self.sum_us.load(Relaxed) as f64 / count as f64
    }

    /// Renders the histogram in Prometheus text format under `name`
    /// (seconds-free: bucket edges and sum stay in microseconds, and the
    /// unit is in the name as the convention requires).
    fn render_into(&self, out: &mut String, name: &str, help: &str) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Relaxed);
            let le = LATENCY_BUCKETS_US
                .get(i)
                .map_or("+Inf".to_string(), u64::to_string);
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_sum {}\n", self.sum_us.load(Relaxed)));
        out.push_str(&format!("{name}_count {}\n", self.count.load(Relaxed)));
    }
}

/// The service's counter registry. One instance is shared (via `Arc`) by
/// the accept loop, every connection thread, and the reporter thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted (including ones later refused as busy).
    pub connections: AtomicU64,
    /// Connections answered
    /// [`Status::Busy`](crate::protocol::Status::Busy) because
    /// `workers + queue_capacity` connections were live.
    pub busy_rejections: AtomicU64,
    /// Requests answered
    /// [`Status::Draining`](crate::protocol::Status::Draining) during
    /// shutdown.
    pub draining_rejections: AtomicU64,
    /// ENCODE requests served successfully.
    pub encode_ok: AtomicU64,
    /// DECODE requests served successfully.
    pub decode_ok: AtomicU64,
    /// PROBE requests served successfully.
    pub probe_ok: AtomicU64,
    /// METRICS requests served.
    pub metrics_ok: AtomicU64,
    /// Requests rejected as malformed.
    pub bad_requests: AtomicU64,
    /// Requests rejected as over the frame/image ceiling, or whose reply
    /// would have been.
    pub too_large: AtomicU64,
    /// Requests the codec layer rejected (bad magic, truncation, …).
    pub codec_errors: AtomicU64,
    /// Connections dropped on transport errors (timeouts, resets,
    /// mid-frame EOF).
    pub io_errors: AtomicU64,
    /// Request body bytes read.
    pub bytes_in: AtomicU64,
    /// Reply body bytes written.
    pub bytes_out: AtomicU64,
    /// Pixels pushed through ENCODE.
    pub pixels_encoded: AtomicU64,
    /// Pixels pushed through DECODE.
    pub pixels_decoded: AtomicU64,
    /// Requests currently waiting for a codec session set (gauge).
    pub queue_depth: AtomicU64,
    /// Encode bit-rate histogram: count per [`BPP_BUCKETS`] bucket, plus
    /// the trailing `+Inf` bucket.
    pub bpp_histogram: [AtomicU64; BPP_BUCKETS.len() + 1],
    /// Wall-clock latency of served ENCODE requests (codec work only, not
    /// transport).
    pub encode_latency: LatencyHistogram,
    /// Wall-clock latency of served DECODE requests.
    pub decode_latency: LatencyHistogram,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one encode observation to the bit-rate histogram.
    pub fn observe_bpp(&self, bpp: f64) {
        let idx = BPP_BUCKETS
            .iter()
            .position(|&edge| bpp <= edge)
            .unwrap_or(BPP_BUCKETS.len());
        self.bpp_histogram[idx].fetch_add(1, Relaxed);
    }

    /// Total requests read off a connection and answered (served or
    /// rejected), Busy and Draining replies excluded.
    pub fn requests_total(&self) -> u64 {
        self.encode_ok.load(Relaxed)
            + self.decode_ok.load(Relaxed)
            + self.probe_ok.load(Relaxed)
            + self.metrics_ok.load(Relaxed)
            + self.bad_requests.load(Relaxed)
            + self.too_large.load(Relaxed)
            + self.codec_errors.load(Relaxed)
    }

    /// Renders the registry as Prometheus-style text (the METRICS reply).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP cbic_{name} {help}\n# TYPE cbic_{name} counter\ncbic_{name} {v}\n"
            ));
        };
        counter(
            "connections_total",
            "Connections accepted",
            self.connections.load(Relaxed),
        );
        counter(
            "busy_rejections_total",
            "Requests refused with Busy (queue full)",
            self.busy_rejections.load(Relaxed),
        );
        counter(
            "draining_rejections_total",
            "Requests refused with Draining (shutdown)",
            self.draining_rejections.load(Relaxed),
        );
        counter(
            "encode_requests_total",
            "ENCODE requests served",
            self.encode_ok.load(Relaxed),
        );
        counter(
            "decode_requests_total",
            "DECODE requests served",
            self.decode_ok.load(Relaxed),
        );
        counter(
            "probe_requests_total",
            "PROBE requests served",
            self.probe_ok.load(Relaxed),
        );
        counter(
            "metrics_requests_total",
            "METRICS requests served",
            self.metrics_ok.load(Relaxed),
        );
        counter(
            "bad_requests_total",
            "Malformed requests rejected",
            self.bad_requests.load(Relaxed),
        );
        counter(
            "too_large_total",
            "Over-ceiling requests rejected",
            self.too_large.load(Relaxed),
        );
        counter(
            "codec_errors_total",
            "Requests the codec layer rejected",
            self.codec_errors.load(Relaxed),
        );
        counter(
            "io_errors_total",
            "Connections dropped on transport errors",
            self.io_errors.load(Relaxed),
        );
        counter(
            "bytes_in_total",
            "Request body bytes read",
            self.bytes_in.load(Relaxed),
        );
        counter(
            "bytes_out_total",
            "Reply body bytes written",
            self.bytes_out.load(Relaxed),
        );
        counter(
            "pixels_encoded_total",
            "Pixels compressed",
            self.pixels_encoded.load(Relaxed),
        );
        counter(
            "pixels_decoded_total",
            "Pixels decompressed",
            self.pixels_decoded.load(Relaxed),
        );
        out.push_str(
            "# HELP cbic_queue_depth Requests waiting for a session\n\
             # TYPE cbic_queue_depth gauge\n",
        );
        out.push_str(&format!(
            "cbic_queue_depth {}\n",
            self.queue_depth.load(Relaxed)
        ));
        out.push_str(
            "# HELP cbic_encode_bpp Encoded bit rate distribution (bits/pixel)\n\
             # TYPE cbic_encode_bpp histogram\n",
        );
        let mut cumulative = 0u64;
        for (i, bucket) in self.bpp_histogram.iter().enumerate() {
            cumulative += bucket.load(Relaxed);
            let le = BPP_BUCKETS
                .get(i)
                .map_or("+Inf".to_string(), f64::to_string);
            out.push_str(&format!(
                "cbic_encode_bpp_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!("cbic_encode_bpp_count {cumulative}\n"));
        self.encode_latency.render_into(
            &mut out,
            "cbic_encode_latency_us",
            "ENCODE service time distribution (microseconds)",
        );
        self.decode_latency.render_into(
            &mut out,
            "cbic_decode_latency_us",
            "DECODE service time distribution (microseconds)",
        );
        out
    }

    /// One-line operator summary for the periodic stderr report.
    pub fn summary_line(&self) -> String {
        format!(
            "cbic-serve: {} reqs ({} enc, {} dec, {} probe) | {} busy, {} bad, {} codec-err, {} io-err | {} B in, {} B out | queue {} | mean {:.0}/{:.0} us enc/dec",
            self.requests_total(),
            self.encode_ok.load(Relaxed),
            self.decode_ok.load(Relaxed),
            self.probe_ok.load(Relaxed),
            self.busy_rejections.load(Relaxed),
            self.bad_requests.load(Relaxed),
            self.codec_errors.load(Relaxed),
            self.io_errors.load(Relaxed),
            self.bytes_in.load(Relaxed),
            self.bytes_out.load(Relaxed),
            self.queue_depth.load(Relaxed),
            self.encode_latency.mean_us(),
            self.decode_latency.mean_us(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let m = Metrics::new();
        m.observe_bpp(0.5);
        m.observe_bpp(3.0);
        m.observe_bpp(100.0);
        let text = m.render();
        assert!(
            text.contains("cbic_encode_bpp_bucket{le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("cbic_encode_bpp_bucket{le=\"4\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("cbic_encode_bpp_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("cbic_encode_bpp_count 3"), "{text}");
    }

    #[test]
    fn latency_histogram_renders_cumulative_buckets_and_sum() {
        let m = Metrics::new();
        m.encode_latency.observe_us(100);
        m.encode_latency.observe_us(900);
        m.encode_latency.observe_us(1_000_000);
        m.decode_latency.observe_us(300);
        let text = m.render();
        assert!(
            text.contains("cbic_encode_latency_us_bucket{le=\"250\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("cbic_encode_latency_us_bucket{le=\"1000\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("cbic_encode_latency_us_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("cbic_encode_latency_us_sum 1001000"),
            "{text}"
        );
        assert!(text.contains("cbic_encode_latency_us_count 3"), "{text}");
        assert!(text.contains("cbic_decode_latency_us_count 1"), "{text}");
        assert!((m.encode_latency.mean_us() - 1_001_000.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.decode_latency.mean_us(), 300.0);
        assert!(m.summary_line().contains("us enc/dec"));
    }

    #[test]
    fn totals_sum_served_and_rejected() {
        let m = Metrics::new();
        m.encode_ok.fetch_add(2, Relaxed);
        m.bad_requests.fetch_add(1, Relaxed);
        assert_eq!(m.requests_total(), 3);
        assert!(m.summary_line().contains("3 reqs"));
        assert!(m.render().contains("cbic_encode_requests_total 2"));
    }
}
