//! Sub-layer prices, measured by replaying inputs captured from a traced
//! run: `StreamTap::update` on the segment payloads hosts received,
//! `TcpSegment::decode`/`encode` on those segments, and
//! `smapp_netlink::decode` on the netlink frames that crossed the
//! boundary. Each price times a fixed amount of work, five times, and keeps
//! the median.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use smapp_tcp::{StreamTap, TcpSegment};

use crate::prof::Samples;

/// Replayed unit costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Prices {
    /// `StreamTap::update`, nanoseconds per byte.
    pub tap_ns_per_byte: f64,
    /// `TcpSegment::decode`, nanoseconds per segment.
    pub decode_ns: f64,
    /// `TcpSegment::encode`, nanoseconds per segment.
    pub encode_ns: f64,
    /// `smapp_netlink::decode`, nanoseconds per frame.
    pub nl_decode_ns: f64,
}

/// Bytes digested per tap repetition.
const TAP_BYTES: usize = 16 << 20;
/// Segments or frames handled per codec repetition.
const CODEC_OPS: usize = 200_000;
const REPS: usize = 5;

fn median_ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

/// Replay `samples`. Returns `None` when there is no segment payload to
/// digest (every workload transfers data, so that is a capture bug).
pub fn price(samples: &Samples) -> Option<Prices> {
    let segs: Vec<TcpSegment> = samples
        .segments
        .iter()
        .filter_map(|b| TcpSegment::decode(b).ok())
        .collect();
    let chunks: Vec<&[u8]> = segs
        .iter()
        .map(|s| &s.payload[..])
        .filter(|p| !p.is_empty())
        .collect();
    if chunks.is_empty() {
        return None;
    }
    // Feed the captured chunks in order, cycling, until TAP_BYTES.
    let mut fed = 0;
    let mut plan = Vec::new();
    while fed < TAP_BYTES {
        for c in &chunks {
            plan.push(*c);
            fed += c.len();
        }
    }
    let tap_ns_per_byte = median_ns_per_op(fed, || {
        let mut tap = StreamTap::new();
        for c in &plan {
            tap.update(black_box(c));
        }
        black_box(&tap);
    });

    let raw = &samples.segments;
    let decode_ns = median_ns_per_op(CODEC_OPS, || {
        for b in raw.iter().cycle().take(CODEC_OPS) {
            let _ = black_box(TcpSegment::decode(black_box(b)));
        }
    });
    let encode_ns = median_ns_per_op(CODEC_OPS, || {
        for s in segs.iter().cycle().take(CODEC_OPS) {
            let _ = black_box(black_box(s).encode());
        }
    });
    let frames: &[Bytes] = &samples.frames;
    let nl_decode_ns = if frames.is_empty() {
        0.0
    } else {
        median_ns_per_op(CODEC_OPS, || {
            for f in frames.iter().cycle().take(CODEC_OPS) {
                let _ = black_box(smapp_netlink::decode(black_box(f)));
            }
        })
    };
    Some(Prices {
        tap_ns_per_byte,
        decode_ns,
        encode_ns,
        nl_decode_ns,
    })
}
