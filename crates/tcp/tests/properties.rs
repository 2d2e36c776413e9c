//! Cross-module property tests for the TCP mechanics.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use smapp_sim::SimTime;
use smapp_tcp::check::SNAP_EVERY;
use smapp_tcp::{unwrap_u32, Flight, RtoPolicy, RtoState, RttEstimator, StreamTap};
use std::time::Duration;

const SNAP: usize = SNAP_EVERY as usize;

/// Byte-serial reference model of the tap digest, written independently of
/// `StreamTap::update`: `(count, fnv, snaps)` for the whole stream at once.
fn reference(data: &[u8]) -> (u64, u64, Vec<u64>) {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    let (mut h, mut word, mut snaps) = (0xcbf2_9ce4_8422_2325u64, 0u64, Vec::new());
    for (i, &b) in data.iter().enumerate() {
        word |= u64::from(b) << (8 * (i % 8));
        if i % 8 == 7 {
            h = mix(h, word);
            word = 0;
            if (i + 1) % SNAP == 0 {
                snaps.push(h);
            }
        }
    }
    let partial = (data.len() % 8) as u64;
    let fnv = if partial == 0 {
        h
    } else {
        mix(h, word | partial << 56)
    };
    (data.len() as u64, fnv, snaps)
}

/// `len` pseudo-random bytes derived from `seed` (splitmix64).
fn stream(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// Feed `data` in chunks of the given sizes, cycled (not all zero), each
/// followed by an empty update, checking the snapshot invariants after
/// every chunk.
fn feed(data: &[u8], sizes: &[usize]) -> Result<StreamTap, TestCaseError> {
    let mut tap = StreamTap::new();
    let mut rest = data;
    for &n in sizes.iter().cycle() {
        let (chunk, tail) = rest.split_at(n.min(rest.len()));
        tap.update(chunk);
        tap.update(&[]);
        rest = tail;
        prop_assert_eq!(tap.snaps.len() as u64, tap.count / SNAP_EVERY);
        if tap.count > 0 && tap.count % SNAP_EVERY == 0 {
            prop_assert_eq!(Some(&tap.fnv), tap.snaps.last());
        }
        if rest.is_empty() {
            break;
        }
    }
    Ok(tap)
}

/// Stream lengths: short tails, multi-snapshot streams, exact boundaries.
fn stream_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..40,
        40usize..3 * SNAP + 100,
        (1usize..=3).prop_map(|k| k * SNAP),
    ]
}

/// Chunk sizes: sub-word, a few words, and segment-to-window sized.
fn chunk_sizes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(
        prop_oneof![1usize..8, 8usize..100, 100usize..2 * SNAP],
        1..12,
    )
}

proptest! {
    /// The RTO is always within the policy clamps, and never decreases as
    /// backoffs accumulate.
    #[test]
    fn rto_monotone_and_clamped(
        rtt_ms in 1u64..5_000,
        expiries in 0u32..40,
    ) {
        let policy = RtoPolicy::default();
        let mut rtt = RttEstimator::new();
        rtt.on_sample(Duration::from_millis(rtt_ms));
        let mut st = RtoState::new(policy.clone());
        let mut prev = Duration::ZERO;
        for _ in 0..expiries {
            let cur = st.current_rto(&rtt);
            prop_assert!(cur >= policy.min_rto);
            prop_assert!(cur <= policy.max_rto);
            prop_assert!(cur >= prev, "RTO never shrinks under backoff");
            prev = cur;
            st.on_expiry();
        }
        // Progress resets to the un-backoffed base value.
        st.on_ack_progress();
        let reset = st.current_rto(&rtt);
        let fresh = RtoState::new(policy.clone()).current_rto(&rtt);
        prop_assert_eq!(reset, fresh);
        prop_assert_eq!(st.backoffs(), 0);
    }

    /// Unwrapping a wire value produced from a true offset recovers the
    /// true offset whenever the receiver's expectation is within 2^31.
    #[test]
    fn unwrap_inverts_wrap(
        true_off in 0u64..(1u64 << 40),
        err in -100_000i64..100_000,
    ) {
        let expected = true_off.saturating_add_signed(err);
        let wire = true_off as u32;
        prop_assert_eq!(unwrap_u32(expected, wire), true_off);
    }

    /// The flight tracker conserves bytes: sent = acked + in-flight, and
    /// cumulative ACKs never increase the in-flight count.
    #[test]
    fn flight_conserves_bytes(
        segs in proptest::collection::vec(1u32..2000, 1..40),
        ack_points in proptest::collection::vec(0u64..100_000, 1..20),
    ) {
        let mut f: Flight<()> = Flight::new();
        let mut off = 0u64;
        for (i, len) in segs.iter().enumerate() {
            f.on_send(off, *len, SimTime::from_millis(i as u64), ());
            off += *len as u64;
        }
        let total = off;
        prop_assert_eq!(f.bytes_in_flight(), total);
        let mut acked = 0u64;
        let mut sorted = ack_points.clone();
        sorted.sort_unstable();
        for (i, upto) in sorted.into_iter().enumerate() {
            let before = f.bytes_in_flight();
            let res = f.on_cum_ack(upto.min(total), SimTime::from_secs(1 + i as u64));
            acked += res.acked_bytes;
            prop_assert!(f.bytes_in_flight() <= before);
            prop_assert_eq!(acked + f.bytes_in_flight(), total);
        }
    }
}

proptest! {
    /// The digest depends only on the byte stream: any chunking, including
    /// 1–7-byte chunks and chunks that straddle a snapshot boundary, gives
    /// the same `(count, fnv, snaps)` as one update and as the reference.
    #[test]
    fn tap_is_chunking_invariant(
        seed in any::<u64>(),
        len in stream_len(),
        sizes in chunk_sizes(),
        before in 0usize..8,
        after in 0usize..8,
    ) {
        let data = stream(seed, len);
        let want = reference(&data);
        let whole = feed(&data, &[usize::MAX])?;
        prop_assert_eq!((whole.count, whole.fnv, whole.snaps.clone()), want.clone());
        let chunked = feed(&data, &sizes)?;
        prop_assert_eq!((chunked.count, chunked.fnv, chunked.snaps), want.clone());
        // Cut just before and just after every snapshot boundary, so short
        // chunks end and start mid-word on either side of it.
        let mut cuts = vec![0];
        for k in 1..=len / SNAP + 1 {
            cuts.push((k * SNAP - before).min(len));
            cuts.push((k * SNAP + after).min(len));
        }
        cuts.push(len);
        let sizes: Vec<usize> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
        let straddled = feed(&data, &sizes)?;
        prop_assert_eq!((straddled.count, straddled.fnv, straddled.snaps), want);
    }

    /// A single flipped, dropped or duplicated byte anywhere — mid-word and
    /// in a carried tail included — is reported as a divergence whenever
    /// the receiver's bytes differ from the sender's over the same count,
    /// and never when they are equal.
    #[test]
    fn tap_catches_any_single_byte_fault(
        seed in any::<u64>(),
        len in prop_oneof![1usize..40, 40usize..2 * SNAP + 100],
        fault in 0u8..3,
        place in 0u8..3,
        pick in any::<u64>(),
        flip in 1u8..=255,
        sizes in chunk_sizes(),
    ) {
        let data = stream(seed, len);
        let at = match place {
            // In the carried tail (the last `len % 8` bytes), if there is one.
            0 if len % 8 != 0 => len - 1 - (pick % (len % 8) as u64) as usize,
            // Strictly inside a word.
            1 if len > 8 => {
                let word = (pick as usize / 7) % (len / 8);
                (word * 8 + 1 + (pick % 7) as usize).min(len - 1)
            }
            _ => (pick % len as u64) as usize,
        };
        let mut bad = data.clone();
        match fault {
            0 => bad[at] ^= flip,
            1 => {
                bad.remove(at);
            }
            _ => bad.insert(at, data[at]),
        }
        if fault == 2 {
            // The whole duplicated stream over-delivers by one byte.
            let err = feed(&data, &sizes)?
                .check_against_receiver(&feed(&bad, &sizes)?)
                .expect("over-delivery is reported");
            prop_assert!(err.contains("duplication"), "{}", err);
        }
        // Compare over a common byte count, as a finished transfer would.
        let n = data.len().min(bad.len());
        let tx = feed(&data[..n], &[usize::MAX])?;
        let rx = feed(&bad[..n], &sizes)?;
        let verdict = tx.check_against_receiver(&rx);
        prop_assert!(
            verdict.is_some() == (data[..n] != bad[..n]),
            "fault {} at {} of {}: {:?}",
            fault,
            at,
            len,
            verdict
        );
    }
}

/// Worst-case give-up time grows with max_retries and stays in the band
/// the paper's narrative relies on.
#[test]
fn give_up_time_grows_with_retries() {
    let mut rtt = RttEstimator::new();
    rtt.on_sample(Duration::from_millis(20));
    let mut prev = Duration::ZERO;
    for retries in [3u32, 6, 10, 15] {
        let st = RtoState::new(RtoPolicy {
            max_retries: retries,
            ..Default::default()
        });
        let t = st.worst_case_give_up_time(&rtt);
        assert!(t > prev);
        prev = t;
    }
    // 15 retries ≈ the paper's ~12-13 minutes.
    assert!((600.0..900.0).contains(&prev.as_secs_f64()));
}
