//! End-host stream taps for the protocol-invariant oracle.
//!
//! A [`StreamTap`] observes one direction of a byte stream *above* the
//! (meta-)socket: the sender feeds it every byte accepted from the
//! application, the receiver every byte delivered to the application, both
//! in stream order. Comparing the two taps afterwards checks the core
//! reliable-transport invariant — the delivered bytes are exactly a prefix
//! of the sent bytes, with no loss, duplication, reordering or corruption
//! visible to the application.
//!
//! The digest runs over 8-byte little-endian words, one xor-multiply-
//! rotate per word rather than one multiply per byte: the taps see every
//! byte of every transfer twice, so their cost is a large share of a bulk
//! run. A chunk that ends mid-word leaves its last `count % 8` bytes in a
//! carried partial word, completed by the next chunk, so the digest
//! depends only on the byte stream and never on how it was chunked.
//!
//! Because a transfer may still be in flight when a run ends, the tap also
//! records a digest *snapshot* at every [`SNAP_EVERY`]-byte boundary.
//! Two taps can then be compared over their common snapshot prefix even
//! when their byte counts differ — an incomplete transfer still gets its
//! delivered prefix checked in 64 KiB steps. The boundaries are multiples
//! of 8, so a snapshot never involves a partial word.

/// Snapshot interval in bytes (64 KiB): bounded memory (a 100 MB transfer
/// keeps ~1600 snapshots) while catching corruption early in the stream.
/// A multiple of the 8-byte digest word.
pub const SNAP_EVERY: u64 = 64 * 1024;

/// Digest of the empty stream (the FNV-1a 64-bit offset basis).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Absorb one 8-byte word: an FNV-style xor-multiply, then a rotate so the
/// well-mixed high bits feed the next word's low bits. Each step is a
/// bijection in `h` for a fixed `word` (and in `word` for a fixed `h`), so
/// a single changed word always changes the final digest.
#[inline(always)]
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(31)
}

/// An order-sensitive rolling digest over one direction of a byte stream.
#[derive(Clone, Debug)]
pub struct StreamTap {
    /// Bytes observed so far.
    pub count: u64,
    /// Digest of every byte observed so far, in order: the word digest of
    /// the whole words, with the carried partial word (if any) and its
    /// length mixed in once more. The field keeps the name of the
    /// byte-serial FNV-1a digest it replaced because the benchmark
    /// (`perfbench/`) reads it.
    pub fnv: u64,
    /// Digest value at each [`SNAP_EVERY`]-byte boundary, in order.
    pub snaps: Vec<u64>,
    /// Word digest over the first `count - count % 8` bytes.
    words: u64,
    /// The carried partial word: its first `count % 8` bytes are the
    /// stream's last bytes, the rest are zero.
    tail: [u8; 8],
}

impl Default for StreamTap {
    fn default() -> Self {
        StreamTap {
            count: 0,
            fnv: SEED,
            snaps: Vec::new(),
            words: SEED,
            tail: [0; 8],
        }
    }
}

impl StreamTap {
    /// A fresh tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the next in-order chunk of the stream.
    pub fn update(&mut self, mut data: &[u8]) {
        let fill = (self.count % 8) as usize;
        // Stream offset of the first byte not yet absorbed into `words`.
        let mut at = self.count - fill as u64;
        self.count += data.len() as u64;
        if fill + data.len() < 8 {
            // Still short of a whole word: only the carried tail grows.
            self.tail[fill..fill + data.len()].copy_from_slice(data);
        } else {
            if fill != 0 {
                let (head, rest) = data.split_at(8 - fill);
                self.tail[fill..].copy_from_slice(head);
                let word = self.tail;
                at += 8;
                self.absorb(&word, at);
                data = rest;
            }
            // Whole words, in runs that end at the next snapshot boundary.
            while data.len() >= 8 {
                let until_snap = (SNAP_EVERY - at % SNAP_EVERY) as usize;
                let (run, rest) = data.split_at(until_snap.min(data.len() & !7));
                at += run.len() as u64;
                self.absorb(run, at);
                data = rest;
            }
            self.tail = [0; 8];
            self.tail[..data.len()].copy_from_slice(data);
        }
        let partial = self.count % 8;
        self.fnv = if partial == 0 {
            self.words
        } else {
            // The top byte carries the tail's length, so appending zero
            // bytes to a stream still changes its digest.
            mix(self.words, u64::from_le_bytes(self.tail) | partial << 56)
        };
    }

    /// Mix a run of whole words that ends at stream offset `end` (never
    /// past a snapshot boundary), snapshotting when it ends on one.
    fn absorb(&mut self, run: &[u8], end: u64) {
        let mut h = self.words;
        for w in run.chunks_exact(8) {
            h = mix(h, u64::from_le_bytes(w.try_into().unwrap()));
        }
        self.words = h;
        if end % SNAP_EVERY == 0 {
            self.snaps.push(h);
        }
    }

    /// Compare a sender tap (`self`) against a receiver tap, returning a
    /// human-readable description of the first divergence, or `None` when
    /// the receiver's stream is a consistent prefix of the sender's.
    pub fn check_against_receiver(&self, rx: &StreamTap) -> Option<String> {
        if rx.count > self.count {
            return Some(format!(
                "receiver delivered {} bytes but sender only wrote {} (duplication)",
                rx.count, self.count
            ));
        }
        let common = self.snaps.len().min(rx.snaps.len());
        for i in 0..common {
            if self.snaps[i] != rx.snaps[i] {
                return Some(format!(
                    "stream digest diverges within bytes [{}, {}): sent {:016x} != received {:016x}",
                    i as u64 * SNAP_EVERY,
                    (i + 1) as u64 * SNAP_EVERY,
                    self.snaps[i],
                    rx.snaps[i]
                ));
            }
        }
        if rx.count == self.count && rx.fnv != self.fnv {
            return Some(format!(
                "full-stream digest mismatch over {} bytes: sent {:016x} != received {:016x}",
                self.count, self.fnv, rx.fnv
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_agree() {
        let mut a = StreamTap::new();
        let mut b = StreamTap::new();
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 31 + 7) as u8).collect();
        a.update(&data);
        // Receiver sees the same bytes in different chunk sizes.
        for chunk in data.chunks(777) {
            b.update(chunk);
        }
        assert_eq!(a.count, b.count);
        assert_eq!(a.fnv, b.fnv);
        assert_eq!(a.snaps, b.snaps);
        assert_eq!(a.snaps.len(), (200_000 / SNAP_EVERY) as usize);
        assert!(a.check_against_receiver(&b).is_none());
    }

    #[test]
    fn prefix_receiver_is_consistent() {
        let mut tx = StreamTap::new();
        let mut rx = StreamTap::new();
        let data: Vec<u8> = (0..300_000u32).map(|i| i as u8).collect();
        tx.update(&data);
        rx.update(&data[..150_000]);
        assert!(tx.check_against_receiver(&rx).is_none());
    }

    #[test]
    fn corruption_in_early_prefix_is_caught_despite_incomplete_transfer() {
        let mut tx = StreamTap::new();
        let mut rx = StreamTap::new();
        let data: Vec<u8> = (0..300_000u32).map(|i| i as u8).collect();
        tx.update(&data);
        let mut bad = data[..150_000].to_vec();
        bad[10] ^= 0xFF;
        rx.update(&bad);
        let err = tx.check_against_receiver(&rx).expect("diverges");
        assert!(err.contains("diverges within bytes [0"), "{err}");
    }

    #[test]
    fn over_delivery_is_caught() {
        let mut tx = StreamTap::new();
        let mut rx = StreamTap::new();
        tx.update(&[1, 2, 3]);
        rx.update(&[1, 2, 3, 3]);
        let err = tx.check_against_receiver(&rx).expect("duplication");
        assert!(err.contains("duplication"), "{err}");
    }

    #[test]
    fn same_count_different_bytes_is_caught() {
        let mut tx = StreamTap::new();
        let mut rx = StreamTap::new();
        tx.update(b"abcd");
        rx.update(b"abcx");
        assert!(tx.check_against_receiver(&rx).is_some());
    }
}
