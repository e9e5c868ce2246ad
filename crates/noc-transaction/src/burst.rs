//! Canonical burst descriptions.
//!
//! Every socket has its own burst vocabulary (AHB `INCR4/8/16`, `WRAP4/8/16`;
//! AXI `FIXED/INCR/WRAP` with 1–16 beats; OCP precise bursts; BVCI cell
//! chains). The transaction layer folds all of them into one canonical
//! descriptor: a [`BurstKind`], a beat size in bytes, and a beat count.
//! NIUs translate socket encodings to and from this form.

use std::fmt;

/// Burst address progression, the superset of socket burst kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BurstKind {
    /// Incrementing addresses (AHB `INCR*`, AXI `INCR`, OCP incrementing,
    /// BVCI contiguous cells).
    #[default]
    Incr,
    /// Wrapping at the burst-size boundary (AHB `WRAP*`, AXI `WRAP`,
    /// cache-line fills).
    Wrap,
    /// Fixed address for every beat (AXI `FIXED`, FIFO draining).
    Fixed,
    /// Streaming: address meaningless after the first beat (OCP `STRM`,
    /// proprietary streaming sockets).
    Stream,
}

impl fmt::Display for BurstKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BurstKind::Incr => "INCR",
            BurstKind::Wrap => "WRAP",
            BurstKind::Fixed => "FIXED",
            BurstKind::Stream => "STRM",
        };
        f.write_str(s)
    }
}

/// Errors from burst validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstError {
    /// Beat size must be a power of two between 1 and 128 bytes.
    InvalidBeatSize(u32),
    /// Beat count must be between 1 and 256.
    InvalidBeatCount(u32),
    /// Wrapping bursts require a power-of-two beat count.
    WrapNotPowerOfTwo(u32),
}

impl fmt::Display for BurstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BurstError::InvalidBeatSize(s) => {
                write!(
                    f,
                    "invalid beat size {s}: must be a power of two in 1..=128"
                )
            }
            BurstError::InvalidBeatCount(n) => {
                write!(f, "invalid beat count {n}: must be in 1..=256")
            }
            BurstError::WrapNotPowerOfTwo(n) => {
                write!(f, "wrapping burst beat count {n} is not a power of two")
            }
        }
    }
}

impl std::error::Error for BurstError {}

/// A canonical burst: `beats` transfers of `beat_bytes` each, with a
/// [`BurstKind`] address progression.
///
/// # Examples
///
/// ```
/// use noc_transaction::{Burst, BurstKind};
/// let b = Burst::wrap(4, 8)?; // 4 beats of 8 bytes, wrapping
/// assert_eq!(b.total_bytes(), 32);
/// let addrs: Vec<u64> = b.beat_addresses(0x38).collect();
/// assert_eq!(addrs, vec![0x38, 0x20, 0x28, 0x30]); // wraps at 32-byte boundary
/// # Ok::<(), noc_transaction::BurstError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Burst {
    kind: BurstKind,
    beat_bytes: u32,
    beats: u32,
}

impl Burst {
    /// The most beats a burst may carry.
    pub const MAX_BEATS: u32 = 256;
    /// The widest beat, in bytes.
    pub const MAX_BEAT_BYTES: u32 = 128;

    /// A single beat of `beat_bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if `beat_bytes` is not a power of two in 1..=128.
    pub fn single(beat_bytes: u32) -> Result<Self, BurstError> {
        Burst::new(BurstKind::Incr, beat_bytes, 1)
    }

    /// An incrementing burst.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid beat size or count.
    pub fn incr(beats: u32, beat_bytes: u32) -> Result<Self, BurstError> {
        Burst::new(BurstKind::Incr, beat_bytes, beats)
    }

    /// A wrapping burst (power-of-two beats required).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters, including non-power-of-two
    /// beat counts.
    pub fn wrap(beats: u32, beat_bytes: u32) -> Result<Self, BurstError> {
        Burst::new(BurstKind::Wrap, beat_bytes, beats)
    }

    /// A fixed-address burst.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid beat size or count.
    pub fn fixed(beats: u32, beat_bytes: u32) -> Result<Self, BurstError> {
        Burst::new(BurstKind::Fixed, beat_bytes, beats)
    }

    /// A streaming burst.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid beat size or count.
    pub fn stream(beats: u32, beat_bytes: u32) -> Result<Self, BurstError> {
        Burst::new(BurstKind::Stream, beat_bytes, beats)
    }

    /// General constructor with full validation.
    ///
    /// # Errors
    ///
    /// - [`BurstError::InvalidBeatSize`] unless `beat_bytes` is a power of
    ///   two in `1..=128`;
    /// - [`BurstError::InvalidBeatCount`] unless `beats` is in `1..=256`;
    /// - [`BurstError::WrapNotPowerOfTwo`] for wrapping bursts with a
    ///   non-power-of-two beat count.
    pub fn new(kind: BurstKind, beat_bytes: u32, beats: u32) -> Result<Self, BurstError> {
        if !(1..=Self::MAX_BEAT_BYTES).contains(&beat_bytes) || !beat_bytes.is_power_of_two() {
            return Err(BurstError::InvalidBeatSize(beat_bytes));
        }
        if !(1..=Self::MAX_BEATS).contains(&beats) {
            return Err(BurstError::InvalidBeatCount(beats));
        }
        if kind == BurstKind::Wrap && !beats.is_power_of_two() {
            return Err(BurstError::WrapNotPowerOfTwo(beats));
        }
        Ok(Burst {
            kind,
            beat_bytes,
            beats,
        })
    }

    /// The address progression kind.
    pub const fn kind(self) -> BurstKind {
        self.kind
    }

    /// Bytes per beat.
    pub const fn beat_bytes(self) -> u32 {
        self.beat_bytes
    }

    /// Number of beats.
    pub const fn beats(self) -> u32 {
        self.beats
    }

    /// Total payload bytes carried by the burst.
    pub const fn total_bytes(self) -> u64 {
        self.beat_bytes as u64 * self.beats as u64
    }

    /// Iterator over the address of each beat, starting from `base`.
    ///
    /// Addresses are aligned down to the beat size first (matching AXI/AHB
    /// behaviour where the low address bits select byte lanes, not beats).
    pub fn beat_addresses(self, base: u64) -> BeatAddresses {
        BeatAddresses {
            burst: self,
            base,
            next: 0,
        }
    }

    /// Splits this burst into chunks of at most `max_beats` beats each,
    /// returning `(start_address, burst)` pairs. Used by NIUs to chop long
    /// socket bursts into bounded NoC packets, and by bridges that clamp
    /// burst length.
    ///
    /// Wrapping bursts are converted to incrementing chunks covering the
    /// same addresses in the same order (standard bridge behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `max_beats` is zero.
    pub fn chop(self, base: u64, max_beats: u32) -> Vec<(u64, Burst)> {
        assert!(max_beats > 0, "max_beats must be non-zero");
        if self.beats <= max_beats && self.kind != BurstKind::Wrap {
            return vec![(base, self)];
        }
        let addrs: Vec<u64> = self.beat_addresses(base).collect();
        let kind = match self.kind {
            BurstKind::Wrap => BurstKind::Incr,
            k => k,
        };
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < addrs.len() {
            // Greedily take beats whose addresses continue the chunk's
            // progression; a wrap discontinuity starts a new chunk.
            let start = addrs[i];
            let mut n = 1u32;
            while n < max_beats && i + (n as usize) < addrs.len() {
                let expected = match kind {
                    BurstKind::Incr => start + n as u64 * self.beat_bytes as u64,
                    BurstKind::Fixed | BurstKind::Stream => start,
                    BurstKind::Wrap => unreachable!("wrap converted to incr above"),
                };
                if addrs[i + n as usize] != expected {
                    break;
                }
                n += 1;
            }
            let chunk =
                Burst::new(kind, self.beat_bytes, n).expect("chunk parameters already validated");
            out.push((start, chunk));
            i += n as usize;
        }
        out
    }
}

impl Default for Burst {
    fn default() -> Self {
        Burst {
            kind: BurstKind::Incr,
            beat_bytes: 4,
            beats: 1,
        }
    }
}

impl fmt::Display for Burst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}B {}", self.beats, self.beat_bytes, self.kind)
    }
}

/// Iterator over burst beat addresses. Created by [`Burst::beat_addresses`].
#[derive(Debug, Clone)]
pub struct BeatAddresses {
    burst: Burst,
    base: u64,
    next: u32,
}

impl Iterator for BeatAddresses {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.next >= self.burst.beats {
            return None;
        }
        let bb = self.burst.beat_bytes as u64;
        let aligned = self.base & !(bb - 1);
        let addr = match self.burst.kind {
            BurstKind::Incr => aligned + self.next as u64 * bb,
            BurstKind::Fixed | BurstKind::Stream => aligned,
            BurstKind::Wrap => {
                let span = bb * self.burst.beats as u64;
                let low = aligned & !(span - 1);
                let offset = (aligned - low + self.next as u64 * bb) % span;
                low + offset
            }
        };
        self.next += 1;
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.burst.beats - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BeatAddresses {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_parameters() {
        assert_eq!(Burst::incr(4, 3), Err(BurstError::InvalidBeatSize(3)));
        assert_eq!(Burst::incr(4, 0), Err(BurstError::InvalidBeatSize(0)));
        assert_eq!(Burst::incr(4, 256), Err(BurstError::InvalidBeatSize(256)));
        assert_eq!(Burst::incr(0, 4), Err(BurstError::InvalidBeatCount(0)));
        assert_eq!(Burst::incr(300, 4), Err(BurstError::InvalidBeatCount(300)));
        assert_eq!(Burst::wrap(3, 4), Err(BurstError::WrapNotPowerOfTwo(3)));
    }

    #[test]
    fn incr_addresses() {
        let b = Burst::incr(4, 4).unwrap();
        let addrs: Vec<u64> = b.beat_addresses(0x100).collect();
        assert_eq!(addrs, vec![0x100, 0x104, 0x108, 0x10C]);
    }

    #[test]
    fn incr_aligns_base_down() {
        let b = Burst::incr(2, 8).unwrap();
        let addrs: Vec<u64> = b.beat_addresses(0x103).collect();
        assert_eq!(addrs, vec![0x100, 0x108]);
    }

    #[test]
    fn wrap_addresses_wrap_at_boundary() {
        // Classic cache-line wrap: 4 beats x 8 bytes starting mid-line.
        let b = Burst::wrap(4, 8).unwrap();
        let addrs: Vec<u64> = b.beat_addresses(0x38).collect();
        assert_eq!(addrs, vec![0x38, 0x20, 0x28, 0x30]);
    }

    #[test]
    fn wrap_from_aligned_base_is_sequential() {
        let b = Burst::wrap(4, 4).unwrap();
        let addrs: Vec<u64> = b.beat_addresses(0x20).collect();
        assert_eq!(addrs, vec![0x20, 0x24, 0x28, 0x2C]);
    }

    #[test]
    fn fixed_and_stream_hold_address() {
        for b in [Burst::fixed(3, 4).unwrap(), Burst::stream(3, 4).unwrap()] {
            let addrs: Vec<u64> = b.beat_addresses(0x40).collect();
            assert_eq!(addrs, vec![0x40, 0x40, 0x40]);
        }
    }

    #[test]
    fn total_bytes() {
        assert_eq!(Burst::incr(16, 8).unwrap().total_bytes(), 128);
        assert_eq!(Burst::single(4).unwrap().total_bytes(), 4);
    }

    #[test]
    fn chop_short_burst_is_identity() {
        let b = Burst::incr(4, 4).unwrap();
        let chunks = b.chop(0x100, 8);
        assert_eq!(chunks, vec![(0x100, b)]);
    }

    #[test]
    fn chop_long_incr_burst() {
        let b = Burst::incr(16, 4).unwrap();
        let chunks = b.chop(0x0, 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0], (0x0, Burst::incr(4, 4).unwrap()));
        assert_eq!(chunks[1], (0x10, Burst::incr(4, 4).unwrap()));
        assert_eq!(chunks[3], (0x30, Burst::incr(4, 4).unwrap()));
    }

    #[test]
    fn chop_wrap_burst_splits_at_discontinuity() {
        let b = Burst::wrap(8, 4).unwrap();
        // base 0x14 → addresses 14,18,1C,0,4,8,C,10
        let chunks = b.chop(0x14, 8);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].0, 0x14);
        assert_eq!(chunks[0].1.beats(), 3);
        assert_eq!(chunks[1].0, 0x0);
        assert_eq!(chunks[1].1.beats(), 5);
        // Covered addresses are preserved in order.
        let mut covered = Vec::new();
        for (base, c) in &chunks {
            covered.extend(c.beat_addresses(*base));
        }
        assert_eq!(covered, b.beat_addresses(0x14).collect::<Vec<_>>());
    }

    #[test]
    fn chop_fixed_burst_keeps_address() {
        let b = Burst::fixed(10, 4).unwrap();
        let chunks = b.chop(0x80, 4);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|(a, _)| *a == 0x80));
        let beats: u32 = chunks.iter().map(|(_, c)| c.beats()).sum();
        assert_eq!(beats, 10);
    }

    #[test]
    fn beat_addresses_is_exact_size() {
        let b = Burst::incr(5, 4).unwrap();
        let it = b.beat_addresses(0);
        assert_eq!(it.len(), 5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Burst::incr(4, 8).unwrap().to_string(), "4x8B INCR");
        assert_eq!(BurstKind::Wrap.to_string(), "WRAP");
        let e = BurstError::WrapNotPowerOfTwo(3);
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn default_burst_is_single_word() {
        let b = Burst::default();
        assert_eq!(b.beats(), 1);
        assert_eq!(b.beat_bytes(), 4);
    }
}
