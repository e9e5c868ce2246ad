//! A sparse byte-addressable memory model shared by every target.

use noc_transaction::{Burst, Opcode};
use std::collections::HashMap;
use std::fmt;

/// Bytes per storage page. A power of two so a byte address splits into
/// page number and offset by shift and mask.
const PAGE_BYTES: usize = 256;

/// One page of written bytes: the values plus one written-bit per byte.
#[derive(Debug, Clone)]
struct Page {
    data: [u8; PAGE_BYTES],
    written: [u64; PAGE_BYTES / 64],
}

impl Page {
    const EMPTY: Page = Page {
        data: [0; PAGE_BYTES],
        written: [0; PAGE_BYTES / 64],
    };

    fn is_written(&self, offset: usize) -> bool {
        self.written[offset / 64] >> (offset % 64) & 1 != 0
    }

    /// Stores `data` at `offset`; returns how many of those bytes had
    /// never been written before.
    fn store(&mut self, offset: usize, data: &[u8]) -> usize {
        self.data[offset..offset + data.len()].copy_from_slice(data);
        let mut fresh = 0;
        let (mut at, end) = (offset, offset + data.len());
        while at < end {
            let word = at / 64;
            let stop = end.min((word + 1) * 64);
            // Bits [at % 64, stop - word * 64) of this mask word.
            let span = (u64::MAX >> (64 - (stop - at))) << (at % 64);
            fresh += (span & !self.written[word]).count_ones() as usize;
            self.written[word] |= span;
            at = stop;
        }
        fresh
    }
}

/// Sparse memory with configurable access latency.
///
/// Unwritten locations read as a deterministic address-derived pattern
/// (not zero) so that tests catch reads routed to the wrong address.
///
/// # Storage
///
/// Written bytes live in fixed 256-byte pages keyed by page number
/// (`addr / 256`): a page is allocated on the first write that touches
/// it, and every access costs one page lookup per page it spans — not
/// one hash per byte. Each page carries a written-bit per byte, for two
/// reasons: [`MemoryModel::written_bytes`] counts *distinct* written
/// bytes, and the unwritten bytes of a partly written page must still
/// read as the background pattern — pre-filling a page with it would
/// charge 256 pattern evaluations to the first small write of every
/// page. A span that reaches past `u64::MAX` continues at address 0.
///
/// # Examples
///
/// ```
/// use noc_protocols::MemoryModel;
/// let mut mem = MemoryModel::new(4);
/// mem.write(0x100, &[1, 2, 3]);
/// assert_eq!(mem.read(0x100, 3), vec![1, 2, 3]);
/// assert_eq!(mem.latency(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryModel {
    /// Page number → index into `pages`.
    index: HashMap<u64, u32>,
    /// Page storage, in first-write order: cloning a memory copies one
    /// contiguous block, not one allocation per page.
    pages: Vec<Page>,
    written: usize,
    latency: u32,
    reads: u64,
    writes: u64,
}

impl MemoryModel {
    /// Creates a memory with the given fixed access latency (cycles from
    /// request acceptance to response validity).
    pub fn new(latency: u32) -> Self {
        MemoryModel {
            index: HashMap::new(),
            pages: Vec::new(),
            written: 0,
            latency,
            reads: 0,
            writes: 0,
        }
    }

    /// The configured access latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// The deterministic background pattern at `addr`.
    fn background(addr: u64) -> u8 {
        let mut z = addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u8
    }

    /// Splits `len` bytes at `addr` into per-page pieces: (page number,
    /// offset in the page, piece length).
    fn page_spans(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
        let (mut addr, mut left) = (addr, len);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let offset = (addr % PAGE_BYTES as u64) as usize;
            let piece = left.min(PAGE_BYTES - offset);
            let span = (addr / PAGE_BYTES as u64, offset, piece);
            // Wraps only when the span ends at (or crosses) `u64::MAX`.
            addr = addr.wrapping_add(piece as u64);
            left -= piece;
            Some(span)
        })
    }

    /// Reads `len` bytes at `addr`.
    pub fn read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(addr, len, &mut out);
        out
    }

    /// Reads `len` bytes at `addr`, appending them to `out` — one read
    /// access, like [`MemoryModel::read`], without a buffer of its own,
    /// so a burst collects all its beats in a single allocation.
    pub fn read_into(&mut self, addr: u64, len: usize, out: &mut Vec<u8>) {
        self.reads += 1;
        for (number, offset, piece) in Self::page_spans(addr, len) {
            let base = number * PAGE_BYTES as u64 + offset as u64;
            let page = self.index.get(&number).map(|&i| &self.pages[i as usize]);
            out.extend((0..piece).map(|i| match page {
                Some(page) if page.is_written(offset + i) => page.data[offset + i],
                _ => Self::background(base + i as u64),
            }));
        }
    }

    /// Writes `data` at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.writes += 1;
        let mut data = data;
        for (number, offset, piece) in Self::page_spans(addr, data.len()) {
            let (head, rest) = data.split_at(piece);
            let slot = *self.index.entry(number).or_insert_with(|| {
                self.pages.push(Page::EMPTY);
                u32::try_from(self.pages.len() - 1).expect("under 2^32 pages (1 TiB written)")
            });
            self.written += self.pages[slot as usize].store(offset, head);
            data = rest;
        }
    }

    /// Bytes explicitly written so far.
    pub fn written_bytes(&self) -> usize {
        self.written
    }

    /// Read accesses performed.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Write accesses performed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

/// Performs one transaction's storage access, honouring burst address
/// progression: a read returns its beats' bytes, a write stores `wdata`
/// and returns nothing. Only the opcode's direction matters — this is
/// the plain storage kernel the loopback slave, the baselines and the
/// NoC's memory and service targets share. Synchronisation is not
/// storage: a target runs its
/// [`ExclusiveMonitor::admit`](noc_transaction::ExclusiveMonitor::admit)
/// first, calls this only for a request the monitor admitted, and names
/// the status with [`Opcode::served`].
///
/// # Examples
///
/// ```
/// use noc_protocols::memory::{access, MemoryModel};
/// use noc_transaction::{Burst, Opcode};
/// let mut mem = MemoryModel::new(1);
/// let burst = Burst::incr(2, 4).unwrap();
/// assert!(access(&mut mem, Opcode::Write, 0x10, burst, &[7u8; 8]).is_empty());
/// assert_eq!(access(&mut mem, Opcode::Read, 0x10, burst, &[]), vec![7u8; 8]);
/// ```
pub fn access(
    mem: &mut MemoryModel,
    opcode: Opcode,
    addr: u64,
    burst: Burst,
    wdata: &[u8],
) -> Vec<u8> {
    let beat = burst.beat_bytes() as usize;
    if opcode.is_write() {
        for (i, a) in burst.beat_addresses(addr).enumerate() {
            let lo = i * beat;
            let hi = ((i + 1) * beat).min(wdata.len());
            if lo < wdata.len() {
                mem.write(a, &wdata[lo..hi]);
            }
        }
        return Vec::new();
    }
    let mut data = Vec::with_capacity(burst.total_bytes() as usize);
    for a in burst.beat_addresses(addr) {
        mem.read_into(a, beat, &mut data);
    }
    data
}

impl fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mem lat={} ({} bytes, {}r/{}w)",
            self.latency, self.written, self.reads, self.writes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut m = MemoryModel::new(1);
        m.write(0x40, &[9, 8, 7, 6]);
        assert_eq!(m.read(0x40, 4), vec![9, 8, 7, 6]);
        assert_eq!(m.read(0x42, 2), vec![7, 6]);
    }

    #[test]
    fn unwritten_reads_are_deterministic_nonzero_pattern() {
        let mut m = MemoryModel::new(1);
        let a = m.read(0x1000, 8);
        let b = m.read(0x1000, 8);
        assert_eq!(a, b);
        let c = m.read(0x2000, 8);
        assert_ne!(a, c, "different addresses read different background");
    }

    #[test]
    fn partial_overwrite() {
        let mut m = MemoryModel::new(1);
        m.write(0x0, &[1, 1, 1, 1]);
        m.write(0x1, &[2, 2]);
        assert_eq!(m.read(0x0, 4), vec![1, 2, 2, 1]);
    }

    #[test]
    fn access_counters() {
        let mut m = MemoryModel::new(3);
        m.write(0, &[0]);
        m.read(0, 1);
        m.read(0, 1);
        assert_eq!(m.write_count(), 1);
        assert_eq!(m.read_count(), 2);
        assert_eq!(m.written_bytes(), 1);
    }

    #[test]
    fn display() {
        let m = MemoryModel::new(2);
        assert!(m.to_string().contains("lat=2"));
    }

    mod access_tests {
        use super::super::*;
        use noc_transaction::{ExclusiveMonitor, MstAddr, RespStatus};

        fn b(beats: u32) -> Burst {
            Burst::incr(beats, 4).unwrap()
        }

        /// A memory behind a monitor, as every target serves one: the
        /// monitor admits, storage answers, the opcode names the status.
        fn serve(
            mem: &mut MemoryModel,
            mon: &mut ExclusiveMonitor,
            master: MstAddr,
            opcode: Opcode,
            addr: u64,
            wdata: &[u8],
        ) -> RespStatus {
            if !mon.admit(master, opcode, addr, b(1)) {
                return RespStatus::ExFail;
            }
            access(mem, opcode, addr, b(1), wdata);
            opcode.served(RespStatus::Okay)
        }

        #[test]
        fn write_then_read_burst() {
            let mut mem = MemoryModel::new(1);
            let data: Vec<u8> = (0..8).collect();
            assert!(access(&mut mem, Opcode::Write, 0x20, b(2), &data).is_empty());
            assert_eq!(access(&mut mem, Opcode::Read, 0x20, b(2), &[]), data);
        }

        #[test]
        fn wrap_burst_reads_wrapped_order() {
            let mut mem = MemoryModel::new(1);
            mem.write(0x20, &[1, 1, 1, 1]);
            mem.write(0x24, &[2, 2, 2, 2]);
            mem.write(0x28, &[3, 3, 3, 3]);
            mem.write(0x2C, &[4, 4, 4, 4]);
            let wrap = Burst::wrap(4, 4).unwrap();
            let rd = access(&mut mem, Opcode::Read, 0x28, wrap, &[]);
            assert_eq!(rd, vec![3, 3, 3, 3, 4, 4, 4, 4, 1, 1, 1, 1, 2, 2, 2, 2]);
        }

        #[test]
        fn exclusive_pair_succeeds_with_monitor() {
            let mut mem = MemoryModel::new(1);
            let mut mon = ExclusiveMonitor::new(64, 4);
            let m0 = MstAddr::new(0);
            let st = serve(&mut mem, &mut mon, m0, Opcode::ReadExclusive, 0x40, &[]);
            assert_eq!(st, RespStatus::ExOkay);
            let st = serve(
                &mut mem,
                &mut mon,
                m0,
                Opcode::WriteExclusive,
                0x40,
                &[9; 4],
            );
            assert_eq!(st, RespStatus::ExOkay);
            assert_eq!(mem.read(0x40, 4), vec![9, 9, 9, 9]);
        }

        #[test]
        fn failed_exclusive_write_has_no_side_effect() {
            let mut mem = MemoryModel::new(1);
            let mut mon = ExclusiveMonitor::new(64, 4);
            mem.write(0x40, &[5, 5, 5, 5]);
            let m1 = MstAddr::new(1);
            let st = serve(
                &mut mem,
                &mut mon,
                m1,
                Opcode::WriteExclusive,
                0x40,
                &[9; 4],
            );
            assert_eq!(st, RespStatus::ExFail);
            assert_eq!(mem.read(0x40, 4), vec![5, 5, 5, 5]);
        }

        #[test]
        fn plain_write_breaks_reservation() {
            let mut mem = MemoryModel::new(1);
            let mut mon = ExclusiveMonitor::new(64, 4);
            let (a, b_) = (MstAddr::new(0), MstAddr::new(1));
            serve(&mut mem, &mut mon, a, Opcode::ReadExclusive, 0x80, &[]);
            serve(&mut mem, &mut mon, b_, Opcode::Write, 0x80, &[0; 4]);
            let st = serve(&mut mem, &mut mon, a, Opcode::WriteExclusive, 0x80, &[1; 4]);
            assert_eq!(st, RespStatus::ExFail);
        }

        /// Without a monitor in front, storage sees only direction: the
        /// synchronisation opcodes read and write like plain ones.
        #[test]
        fn no_monitor_degrades_gracefully() {
            let mut mem = MemoryModel::new(1);
            let written = access(&mut mem, Opcode::WriteExclusive, 0x0, b(1), &[3; 4]);
            assert!(written.is_empty());
            let read = access(&mut mem, Opcode::ReadExclusive, 0x0, b(1), &[]);
            assert_eq!(read, vec![3; 4]);
        }
    }
}
