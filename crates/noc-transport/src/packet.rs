//! Packets and flit-level (dis)assembly.

use crate::flit::{Flit, FlitType, Header};
use std::fmt;

/// A transport packet: one header plus a byte payload.
///
/// A packet crosses the fabric as flits, and its payload crosses it
/// *once*: [`Packet::into_flits_with_id`] moves the payload buffer onto
/// the head flit, the body and tail flits behind it are plain records of
/// how many bytes each stands for, and [`PacketAssembler`] hands the same
/// buffer back on the tail. The borrowing [`Packet::to_flits`] family
/// clones the packet once and then does exactly that.
///
/// # Examples
///
/// ```
/// use noc_transport::{Header, Packet};
/// let p = Packet::new(Header::request(1, 0, 0), vec![1, 2, 3, 4, 5]);
/// let flits = p.to_flits(4);
/// assert_eq!(flits.len(), 3); // head + 4-byte body + 1-byte tail
/// assert_eq!(Packet::from_flits(&flits).unwrap(), p);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The packet header.
    pub header: Header,
    /// Payload bytes (may be empty, e.g. read requests).
    pub payload: Vec<u8>,
}

impl Packet {
    /// Creates a packet.
    pub fn new(header: Header, payload: Vec<u8>) -> Self {
        Packet { header, payload }
    }

    /// Total flits when serialised with `flit_bytes` payload bytes per
    /// flit (the physical flit width knob).
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero.
    pub fn flit_count(&self, flit_bytes: usize) -> usize {
        assert!(flit_bytes > 0, "flit payload width must be non-zero");
        if self.payload.is_empty() {
            1
        } else {
            1 + self.payload.len().div_ceil(flit_bytes)
        }
    }

    /// Serialises into flits: a head flit carrying the header and the
    /// payload buffer, then one body flit per `flit_bytes` of payload,
    /// the last marked tail. Payload-less packets become a single
    /// head-tail flit. Consumes the packet — nothing is copied and
    /// nothing is allocated; NIUs extend their egress queue straight
    /// from the iterator.
    ///
    /// `packet_id` is the sending NIU's sequence number for the packet.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero.
    pub fn into_flits_with_id(self, flit_bytes: usize, packet_id: u64) -> IntoFlits {
        assert!(flit_bytes > 0, "flit payload width must be non-zero");
        IntoFlits {
            remaining: self.payload.len(),
            head: Some((self.header, self.payload)),
            packet_id,
            flit_bytes,
        }
    }

    /// [`Packet::to_flits_with_id`] with a stable id derived from the
    /// header fields — for tests and probes; NIUs number their packets.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero.
    pub fn to_flits(&self, flit_bytes: usize) -> Vec<Flit> {
        let id = (self.header.src as u64) << 32
            | (self.header.dst as u64) << 16
            | self.header.tag as u64;
        self.to_flits_with_id(flit_bytes, id)
    }

    /// Borrowing form of [`Packet::into_flits_with_id`]: clones the
    /// packet (the one payload copy), then moves it into flits.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero.
    pub fn to_flits_with_id(&self, flit_bytes: usize, packet_id: u64) -> Vec<Flit> {
        self.clone()
            .into_flits_with_id(flit_bytes, packet_id)
            .collect()
    }

    /// Reassembles a packet from a complete, ordered flit sequence
    /// (cloning each flit into a [`PacketAssembler`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ReassemblyError`] on malformed sequences.
    pub fn from_flits(flits: &[Flit]) -> Result<Packet, ReassemblyError> {
        let mut asm = PacketAssembler::new();
        let mut done = None;
        for (i, flit) in flits.iter().enumerate() {
            if done.is_some() {
                return Err(ReassemblyError::TrailingFlit { index: i });
            }
            if let Some(p) = asm.push(flit.clone())? {
                done = Some(p);
            }
        }
        done.ok_or(ReassemblyError::Incomplete)
    }
}

/// The flits of one packet, in wire order — see
/// [`Packet::into_flits_with_id`].
#[derive(Debug, Clone)]
pub struct IntoFlits {
    /// Header and payload buffer, until the head flit takes them.
    head: Option<(Header, Vec<u8>)>,
    packet_id: u64,
    flit_bytes: usize,
    /// Payload bytes no body/tail flit stands for yet.
    remaining: usize,
}

impl Iterator for IntoFlits {
    type Item = Flit;

    fn next(&mut self) -> Option<Flit> {
        if let Some((header, payload)) = self.head.take() {
            return Some(if payload.is_empty() {
                Flit::head_tail(self.packet_id, header)
            } else {
                Flit::head(self.packet_id, header, payload)
            });
        }
        if self.remaining == 0 {
            return None;
        }
        let bytes = self.remaining.min(self.flit_bytes);
        self.remaining -= bytes;
        Some(if self.remaining == 0 {
            Flit::tail(self.packet_id, bytes)
        } else {
            Flit::body(self.packet_id, bytes)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.head.is_some()) + self.remaining.div_ceil(self.flit_bytes);
        (n, Some(n))
    }
}

impl ExactSizeIterator for IntoFlits {}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt[{} +{}B]", self.header, self.payload.len())
    }
}

/// Errors while reassembling flits into packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassemblyError {
    /// A body/tail flit arrived with no packet in progress.
    OrphanFlit,
    /// A head flit arrived while another packet was still open.
    UnexpectedHead,
    /// A flit of a different packet id interleaved into an open packet
    /// (cannot happen on a correct single link; indicates a fabric bug).
    InterleavedPacket {
        /// The open packet's id.
        expected: u64,
        /// The intruding flit's id.
        got: u64,
    },
    /// A tail arrived whose packet's body and tail byte counts do not add
    /// up to the payload buffer its head carried (a truncated or
    /// over-long flit stream).
    LengthMismatch {
        /// Bytes in the buffer the head flit carried.
        expected: usize,
        /// Bytes the body and tail flits stood for.
        got: usize,
    },
    /// The flit slice ended before a tail.
    Incomplete,
    /// Flits continued after the tail.
    TrailingFlit {
        /// Index of the trailing flit.
        index: usize,
    },
}

impl fmt::Display for ReassemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReassemblyError::OrphanFlit => write!(f, "payload flit with no open packet"),
            ReassemblyError::UnexpectedHead => write!(f, "head flit while packet open"),
            ReassemblyError::InterleavedPacket { expected, got } => {
                write!(f, "flit of packet {got} interleaved into packet {expected}")
            }
            ReassemblyError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "flits stand for {got} payload bytes, head carried {expected}"
                )
            }
            ReassemblyError::Incomplete => write!(f, "flit stream ended before tail"),
            ReassemblyError::TrailingFlit { index } => {
                write!(f, "unexpected flit at index {index} after tail")
            }
        }
    }
}

impl std::error::Error for ReassemblyError {}

/// Incremental packet reassembler for one link endpoint.
///
/// NIUs own one assembler per incoming link; since the fabric never
/// interleaves flits of different packets on a single link (wormhole
/// allocates per-packet, store-and-forward moves whole packets), a single
/// open packet suffices.
///
/// Reassembly moves, it does not copy: the head flit's payload buffer is
/// held while the body flits are counted, and the tail releases *that
/// buffer* as the packet's payload once the counted bytes equal its
/// length ([`ReassemblyError::LengthMismatch`] otherwise). A flit the
/// assembler rejects leaves it exactly as it was — the packet in progress
/// is not lost to a stray flit.
///
/// # Examples
///
/// ```
/// use noc_transport::{Header, Packet, PacketAssembler};
/// let p = Packet::new(Header::request(1, 0, 0), vec![9; 10]);
/// let mut asm = PacketAssembler::new();
/// let mut out = None;
/// for f in p.to_flits(4) {
///     out = asm.push(f)?;
/// }
/// assert_eq!(out.unwrap(), p);
/// # Ok::<(), noc_transport::ReassemblyError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PacketAssembler {
    open: Option<OpenPacket>,
}

/// The packet in progress: what its head carried and how many payload
/// bytes the flits behind it have stood for so far.
#[derive(Debug, Clone)]
struct OpenPacket {
    id: u64,
    header: Header,
    payload: Vec<u8>,
    received: usize,
}

impl PacketAssembler {
    /// Creates an idle assembler.
    pub fn new() -> Self {
        PacketAssembler::default()
    }

    /// Feeds one flit; returns the completed packet on tail.
    ///
    /// # Errors
    ///
    /// Returns a [`ReassemblyError`] on protocol violations; the
    /// assembler's state is then unchanged.
    pub fn push(&mut self, flit: Flit) -> Result<Option<Packet>, ReassemblyError> {
        let (kind, id, bytes) = (flit.kind(), flit.packet_id(), flit.payload_len());
        if let Some((header, payload)) = flit.into_head() {
            if self.open.is_some() {
                return Err(ReassemblyError::UnexpectedHead);
            }
            if kind == FlitType::HeadTail {
                return Ok(Some(Packet::new(header, payload)));
            }
            self.open = Some(OpenPacket {
                id,
                header,
                payload,
                received: 0,
            });
            return Ok(None);
        }
        let open = self.open.as_mut().ok_or(ReassemblyError::OrphanFlit)?;
        if open.id != id {
            return Err(ReassemblyError::InterleavedPacket {
                expected: open.id,
                got: id,
            });
        }
        let received = open.received + bytes;
        if kind != FlitType::Tail {
            open.received = received;
            return Ok(None);
        }
        if received != open.payload.len() {
            return Err(ReassemblyError::LengthMismatch {
                expected: open.payload.len(),
                got: received,
            });
        }
        let open = self.open.take().expect("checked open above");
        Ok(Some(Packet::new(open.header, open.payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> Header {
        Header::request(3, 1, 0)
    }

    #[test]
    fn empty_payload_single_flit() {
        let p = Packet::new(hdr(), vec![]);
        let flits = p.to_flits(8);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind(), FlitType::HeadTail);
        assert_eq!(p.flit_count(8), 1);
        assert_eq!(Packet::from_flits(&flits).unwrap(), p);
    }

    #[test]
    fn exact_multiple_payload() {
        let p = Packet::new(hdr(), vec![7; 16]);
        let flits = p.to_flits(8);
        assert_eq!(flits.len(), 3);
        assert_eq!(flits[1].kind(), FlitType::Body);
        assert_eq!(flits[2].kind(), FlitType::Tail);
        assert_eq!(p.flit_count(8), 3);
    }

    #[test]
    fn ragged_payload_last_flit_short() {
        let p = Packet::new(hdr(), vec![1, 2, 3, 4, 5]);
        let flits = p.to_flits(4);
        assert_eq!(flits.len(), 3);
        assert_eq!(flits[1].payload_len(), 4);
        assert_eq!(flits[2].payload_len(), 1);
        assert_eq!(Packet::from_flits(&flits).unwrap(), p);
    }

    #[test]
    fn single_payload_flit_is_tail() {
        let p = Packet::new(hdr(), vec![1, 2]);
        let flits = p.to_flits(8);
        assert_eq!(flits.len(), 2);
        assert_eq!(flits[1].kind(), FlitType::Tail);
    }

    #[test]
    fn round_trip_various_widths() {
        let p = Packet::new(hdr(), (0..37).collect());
        for w in [1usize, 2, 3, 8, 16, 64] {
            let flits = p.to_flits(w);
            assert_eq!(Packet::from_flits(&flits).unwrap(), p, "width {w}");
        }
    }

    #[test]
    fn orphan_flit_rejected() {
        let mut asm = PacketAssembler::new();
        let e = asm.push(Flit::body(1, 1)).unwrap_err();
        assert_eq!(e, ReassemblyError::OrphanFlit);
    }

    #[test]
    fn double_head_rejected() {
        let mut asm = PacketAssembler::new();
        asm.push(Flit::head(1, hdr(), vec![7])).unwrap();
        let e = asm.push(Flit::head(2, hdr(), vec![8])).unwrap_err();
        assert_eq!(e, ReassemblyError::UnexpectedHead);
    }

    #[test]
    fn interleaved_packet_rejected() {
        let mut asm = PacketAssembler::new();
        asm.push(Flit::head(1, hdr(), vec![7])).unwrap();
        let e = asm.push(Flit::body(9, 1)).unwrap_err();
        assert_eq!(
            e,
            ReassemblyError::InterleavedPacket {
                expected: 1,
                got: 9
            }
        );
    }

    #[test]
    fn incomplete_stream_detected() {
        let p = Packet::new(hdr(), vec![0; 8]);
        let mut flits = p.to_flits(4);
        flits.pop();
        assert_eq!(Packet::from_flits(&flits), Err(ReassemblyError::Incomplete));
    }

    #[test]
    fn trailing_flit_detected() {
        let p = Packet::new(hdr(), vec![0; 4]);
        let mut flits = p.to_flits(4);
        flits.push(Flit::body(0, 1));
        assert!(matches!(
            Packet::from_flits(&flits),
            Err(ReassemblyError::TrailingFlit { index: 2 })
        ));
    }

    #[test]
    fn assembler_in_progress_state() {
        let mut asm = PacketAssembler::new();
        // Idle: a payload flit has no packet to join.
        assert_eq!(asm.push(Flit::body(1, 1)), Err(ReassemblyError::OrphanFlit));
        asm.push(Flit::head(1, hdr(), vec![0])).unwrap();
        // In progress: a second head is refused.
        assert_eq!(
            asm.push(Flit::head(2, hdr(), vec![0])),
            Err(ReassemblyError::UnexpectedHead)
        );
        assert!(asm.push(Flit::tail(1, 1)).unwrap().is_some());
        // Idle again.
        assert_eq!(asm.push(Flit::body(1, 1)), Err(ReassemblyError::OrphanFlit));
    }

    #[test]
    fn a_rejected_flit_leaves_the_open_packet_intact() {
        let p = Packet::new(hdr(), vec![1, 2, 3, 4, 5, 6]);
        let mut flits = p.to_flits_with_id(4, 1).into_iter();
        let mut asm = PacketAssembler::new();
        asm.push(flits.next().unwrap()).unwrap();
        asm.push(flits.next().unwrap()).unwrap();
        // An intruder, a second head and a tail of the wrong length are
        // each refused...
        assert!(matches!(
            asm.push(Flit::body(9, 2)),
            Err(ReassemblyError::InterleavedPacket { .. })
        ));
        assert_eq!(
            asm.push(Flit::head(2, hdr(), vec![0])),
            Err(ReassemblyError::UnexpectedHead)
        );
        assert_eq!(
            asm.push(Flit::tail(1, 3)),
            Err(ReassemblyError::LengthMismatch {
                expected: 6,
                got: 7
            })
        );
        // ...and the packet in progress still completes.
        assert_eq!(asm.push(flits.next().unwrap()), Ok(Some(p)));
    }

    #[test]
    fn into_flits_moves_the_payload_buffer_through() {
        let payload = vec![0xEE; 21];
        let buffer = payload.as_ptr();
        let flits = Packet::new(hdr(), payload).into_flits_with_id(8, 5);
        assert_eq!(flits.len(), 4);
        let mut asm = PacketAssembler::new();
        let mut out = None;
        for flit in flits {
            out = asm.push(flit).unwrap();
        }
        assert_eq!(out.unwrap().payload.as_ptr(), buffer);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_flit_width_panics() {
        Packet::new(hdr(), vec![1]).to_flits(0);
    }

    #[test]
    fn error_displays() {
        assert!(ReassemblyError::Incomplete.to_string().contains("tail"));
        assert!(ReassemblyError::TrailingFlit { index: 4 }
            .to_string()
            .contains('4'));
        let mismatch = ReassemblyError::LengthMismatch {
            expected: 8,
            got: 5,
        };
        assert!(mismatch.to_string().contains("5 payload bytes"));
    }
}
