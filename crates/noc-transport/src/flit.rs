//! Flits and packet headers.
//!
//! The header layout follows the paper: a destination field (`SlvAddr` —
//! here the raw `dst` node number), a source field (`MstAddr` — `src`), a
//! `Tag`, and a set of control words that are *opaque to the transport
//! layer*: opcode bits, address bits, burst bits, status bits, the
//! services bitset and a sideband word. Only NIUs give these meaning; the
//! fabric routes by `dst`, arbitrates by `pressure` and — for the legacy
//! lock service — inspects a single bit.

use std::fmt;

/// Highest supported pressure (QoS priority) level; levels are
/// `0..=MAX_PRESSURE` with higher values winning arbitration.
pub const MAX_PRESSURE: u8 = 3;

/// Bit index of the legacy LOCKED indication inside [`Header::services`].
/// This must match `noc_transaction::ServiceBits::LOCKED`; the transport
/// layer sees only the raw bit. It is the *one* service with
/// transport-visible semantics (paper §3).
pub const LOCKED_BIT: u16 = 1 << 1;

/// Whether a packet travels on the request or the response network.
///
/// The two directions use disjoint fabrics (standard NoC practice to break
/// request/response deadlock), so this discriminant never mixes inside one
/// switch — it exists for NIU bookkeeping and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Initiator → target.
    Request,
    /// Target → initiator.
    Response,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Request => write!(f, "req"),
            Direction::Response => write!(f, "resp"),
        }
    }
}

/// A packet header. See the module documentation for field semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Header {
    /// Destination node number (the paper's `SlvAddr` on the request
    /// network; the initiator's node number on the response network).
    pub dst: u16,
    /// Source node number (the paper's `MstAddr` on the request network).
    pub src: u16,
    /// Ordering tag.
    pub tag: u8,
    /// Request or response network.
    pub direction: Direction,
    /// Opaque opcode bits (4 bits used).
    pub opcode: u8,
    /// Opaque response status bits (3 bits used; responses only).
    pub status: u8,
    /// Opaque address bits.
    pub address: u64,
    /// Opaque packed burst descriptor.
    pub burst: u32,
    /// Optional service bits (see `noc-transaction::ServiceBits`).
    pub services: u16,
    /// Set on the final packet of a locked sequence: tells switches to
    /// release the pinned path once this packet's tail passes.
    pub lock_release: bool,
    /// QoS pressure, `0..=MAX_PRESSURE`.
    pub pressure: u8,
    /// Opaque sideband preserved end-to-end (socket-specific bits).
    pub sideband: u32,
}

impl Header {
    /// Creates a request-direction header with all opaque fields zeroed.
    pub fn request(dst: u16, src: u16, tag: u8) -> Self {
        Header {
            dst,
            src,
            tag,
            direction: Direction::Request,
            opcode: 0,
            status: 0,
            address: 0,
            burst: 0,
            services: 0,
            lock_release: false,
            pressure: 0,
            sideband: 0,
        }
    }

    /// Creates a response-direction header.
    pub fn response(dst: u16, src: u16, tag: u8) -> Self {
        Header {
            direction: Direction::Response,
            ..Header::request(dst, src, tag)
        }
    }

    /// Sets the pressure (clamped to [`MAX_PRESSURE`]).
    #[must_use]
    pub fn with_pressure(mut self, pressure: u8) -> Self {
        self.pressure = pressure.min(MAX_PRESSURE);
        self
    }

    /// Sets the opaque service bits.
    #[must_use]
    pub fn with_services(mut self, services: u16) -> Self {
        self.services = services;
        self
    }

    /// Returns `true` if the LOCKED service bit is set.
    pub fn is_locked(&self) -> bool {
        self.services & LOCKED_BIT != 0
    }

    /// Header size in bits for a NoC configuration spending
    /// `service_bits` optional bits — used by the area/overhead models.
    ///
    /// Fixed fields: dst(16) + src(16) + tag(8) + direction(1) +
    /// opcode(4) + status(3) + address(40, covering a 1 TB space) +
    /// burst(13) + pressure(2) + lock-release(1) + sideband(8 architected).
    pub fn wire_bits(service_bits: u32) -> u32 {
        16 + 16 + 8 + 1 + 4 + 3 + 40 + 13 + 2 + 1 + 8 + service_bits
    }
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}→{} T{} p{}",
            self.direction, self.src, self.dst, self.tag, self.pressure
        )
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitType {
    /// First flit of a multi-flit packet; carries the header.
    Head,
    /// Interior payload flit.
    Body,
    /// Final payload flit; releases the wormhole path.
    Tail,
    /// Single-flit packet (header only, no payload): head and tail at once.
    HeadTail,
}

/// The unit the fabric moves: one flit per link per cycle.
///
/// A flit is a *record*, not a byte carrier. The head flit carries the
/// [`Header`] and — by move — the packet's whole payload buffer; body and
/// tail flits carry only their position, their packet id and the number
/// of payload bytes they stand for on the wire, and own no heap memory.
/// They follow the path their head allocated (wormhole) or travel with
/// their packet (store-and-forward). Payload is opaque to transport
/// (paper §1), so transport never touches it: the buffer an NIU hands to
/// [`crate::Packet::into_flits_with_id`] is the buffer
/// [`crate::PacketAssembler`] hands back at the far end, after checking
/// that the byte counts of the flits that followed the head add up to it.
///
/// Cloning a head flit clones the payload it carries (snapshots do
/// this); moving one copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flit {
    kind: FlitType,
    /// Packet id, unique per source NIU — debug/assembly aid, not wires.
    packet_id: u64,
    /// Payload bytes this flit stands for (zero on head flits).
    bytes: u32,
    header: Option<Header>,
    /// The packet's payload, on its head flit only; empty — and so
    /// unallocated — on every other flit.
    payload: Vec<u8>,
}

impl Flit {
    /// Creates the head flit of a multi-flit packet, carrying `header`
    /// and the packet's whole `payload`.
    pub fn head(packet_id: u64, header: Header, payload: Vec<u8>) -> Self {
        Flit {
            kind: FlitType::Head,
            packet_id,
            bytes: 0,
            header: Some(header),
            payload,
        }
    }

    /// Creates a single-flit packet (header, no payload).
    pub fn head_tail(packet_id: u64, header: Header) -> Self {
        Flit {
            kind: FlitType::HeadTail,
            ..Flit::head(packet_id, header, Vec::new())
        }
    }

    /// Creates a body flit standing for `bytes` payload bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not fit in 32 bits.
    pub fn body(packet_id: u64, bytes: usize) -> Self {
        Flit {
            kind: FlitType::Body,
            packet_id,
            bytes: u32::try_from(bytes).expect("flit payload width fits in 32 bits"),
            header: None,
            payload: Vec::new(),
        }
    }

    /// Creates a tail flit standing for `bytes` payload bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not fit in 32 bits.
    pub fn tail(packet_id: u64, bytes: usize) -> Self {
        Flit {
            kind: FlitType::Tail,
            ..Flit::body(packet_id, bytes)
        }
    }

    /// The flit's position discriminant.
    pub fn kind(&self) -> FlitType {
        self.kind
    }

    /// The packet id.
    pub fn packet_id(&self) -> u64 {
        self.packet_id
    }

    /// The header (head flits only).
    pub fn header(&self) -> Option<&Header> {
        self.header.as_ref()
    }

    /// The header and payload buffer a head flit carries (`None` for body
    /// and tail flits) — the assembler's way of taking the buffer back out.
    pub(crate) fn into_head(self) -> Option<(Header, Vec<u8>)> {
        Some((self.header?, self.payload))
    }

    /// Payload bytes this flit stands for on the wire: its chunk's length
    /// on body/tail flits, zero on head flits (which carry the buffer,
    /// not a share of its wire time).
    pub fn payload_len(&self) -> usize {
        self.bytes as usize
    }

    /// Returns `true` for `Head` and `HeadTail` flits.
    pub fn is_head(&self) -> bool {
        matches!(self.kind, FlitType::Head | FlitType::HeadTail)
    }

    /// Returns `true` for `Tail` and `HeadTail` flits.
    pub fn is_tail(&self) -> bool {
        matches!(self.kind, FlitType::Tail | FlitType::HeadTail)
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.kind, &self.header) {
            (FlitType::Head, Some(h)) => write!(f, "H[{h}] pkt{}", self.packet_id),
            (FlitType::HeadTail, Some(h)) => write!(f, "HT[{h}] pkt{}", self.packet_id),
            (FlitType::Body, _) => write!(f, "B[{}B] pkt{}", self.bytes, self.packet_id),
            (FlitType::Tail, _) => write!(f, "T[{}B] pkt{}", self.bytes, self.packet_id),
            _ => write!(f, "?flit pkt{}", self.packet_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_constructors_set_direction() {
        let r = Header::request(1, 2, 3);
        assert_eq!(r.direction, Direction::Request);
        assert_eq!((r.dst, r.src, r.tag), (1, 2, 3));
        let p = Header::response(4, 5, 6);
        assert_eq!(p.direction, Direction::Response);
    }

    #[test]
    fn pressure_clamped() {
        let h = Header::request(0, 0, 0).with_pressure(200);
        assert_eq!(h.pressure, MAX_PRESSURE);
    }

    #[test]
    fn locked_bit_detection() {
        let h = Header::request(0, 0, 0).with_services(LOCKED_BIT);
        assert!(h.is_locked());
        let h = Header::request(0, 0, 0).with_services(1);
        assert!(!h.is_locked());
    }

    #[test]
    fn wire_bits_grows_with_services() {
        assert_eq!(Header::wire_bits(0) + 3, Header::wire_bits(3));
        assert!(Header::wire_bits(0) > 100);
    }

    #[test]
    fn flit_predicates() {
        let h = Header::request(0, 0, 0);
        assert!(Flit::head(0, h, vec![1]).is_head());
        assert!(!Flit::head(0, h, vec![1]).is_tail());
        assert!(Flit::head_tail(0, h).is_head());
        assert!(Flit::head_tail(0, h).is_tail());
        assert!(!Flit::body(0, 0).is_head());
        assert!(Flit::tail(0, 0).is_tail());
    }

    #[test]
    fn flit_payload_and_header_access() {
        let h = Header::request(9, 8, 7);
        let head = Flit::head(42, h, vec![1, 2, 3]);
        assert_eq!(head.header().unwrap().dst, 9);
        assert_eq!(head.packet_id(), 42);
        assert_eq!(head.payload, [1, 2, 3]);
        assert_eq!(head.payload_len(), 0);
        let body = Flit::body(42, 3);
        assert_eq!(body.payload_len(), 3);
        assert!(body.header().is_none());
        // Only a head owns heap memory.
        assert_eq!(body.payload.capacity(), 0);
    }

    #[test]
    fn displays() {
        let h = Header::request(1, 2, 3).with_pressure(1);
        assert_eq!(h.to_string(), "req 2→1 T3 p1");
        assert!(Flit::head(5, h, vec![0; 4]).to_string().contains("pkt5"));
        assert!(Flit::body(5, 4).to_string().contains("4B"));
        assert_eq!(Direction::Response.to_string(), "resp");
    }
}
