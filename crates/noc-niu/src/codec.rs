//! Transaction ⇄ packet codec.
//!
//! This is the *only* place where transaction-layer meaning is written
//! into (and read back out of) the transport layer's opaque header
//! fields — the codec is what keeps both layers ignorant of each other.
//!
//! Each direction is a by-move function (`*_into_*`), which hands the
//! payload buffer from transaction to packet or back without copying.
//! Requests also keep a borrowing form (`encode_request` /
//! `decode_request`) that clones first, for callers that keep their
//! input.

use noc_transaction::{
    Burst, BurstKind, MstAddr, Opcode, RespStatus, ServiceBits, SlvAddr, Tag, TransactionRequest,
    TransactionResponse,
};
use noc_transport::{Header, Packet};
use std::fmt;

/// Errors decoding a packet back into a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The opcode bits are unassigned.
    BadOpcode(u8),
    /// The status bits are unassigned.
    BadStatus(u8),
    /// The packed burst descriptor is malformed.
    BadBurst(u32),
    /// The payload length does not match the burst.
    PayloadMismatch {
        /// Bytes the burst requires.
        expected: u64,
        /// Bytes present in the packet.
        got: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadOpcode(x) => write!(f, "unassigned opcode bits {x:#x}"),
            CodecError::BadStatus(x) => write!(f, "unassigned status bits {x:#x}"),
            CodecError::BadBurst(x) => write!(f, "malformed burst descriptor {x:#x}"),
            CodecError::PayloadMismatch { expected, got } => {
                write!(
                    f,
                    "payload of {got} bytes does not match burst ({expected})"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Packs a burst into 13 header bits: kind(2) | log2(beat_bytes)(3) |
/// beats-1(8).
fn pack_burst(burst: Burst) -> u32 {
    let kind = match burst.kind() {
        BurstKind::Incr => 0u32,
        BurstKind::Wrap => 1,
        BurstKind::Fixed => 2,
        BurstKind::Stream => 3,
    };
    (kind << 11) | ((burst.beat_bytes().trailing_zeros()) << 8) | (burst.beats() - 1)
}

fn unpack_burst(packed: u32) -> Result<Burst, CodecError> {
    let kind = match packed >> 11 {
        0 => BurstKind::Incr,
        1 => BurstKind::Wrap,
        2 => BurstKind::Fixed,
        3 => BurstKind::Stream,
        _ => return Err(CodecError::BadBurst(packed)),
    };
    let beat_bytes = 1u32 << ((packed >> 8) & 0x7);
    let beats = (packed & 0xFF) + 1;
    Burst::new(kind, beat_bytes, beats).map_err(|_| CodecError::BadBurst(packed))
}

/// Encodes a request transaction as a request-network packet, moving
/// the write payload's buffer into the packet.
///
/// The write payload rides as packet payload; reads produce header-only
/// packets.
pub fn request_into_packet(req: TransactionRequest) -> Packet {
    let mut header = Header::request(req.dst().raw(), req.src().raw(), req.tag().raw());
    header.opcode = req.opcode().encode();
    header.address = req.address();
    header.burst = pack_burst(req.burst());
    header.services = req.services().bits();
    header.pressure = req.pressure().min(noc_transport::MAX_PRESSURE);
    header.lock_release = req.opcode() == Opcode::WriteUnlock;
    header.sideband = req.stream().raw() as u32;
    Packet::new(header, req.into_data())
}

/// Borrowing form of [`request_into_packet`]: clones the payload, then
/// moves it. The NIUs use the by-move form.
pub fn encode_request(req: &TransactionRequest) -> Packet {
    request_into_packet(req.clone())
}

/// Decodes a request-network packet back into a transaction, moving the
/// packet's payload buffer into the request.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed headers (possible only through
/// fabric corruption — NIUs always encode valid packets).
pub fn packet_into_request(pkt: Packet) -> Result<TransactionRequest, CodecError> {
    let Packet { header: h, payload } = pkt;
    let opcode = Opcode::decode(h.opcode).ok_or(CodecError::BadOpcode(h.opcode))?;
    let burst = unpack_burst(h.burst)?;
    if opcode.is_write() && payload.len() as u64 != burst.total_bytes() {
        return Err(CodecError::PayloadMismatch {
            expected: burst.total_bytes(),
            got: payload.len(),
        });
    }
    let mut builder = TransactionRequest::builder(opcode)
        .address(h.address)
        .burst(burst)
        .source(MstAddr::new(h.src))
        .destination(SlvAddr::new(h.dst))
        .tag(Tag::new(h.tag))
        .stream(noc_transaction::StreamId::new(h.sideband as u16))
        .services(ServiceBits::from_bits(h.services))
        .pressure(h.pressure);
    if opcode.is_write() {
        builder = builder.data(payload);
    }
    builder.build().map_err(|_| CodecError::BadBurst(h.burst))
}

/// Borrowing form of [`packet_into_request`] (clone, then move).
///
/// # Errors
///
/// As [`packet_into_request`].
pub fn decode_request(pkt: &Packet) -> Result<TransactionRequest, CodecError> {
    packet_into_request(pkt.clone())
}

/// Encodes a response transaction as a response-network packet, moving
/// the read payload's buffer into the packet.
pub fn response_into_packet(resp: TransactionResponse, pressure: u8) -> Packet {
    let mut header = Header::response(resp.dst().raw(), resp.origin().raw(), resp.tag().raw());
    header.status = resp.status().encode();
    header.pressure = pressure.min(noc_transport::MAX_PRESSURE);
    Packet::new(header, resp.into_data())
}

/// Decodes a response-network packet, moving the packet's payload buffer
/// into the response.
///
/// # Errors
///
/// Returns [`CodecError::BadStatus`] on unassigned status bits.
pub fn packet_into_response(pkt: Packet) -> Result<TransactionResponse, CodecError> {
    let Packet { header: h, payload } = pkt;
    let status = RespStatus::decode(h.status).ok_or(CodecError::BadStatus(h.status))?;
    Ok(TransactionResponse::new(
        status,
        MstAddr::new(h.dst),
        SlvAddr::new(h.src),
        Tag::new(h.tag),
        payload,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_transaction::StreamId;

    fn sample_request(opcode: Opcode) -> TransactionRequest {
        let mut b = TransactionRequest::builder(opcode)
            .address(0x8000_1234)
            .burst(Burst::wrap(4, 8).unwrap())
            .source(MstAddr::new(3))
            .destination(SlvAddr::new(7))
            .tag(Tag::new(5))
            .stream(StreamId::new(42))
            .services(ServiceBits::EXCLUSIVE)
            .pressure(2);
        if opcode.is_write() {
            b = b.data((0..32).collect());
        }
        b.build().unwrap()
    }

    #[test]
    fn request_round_trip_write() {
        let req = sample_request(Opcode::Write);
        let pkt = encode_request(&req);
        let back = decode_request(&pkt).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_round_trip_read() {
        let req = sample_request(Opcode::Read);
        let pkt = encode_request(&req);
        assert!(pkt.payload.is_empty(), "reads carry no payload");
        let back = decode_request(&pkt).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn all_opcodes_round_trip() {
        for op in Opcode::ALL {
            let req = sample_request(op);
            let back = decode_request(&encode_request(&req)).unwrap();
            assert_eq!(back.opcode(), op);
        }
    }

    #[test]
    fn unlock_sets_lock_release_flag() {
        let req = sample_request(Opcode::WriteUnlock);
        let pkt = encode_request(&req);
        assert!(pkt.header.lock_release);
        let req = sample_request(Opcode::Write);
        assert!(!encode_request(&req).header.lock_release);
    }

    #[test]
    fn burst_packing_all_shapes() {
        for kind in [
            BurstKind::Incr,
            BurstKind::Wrap,
            BurstKind::Fixed,
            BurstKind::Stream,
        ] {
            for beat_bytes in [1u32, 4, 8, 128] {
                for beats in [1u32, 2, 16, 256] {
                    let Ok(b) = Burst::new(kind, beat_bytes, beats) else {
                        continue; // wrap with non-pow2 beats etc.
                    };
                    let back = unpack_burst(pack_burst(b)).unwrap();
                    assert_eq!(back, b);
                }
            }
        }
    }

    #[test]
    fn response_round_trip() {
        let resp = TransactionResponse::new(
            RespStatus::ExOkay,
            MstAddr::new(9),
            SlvAddr::new(4),
            Tag::new(1),
            vec![1, 2, 3],
        );
        let pkt = response_into_packet(resp.clone(), 3);
        assert_eq!(pkt.header.pressure, 3);
        let back = packet_into_response(pkt).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn corrupt_opcode_detected() {
        let req = sample_request(Opcode::Read);
        let mut pkt = encode_request(&req);
        pkt.header.opcode = 0xF;
        assert_eq!(decode_request(&pkt), Err(CodecError::BadOpcode(0xF)));
    }

    #[test]
    fn corrupt_status_detected() {
        let resp = TransactionResponse::new(
            RespStatus::Okay,
            MstAddr::new(0),
            SlvAddr::new(0),
            Tag::ZERO,
            vec![],
        );
        let mut pkt = response_into_packet(resp, 0);
        pkt.header.status = 7;
        assert_eq!(packet_into_response(pkt), Err(CodecError::BadStatus(7)));
    }

    #[test]
    fn payload_mismatch_detected() {
        let req = sample_request(Opcode::Write);
        let mut pkt = encode_request(&req);
        pkt.payload.pop();
        assert!(matches!(
            decode_request(&pkt),
            Err(CodecError::PayloadMismatch { .. })
        ));
    }

    #[test]
    fn services_and_pressure_survive() {
        let req = sample_request(Opcode::Read);
        let back = decode_request(&encode_request(&req)).unwrap();
        assert!(back.services().contains(ServiceBits::EXCLUSIVE));
        assert_eq!(back.pressure(), 2);
        assert_eq!(back.stream(), StreamId::new(42));
    }

    #[test]
    fn error_display() {
        assert!(CodecError::BadOpcode(0xF).to_string().contains("0xf"));
        assert!(CodecError::PayloadMismatch {
            expected: 4,
            got: 2
        }
        .to_string()
        .contains('4'));
    }
}
