//! The neutral transaction primitives exchanged between NIUs, plus the
//! functional fingerprint used to prove transport/physical independence.

use crate::burst::{Burst, BurstError};
use crate::node::{MstAddr, SlvAddr};
use crate::opcode::{Opcode, RespStatus};
use crate::ordering::StreamId;
use crate::services::ServiceBits;
use crate::tag::Tag;
use std::fmt;

/// Errors from transaction construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransactionError {
    /// Invalid burst parameters.
    Burst(BurstError),
    /// A write carried the wrong amount of data.
    DataLengthMismatch {
        /// Bytes the burst requires.
        expected: u64,
        /// Bytes supplied.
        got: usize,
    },
    /// A read carried write data.
    UnexpectedData,
}

impl fmt::Display for TransactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionError::Burst(e) => write!(f, "invalid burst: {e}"),
            TransactionError::DataLengthMismatch { expected, got } => {
                write!(
                    f,
                    "write data length {got} does not match burst ({expected} bytes)"
                )
            }
            TransactionError::UnexpectedData => write!(f, "read transaction carries write data"),
        }
    }
}

impl std::error::Error for TransactionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransactionError::Burst(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BurstError> for TransactionError {
    fn from(e: BurstError) -> Self {
        TransactionError::Burst(e)
    }
}

/// A VC-neutral request: what an initiator NIU emits after translating its
/// socket's request channel, and what a target NIU presents to its IP.
///
/// Construct through [`TransactionRequest::builder`].
///
/// # Examples
///
/// ```
/// use noc_transaction::{Burst, Opcode, TransactionRequest};
/// let req = TransactionRequest::builder(Opcode::Write)
///     .address(0x80)
///     .burst(Burst::incr(2, 4)?)
///     .data(vec![0u8; 8])
///     .build()?;
/// assert_eq!(req.total_bytes(), 8);
/// assert!(req.opcode().is_write());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionRequest {
    opcode: Opcode,
    address: u64,
    burst: Burst,
    src: MstAddr,
    dst: SlvAddr,
    tag: Tag,
    stream: StreamId,
    services: ServiceBits,
    pressure: u8,
    data: Vec<u8>,
}

impl TransactionRequest {
    /// Starts building a request with the given opcode.
    pub fn builder(opcode: Opcode) -> RequestBuilder {
        RequestBuilder::new(opcode)
    }

    /// The opcode.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The first byte address.
    pub fn address(&self) -> u64 {
        self.address
    }

    /// The burst description.
    pub fn burst(&self) -> Burst {
        self.burst
    }

    /// Packet source (initiator NIU).
    pub fn src(&self) -> MstAddr {
        self.src
    }

    /// Packet destination (target NIU).
    pub fn dst(&self) -> SlvAddr {
        self.dst
    }

    /// NoC ordering tag.
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// Socket stream the request came from (thread/ID).
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Optional service bits riding on the packet.
    pub fn services(&self) -> ServiceBits {
        self.services
    }

    /// QoS pressure (0 = lowest priority).
    pub fn pressure(&self) -> u8 {
        self.pressure
    }

    /// Write payload (empty for reads).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the request, handing over the write payload's buffer
    /// (empty for reads) — how a payload crosses a layer boundary
    /// without being copied.
    pub fn into_data(self) -> Vec<u8> {
        self.data
    }

    /// Total payload bytes of the burst.
    pub fn total_bytes(&self) -> u64 {
        self.burst.total_bytes()
    }

    /// Address of the last byte touched by the burst (for span decoding).
    pub fn last_address(&self) -> u64 {
        self.burst
            .beat_addresses(self.address)
            .last()
            .map(|a| a + self.burst.beat_bytes() as u64 - 1)
            .unwrap_or(self.address)
    }

    /// Re-stamps the NoC routing fields (used by NIUs after decode and tag
    /// assignment).
    #[must_use]
    pub fn with_route(mut self, src: MstAddr, dst: SlvAddr, tag: Tag) -> Self {
        self.src = src;
        self.dst = dst;
        self.tag = tag;
        self
    }

    /// Re-labels the opcode, keeping everything else — payload buffer
    /// included — in place (used by target NIUs, which present exclusive
    /// and locked accesses to their IP as [plain](Opcode::plain) reads
    /// and writes, and restore the label when the IP hands the request
    /// back).
    ///
    /// # Panics
    ///
    /// Panics if `opcode` moves data the other way: the payload would no
    /// longer match the request.
    #[must_use]
    pub fn with_opcode(mut self, opcode: Opcode) -> Self {
        assert_eq!(
            opcode.is_write(),
            self.opcode.is_write(),
            "re-labelling {} as {opcode} would change direction",
            self.opcode
        );
        self.opcode = opcode;
        self
    }

    /// Adds service bits (used by NIUs, e.g. stamping the exclusive bit).
    #[must_use]
    pub fn with_services(mut self, services: ServiceBits) -> Self {
        self.services = self.services.union(services);
        self
    }

    /// Sets the QoS pressure (used by NIUs applying their default to
    /// commands that carried none).
    #[must_use]
    pub fn with_pressure(mut self, pressure: u8) -> Self {
        self.pressure = pressure;
        self
    }
}

/// Builder for [`TransactionRequest`]. Created by
/// [`TransactionRequest::builder`].
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    opcode: Opcode,
    address: u64,
    burst: Result<Burst, BurstError>,
    src: MstAddr,
    dst: SlvAddr,
    tag: Tag,
    stream: StreamId,
    services: ServiceBits,
    pressure: u8,
    data: Vec<u8>,
}

impl RequestBuilder {
    fn new(opcode: Opcode) -> Self {
        RequestBuilder {
            opcode,
            address: 0,
            burst: Burst::single(4),
            src: MstAddr::default(),
            dst: SlvAddr::default(),
            tag: Tag::ZERO,
            stream: StreamId::ZERO,
            services: ServiceBits::NONE,
            pressure: 0,
            data: Vec::new(),
        }
    }

    /// Sets the byte address.
    #[must_use]
    pub fn address(mut self, address: u64) -> Self {
        self.address = address;
        self
    }

    /// Sets the burst.
    #[must_use]
    pub fn burst(mut self, burst: Burst) -> Self {
        self.burst = Ok(burst);
        self
    }

    /// Sets the packet source.
    #[must_use]
    pub fn source(mut self, src: MstAddr) -> Self {
        self.src = src;
        self
    }

    /// Sets the packet destination.
    #[must_use]
    pub fn destination(mut self, dst: SlvAddr) -> Self {
        self.dst = dst;
        self
    }

    /// Sets the NoC tag.
    #[must_use]
    pub fn tag(mut self, tag: Tag) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the socket stream.
    #[must_use]
    pub fn stream(mut self, stream: StreamId) -> Self {
        self.stream = stream;
        self
    }

    /// Sets service bits.
    #[must_use]
    pub fn services(mut self, services: ServiceBits) -> Self {
        self.services = services;
        self
    }

    /// Sets QoS pressure.
    #[must_use]
    pub fn pressure(mut self, pressure: u8) -> Self {
        self.pressure = pressure;
        self
    }

    /// Sets write data.
    #[must_use]
    pub fn data(mut self, data: Vec<u8>) -> Self {
        self.data = data;
        self
    }

    /// Validates and builds the request.
    ///
    /// # Errors
    ///
    /// - [`TransactionError::Burst`] if the burst was invalid;
    /// - [`TransactionError::DataLengthMismatch`] if write data does not
    ///   match the burst size (writes with no data are auto-filled with
    ///   zeros, a convenience for address-only tests);
    /// - [`TransactionError::UnexpectedData`] if a read carries data.
    pub fn build(self) -> Result<TransactionRequest, TransactionError> {
        let burst = self.burst?;
        let mut data = self.data;
        if self.opcode.is_write() {
            let expected = burst.total_bytes();
            if data.is_empty() {
                data = vec![0; expected as usize];
            } else if data.len() as u64 != expected {
                return Err(TransactionError::DataLengthMismatch {
                    expected,
                    got: data.len(),
                });
            }
        } else if !data.is_empty() {
            return Err(TransactionError::UnexpectedData);
        }
        Ok(TransactionRequest {
            opcode: self.opcode,
            address: self.address,
            burst,
            src: self.src,
            dst: self.dst,
            tag: self.tag,
            stream: self.stream,
            services: self.services,
            pressure: self.pressure,
            data,
        })
    }
}

impl fmt::Display for TransactionRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @{:#x} {} {}→{} {}",
            self.opcode, self.address, self.burst, self.src, self.dst, self.tag
        )
    }
}

/// A VC-neutral response travelling back from a target NIU to the
/// initiator NIU that issued the matching request.
///
/// # Examples
///
/// ```
/// use noc_transaction::{MstAddr, RespStatus, SlvAddr, Tag, TransactionResponse};
/// let resp = TransactionResponse::new(
///     RespStatus::Okay, MstAddr::new(1), SlvAddr::new(2), Tag::ZERO, vec![1, 2, 3, 4]);
/// assert!(resp.status().is_ok());
/// assert_eq!(resp.data().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionResponse {
    status: RespStatus,
    dst: MstAddr,
    origin: SlvAddr,
    tag: Tag,
    data: Vec<u8>,
}

impl TransactionResponse {
    /// Creates a response routed back to initiator `dst` from target
    /// `origin`, carrying read `data` (empty for writes).
    pub fn new(status: RespStatus, dst: MstAddr, origin: SlvAddr, tag: Tag, data: Vec<u8>) -> Self {
        TransactionResponse {
            status,
            dst,
            origin,
            tag,
            data,
        }
    }

    /// Response status.
    pub fn status(&self) -> RespStatus {
        self.status
    }

    /// The initiator NIU this response returns to.
    pub fn dst(&self) -> MstAddr {
        self.dst
    }

    /// The target NIU that produced it.
    pub fn origin(&self) -> SlvAddr {
        self.origin
    }

    /// The tag echoed from the request.
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// Read payload.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the response, handing over the read payload's buffer
    /// (empty for writes).
    pub fn into_data(self) -> Vec<u8> {
        self.data
    }
}

impl fmt::Display for TransactionResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}←{} {} ({} bytes)",
            self.status,
            self.dst,
            self.origin,
            self.tag,
            self.data.len()
        )
    }
}

/// An order-insensitive digest of completed transactions.
///
/// Two simulations of the same workload over *different* transport or
/// physical configurations must produce equal fingerprints — that is the
/// paper's layer-independence claim made executable. The combiner is
/// commutative (sum + xor of per-record hashes), so legal response
/// reorderings across tags do not change the digest, while any change in
/// *what* completed (opcode, address, data, status) does.
///
/// # Examples
///
/// ```
/// use noc_transaction::Fingerprint;
/// let mut a = Fingerprint::new();
/// let mut b = Fingerprint::new();
/// a.record(0, 0x100, &[1, 2], 0);
/// a.record(1, 0x200, &[3], 0);
/// // same records, other order:
/// b.record(1, 0x200, &[3], 0);
/// b.record(0, 0x100, &[1, 2], 0);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fingerprint {
    sum: u64,
    xor: u64,
    count: u64,
}

impl Fingerprint {
    /// Creates an empty fingerprint.
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Records one completed transaction: an opcode discriminant, its
    /// address, its (read or write) data and its status code.
    pub fn record(&mut self, opcode: u8, address: u64, data: &[u8], status: u8) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        eat(opcode);
        for b in address.to_le_bytes() {
            eat(b);
        }
        eat(status);
        for &b in data {
            eat(b);
        }
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h.rotate_left((h % 63) as u32);
        self.count += 1;
    }

    /// Number of records folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The digest value.
    pub fn digest(&self) -> u64 {
        self.sum ^ self.xor.rotate_left(32) ^ self.count
    }

    /// Merges another fingerprint (e.g. per-master digests into a system
    /// digest).
    pub fn merge(&mut self, other: &Fingerprint) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
        self.count += other.count;
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{:016x}/{}", self.digest(), self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_accessors() {
        let req = TransactionRequest::builder(Opcode::Read)
            .address(0x1000)
            .build()
            .unwrap();
        assert_eq!(req.opcode(), Opcode::Read);
        assert_eq!(req.address(), 0x1000);
        assert_eq!(req.burst().beats(), 1);
        assert_eq!(req.tag(), Tag::ZERO);
        assert_eq!(req.pressure(), 0);
        assert!(req.data().is_empty());
    }

    #[test]
    fn write_data_validation() {
        let err = TransactionRequest::builder(Opcode::Write)
            .burst(Burst::incr(2, 4).unwrap())
            .data(vec![0; 7])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TransactionError::DataLengthMismatch {
                expected: 8,
                got: 7
            }
        );
    }

    #[test]
    fn write_without_data_zero_fills() {
        let req = TransactionRequest::builder(Opcode::Write)
            .burst(Burst::incr(2, 4).unwrap())
            .build()
            .unwrap();
        assert_eq!(req.data(), &[0u8; 8]);
    }

    #[test]
    fn read_with_data_rejected() {
        let err = TransactionRequest::builder(Opcode::Read)
            .data(vec![1])
            .build()
            .unwrap_err();
        assert_eq!(err, TransactionError::UnexpectedData);
    }

    #[test]
    fn invalid_burst_propagates() {
        let b = Burst::incr(4, 3);
        assert!(b.is_err());
        // builder keeps the error until build()
        let err = match b {
            Err(e) => e,
            Ok(_) => unreachable!(),
        };
        assert_eq!(
            TransactionError::from(err),
            TransactionError::Burst(BurstError::InvalidBeatSize(3))
        );
    }

    #[test]
    fn last_address_of_incr_burst() {
        let req = TransactionRequest::builder(Opcode::Read)
            .address(0x100)
            .burst(Burst::incr(4, 4).unwrap())
            .build()
            .unwrap();
        assert_eq!(req.last_address(), 0x10F);
    }

    #[test]
    fn with_route_and_services() {
        let req = TransactionRequest::builder(Opcode::ReadExclusive)
            .address(0x40)
            .build()
            .unwrap()
            .with_route(MstAddr::new(3), SlvAddr::new(4), Tag::new(2))
            .with_services(ServiceBits::EXCLUSIVE)
            .with_pressure(3);
        assert_eq!(req.src(), MstAddr::new(3));
        assert_eq!(req.dst(), SlvAddr::new(4));
        assert_eq!(req.tag(), Tag::new(2));
        assert!(req.services().contains(ServiceBits::EXCLUSIVE));
        assert_eq!(req.pressure(), 3);
    }

    #[test]
    fn relabelling_and_into_data_keep_the_payload_buffer() {
        let data = vec![7u8; 8];
        let buffer = data.as_ptr();
        let req = TransactionRequest::builder(Opcode::WriteExclusive)
            .burst(Burst::incr(2, 4).unwrap())
            .services(ServiceBits::EXCLUSIVE)
            .data(data)
            .build()
            .unwrap()
            .with_opcode(Opcode::Write);
        assert_eq!(req.opcode(), Opcode::Write);
        assert!(req.services().contains(ServiceBits::EXCLUSIVE));
        let req = req.with_opcode(Opcode::WriteExclusive);
        assert_eq!(req.opcode(), Opcode::WriteExclusive);
        let data = req.into_data();
        assert_eq!(data.as_ptr(), buffer);

        let resp = TransactionResponse::new(
            RespStatus::Okay,
            MstAddr::new(0),
            SlvAddr::new(0),
            Tag::ZERO,
            vec![1, 2, 3],
        );
        let buffer = resp.data().as_ptr();
        let data = resp.into_data();
        assert_eq!(data.as_ptr(), buffer);
    }

    #[test]
    #[should_panic(expected = "change direction")]
    fn relabelling_across_direction_panics() {
        let _ = TransactionRequest::builder(Opcode::Read)
            .build()
            .unwrap()
            .with_opcode(Opcode::Write);
    }

    #[test]
    fn response_accessors() {
        let r = TransactionResponse::new(
            RespStatus::SlvErr,
            MstAddr::new(1),
            SlvAddr::new(9),
            Tag::new(3),
            vec![7],
        );
        assert_eq!(r.status(), RespStatus::SlvErr);
        assert_eq!(r.dst(), MstAddr::new(1));
        assert_eq!(r.origin(), SlvAddr::new(9));
        assert_eq!(r.tag(), Tag::new(3));
        assert_eq!(r.data(), &[7]);
        assert!(r.to_string().contains("SLVERR"));
    }

    #[test]
    fn fingerprint_order_insensitive() {
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        for i in 0..50u64 {
            a.record(0, i, &[i as u8], 0);
        }
        for i in (0..50u64).rev() {
            b.record(0, i, &[i as u8], 0);
        }
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.count(), 50);
    }

    #[test]
    fn fingerprint_sensitive_to_content() {
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        a.record(0, 0x100, &[1], 0);
        b.record(0, 0x100, &[2], 0);
        assert_ne!(a.digest(), b.digest());
        let mut c = Fingerprint::new();
        c.record(0, 0x100, &[1], 3); // different status
        assert_ne!(a.digest(), c.digest());
        let mut d = Fingerprint::new();
        d.record(1, 0x100, &[1], 0); // different opcode
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn fingerprint_detects_duplicates() {
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        a.record(0, 1, &[], 0);
        b.record(0, 1, &[], 0);
        b.record(0, 1, &[], 0);
        assert_ne!(a, b, "duplicate completion must change the digest");
    }

    #[test]
    fn fingerprint_merge_equals_sequential() {
        let mut whole = Fingerprint::new();
        whole.record(0, 1, &[1], 0);
        whole.record(1, 2, &[2], 0);
        let mut p1 = Fingerprint::new();
        p1.record(0, 1, &[1], 0);
        let mut p2 = Fingerprint::new();
        p2.record(1, 2, &[2], 0);
        p1.merge(&p2);
        assert_eq!(whole, p1);
    }

    #[test]
    fn display_formats() {
        let req = TransactionRequest::builder(Opcode::Read)
            .address(0x20)
            .build()
            .unwrap();
        assert!(req.to_string().contains("RD"));
        let fp = Fingerprint::new();
        assert!(fp.to_string().starts_with("fp:"));
    }
}
