//! Property-style tests over the core data structures and invariants.
//!
//! Cases are generated from a seeded [`SplitMix64`] stream (no external
//! property-testing dependency), so every run explores the same, fully
//! reproducible sample of the input space. On failure, the iteration
//! index pinpoints the case.

use noc_kernel::SplitMix64;
use noc_niu::{
    decode_request, encode_request, packet_into_request, packet_into_response, request_into_packet,
    response_into_packet, NocEndpoint,
};
use noc_transaction::{
    AddressMap, Burst, BurstKind, Fingerprint, MstAddr, Opcode, OrderingModel, OrderingPolicy,
    RespStatus, ServiceBits, SlvAddr, StreamId, Tag, TransactionRequest, TransactionResponse,
};
use noc_transport::{Flit, FlitFifo, FlitSlab, Header, Packet};

mod mutants;

const CASES: usize = 300;

fn arb_burst(rng: &mut SplitMix64) -> Burst {
    loop {
        let kind = match rng.next_below(4) {
            0 => BurstKind::Incr,
            1 => BurstKind::Wrap,
            2 => BurstKind::Fixed,
            _ => BurstKind::Stream,
        };
        let beat_bytes = 1u32 << rng.next_below(8);
        let beats = rng.next_range(1, 257) as u32;
        if let Ok(burst) = Burst::new(kind, beat_bytes, beats) {
            return burst;
        }
    }
}

fn arb_opcode(rng: &mut SplitMix64) -> Opcode {
    const OPS: [Opcode; 10] = [
        Opcode::Read,
        Opcode::Write,
        Opcode::WritePosted,
        Opcode::ReadExclusive,
        Opcode::WriteExclusive,
        Opcode::ReadLinked,
        Opcode::WriteConditional,
        Opcode::ReadLocked,
        Opcode::WriteUnlock,
        Opcode::Broadcast,
    ];
    OPS[rng.next_below(OPS.len() as u64) as usize]
}

fn arb_bytes(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn burst_addresses_count_matches_beats() {
    let mut rng = SplitMix64::new(0xB0157);
    for case in 0..CASES {
        let burst = arb_burst(&mut rng);
        let base = rng.next_below(1 << 40);
        let addrs: Vec<u64> = burst.beat_addresses(base).collect();
        assert_eq!(addrs.len() as u32, burst.beats(), "case {case}: {burst:?}");
        for a in &addrs {
            assert_eq!(a % burst.beat_bytes() as u64, 0, "case {case}: {burst:?}");
        }
    }
}

#[test]
fn burst_chop_preserves_address_sequence() {
    let mut rng = SplitMix64::new(0xC40B);
    for case in 0..CASES {
        let burst = arb_burst(&mut rng);
        let base = rng.next_below(1 << 32);
        let max = rng.next_range(1, 32) as u32;
        let chunks = burst.chop(base, max);
        let chopped: Vec<u64> = chunks
            .iter()
            .flat_map(|(b, c)| c.beat_addresses(*b))
            .collect();
        let original: Vec<u64> = burst.beat_addresses(base).collect();
        assert_eq!(chopped, original, "case {case}: {burst:?} chopped at {max}");
        for (_, c) in &chunks {
            assert!(c.beats() <= max, "case {case}");
        }
    }
}

#[test]
fn request_codec_round_trips() {
    let mut rng = SplitMix64::new(0x2E9);
    for case in 0..CASES {
        let opcode = arb_opcode(&mut rng);
        let burst = arb_burst(&mut rng);
        let mut b = TransactionRequest::builder(opcode)
            .address(rng.next_below(1 << 40))
            .burst(burst)
            .source(MstAddr::new(rng.next_below(64) as u16))
            .destination(SlvAddr::new(rng.next_below(64) as u16))
            .tag(Tag::new(rng.next_u64() as u8))
            .stream(StreamId::new(rng.next_below(1024) as u16))
            .services(ServiceBits::EXCLUSIVE)
            .pressure(rng.next_below(4) as u8);
        if opcode.is_write() {
            b = b.data(vec![0xA5; burst.total_bytes() as usize]);
        }
        let Ok(req) = b.build() else {
            continue; // opcode/burst combination rejected by the builder
        };
        let packet = encode_request(&req);
        let back = decode_request(&packet).expect("decodes");
        assert_eq!(back, req, "case {case}");
        // The by-move forms agree, and hand the same buffer through.
        let buffer = req.data().as_ptr();
        let moved = packet_into_request(request_into_packet(req)).expect("decodes");
        assert_eq!(moved, back, "case {case}");
        assert_eq!(moved.data().as_ptr(), buffer, "case {case}");
    }
}

#[test]
fn response_codec_round_trips() {
    let mut rng = SplitMix64::new(0x4E59);
    for case in 0..CASES {
        let data = arb_bytes(&mut rng, 128);
        let dst = MstAddr::new(rng.next_below(64) as u16);
        let origin = SlvAddr::new(rng.next_below(64) as u16);
        let tag = Tag::new(rng.next_u64() as u8);
        for status in [
            RespStatus::Okay,
            RespStatus::ExOkay,
            RespStatus::ExFail,
            RespStatus::SlvErr,
            RespStatus::DecErr,
        ] {
            let resp = || TransactionResponse::new(status, dst, origin, tag, data.clone());
            let sent = resp();
            let buffer = sent.data().as_ptr();
            let moved = packet_into_response(response_into_packet(sent, 0)).expect("decodes");
            assert_eq!(moved, resp(), "case {case}");
            assert_eq!(moved.data().as_ptr(), buffer, "case {case}");
        }
    }
}

#[test]
fn packet_flit_round_trip() {
    let mut rng = SplitMix64::new(0xF117);
    for case in 0..CASES {
        let payload = arb_bytes(&mut rng, 256);
        let width = rng.next_range(1, 32) as usize;
        let pkt = Packet::new(Header::request(1, 2, 3), payload);
        let back = Packet::from_flits(&pkt.to_flits(width)).expect("reassembles");
        assert_eq!(back, pkt, "case {case}: width {width}");
    }
}

#[test]
fn fingerprint_is_permutation_invariant() {
    let mut rng = SplitMix64::new(0xF12);
    for case in 0..CASES {
        let n = rng.next_range(1, 20) as usize;
        let mut records: Vec<(u8, u64, u8)> = (0..n)
            .map(|_| (rng.next_u64() as u8, rng.next_u64(), rng.next_u64() as u8))
            .collect();
        let mut fp1 = Fingerprint::new();
        for (op, addr, st) in &records {
            fp1.record(*op, *addr, &[], *st);
        }
        let a = rng.next_below(n as u64) as usize;
        let b = rng.next_below(n as u64) as usize;
        records.swap(a, b);
        let mut fp2 = Fingerprint::new();
        for (op, addr, st) in &records {
            fp2.record(*op, *addr, &[], *st);
        }
        assert_eq!(fp1, fp2, "case {case}: swap {a}<->{b}");
    }
}

#[test]
fn address_map_decode_agrees_with_ranges() {
    let mut rng = SplitMix64::new(0xADD2);
    for case in 0..CASES {
        // build adjacent ranges [0,c1),[c1,c2)... targets 0,1,2...
        let n_cuts = rng.next_range(1, 6) as usize;
        let mut cuts: Vec<u64> = (0..n_cuts).map(|_| rng.next_range(1, 1 << 20)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let probe = rng.next_below(1 << 20);
        let mut map = AddressMap::new();
        let mut bounds = cuts;
        bounds.insert(0, 0);
        for (i, pair) in bounds.windows(2).enumerate() {
            map.add(pair[0], pair[1], SlvAddr::new(i as u16))
                .expect("disjoint by construction");
        }
        let last = *bounds.last().expect("non-empty");
        match map.decode(probe) {
            Ok(target) => {
                let i = target.index();
                assert!(
                    probe >= bounds[i] && probe < bounds[i + 1],
                    "case {case}: probe {probe:#x} decoded to {i}"
                );
            }
            Err(_) => assert!(probe >= last, "case {case}: probe {probe:#x} undecoded"),
        }
    }
}

#[test]
fn ordering_policy_never_exceeds_budget() {
    let mut rng = SplitMix64::new(0x02DE2);
    for case in 0..CASES {
        let budget = rng.next_range(1, 16) as u32;
        let n_ops = rng.next_range(1, 200) as usize;
        let mut policy =
            OrderingPolicy::new(OrderingModel::IdBased { tags: 4 }, budget).expect("valid config");
        let mut live: Vec<Tag> = Vec::new();
        for op in 0..n_ops {
            let stream = rng.next_below(8) as u16;
            let dst = rng.next_below(4) as u16;
            let complete = rng.chance(0.5);
            if complete && !live.is_empty() {
                let tag = live.remove(0);
                policy.complete(tag).expect("live tag completes");
            } else if let Ok(tag) = policy.try_issue(StreamId::new(stream), SlvAddr::new(dst)) {
                live.push(tag);
            }
            assert!(policy.outstanding() <= budget, "case {case} op {op}");
            assert_eq!(
                policy.outstanding() as usize,
                live.len(),
                "case {case} op {op}"
            );
        }
    }
}

#[test]
fn fifo_preserves_order_and_capacity() {
    let mut rng = SplitMix64::new(0xF1F0);
    for case in 0..CASES {
        let capacity = rng.next_range(1, 16) as usize;
        let n_ops = rng.next_range(1, 100) as usize;
        let mut slab = FlitSlab::new();
        let mut fifo = FlitFifo::new(capacity);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut next_id = 0u64;
        for op in 0..n_ops {
            if rng.chance(0.5) {
                let flit = Flit::head_tail(next_id, Header::request(0, 0, 0));
                let accepted = fifo.push(&mut slab, flit, 0);
                assert_eq!(accepted, model.len() < capacity, "case {case} op {op}");
                if accepted {
                    model.push_back(next_id);
                }
                next_id += 1;
            } else if let Some(flit) = fifo.pop(&mut slab) {
                let expect = model.pop_front().expect("model in sync");
                assert_eq!(flit.packet_id(), expect, "case {case} op {op}");
            } else {
                assert!(model.is_empty(), "case {case} op {op}");
            }
            assert_eq!(fifo.len(), model.len(), "case {case} op {op}");
            assert!(
                slab.slots() <= capacity,
                "case {case} op {op}: the slab reuses popped nodes"
            );
        }
    }
}

/// The packet → flits → assembler path moves the payload, it does not
/// copy it: for every payload length and flit width the buffer that
/// went in is the buffer that comes out (same allocation), the flit
/// kinds and count are what `flit_count` promises, and a stream whose
/// body flits do not add up to the carried buffer — one dropped, one
/// duplicated — is a typed error that leaves the packet open.
#[test]
fn payload_buffer_travels_once_through_flits_and_assembler() {
    use noc_transport::{FlitType, PacketAssembler, ReassemblyError};

    for len in 0..=64usize {
        for width in 1..=16usize {
            let payload: Vec<u8> = (0..len as u8).collect();
            let buffer = payload.as_ptr();
            let packet = Packet::new(Header::request(1, 2, 3), payload);
            let (reference, count) = (packet.clone(), packet.flit_count(width));
            let flits: Vec<Flit> = packet.into_flits_with_id(width, 77).collect();
            assert_eq!(flits.len(), count, "len {len} width {width}");
            for (i, flit) in flits.iter().enumerate() {
                let expect = match (i, len) {
                    (0, 0) => FlitType::HeadTail,
                    (0, _) => FlitType::Head,
                    _ if i == count - 1 => FlitType::Tail,
                    _ => FlitType::Body,
                };
                assert_eq!(flit.kind(), expect, "len {len} width {width} flit {i}");
                assert!(flit.payload_len() <= width);
            }
            let carried: usize = flits.iter().map(Flit::payload_len).sum();
            assert_eq!(carried, len, "len {len} width {width}");

            // Malformed variants first (they clone), while `flits` is whole.
            if count >= 3 {
                let mut asm = PacketAssembler::new();
                let mut short = flits.clone();
                let dropped = short.remove(1).payload_len();
                let last = short.pop().expect("tail");
                for flit in short {
                    assert_eq!(asm.push(flit), Ok(None));
                }
                let (expected, got) = (len, len - dropped);
                assert_eq!(
                    asm.push(last.clone()),
                    Err(ReassemblyError::LengthMismatch { expected, got }),
                    "truncated: len {len} width {width}"
                );
                // Rejected, not dropped: the missing flit still completes it.
                assert_eq!(asm.push(flits[1].clone()), Ok(None));
                assert_eq!(asm.push(last), Ok(Some(reference.clone())));

                let mut long = flits.clone();
                long.insert(1, flits[1].clone());
                let got = len + flits[1].payload_len();
                assert_eq!(
                    Packet::from_flits(&long),
                    Err(ReassemblyError::LengthMismatch { expected, got }),
                    "over-long: len {len} width {width}"
                );
            }

            let mut asm = PacketAssembler::new();
            let mut out = None;
            for flit in flits {
                assert!(out.is_none(), "completed before the tail");
                out = asm.push(flit).expect("well-formed stream");
            }
            let out = out.expect("tail completes the packet");
            assert_eq!(out, reference, "len {len} width {width}");
            if len > 0 {
                assert_eq!(out.payload.as_ptr(), buffer, "len {len} width {width}");
            }
        }
    }
}

/// A socket front end that notes the payload buffer (its address) of
/// every request it hands the NIU; everything else is the wrapped front
/// end's.
#[derive(Clone)]
struct SpyInitiator {
    fe: Box<dyn noc_niu::SocketInitiator>,
    pulled: Vec<usize>,
}

impl noc_niu::SocketInitiator for SpyInitiator {
    fn tick(&mut self, cycle: u64) {
        self.fe.tick(cycle);
    }
    fn pull_request(&mut self) -> Option<TransactionRequest> {
        let req = self.fe.pull_request()?;
        self.pulled.push(req.data().as_ptr() as usize);
        Some(req)
    }
    fn push_response(&mut self, stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        self.fe.push_response(stream, opcode, resp);
    }
    fn done(&self) -> bool {
        self.fe.done()
    }
    fn log(&self) -> &noc_protocols::CompletionLog {
        self.fe.log()
    }
    fn load_program(&mut self, program: noc_protocols::Program) {
        self.fe.load_program(program);
    }
    fn clone_box(&self) -> Box<dyn noc_niu::SocketInitiator> {
        Box::new(self.clone())
    }
}

/// A memory target that notes the payload buffer of every request it is
/// handed and of every response it hands out.
#[derive(Clone)]
struct SpyTarget {
    mem: noc_niu::MemoryTarget,
    pushed: Vec<usize>,
    pulled: Vec<usize>,
}

impl noc_niu::SocketTarget for SpyTarget {
    fn tick(&mut self, cycle: u64) {
        self.mem.tick(cycle);
    }
    fn push_request(&mut self, req: TransactionRequest) -> Result<(), TransactionRequest> {
        self.pushed.push(req.data().as_ptr() as usize);
        self.mem.push_request(req)
    }
    fn pull_response(&mut self) -> Option<TransactionResponse> {
        let resp = self.mem.pull_response()?;
        self.pulled.push(resp.data().as_ptr() as usize);
        Some(resp)
    }
}

/// One layer above the flit property: through socket front end, NIU
/// back ends, codec and fabric-less flit exchange, a payload is moved,
/// never copied. For every socket protocol, the buffer a write leaves
/// the front end with (what `InitiatorNiu::emit` packetises) is the
/// buffer `MemoryTarget::push_request` stores from, and the buffer the
/// memory read into is the buffer in the initiator's `CompletionRecord`.
#[test]
fn payload_buffer_travels_once_from_socket_to_memory_and_back() {
    use noc_niu::fe::{AhbInitiator, AxiInitiator, OcpInitiator, StrmInitiator, VciInitiator};
    use noc_niu::{
        InitiatorNiu, InitiatorNiuConfig, MemoryTarget, SocketInitiator, TargetNiu, TargetNiuConfig,
    };
    use noc_protocols::ahb::AhbMaster;
    use noc_protocols::axi::AxiMaster;
    use noc_protocols::ocp::OcpMaster;
    use noc_protocols::strm::StrmMaster;
    use noc_protocols::vci::{VciFlavor, VciMaster};
    use noc_protocols::{MemoryModel, SocketCommand};

    let write = SocketCommand::write(0x100, 4, 11).with_burst(BurstKind::Incr, 4);
    let read = SocketCommand::read(0x100, 4)
        .with_burst(BurstKind::Incr, 4)
        .with_delay(40);
    let program = vec![write.clone(), read.clone()];
    let posted = vec![write.with_opcode(Opcode::WritePosted), read];
    let sockets: [(&str, Box<dyn SocketInitiator>, OrderingModel); 5] = [
        (
            "ahb",
            Box::new(AhbInitiator::new(AhbMaster::new(program.clone()))),
            OrderingModel::FullyOrdered,
        ),
        (
            "ocp",
            Box::new(OcpInitiator::new(OcpMaster::new(program.clone(), 1, 2))),
            OrderingModel::Threaded { threads: 1 },
        ),
        (
            "axi",
            Box::new(AxiInitiator::new(AxiMaster::new(program.clone(), 2, 4))),
            OrderingModel::IdBased { tags: 2 },
        ),
        (
            "bvci",
            Box::new(VciInitiator::new(VciMaster::new(
                program,
                VciFlavor::Basic,
                2,
            ))),
            OrderingModel::FullyOrdered,
        ),
        (
            "strm",
            Box::new(StrmInitiator::new(StrmMaster::new(posted, 4))),
            OrderingModel::FullyOrdered,
        ),
    ];
    for (socket, fe, ordering) in sockets {
        let mut map = AddressMap::new();
        map.add(0x0, 0x1_0000, SlvAddr::new(0)).expect("one range");
        let spy = SpyInitiator {
            fe,
            pulled: Vec::new(),
        };
        let config = InitiatorNiuConfig::new(MstAddr::new(0)).with_ordering(ordering);
        let mut ini = InitiatorNiu::new(spy, config, map);
        let mut tgt = TargetNiu::new(
            SpyTarget {
                mem: MemoryTarget::new(MemoryModel::new(2), 8),
                pushed: Vec::new(),
                pulled: Vec::new(),
            },
            TargetNiuConfig::new(SlvAddr::new(0)),
        );
        for cycle in 0..2000 {
            ini.tick(cycle);
            tgt.tick(cycle);
            if let Some(flit) = ini.pull_flit() {
                tgt.push_flit(flit);
            }
            if let Some(flit) = tgt.pull_flit() {
                ini.push_flit(flit);
            }
            if ini.is_done() && tgt.is_done() {
                break;
            }
        }
        assert!(ini.is_done() && tgt.is_done(), "{socket} drains");

        // Request 0 is the write, request 1 the read that follows it.
        let (at_emit, at_memory) = (&ini.fe().pulled, &tgt.target().pushed);
        assert_eq!(at_emit.len(), 2, "{socket}");
        assert_eq!(at_emit[0], at_memory[0], "{socket}: write payload copied");
        let records = ini.fe().log().records();
        let read = records.iter().find(|r| r.index == 1).expect("read done");
        assert_eq!(read.data.len(), 16, "{socket}");
        let from_memory = *tgt.target().pulled.last().expect("read answered");
        assert_eq!(
            read.data.as_ptr() as usize,
            from_memory,
            "{socket}: read data copied"
        );
    }
}

/// The memory as it was stored before pages: one hash entry per written
/// byte. Kept here as the oracle the paged store is compared against.
#[derive(Clone, Default)]
struct ByteMapMemory {
    bytes: std::collections::HashMap<u64, u8>,
    reads: u64,
    writes: u64,
}

impl ByteMapMemory {
    fn background(addr: u64) -> u8 {
        let mut z = addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u8
    }

    fn read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        self.reads += 1;
        (0..len as u64)
            .map(|i| {
                let a = addr + i;
                self.bytes
                    .get(&a)
                    .copied()
                    .unwrap_or_else(|| Self::background(a))
            })
            .collect()
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        self.writes += 1;
        for (i, &b) in data.iter().enumerate() {
            self.bytes.insert(addr + i as u64, b);
        }
    }

    /// `noc_protocols::memory::access` without a monitor, beat by beat.
    fn access(&mut self, opcode: Opcode, addr: u64, burst: Burst, wdata: &[u8]) -> Vec<u8> {
        let beat = burst.beat_bytes() as usize;
        let mut data = Vec::new();
        for (i, a) in burst.beat_addresses(addr).enumerate() {
            if opcode.is_read() {
                data.extend(self.read(a, beat));
            } else {
                self.write(a, &wdata[i * beat..(i + 1) * beat]);
            }
        }
        data
    }
}

/// The paged `MemoryModel` is the per-byte map, observably: over seeded
/// random `write` / `read` / `access` sequences — unaligned and
/// page-straddling spans, partial overwrites, every burst kind,
/// zero-length accesses, spans whose last byte is address `u64::MAX` —
/// both return equal bytes and count equal accesses and equal distinct
/// written bytes; and a clone taken mid-sequence keeps what it had.
#[test]
fn paged_memory_equals_a_per_byte_map() {
    use noc_protocols::memory::{access, MemoryModel};

    let mut rng = SplitMix64::new(0x9A6ED);
    for case in 0..40 {
        let mut mem = MemoryModel::new(1);
        let mut oracle = ByteMapMemory::default();
        let mut snapshot: Option<(MemoryModel, ByteMapMemory)> = None;
        // A few neighbourhoods, so spans overlap, straddle page
        // boundaries (multiples of 256) and reach the top of the space.
        let bases = [
            0u64,
            0xF0,
            0x1_0000 - 7,
            rng.next_below(1 << 40),
            rng.next_below(1 << 40) | 0xFF,
        ];
        let check = |mem: &MemoryModel, oracle: &ByteMapMemory, what: &str| {
            assert_eq!(mem.written_bytes(), oracle.bytes.len(), "{what}: written");
            assert_eq!(mem.read_count(), oracle.reads, "{what}: reads");
            assert_eq!(mem.write_count(), oracle.writes, "{what}: writes");
        };
        for op in 0..120 {
            let what = format!("case {case} op {op}");
            let len = match rng.next_below(4) {
                0 => rng.next_below(4) as usize,
                1 | 2 => rng.next_below(40) as usize,
                _ => rng.next_below(700) as usize,
            };
            let addr = if rng.chance(0.1) {
                // The span ends exactly at the last address there is.
                u64::MAX - len as u64 + u64::from(len > 0)
            } else {
                bases[rng.next_below(bases.len() as u64) as usize] + rng.next_below(600)
            };
            match rng.next_below(4) {
                0 => {
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    mem.write(addr, &data);
                    oracle.write(addr, &data);
                }
                1 => assert_eq!(mem.read(addr, len), oracle.read(addr, len), "{what}"),
                2 => {
                    // `read_into` appends, and is one access like `read`.
                    let mut out = vec![0xEE];
                    mem.read_into(addr, len, &mut out);
                    assert_eq!(out[0], 0xEE, "{what}");
                    assert_eq!(out[1..], oracle.read(addr, len), "{what}");
                }
                _ => {
                    let burst = loop {
                        let burst = arb_burst(&mut rng);
                        if burst.total_bytes() <= 1024 {
                            break burst;
                        }
                    };
                    let addr = addr.min(1 << 41);
                    let (opcode, wdata) = if rng.chance(0.5) {
                        (Opcode::Read, Vec::new())
                    } else {
                        let n = burst.total_bytes() as usize;
                        (
                            Opcode::Write,
                            (0..n).map(|_| rng.next_u64() as u8).collect(),
                        )
                    };
                    let data = access(&mut mem, opcode, addr, burst, &wdata);
                    assert_eq!(
                        data,
                        oracle.access(opcode, addr, burst, &wdata),
                        "{what}: {burst:?}"
                    );
                }
            }
            check(&mem, &oracle, &what);
            if op == 60 {
                snapshot = Some((mem.clone(), oracle.clone()));
            }
        }
        // The clone saw none of the original's later writes.
        let (mut mem, mut oracle) = snapshot.expect("taken at op 60");
        check(&mem, &oracle, &format!("case {case} snapshot"));
        for base in bases {
            assert_eq!(
                mem.read(base, 1200),
                oracle.read(base, 1200),
                "case {case} snapshot at {base:#x}"
            );
        }
    }
}

/// The switch as it first allocated, with no request table and no port
/// sets: every free output re-scans every input, peeks its FIFO, routes
/// its head and applies every filter again; forwarding and lock
/// accounting scan every output. Kept here as the oracle the product
/// switch is compared against.
struct OracleSwitch {
    mode: noc_transport::SwitchMode,
    depth: usize,
    table: noc_transport::RoutingTable,
    inputs: Vec<std::collections::VecDeque<Flit>>,
    in_alloc: Vec<Option<usize>>,
    in_lock_release: Vec<bool>,
    out_owner: Vec<Option<usize>>,
    out_lock: Vec<Option<usize>>,
    out_credits: Vec<u32>,
    arbiters: Vec<noc_transport::RoundRobinArbiter>,
    stats: noc_transport::SwitchStats,
}

impl OracleSwitch {
    fn new(config: noc_transport::SwitchConfig, table: noc_transport::RoutingTable) -> Self {
        OracleSwitch {
            mode: config.mode,
            depth: config.buffer_depth,
            table,
            inputs: vec![Default::default(); config.inputs],
            in_alloc: vec![None; config.inputs],
            in_lock_release: vec![false; config.inputs],
            out_owner: vec![None; config.outputs],
            out_lock: vec![None; config.outputs],
            out_credits: vec![0; config.outputs],
            arbiters: vec![Default::default(); config.outputs],
            stats: Default::default(),
        }
    }

    fn accept(&mut self, port: usize, flit: Flit) -> bool {
        let space = self.inputs[port].len() < self.depth;
        if space {
            self.inputs[port].push_back(flit);
        }
        space
    }

    fn allocate(&mut self) {
        use noc_transport::SwitchMode;
        for o in 0..self.out_owner.len() {
            if self.out_owner[o].is_some_and(|i| self.in_alloc[i] == Some(o)) {
                continue;
            }
            let requests: Vec<Option<u8>> = (0..self.inputs.len())
                .map(|i| {
                    let header = self.inputs[i].front()?.header()?;
                    let whole_packet = self.inputs[i].iter().any(Flit::is_tail);
                    (self.in_alloc[i].is_none()
                        && self.table.lookup(header.dst).ok()?.index() == o
                        && (self.mode == SwitchMode::Wormhole || whole_packet)
                        && self.out_lock[o].is_none_or(|owner| owner == i))
                    .then_some(header.pressure)
                })
                .collect();
            let n_req = requests.iter().flatten().count();
            if n_req == 0 {
                self.stats.lock_idle_cycles += u64::from(self.out_lock[o].is_some());
                continue;
            }
            self.stats.arbitration_conflicts += u64::from(n_req > 1);
            let winner = self.arbiters[o].pick(&requests).expect("a requester");
            self.in_alloc[winner] = Some(o);
            self.out_owner[o] = Some(winner);
            let header = *self.inputs[winner].front().and_then(Flit::header).unwrap();
            self.in_lock_release[winner] = header.lock_release;
            if header.is_locked() {
                self.out_lock[o] = Some(winner);
            }
        }
    }

    fn tick(&mut self) -> (Vec<(noc_transport::PortId, Flit)>, Vec<usize>) {
        self.allocate();
        let (mut sent, mut released) = (Vec::new(), Vec::new());
        for o in 0..self.out_owner.len() {
            let Some(i) = self.out_owner[o] else { continue };
            if self.in_alloc[i] != Some(o) || self.inputs[i].is_empty() {
                continue;
            }
            if self.out_credits[o] == 0 {
                self.stats.credit_stalls += 1;
                continue;
            }
            let flit = self.inputs[i].pop_front().expect("checked non-empty");
            self.out_credits[o] -= 1;
            self.stats.flits_forwarded += 1;
            released.push(i);
            if flit.is_tail() {
                self.stats.packets_forwarded += 1;
                self.in_alloc[i] = None;
                let releases = self.in_lock_release[i];
                if self.out_lock[o] != Some(i) || releases {
                    self.out_owner[o] = None;
                }
                if self.out_lock[o] == Some(i) && releases {
                    self.out_lock[o] = None;
                }
                self.in_lock_release[i] = false;
            }
            sent.push((noc_transport::PortId(o as u8), flit));
        }
        (sent, released)
    }

    fn has_locked_output(&self) -> bool {
        self.out_lock.iter().any(Option::is_some)
    }

    fn is_idle(&self) -> bool {
        self.inputs.iter().all(|q| q.is_empty()) && self.in_alloc.iter().all(Option::is_none)
    }
}

/// A port count for the switch oracle: mostly 1–5, as a mesh has, and
/// otherwise one that straddles a word boundary of the switch's port
/// sets (64, 128) or reaches the most ports a `PortId` names (256).
fn arb_port_count(rng: &mut SplitMix64) -> usize {
    let (lo, hi) = match rng.next_below(8) {
        0 => (60, 70),
        1 => (125, 131),
        2 => (250, 256),
        _ => (1, 5),
    };
    rng.next_range(lo, hi) as usize
}

/// A port of `0..count`, drawn to sit on a set-word edge as often as
/// anywhere else.
fn arb_port(rng: &mut SplitMix64, count: usize) -> usize {
    const EDGES: [usize; 9] = [0, 62, 63, 64, 65, 126, 127, 128, 129];
    if rng.chance(0.5) {
        let edge = EDGES[rng.next_below(EDGES.len() as u64) as usize];
        if edge < count {
            return edge;
        }
    }
    if rng.chance(0.3) {
        return count - 1;
    }
    rng.next_below(count as u64) as usize
}

/// Per-event allocation and forwarding ≡ the per-output re-scan they
/// replaced, tick for tick, over random switches: both switching modes,
/// locked sequences with and without their releasing packet, mixed
/// pressures, packets arriving a flit at a time (heads ahead of their
/// bodies), outputs starved of credit, an unroutable destination now and
/// then; port counts of 1–5 and across every word boundary of the port
/// sets (60–70, 125–131, 250–256), with traffic on the ports at the
/// edges. After every tick the flits sent, the credits released, the
/// counters, `is_idle` and `has_locked_output` must match; quiet spells
/// let the switch drain, and an idle switch — pinned by a lock or not —
/// then skips cycles in bulk against the oracle's dense ticks.
#[test]
fn one_pass_allocation_equals_the_per_output_scan() {
    use noc_transport::{PortId, RoutingTable, Switch, SwitchConfig, SwitchMode, LOCKED_BIT};

    let mut rng = SplitMix64::new(0xA110C);
    for case in 0..CASES {
        let (inputs, outputs) = (arb_port_count(&mut rng), arb_port_count(&mut rng));
        let config = SwitchConfig {
            inputs,
            outputs,
            mode: if rng.chance(0.5) {
                SwitchMode::Wormhole
            } else {
                SwitchMode::StoreAndForward
            },
            buffer_depth: rng.next_range(4, 8) as usize,
        };
        const NODES: u16 = 16;
        let mut table = RoutingTable::new(NODES as usize);
        for dst in 0..NODES {
            if rng.chance(0.95) {
                table.set(dst, PortId(arb_port(&mut rng, outputs) as u8));
            }
        }
        let mut switch = Switch::new(config, table.clone());
        let mut oracle = OracleSwitch::new(config, table);
        // The inputs that send: all of a small switch's, a dozen of a
        // wide one's, most of them on word edges.
        let mut senders: Vec<usize> = if inputs <= 5 {
            (0..inputs).collect()
        } else {
            (0..12).map(|_| arb_port(&mut rng, inputs)).collect()
        };
        senders.sort_unstable();
        senders.dedup();
        // Per input: the flits of packets still on their way in.
        let mut arriving: Vec<std::collections::VecDeque<Flit>> = vec![Default::default(); inputs];
        let mut next_id = 0u64;
        // Ticks left in a quiet spell, when no new packet starts.
        let mut quiet = 0;
        for tick in 0..rng.next_range(20, 80) {
            if quiet == 0 && rng.chance(0.1) {
                quiet = rng.next_range(4, 16);
            }
            quiet = quiet.saturating_sub(1);
            for &i in &senders {
                let queue = &mut arriving[i];
                if queue.is_empty() && quiet == 0 && rng.chance(0.5) {
                    let mut header =
                        Header::request(rng.next_below(NODES as u64) as u16, i as u16, 0)
                            .with_pressure(rng.next_below(4) as u8);
                    if rng.chance(0.2) {
                        header = header.with_services(LOCKED_BIT);
                        header.lock_release = rng.chance(0.5);
                    }
                    // At most 1 + 3 flits: a whole packet fits the
                    // shallowest buffer, as store-and-forward needs.
                    let payload = vec![0; rng.next_below(13) as usize];
                    queue.extend(Packet::new(header, payload).into_flits_with_id(4, next_id));
                    next_id += 1;
                }
                if !queue.is_empty() && rng.chance(0.7) && switch.can_accept(i) {
                    let flit = queue.pop_front().expect("checked non-empty");
                    assert!(oracle.accept(i, flit.clone()), "case {case} tick {tick}");
                    assert!(switch.accept(i, flit), "case {case} tick {tick}");
                }
            }
            for o in 0..outputs {
                if rng.chance(0.4) {
                    switch.add_output_credit(o);
                    oracle.out_credits[o] += 1;
                }
            }
            let what = format!("case {case} ({inputs}x{outputs}) tick {tick}");
            let got = switch.tick();
            let (sent, released) = oracle.tick();
            assert_eq!(got.sent, sent, "{what}");
            assert_eq!(got.credits_released, released, "{what}");
            assert_eq!(*switch.stats(), oracle.stats, "{what}");
            assert_eq!(switch.is_idle(), oracle.is_idle(), "{what}");
            assert_eq!(
                switch.has_locked_output(),
                oracle.has_locked_output(),
                "{what}"
            );
            // An idle switch skips cycles in bulk where the oracle ticks
            // densely; a pinned lock counts its lock-idle cycles either way.
            if switch.is_idle() && rng.chance(0.5) {
                let cycles = rng.next_range(1, 20);
                switch.skip_cycles(cycles);
                for _ in 0..cycles {
                    assert!(oracle.tick().0.is_empty(), "{what}: an idle oracle sent");
                }
                assert_eq!(*switch.stats(), oracle.stats, "{what}: skip {cycles}");
            }
        }
    }
}

/// Credit returns as the fabric files them into an [`Arrivals`] wheel ≡
/// a `due cycle → links` map under random release / apply sequences: a
/// few distinct wire latencies per case (now and then a billion-cycle
/// one, which must cost one entry, not a ring that long), several
/// releases per cycle on one latency, horizon skips far longer than any
/// wire (every credit due at once) and repeated applies of one cycle.
///
/// [`Arrivals`]: noc_kernel::Arrivals
#[test]
fn credit_returns_equal_a_due_cycle_map() {
    use noc_kernel::Arrivals;
    use std::collections::BTreeMap;

    let mut rng = SplitMix64::new(0xC4ED);
    for case in 0..CASES {
        let max_latency = rng.next_range(1, 6);
        let mut latencies: Vec<u64> = (0..rng.next_range(1, 3))
            .map(|_| rng.next_range(1, max_latency))
            .collect();
        if rng.chance(0.2) {
            latencies.push(1_000_000_000);
        }
        let mut credits = Arrivals::new();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut now = 0u64;
        for op in 0..rng.next_range(10, 150) {
            // A step applies the credits due, then releases new ones —
            // the order `Soc::step` runs the fabric in.
            let mut applied = Vec::new();
            credits.drain_due(now, &mut applied);
            let mut expect = Vec::new();
            while let Some(entry) = model.first_entry().filter(|e| *e.key() <= now) {
                expect.extend(entry.remove());
            }
            applied.sort_unstable();
            expect.sort_unstable();
            assert_eq!(applied, expect, "case {case} op {op} now {now}");
            if rng.chance(0.2) {
                credits.drain_due(now, &mut applied);
                assert_eq!(applied, expect, "case {case}: a credit applied twice");
            }
            for _ in 0..rng.next_below(4) {
                let latency = latencies[rng.next_below(latencies.len() as u64) as usize];
                let link = rng.next_below(50) as u32;
                credits.file(now + latency, link);
                model.entry(now + latency).or_default().push(link);
            }
            let pending: usize = model.values().map(Vec::len).sum();
            assert_eq!(credits.len(), pending, "case {case} op {op}");
            now += match rng.next_below(10) {
                0 => rng.next_range(max_latency, 20 * max_latency), // a long skip
                1 if rng.chance(0.1) => 2_000_000_000,              // past the deepest wire
                1..=3 => rng.next_range(2, max_latency + 1),
                _ => 1,
            };
        }
    }
}

/// Flit arrivals as the fabric files them ≡ a `due cycle → entries`
/// model: each step drains everything due, then files arrivals 1, 63,
/// 64, 65 or 127 cycles after the drained cycle — on either side of the
/// wheel's 64-cycle window and of its second turn — or 10⁹ cycles out.
/// Drains advance one cycle, a few, to a window edge, to the earliest
/// entry or far past every entry. After every step the drained entries
/// must be exactly the model's due set, in cycle order, and `peek`,
/// `len` and `pops` must match; a clone taken mid-run continues on its
/// own. Every entry gets its own id, so the order of a drain can be
/// read back as cycles.
#[test]
fn flit_arrivals_equal_a_due_cycle_model() {
    use noc_kernel::Arrivals;
    use std::collections::BTreeMap;

    const OFFSETS: [u64; 6] = [1, 63, 64, 65, 127, 1_000_000_000];

    #[derive(Clone)]
    struct Pair {
        wheel: Arrivals,
        /// Due cycle → the ids filed for it.
        model: BTreeMap<u64, Vec<u32>>,
        /// Per id, the cycle it was filed for.
        filed_at: Vec<u64>,
        retired: u64,
        now: u64,
    }

    impl Pair {
        fn drive(&mut self, rng: &mut SplitMix64, steps: u64, what: &str) {
            for step in 0..steps {
                let now = self.now;
                let what = format!("{what} step {step} now {now}");
                let mut due = Vec::new();
                self.wheel.drain_due(now, &mut due);
                let cycles: Vec<u64> = due.iter().map(|&id| self.filed_at[id as usize]).collect();
                assert!(
                    cycles.windows(2).all(|w| w[0] <= w[1]),
                    "{what}: out of cycle order: {cycles:?}"
                );
                let mut expect = Vec::new();
                while let Some(entry) = self.model.first_entry().filter(|e| *e.key() <= now) {
                    expect.extend(entry.remove());
                }
                due.sort_unstable();
                expect.sort_unstable();
                assert_eq!(due, expect, "{what}: due set");
                self.retired += due.len() as u64;
                for _ in 0..rng.next_below(5) {
                    let at = now + OFFSETS[rng.next_below(OFFSETS.len() as u64) as usize];
                    let id = self.filed_at.len() as u32;
                    self.filed_at.push(at);
                    self.wheel.file(at, id);
                    self.model.entry(at).or_default().push(id);
                }
                let pending: usize = self.model.values().map(Vec::len).sum();
                assert_eq!(self.wheel.len(), pending, "{what}: len");
                let earliest = self.model.keys().next().copied();
                assert_eq!(self.wheel.peek(), earliest, "{what}: peek");
                assert_eq!(self.wheel.pops(), self.retired, "{what}: pops");
                self.now += match rng.next_below(12) {
                    0 => rng.next_range(62, 66), // to a window edge
                    1 => rng.next_range(126, 130),
                    2 if rng.chance(0.2) => 3_000_000_000, // past every entry
                    3 => rng.next_range(2, 40),
                    4 => earliest.map_or(1, |at| at.saturating_sub(now).max(1)),
                    _ => 1,
                };
            }
        }
    }

    let mut rng = SplitMix64::new(0xA771);
    for case in 0..CASES {
        let mut pair = Pair {
            wheel: Arrivals::new(),
            model: BTreeMap::new(),
            filed_at: Vec::new(),
            retired: 0,
            now: rng.next_below(200),
        };
        pair.drive(&mut rng, 60, &format!("case {case} before the clone"));
        let mut fork = pair.clone();
        let steps = rng.next_range(20, 120);
        pair.drive(&mut rng, steps, &format!("case {case} original"));
        fork.drive(&mut rng.fork(1), steps, &format!("case {case} clone"));
    }
}

/// The invariant the fabric's arrival wheel rests on: a link fixes each
/// item's arrival cycle when it accepts the item, and delivers it at
/// exactly that cycle. Over random link shapes (1–3 phits, 0–5 pipeline
/// stages, clock divisors 1–4 on each end, 0–3 synchroniser stages,
/// capacity 1–16) and sends on source edges, every accepted item's stamp
/// lies on a destination edge, at least one destination period after the
/// item in flight before it; `deliver` returns it at its stamp and
/// nothing at any earlier cycle. A refused send's `retry_at` is exact:
/// the link cannot take an item before it, and can at it.
#[test]
fn link_stamps_land_on_destination_edges_and_deliver_on_time() {
    use noc_kernel::Slab;
    use noc_physical::{LinkConfig, LinkFull, LinkState};
    use std::collections::VecDeque;

    let mut rng = SplitMix64::new(0x57A4);
    for case in 0..CASES {
        let cfg = LinkConfig {
            phits_per_flit: rng.next_range(1, 3) as u32,
            pipeline: rng.next_range(0, 5) as u32,
            src_divisor: rng.next_range(1, 4),
            dst_divisor: rng.next_range(1, 4),
            cdc_latency: rng.next_range(0, 3) as u32,
            capacity: rng.next_range(1, 16) as usize,
        };
        let what = format!("case {case} ({cfg:?})");
        let (src, dst) = (cfg.src_divisor, cfg.dst_divisor);
        let mut link = LinkState::new(0);
        let mut slab = Slab::new();
        let mut model: VecDeque<(u64, u32)> = VecDeque::new();
        let mut retry: Option<u64> = None;
        let load = rng.next_f64();
        for now in 0..rng.next_range(50, 400) {
            let got = link.deliver(&cfg, &mut slab, now);
            match model.front() {
                Some(&(stamp, item)) if stamp == now => {
                    assert_eq!(got, Some(item), "{what}: item due at {now}");
                    model.pop_front();
                }
                Some(&(stamp, _)) => {
                    assert!(stamp > now, "{what}: stamp {stamp} passed at {now}");
                    assert_eq!(got, None, "{what}: delivered before its stamp {stamp}");
                }
                None => assert_eq!(got, None, "{what}: nothing in flight at {now}"),
            }
            if let Some(at) = retry {
                assert_eq!(
                    link.can_send(&cfg, now),
                    now >= at,
                    "{what}: retry at {at}, now {now}"
                );
                if now >= at {
                    retry = None;
                }
            }
            if now % src != 0 || !rng.chance(load) {
                continue;
            }
            let item = now as u32;
            match link.send(&cfg, &mut slab, item, now) {
                Ok(latency) => {
                    let stamp = now + latency;
                    assert!(latency > 0, "{what}: zero-latency send at {now}");
                    assert_eq!(
                        stamp % dst,
                        0,
                        "{what}: stamp {stamp} off a destination edge"
                    );
                    if let Some(&(prev, _)) = model.back() {
                        assert!(stamp >= prev + dst, "{what}: stamp {stamp} crowds {prev}");
                    }
                    model.push_back((stamp, item));
                }
                Err(LinkFull { retry_at }) => {
                    assert!(
                        retry_at > now,
                        "{what}: refused at {now}, retry at {retry_at}"
                    );
                    retry = Some(retry_at);
                }
            }
        }
    }
}

/// A random NoC scenario for the link-class property: switch links
/// always one-cycle, endpoint links one-cycle or not — pipelined, two
/// phits wide, one flit of capacity, or crossing into a divided clock —
/// and a legacy-locked sequence that pins a path while other masters
/// stream bursts past it.
fn arb_link_mix_scenario(rng: &mut SplitMix64, store_and_forward: bool) -> String {
    let mut text = String::from("[topology]\n");
    text += match rng.next_below(3) {
        0 => "kind = \"crossbar\"\n",
        1 => "kind = \"ring\"\nswitches = 3\n",
        _ => "kind = \"mesh\"\nwidth = 2\nheight = 2\n",
    };
    // Store-and-forward buffers must hold a whole packet.
    let depth = if store_and_forward {
        16
    } else {
        rng.next_range(2, 6)
    };
    text += &format!("\n[config]\nbuffer_depth = {depth}\n");
    text += match rng.next_below(4) {
        0 => "",
        1 => "endpoint_pipeline = 2\n",
        2 => "endpoint_phits = 2\n",
        _ => "endpoint_capacity = 1\n",
    };
    let divisor = |rng: &mut SplitMix64| {
        if rng.chance(0.3) {
            rng.next_range(2, 4)
        } else {
            1
        }
    };
    text += &format!(
        "\n[[initiator]]\nname = \"sync\"\nsocket = \"ahb\"\nclock_divisor = {}\n\
         cmd = \"read_locked 0x40 1x4\"\n\
         cmd = \"write_unlock 0x40 1x4 seed=0x1 delay={}\"\n\
         cmd = \"read_locked 0x40 1x4 delay={}\"\n\
         cmd = \"write_unlock 0x40 1x4 seed=0x2 delay={}\"\n",
        divisor(rng),
        rng.next_below(12),
        rng.next_below(30),
        rng.next_below(12),
    );
    for (name, socket) in [("cpu", "axi"), ("dsp", "ocp")] {
        text += &format!(
            "\n[[initiator]]\nname = \"{name}\"\nsocket = \"{socket}\"\nclock_divisor = {}\n",
            divisor(rng)
        );
        for _ in 0..rng.next_range(2, 7) {
            let op = if rng.chance(0.5) { "read" } else { "write" };
            let addr = rng.next_below(0x1000) & !0x3F;
            let beats = 1 << rng.next_below(4);
            text += &format!(
                "cmd = \"{op} {addr:#x} {beats}x4 seed={} delay={}\"\n",
                rng.next_u64() >> 1,
                rng.next_below(8)
            );
        }
    }
    text += &format!(
        "\n[[target]]\nname = \"sem\"\nkind = \"service\"\nbase = 0x0\nend = 0x800\n\
         latency = {}\nexclusive = true\nclock_divisor = {}\n\
         \n[[memory]]\nname = \"mem\"\nbase = 0x800\nend = 0x1000\nlatency = {}\nclock_divisor = {}\n",
        rng.next_range(1, 4),
        divisor(rng),
        rng.next_range(1, 4),
        divisor(rng),
    );
    text
}

/// A flit sent on a one-cycle link goes straight into the next input
/// FIFO, stamped with its arrival, or onto the next tick's ejection list,
/// and a credit on a one-cycle return wire is applied when its tick ends;
/// every other link queues its flits and files them on the arrival wheel.
/// On random fabrics that mix the two, under both switch modes and with
/// a locked path: dense and horizon stepping agree on every record and
/// switch statistic, and a fork taken after every step (horizon) replays
/// the uninterrupted run — so no flit, credit or busy switch is lost
/// between ticks.
#[test]
fn one_cycle_and_queued_links_agree_dense_horizon_and_forked() {
    use noc_scenario::{Backend, ScenarioSpec, Simulation, StepMode};
    use noc_system::NocConfig;
    use noc_transport::SwitchMode;

    /// Records, the report but its step, poll and pop counts (what the
    /// step mode changes), and the clock.
    fn outcome(sim: &dyn Simulation) -> String {
        let mut report = sim.report();
        report.steps = 0;
        report.horizon_polls = 0;
        report.calendar_pops = 0;
        let logs: Vec<_> = sim
            .logs()
            .iter()
            .map(|(_, l)| l.records().to_vec())
            .collect();
        format!("now={} logs={logs:?} report={report:?}", sim.now())
    }

    let mut rng = SplitMix64::new(0x1C7C1E);
    let mut locked_idle = 0;
    for case in 0..16 {
        let store_and_forward = rng.chance(0.5);
        let text = arb_link_mix_scenario(&mut rng, store_and_forward);
        let spec = ScenarioSpec::from_text(&text).expect("the generator writes valid text");
        let mode = if store_and_forward {
            SwitchMode::StoreAndForward
        } else {
            SwitchMode::Wormhole
        };
        let backend = Backend::Noc(NocConfig::new().with_mode(mode));
        let run = |step| {
            let mut sim = spec.build(&backend).expect("valid random spec");
            assert!(
                sim.run_until_with(200_000, step),
                "case {case}: drains\n{text}"
            );
            sim
        };
        let dense = run(StepMode::Dense);
        let expected = outcome(dense.as_ref());
        let horizon = run(StepMode::Horizon);
        assert_eq!(
            outcome(horizon.as_ref()),
            expected,
            "case {case}: horizon against dense\n{text}"
        );
        let steps = horizon.report().steps;
        let fabric = dense.report().fabric.expect("the NoC reports its fabric");
        locked_idle += fabric.lock_idle_cycles;
        let mut sim = spec.build(&backend).expect("valid random spec");
        while !sim.is_done() {
            sim.advance_to(sim.now() + 1);
            let mut fork = sim.snapshot();
            assert!(fork.run_until_with(200_000, StepMode::Horizon));
            assert_eq!(
                (outcome(fork.as_ref()), fork.report().steps),
                (expected.clone(), steps),
                "case {case}: the fork taken at cycle {} diverged\n{text}",
                sim.now()
            );
        }
    }
    assert!(locked_idle > 0, "some locked path idles");
}

/// An `ActiveSet` capacity: mostly 1–300, and otherwise one that
/// reaches a second or third summary word (each covers 64 words, 4 096
/// indices) or spans dozens of them.
fn arb_set_capacity(rng: &mut SplitMix64) -> usize {
    let (lo, hi) = match rng.next_below(8) {
        0 => (4_000, 4_200),
        1 => (8_190, 8_200),
        2 => (299_000, 301_000),
        _ => (1, 300),
    };
    rng.next_range(lo, hi) as usize
}

/// An index of `0..capacity`, drawn to sit on a word or summary-word
/// edge, or at the last index, as often as anywhere else.
fn arb_set_index(rng: &mut SplitMix64, capacity: usize) -> usize {
    const EDGES: [usize; 9] = [0, 63, 64, 127, 4_095, 4_096, 4_159, 8_191, 8_192];
    if rng.chance(0.4) {
        let edge = EDGES[rng.next_below(EDGES.len() as u64) as usize];
        if edge < capacity {
            return edge;
        }
    }
    if rng.chance(0.15) {
        return capacity - 1;
    }
    rng.next_below(capacity as u64) as usize
}

/// The two-level bitset `ActiveSet` ≡ an ordered-set model: membership,
/// length, ascending iteration, `next_from` at arbitrary cursors (past
/// the capacity too), the walk the tick loops do — visit ascending,
/// retiring some members as they are visited — and `clear` followed by
/// reuse. Capacities reach a second and third summary word and span
/// dozens of them, and indices crowd the word and summary edges.
#[test]
fn active_set_equals_an_ordered_set_model() {
    use noc_system::ActiveSet;
    use std::collections::BTreeSet;

    let mut rng = SplitMix64::new(0xAC71);
    for case in 0..CASES {
        let capacity = arb_set_capacity(&mut rng);
        let mut set = ActiveSet::with_capacity(capacity);
        let mut model = BTreeSet::new();
        for op in 0..rng.next_range(10, 200) {
            let i = arb_set_index(&mut rng, capacity);
            match rng.next_below(10) {
                0..=4 => {
                    set.insert(i);
                    model.insert(i);
                }
                5..=7 => {
                    set.remove(i);
                    model.remove(&i);
                }
                8 => {
                    let mut visited = Vec::new();
                    let mut next = set.next_from(0);
                    while let Some(m) = next {
                        next = set.next_from(m + 1);
                        visited.push(m);
                        if rng.chance(0.5) {
                            set.remove(m);
                        }
                    }
                    assert!(
                        visited.iter().copied().eq(model.iter().copied()),
                        "case {case} op {op}: capacity {capacity}, walked {visited:?}"
                    );
                    model.retain(|&m| set.next_from(m) == Some(m));
                }
                _ => {
                    if rng.chance(0.3) {
                        let members: Vec<usize> = model.iter().copied().collect();
                        set.clear();
                        model.clear();
                        for m in members {
                            assert!(!set.contains(m), "case {case} op {op}: {m} survived clear");
                        }
                    }
                }
            }
            assert_eq!(
                (set.len(), set.is_empty(), set.contains(i)),
                (model.len(), model.is_empty(), model.contains(&i)),
                "case {case} op {op}: capacity {capacity}, index {i}"
            );
            assert!(
                set.iter().eq(model.iter().copied()),
                "case {case} op {op}: capacity {capacity}, iter {:?}, model {model:?}",
                set.iter().collect::<Vec<_>>()
            );
            let from = match rng.next_below(6) {
                0 => capacity + rng.next_below(5_000) as usize,
                1 if rng.chance(0.2) => usize::MAX,
                1 | 2 => arb_set_index(&mut rng, capacity) + rng.next_below(2) as usize,
                _ => rng.next_below(capacity as u64 + 70) as usize,
            };
            assert_eq!(
                set.next_from(from),
                model.range(from..).next().copied(),
                "case {case} op {op}: capacity {capacity}, from {from}"
            );
        }
    }
}

/// A random valid scenario exercising every serializable knob: socket
/// mixes and parameters, target kinds (memory, AXI slave, service
/// block), ordering/outstanding/pressure/flit overrides, clock
/// divisors, burst kinds, delays, `[config]` link-class overrides
/// (pipeline depth, CDC synchroniser depth, per-class splits) and all
/// four topology shapes. Half the time the programs issue back-to-back
/// (no delays), so the dense ≡ horizon property is checked *while
/// traffic is in flight*, not just across quiescent gaps.
#[cfg(test)]
fn arb_scenario(rng: &mut SplitMix64, clocked: bool) -> noc_scenario::ScenarioSpec {
    use noc_protocols::SocketCommand;
    use noc_scenario::{
        InitiatorSpec, MemorySpec, NocConfigSpec, ScenarioSpec, SocketSpec, TargetSpec,
        TopologySpec,
    };
    use noc_transaction::Opcode;

    let masters = rng.next_range(1, 4) as usize;
    // Back-to-back mode: no inter-command delays anywhere, so horizon
    // skips can only come from in-flight horizons (links, service
    // windows), never from quiescent gaps.
    let back_to_back = rng.chance(0.5);
    let mut spec = ScenarioSpec::new();
    for m in 0..masters {
        let base = m as u64 * 0x1000;
        let n_cmds = rng.next_range(1, 7) as usize;
        let socket = match rng.next_below(7) {
            0 => SocketSpec::Ahb,
            1 => SocketSpec::Ocp {
                threads: rng.next_range(1, 3) as u8,
                per_thread: rng.next_range(1, 5) as u32,
            },
            2 => SocketSpec::Axi {
                tags: rng.next_range(1, 5) as u8,
                per_id: rng.next_range(1, 4) as u32,
                total: rng.next_range(2, 8) as u32,
            },
            3 => SocketSpec::Strm {
                read_limit: rng.next_range(1, 5) as u32,
            },
            4 => SocketSpec::pvci(),
            5 => SocketSpec::bvci(),
            _ => SocketSpec::avci(),
        };
        let single_beat = matches!(socket, SocketSpec::Vci { .. });
        // Streams must fit the socket's thread/ID space.
        let streams = match socket {
            SocketSpec::Ocp { threads, .. } => threads as u64,
            SocketSpec::Axi { tags, .. } => tags as u64,
            SocketSpec::Vci {
                flavor: noc_protocols::vci::VciFlavor::Advanced { threads },
                ..
            } => threads as u64,
            _ => 1,
        };
        let program: Vec<SocketCommand> = (0..n_cmds)
            .map(|i| {
                let addr = (base + 0x40 + rng.next_below(0xE00)) & !0x3F;
                let cmd = if rng.chance(0.5) {
                    SocketCommand::read(addr, 4)
                } else {
                    SocketCommand::write(addr, 4, rng.next_u64())
                };
                let beats = if single_beat {
                    1
                } else {
                    1 << rng.next_below(3)
                };
                let kind = if beats > 1 && rng.chance(0.2) {
                    BurstKind::Wrap
                } else {
                    BurstKind::Incr
                };
                let delay = if back_to_back {
                    0
                } else {
                    rng.next_below(200) as u32 * (i as u32 % 3)
                };
                let mut cmd = cmd
                    .with_burst(kind, beats)
                    .with_delay(delay)
                    .with_stream(StreamId::new(rng.next_below(streams) as u16));
                // Posted writes, wherever the socket can express them.
                if cmd.opcode == Opcode::Write && rng.chance(0.3) {
                    let posted = cmd.clone().with_opcode(Opcode::WritePosted);
                    if socket.admits(None, &posted).is_ok() {
                        cmd = posted;
                    }
                }
                cmd
            })
            .collect();
        let mut ini = InitiatorSpec::new(&format!("m{m}"), socket, program);
        if rng.chance(0.4) {
            ini = ini.with_outstanding(rng.next_range(1, 9) as u32);
        }
        if rng.chance(0.3) {
            ini = ini.with_pressure(rng.next_below(4) as u8);
        }
        if rng.chance(0.3) {
            ini = ini.with_flit_bytes(1 << rng.next_range(2, 5));
        }
        if clocked {
            ini = ini.with_clock_divisor(rng.next_range(1, 4));
        }
        spec = spec.initiator(ini);
    }
    for m in 0..masters {
        let mut mem = MemorySpec::new(
            &format!("mem{m}"),
            m as u64 * 0x1000,
            (m as u64 + 1) * 0x1000,
            rng.next_range(1, 6) as u32,
        )
        .with_queue(rng.next_range(2, 10) as usize);
        // Half the targets are plain memories; the rest exercise the
        // declarative target sockets.
        match rng.next_below(4) {
            0 | 1 => {}
            2 => {
                mem = mem.with_target(TargetSpec::AxiSlave {
                    bank_stagger: rng.next_below(3) as u32,
                })
            }
            _ => {
                mem = mem.with_target(TargetSpec::Service {
                    write_latency: rng.next_range(1, 6) as u32,
                    exclusive: rng.chance(0.3),
                })
            }
        }
        if clocked && rng.chance(0.3) {
            mem = mem.with_clock_divisor(rng.next_range(1, 3));
        }
        spec = spec.memory(mem);
    }
    // The `[config]` section: random link pipeline depths, CDC
    // synchroniser depths and a per-class endpoint split — the knobs
    // the event-horizon machinery must time-warp through exactly.
    if rng.chance(0.5) {
        let mut cfg = NocConfigSpec::new();
        if rng.chance(0.8) {
            cfg.link.pipeline = Some(rng.next_below(13) as u32);
        }
        if rng.chance(0.3) {
            cfg.link.phits = Some(1 << rng.next_below(2));
        }
        if rng.chance(0.4) {
            cfg.link.cdc_latency = Some(rng.next_range(1, 6) as u32);
        }
        if rng.chance(0.4) {
            cfg.endpoint.pipeline = Some(rng.next_below(5) as u32);
        }
        // Ample capacity keeps deep pipelines from starving on the
        // default 16-flit window (back-pressure is still correct, just
        // slower to simulate densely).
        cfg.link.capacity = Some(64);
        if rng.chance(0.3) {
            cfg.buffer_depth = Some(rng.next_range(4, 17) as usize);
        }
        spec = spec.with_config(cfg);
    }
    let endpoints = 2 * masters;
    spec.with_topology(match rng.next_below(4) {
        0 => TopologySpec::Crossbar,
        1 => TopologySpec::Ring {
            switches: rng.next_range(2, 5) as usize,
        },
        2 => TopologySpec::Mesh {
            width: 2,
            height: rng.next_range(1, 3) as usize,
        },
        _ => TopologySpec::Custom {
            switches: 2,
            links: vec![(0, 1)],
            placement: (0..endpoints).map(|i| i % 2).collect(),
        },
    })
}

/// Text round-trip: `parse(emit(spec))` reproduces random specs —
/// target declarations included — knob-for-knob with `emit` a fixpoint,
/// and the round-tripped spec runs record-identically (timestamps
/// included) to the original on every backend that models it, under
/// dense *and* horizon stepping.
#[test]
fn scenario_text_round_trips_and_runs_identically() {
    use noc_scenario::{Backend, ScenarioSpec, StepMode, TargetSpec};

    let mut rng = SplitMix64::new(0x7E47);
    for case in 0..40 {
        let clocked = rng.chance(0.3);
        let spec = arb_scenario(&mut rng, clocked);
        let text = spec.to_text();
        let back = ScenarioSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("case {case}: emitted text must parse: {e}\n{text}"));
        assert_eq!(back, spec, "case {case}: round-trip changed the spec");
        assert_eq!(back.to_text(), text, "case {case}: emit is not a fixpoint");

        // Only a subset needs the (much slower) execution comparison.
        if case % 4 != 0 {
            continue;
        }
        // The bus cannot host a target-owned exclusive port; it must say
        // so with the typed error instead of running the spec wrong.
        let bus_ok = !spec.memories.iter().any(|m| {
            matches!(
                m.target,
                TargetSpec::Service {
                    exclusive: true,
                    ..
                }
            )
        });
        let mut backends = vec![Backend::noc()];
        if !clocked {
            backends.push(Backend::bridged());
            if bus_ok {
                backends.push(Backend::bus());
            } else {
                assert!(
                    matches!(
                        spec.build(&Backend::bus()),
                        Err(noc_scenario::ScenarioError::UnsupportedTarget { .. })
                    ),
                    "case {case}: bus must reject the exclusive service target"
                );
            }
        }
        for backend in &backends {
            let run = |s: &ScenarioSpec, mode: StepMode| {
                let mut sim = s.build(backend).expect("valid random spec");
                let drained = sim.run_until_with(3_000_000, mode);
                let logs: Vec<Vec<noc_protocols::CompletionRecord>> = sim
                    .logs()
                    .iter()
                    .map(|(_, log)| log.records().to_vec())
                    .collect();
                (drained, sim.now(), logs)
            };
            let original = run(&spec, StepMode::Horizon);
            let round_tripped = run(&back, StepMode::Horizon);
            let dense = run(&spec, StepMode::Dense);
            assert!(original.0, "case {case}: {backend} must drain\n{text}");
            assert_eq!(
                original, round_tripped,
                "case {case}: round-tripped spec diverges on {backend}"
            );
            assert_eq!(
                original, dense,
                "case {case}: dense and horizon stepping diverge on {backend}"
            );
        }
    }
}

/// The calendar queue against a linear-scan model: across random
/// register/set/advance sequences, `pop_due` must fire exactly the set
/// of wakeups scheduled at or before `now` (each at most once, in no
/// particular order, so this test sorts), `scheduled` must mirror the
/// model's slot state, and `peek`
/// must never exceed the true earliest pending wakeup — lazy
/// cancellation may surface a stale *early* minimum, but a late one
/// would let the advance loop sleep through work.
#[test]
fn calendar_fires_exactly_the_due_set_and_never_peeks_late() {
    use noc_kernel::Calendar;

    let mut rng = SplitMix64::new(0xCA1E);
    for case in 0..CASES {
        let slots = rng.next_range(1, 12) as usize;
        let mut cal = Calendar::new();
        let ids: Vec<_> = (0..slots).map(|_| cal.register()).collect();
        let mut model: Vec<Option<u64>> = vec![None; slots];
        let mut now = 0u64;
        for op in 0..rng.next_range(10, 120) {
            if rng.chance(0.6) {
                // Reschedule a random slot: later, earlier, or cleared —
                // all three exercise lazy cancellation.
                let i = rng.next_below(slots as u64) as usize;
                let at = if rng.chance(0.2) {
                    None
                } else {
                    Some(now + rng.next_below(50))
                };
                cal.set(ids[i], at);
                model[i] = at;
            } else {
                now += rng.next_below(30);
                let mut fired = Vec::new();
                cal.pop_due(now, |id| fired.push(id.index()));
                fired.sort_unstable();
                let expect: Vec<usize> = (0..slots)
                    .filter(|&i| model[i].is_some_and(|at| at <= now))
                    .collect();
                for &i in &expect {
                    model[i] = None;
                }
                assert_eq!(fired, expect, "case {case} op {op} now {now}");
            }
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(cal.scheduled(id), model[i], "case {case} op {op}");
            }
            let true_min = model.iter().flatten().min().copied();
            match (cal.peek(), true_min) {
                // A peek may be stale-early (a cancelled or rescheduled
                // entry still filed) but never later than the
                // earliest live wakeup.
                (Some(peeked), Some(min)) => {
                    assert!(peeked <= min, "case {case} op {op}: {peeked} > {min}")
                }
                (None, Some(min)) => panic!("case {case} op {op}: empty peek hides {min}"),
                _ => {}
            }
        }
    }
}

/// The calendar as it was before the timing wheel: a binary min-heap over
/// `(cycle, id)` with the same lazy cancellation. Kept here as the oracle
/// the calendar is compared against; ids are plain indices because a
/// `WakeId` can only come from `Calendar::register`.
#[derive(Clone, Default)]
struct OracleCalendar {
    pending: Vec<u64>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    pops: u64,
}

impl OracleCalendar {
    const NONE: u64 = u64::MAX;

    fn register(&mut self) {
        self.pending.push(Self::NONE);
    }

    fn set(&mut self, id: usize, at: Option<u64>) {
        let slot = &mut self.pending[id];
        let at = at.unwrap_or(Self::NONE);
        if *slot == at {
            return;
        }
        *slot = at;
        if at != Self::NONE {
            self.heap.push(std::cmp::Reverse((at, id as u32)));
        }
    }

    fn scheduled(&self, id: usize) -> Option<u64> {
        let at = self.pending[id];
        (at != Self::NONE).then_some(at)
    }

    fn peek(&self) -> Option<u64> {
        self.heap.peek().map(|&std::cmp::Reverse((at, _))| at)
    }

    fn pop_due(&mut self, now: u64, mut wake: impl FnMut(usize)) {
        while let Some(&std::cmp::Reverse((at, id))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            self.pops += 1;
            let slot = &mut self.pending[id as usize];
            if *slot == at {
                *slot = Self::NONE;
                wake(id as usize);
            }
        }
    }
}

/// The calendar under test and its heap oracle, driven in lockstep.
#[derive(Clone)]
struct CalendarPair {
    cal: noc_kernel::Calendar,
    ids: Vec<noc_kernel::WakeId>,
    oracle: OracleCalendar,
    /// The latest cycle `pop_due` has drained.
    now: u64,
}

impl CalendarPair {
    fn new(slots: u64) -> Self {
        let mut pair = CalendarPair {
            cal: noc_kernel::Calendar::new(),
            ids: Vec::new(),
            oracle: OracleCalendar::default(),
            now: 0,
        };
        for _ in 0..slots {
            pair.register();
        }
        pair
    }

    fn register(&mut self) {
        self.ids.push(self.cal.register());
        self.oracle.register();
    }

    /// Runs `ops` random operations on both and requires, after every
    /// one, the same fired ids (as a multiset: the calendar promises no
    /// order), `peek`, `scheduled` for every id and `pops`. The wakeups drawn cover the
    /// wheel's window edges (64 cycles past the last drained cycle, and
    /// its neighbours) and far beyond it, cycles already drained,
    /// `u64::MAX - 1` and the `u64::MAX` alias of "none", reschedules
    /// earlier and later, and cancels; the advances cover single cycles,
    /// jumps inside the window, to its end and far past it, `pop_due` at
    /// an earlier cycle and `pop_due(u64::MAX)`.
    fn drive(&mut self, rng: &mut SplitMix64, ops: u64, what: &str) {
        const W: u64 = 64; // the wheel's width in cycles
        for op in 0..ops {
            let now = self.now;
            let what = format!("{what} op {op} now {now}");
            match rng.next_below(20) {
                0 => self.register(),
                1..=11 => {
                    let i = rng.next_below(self.ids.len() as u64) as usize;
                    let at = match rng.next_below(12) {
                        0 => None,
                        1..=4 => Some(now.saturating_add(rng.next_range(1, 8))),
                        5 | 6 => Some(now.saturating_add(W + rng.next_range(0, 3) - 1)),
                        7 => Some(now.saturating_add(rng.next_range(W + 3, 40 * W))),
                        8 => Some(now.saturating_sub(rng.next_below(2 * W))),
                        9 => Some(u64::MAX - rng.next_range(1, 2)),
                        10 => Some(u64::MAX),
                        _ => Some(now.saturating_add(rng.next_below(W))),
                    };
                    self.cal.set(self.ids[i], at);
                    self.oracle.set(i, at);
                }
                step => {
                    let at = match step {
                        12 if rng.chance(0.05) => u64::MAX,
                        12 => now.saturating_sub(rng.next_below(W)), // earlier than drained
                        13 => now.saturating_add(W + rng.next_range(0, 2) - 1),
                        14 => now.saturating_add(rng.next_range(W + 2, 60 * W)),
                        15 => now,
                        16 => now.saturating_add(rng.next_range(2, W - 2)),
                        _ => now.saturating_add(1),
                    };
                    self.now = at.max(now);
                    let (mut fired, mut expect) = (Vec::new(), Vec::new());
                    self.cal.pop_due(at, |id| fired.push(id.index()));
                    self.oracle.pop_due(at, |id| expect.push(id));
                    fired.sort_unstable();
                    expect.sort_unstable();
                    assert_eq!(fired, expect, "{what}: pop_due({at}) fired");
                }
            }
            assert_eq!(self.cal.peek(), self.oracle.peek(), "{what}: peek");
            assert_eq!(self.cal.pops(), self.oracle.pops, "{what}: pops");
            for (i, &id) in self.ids.iter().enumerate() {
                let scheduled = self.oracle.scheduled(i);
                assert_eq!(self.cal.scheduled(id), scheduled, "{what}: id {i}");
            }
        }
    }
}

/// The calendar ≡ the binary-heap calendar it replaced: the same
/// wakeups from every drain, the same (possibly stale) peek, the same
/// retired-entry count — which is what keeps every step, poll and pop in
/// `GOLDEN.txt` unchanged. Within a drain the order is free: the one
/// consumer, `Soc`, collects the wakeups into an `ActiveSet`. A clone taken mid-sequence continues
/// independently of its original, each against its own oracle.
#[test]
fn wheel_calendar_equals_the_heap_oracle() {
    let mut rng = SplitMix64::new(0x7EE1);
    for case in 0..CASES {
        // A few ids contend for the same cycles; a hundred-odd spread
        // over many.
        let slots = if rng.chance(0.7) {
            rng.next_range(1, 12)
        } else {
            rng.next_range(60, 200)
        };
        let mut pair = CalendarPair::new(slots);
        pair.drive(&mut rng, 40, &format!("case {case} before the clone"));
        let mut fork = pair.clone();
        let ops = rng.next_range(20, 160);
        pair.drive(&mut rng, ops, &format!("case {case} original"));
        fork.drive(&mut rng.fork(1), ops, &format!("case {case} clone"));
    }
}

/// Randomised scenarios: horizon stepping must be record-identical
/// (timestamps included) to dense polling on every backend, across
/// random programs, gaps, socket mixes, target kinds, clock divisors
/// and `[config]` link shapes — including the back-to-back cases where
/// every skipped cycle lies *inside* an in-flight transaction (deep
/// pipelined crossings, CDC synchronisers, memory service windows)
/// rather than in a quiescent gap.
#[test]
fn horizon_stepping_equals_dense_on_random_scenarios() {
    use noc_scenario::{Backend, StepMode, TargetSpec};

    let mut rng = SplitMix64::new(0x40712);
    for case in 0..30 {
        let clocked = rng.chance(0.4); // divided clocks → NoC only
        let spec = arb_scenario(&mut rng, clocked);
        // The bus rejects target-owned exclusive ports with a typed
        // error; skip it for those specs (covered in scenario_api.rs).
        let bus_ok = !spec.memories.iter().any(|m| {
            matches!(
                m.target,
                TargetSpec::Service {
                    exclusive: true,
                    ..
                }
            )
        });
        let mut backends = vec![Backend::noc()];
        if !clocked {
            backends.push(Backend::bridged());
            if bus_ok {
                backends.push(Backend::bus());
            }
        }
        for backend in &backends {
            let run = |mode: StepMode| {
                let mut sim = spec.build(backend).expect("valid random spec");
                let drained = sim.run_until_with(3_000_000, mode);
                let logs: Vec<Vec<noc_protocols::CompletionRecord>> = sim
                    .logs()
                    .iter()
                    .map(|(_, log)| log.records().to_vec())
                    .collect();
                // Report counters (fabric totals, per-master histograms
                // and fingerprints) are simulated behaviour too; only the
                // poll/pop accounting may differ between modes.
                let r = sim.report();
                let report = format!("fabric={:?} masters={:?}", r.fabric, r.masters);
                let counters = (r.horizon_polls, r.calendar_pops);
                ((drained, sim.now(), logs, report), counters)
            };
            let (dense, _) = run(StepMode::Dense);
            let (horizon, (polls, pops)) = run(StepMode::Horizon);
            assert!(dense.0, "case {case}: {backend} dense must drain");
            assert_eq!(dense, horizon, "case {case}: divergence on {backend}");
            // Wakeup discipline, where there is a calendar to ride (the
            // NoC; the baselines fold their few sources directly): the
            // advance loop must be paying for its next_activity polls
            // with calendar traffic, the same bound
            // `tests/scenario_text.rs` enforces on the corpus.
            // A rescan-style loop polls once per cycle and blows
            // through this immediately.
            if matches!(backend, Backend::Noc(_)) {
                assert!(
                    polls <= pops * 4 + 64,
                    "case {case}: {backend} polled {polls} times against {pops} pops"
                );
            } else {
                assert_eq!(pops, 0, "case {case}: {backend} keeps no calendar");
            }
        }
    }
}

/// A random scenario whose every initiator runs a *generated* program
/// (bursty or zipf) — shapes constrained exactly as `validate` demands,
/// so every draw is a legal spec.
fn arb_stochastic_scenario(rng: &mut SplitMix64) -> noc_scenario::ScenarioSpec {
    use noc_scenario::{
        BurstySpec, Discipline, InitiatorSpec, MemorySpec, ScenarioSpec, SocketSpec,
        StochasticShape, ZipfSpec,
    };

    let masters = rng.next_range(1, 4) as usize;
    let regions = rng.next_range(2, 5) as usize;
    let mut spec = ScenarioSpec::new();
    for m in 0..masters {
        let socket = match rng.next_below(5) {
            0 => SocketSpec::Ahb,
            1 => SocketSpec::Ocp {
                threads: rng.next_range(1, 3) as u8,
                per_thread: rng.next_range(1, 5) as u32,
            },
            2 => SocketSpec::Axi {
                tags: rng.next_range(1, 5) as u8,
                per_id: rng.next_range(1, 4) as u32,
                total: rng.next_range(2, 8) as u32,
            },
            3 => SocketSpec::bvci(),
            _ => SocketSpec::avci(),
        };
        let shape = StochasticShape {
            read_pct: rng.next_below(101) as u8,
            beats: if matches!(socket, SocketSpec::Vci { .. }) {
                1
            } else {
                1 << rng.next_below(3)
            },
            beat_bytes: 4,
            streams: match socket.max_streams() {
                Some(limit) => rng.next_range(1, limit as u64) as u16,
                None => rng.next_range(1, 4) as u16,
            },
            gap: rng.next_below(8) as u32,
            discipline: if rng.chance(0.5) {
                Discipline::Open
            } else {
                Discipline::Closed
            },
        };
        let commands = rng.next_range(10, 40) as usize;
        let program: noc_scenario::ProgramSpec = if rng.chance(0.5) {
            let mut b = BurstySpec::new(
                rng.next_u64(),
                commands,
                rng.next_range(1, 6) as u32,
                rng.next_below(60) as u32,
            );
            b.shape = shape;
            b.into()
        } else {
            let mut z = ZipfSpec::new(rng.next_u64(), commands, rng.next_below(3001) as u32);
            z.shape = shape;
            z.into()
        };
        let mut ini = InitiatorSpec::new(&format!("m{m}"), socket, program);
        if rng.chance(0.4) {
            ini = ini.with_outstanding(rng.next_range(1, 9) as u32);
        }
        spec = spec.initiator(ini);
    }
    for t in 0..regions {
        spec = spec.memory(
            MemorySpec::new(
                &format!("mem{t}"),
                t as u64 * 0x1000,
                (t as u64 + 1) * 0x1000,
                rng.next_range(1, 6) as u32,
            )
            .with_queue(rng.next_range(2, 10) as usize),
        );
    }
    spec
}

/// The tentpole determinism pin: random stochastic specs round-trip
/// through the text format (`parse(emit(x)) == x`, emit a fixpoint) and
/// the same seed produces record-for-record identical completion logs:
/// timestamps included across dense/horizon stepping on one backend,
/// and the same commands (index, opcode, address, stream) across all
/// three backends — whose fabrics time the same traffic differently —
/// with every commanded completion accounted for. Status and data are
/// left out across backends: racing writes to one address make the
/// data a read returns depend on the fabric's timing.
#[test]
fn stochastic_specs_round_trip_and_run_identically() {
    use noc_scenario::{Backend, ProgramSpec, ScenarioSpec, StepMode};

    type Logs = Vec<Vec<noc_protocols::CompletionRecord>>;
    // The seed-determined command stream: per-master records in program
    // order, without the cycle stamps and completion interleaving that
    // legitimately differ between fabrics.
    fn functional(logs: &Logs) -> Vec<Vec<(usize, noc_transaction::Opcode, u64, u16)>> {
        logs.iter()
            .map(|log| {
                let mut cmds: Vec<_> = log
                    .iter()
                    .map(|r| (r.index, r.opcode, r.addr, r.stream.raw()))
                    .collect();
                cmds.sort_unstable_by_key(|c| c.0);
                cmds
            })
            .collect()
    }

    let mut rng = SplitMix64::new(0x570C);
    for case in 0..30 {
        let spec = arb_stochastic_scenario(&mut rng);
        let text = spec.to_text();
        let back = ScenarioSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("case {case}: emitted text must parse: {e}\n{text}"));
        assert_eq!(back, spec, "case {case}: round-trip changed the spec");
        assert_eq!(back.to_text(), text, "case {case}: emit is not a fixpoint");

        if case % 3 != 0 {
            continue;
        }
        let expected: usize = spec
            .initiators
            .iter()
            .map(|i| match &i.program {
                ProgramSpec::Bursty(b) => b.commands,
                ProgramSpec::Zipf(z) => z.commands,
                _ => unreachable!("arb emits only stochastic kinds"),
            })
            .sum();
        let mut cross_backend = None;
        for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
            let mut timed = None;
            for mode in [StepMode::Dense, StepMode::Horizon] {
                let mut sim = back.build(&backend).expect("valid stochastic spec");
                let drained = sim.run_until_with(3_000_000, mode);
                assert!(
                    drained,
                    "case {case}: {backend} {mode:?} must drain\n{text}"
                );
                let logs: Logs = sim
                    .logs()
                    .iter()
                    .map(|(_, log)| log.records().to_vec())
                    .collect();
                let completions: usize = logs.iter().map(Vec::len).sum();
                assert_eq!(
                    completions, expected,
                    "case {case}: {backend} {mode:?} lost commands"
                );
                match &timed {
                    None => timed = Some(logs),
                    Some(r) => assert_eq!(
                        r, &logs,
                        "case {case}: dense and horizon diverge on {backend}\n{text}"
                    ),
                }
            }
            let records = functional(timed.as_ref().expect("both modes ran"));
            match &cross_backend {
                None => cross_backend = Some(records),
                Some(r) => assert_eq!(
                    r, &records,
                    "case {case}: {backend} replays different records than the reference\n{text}"
                ),
            }
        }
    }
}

/// Runs `spec`, whose one initiator replays a trace of `records`
/// records, on all three backends in both step modes: dense and horizon
/// logs are identical on each backend, and every backend replays the
/// same command sequence.
fn assert_trace_replays_identically(spec: &noc_scenario::ScenarioSpec, records: usize) {
    use noc_scenario::{Backend, StepMode};

    spec.validate().expect("the trace validates");
    let mut cross_backend = None;
    for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
        let mut timed = None;
        for mode in [StepMode::Dense, StepMode::Horizon] {
            let mut sim = spec.build(&backend).expect("trace spec builds");
            assert!(
                sim.run_until_with(3_000_000, mode),
                "{backend} {mode:?} must drain the trace"
            );
            let logs: Vec<Vec<noc_protocols::CompletionRecord>> = sim
                .logs()
                .iter()
                .map(|(_, log)| log.records().to_vec())
                .collect();
            assert_eq!(
                logs[0].len(),
                records,
                "{backend} {mode:?} lost trace records"
            );
            match &timed {
                None => timed = Some(logs),
                Some(r) => assert_eq!(r, &logs, "{backend}: dense and horizon replay diverge"),
            }
        }
        // Across backends the cycle stamps and cross-stream completion
        // interleaving differ (different fabrics); the replayed command
        // stream — records in program order — must not.
        let records: Vec<
            Vec<(
                usize,
                noc_transaction::Opcode,
                u64,
                noc_transaction::StreamId,
            )>,
        > = timed
            .expect("both modes ran")
            .iter()
            .map(|log| {
                let mut cmds: Vec<_> = log
                    .iter()
                    .map(|r| (r.index, r.opcode, r.addr, r.stream))
                    .collect();
                cmds.sort_unstable_by_key(|c| c.0);
                cmds
            })
            .collect();
        match &cross_backend {
            None => cross_backend = Some(records),
            Some(r) => assert_eq!(r, &records, "{backend} replays a different record sequence"),
        }
    }
}

/// The spec replaying the trace file written from `lines` through a
/// two-thread OCP socket onto two memories. The file sits in a
/// per-process directory named after `label` (concurrent runs of this
/// test binary must not truncate each other's trace before it is
/// loaded) and is deleted once loaded: the run never reads it again.
fn two_thread_trace_spec(label: &str, lines: &[String]) -> noc_scenario::ScenarioSpec {
    use noc_scenario::{InitiatorSpec, MemorySpec, ScenarioSpec, SocketSpec, TraceSpec};

    let dir = std::env::temp_dir().join(format!("noc-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("prop.trace");
    std::fs::write(&path, lines.join("\n")).expect("trace file");
    let trace = TraceSpec::load(path.to_str().expect("utf-8 temp path"));
    std::fs::remove_dir_all(&dir).ok();
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new(
            "replay",
            SocketSpec::Ocp {
                threads: 2,
                per_thread: 4,
            },
            trace,
        ))
        .memory(MemorySpec::new("m0", 0x0, 0x1000, 2))
        .memory(MemorySpec::new("m1", 0x1000, 0x2000, 4))
}

/// Trace replay: a generated trace file, loaded once, compiles to the
/// master's program and replays record-identically on all three
/// backends and both step modes, preserving the trace's inter-arrival
/// spacing in the issue stream.
#[test]
fn trace_replay_is_identical_across_backends_and_modes() {
    let mut rng = SplitMix64::new(0x7AACE);
    let mut lines = vec!["# generated by the property suite".to_string()];
    let mut ts = 0u64;
    for i in 0..300 {
        ts += rng.next_below(40);
        let addr = (rng.next_below(2) * 0x1000 + rng.next_below(0xF00)) & !0xF;
        let op = if rng.chance(0.6) { "read" } else { "write" };
        let stream = i % 2;
        lines.push(format!("{ts} {op} {addr:#x} 4 4 {stream}"));
    }
    let spec = two_thread_trace_spec("scenario-prop-trace", &lines);
    assert_trace_replays_identically(&spec, 300);
}

/// A trace whose second stream first appears 3 000 cycles in loads,
/// validates and replays like any other trace.
#[test]
fn a_trace_stream_that_first_appears_late_replays_identically() {
    let mut rng = SplitMix64::new(0x1A7E);
    let mut lines = Vec::new();
    for i in 0..120u64 {
        // Stream 0 alone for the first 60 records (3 000 cycles), then
        // both streams.
        let stream = if i < 60 { 0 } else { i % 2 };
        let addr = (rng.next_below(2) * 0x1000 + rng.next_below(0xF00)) & !0xF;
        let op = if rng.chance(0.5) { "read" } else { "write" };
        lines.push(format!("{} {op} {addr:#x} 4 4 {stream}", i * 50));
    }
    let spec = two_thread_trace_spec("scenario-prop-late-stream", &lines);
    assert_trace_replays_identically(&spec, 120);
}

/// No scenario text panics the stack. Every corpus file is mutated —
/// bytes and lines deleted, duplicated, or overwritten with a splice
/// from elsewhere in the file — and each mutant is driven the way
/// `scn FILE` drives it: parse, validate, build on every backend, run.
/// A mutant may be rejected (a parse error with its line and column, or
/// a typed [`noc_scenario::ScenarioError`]) or may run; it may not
/// panic. Then `trace_replay.trace` is mutated the same way under the
/// unmodified `trace_replay.scn`: a mutant trace runs, or is rejected
/// as a [`noc_scenario::ScenarioError::Trace`] naming the line it broke.
#[test]
fn mutated_corpus_files_never_panic() {
    use noc_scenario::{parse_document, Backend, Document, ScenarioError, ScenarioSpec};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use mutants::{mutant, CASES_PER_FILE};
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/scenarios");
    let mut rng = mutants::rng();
    let (mut cases, mut rejected, mut ran) = (0, 0, 0);
    for path in &mutants::corpus_files(&dir) {
        let original = std::fs::read(path).expect("readable corpus file");
        for case in 0..CASES_PER_FILE {
            let bytes = mutant(&mut rng, &original);
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut doc = match parse_document(&text) {
                    Ok(doc) => doc,
                    Err(e) => {
                        assert!(e.line >= 1 && e.column >= 1, "unplaced error {e}");
                        return false;
                    }
                };
                doc.resolve_trace_paths(&dir);
                let runs: Vec<_> = match &doc {
                    Document::Scenario(spec) => Backend::NAMES
                        .iter()
                        .map(|(_, make)| (spec, make()))
                        .collect(),
                    Document::Sweep(sweep) => {
                        let points = sweep.points().iter();
                        points.map(|p| (&p.spec, p.backend)).collect()
                    }
                };
                let mut any = false;
                for (spec, backend) in runs {
                    // Fabric sizes a file may name but a test should
                    // not allocate are the size limits' business.
                    if spec.topology.switch_count() > 2048 {
                        continue;
                    }
                    if let Ok(mut sim) = spec.build(&backend) {
                        sim.run_until(2_000);
                        any = true;
                    }
                }
                any
            }));
            let name = path.file_name().expect("file name").to_string_lossy();
            match outcome {
                Ok(true) => ran += 1,
                Ok(false) => rejected += 1,
                Err(_) => panic!("{name} case {case} panicked on:\n{text}"),
            }
            cases += 1;
        }
    }
    assert!(cases >= 2_000, "only {cases} cases");
    // The mutations must exercise both sides: mutants that still run
    // (the commands, knobs and sizes paths) and mutants that are
    // refused (the error paths).
    assert!(ran * 10 >= cases, "only {ran} of {cases} mutants ran");
    assert!(
        rejected * 10 >= cases,
        "only {rejected} of {cases} mutants were rejected"
    );

    let scn = std::fs::read_to_string(dir.join("trace_replay.scn")).expect("readable corpus file");
    let original = std::fs::read(dir.join("trace_replay.trace")).expect("readable trace");
    let scratch = std::env::temp_dir().join(format!("noc-mutated-trace-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("temp dir");
    let (mut rejected, mut ran) = (0, 0);
    for case in 0..CASES_PER_FILE {
        let bytes = mutant(&mut rng, &original);
        std::fs::write(scratch.join("trace_replay.trace"), &bytes).expect("mutant written");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut spec = ScenarioSpec::from_text(&scn).expect("corpus file parses");
            spec.resolve_trace_paths(&scratch);
            let mut runs = true;
            for (label, make) in Backend::NAMES {
                match spec.build(&make()) {
                    Ok(mut sim) => drop(sim.run_until(2_000)),
                    Err(ScenarioError::Trace { line, .. }) if line >= 1 => runs = false,
                    Err(e) => return Err(format!("{label}: {e}")),
                }
            }
            Ok(runs)
        }));
        let text = String::from_utf8_lossy(&bytes);
        match outcome {
            Ok(Ok(true)) => ran += 1,
            Ok(Ok(false)) => rejected += 1,
            Ok(Err(e)) => panic!("trace case {case} is not a trace line error ({e}) on:\n{text}"),
            Err(_) => panic!("trace case {case} panicked on:\n{text}"),
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    assert!(
        ran * 20 >= CASES_PER_FILE && rejected * 20 >= CASES_PER_FILE,
        "trace mutants: {ran} ran and {rejected} were rejected of {CASES_PER_FILE}"
    );
}
