//! The switch: input-buffered, credit flow-controlled, pressure-arbitrated.
//!
//! Two switching disciplines are supported, selected per instance:
//!
//! - **Wormhole**: a head flit allocates an output port as soon as it can;
//!   body flits stream behind it, possibly spread over many switches. Low
//!   latency, small buffers.
//! - **Store-and-forward**: a packet must be completely buffered in the
//!   input FIFO before it competes for an output. Higher latency, buffers
//!   sized for whole packets.
//!
//! Per the paper (§1) the choice is invisible at the transaction layer —
//! the integration suite proves it by fingerprint equality.
//!
//! The switch honours exactly one service bit, the legacy `LOCKED`
//! indication (§3): while a locked sequence is in flight, the output port
//! it uses stays pinned to the owning input, stalling all other traffic to
//! that output — the measurable transport-level cost of READEX/LOCK that
//! motivated the exclusive-access service bit.

use crate::arbiter::{Arbiter, RoundRobinArbiter};
use crate::buffer::FlitFifo;
use crate::flit::Flit;
use crate::routing::{PortId, RoutingTable};
use std::fmt;

/// Packet switching discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwitchMode {
    /// Wormhole switching (default; the Arteris choice).
    #[default]
    Wormhole,
    /// Store-and-forward switching.
    StoreAndForward,
}

impl fmt::Display for SwitchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchMode::Wormhole => write!(f, "wormhole"),
            SwitchMode::StoreAndForward => write!(f, "store-and-forward"),
        }
    }
}

/// Static switch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
    /// Switching discipline.
    pub mode: SwitchMode,
    /// Input FIFO depth in flits. For store-and-forward this bounds the
    /// largest packet the switch can carry.
    pub buffer_depth: usize,
}

impl SwitchConfig {
    /// A wormhole switch with the given geometry and 4-flit buffers.
    pub fn wormhole(inputs: usize, outputs: usize) -> Self {
        SwitchConfig {
            inputs,
            outputs,
            mode: SwitchMode::Wormhole,
            buffer_depth: 4,
        }
    }

    /// A store-and-forward switch with buffers sized for `max_packet`
    /// flits.
    pub fn store_and_forward(inputs: usize, outputs: usize, max_packet: usize) -> Self {
        SwitchConfig {
            inputs,
            outputs,
            mode: SwitchMode::StoreAndForward,
            buffer_depth: max_packet,
        }
    }

    /// Overrides the buffer depth.
    #[must_use]
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = depth;
        self
    }
}

/// Per-switch performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Flits forwarded to outputs.
    pub flits_forwarded: u64,
    /// Packets (tails) forwarded.
    pub packets_forwarded: u64,
    /// Output-cycles stalled for lack of downstream credit.
    pub credit_stalls: u64,
    /// Allocation rounds where >1 input competed for one output.
    pub arbitration_conflicts: u64,
    /// Output-cycles an output sat pinned by a lock with nothing to send.
    pub lock_idle_cycles: u64,
}

/// Result of one switch cycle.
#[derive(Debug, Clone, Default)]
pub struct SwitchTick {
    /// Flits emitted this cycle, one per output at most.
    pub sent: Vec<(PortId, Flit)>,
    /// Input ports that drained one flit (their upstream regains a
    /// credit).
    pub credits_released: Vec<usize>,
    /// Allocation scratch: this cycle's request table, and the arbiter's
    /// input (one slot per input, all `None` between arbitrations). They
    /// live in the caller-owned result, not in the switch, so a fabric of
    /// thousands of switches shares one of each.
    requests: Vec<Request>,
    req_scratch: Vec<Option<u8>>,
}

/// One row of a cycle's request table: an idle input whose FIFO front is
/// a head flit eligible to claim `output`.
#[derive(Debug, Clone, Copy)]
struct Request {
    input: usize,
    output: usize,
    pressure: u8,
    /// The head's LOCKED service bit: granting pins the output.
    locked: bool,
    /// The head ends a locked sequence: its tail releases the pin.
    lock_release: bool,
}

/// An input-buffered NoC switch.
///
/// # Examples
///
/// A 2×2 switch delivering one single-flit packet:
///
/// ```
/// use noc_transport::{Flit, Header, PortId, RoutingTable, Switch, SwitchConfig};
/// let mut table = RoutingTable::new(4);
/// table.set(3, PortId(1));
/// let mut sw = Switch::new(SwitchConfig::wormhole(2, 2), table);
/// sw.set_output_credits(1, 4);
/// assert!(sw.accept(0, Flit::head_tail(0, Header::request(3, 0, 0))));
/// let tick = sw.tick();
/// assert_eq!(tick.sent.len(), 1);
/// assert_eq!(tick.sent[0].0, PortId(1));
/// ```
#[derive(Debug, Clone)]
pub struct Switch {
    config: SwitchConfig,
    table: RoutingTable,
    /// Per-port state, one record per port: a switch is two arrays,
    /// however many ports it has.
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    stats: SwitchStats,
    /// Flits buffered across all inputs and inputs holding an output:
    /// both zero is [`Switch::is_idle`], without scanning.
    buffered: usize,
    allocated: usize,
}

#[derive(Debug, Clone)]
struct InputPort {
    fifo: FlitFifo,
    /// Which output this input's in-flight packet owns.
    alloc: Option<usize>,
    /// Whether the in-flight packet releases a lock at its tail.
    lock_release: bool,
}

#[derive(Debug, Clone, Default)]
struct OutputPort {
    /// Which input owns this output (persists across packets while
    /// locked).
    owner: Option<usize>,
    /// Lock pinning: the input this output is reserved for across packets.
    lock: Option<usize>,
    credits: u32,
    arbiter: RoundRobinArbiter,
}

impl Switch {
    /// Creates a switch.
    ///
    /// # Panics
    ///
    /// Panics on a zero-port or zero-buffer configuration.
    pub fn new(config: SwitchConfig, table: RoutingTable) -> Self {
        assert!(config.inputs > 0, "switch needs at least one input");
        assert!(config.outputs > 0, "switch needs at least one output");
        assert!(config.buffer_depth > 0, "switch needs buffering");
        Switch {
            inputs: (0..config.inputs)
                .map(|_| InputPort {
                    fifo: FlitFifo::new(config.buffer_depth),
                    alloc: None,
                    lock_release: false,
                })
                .collect(),
            outputs: (0..config.outputs).map(|_| OutputPort::default()).collect(),
            config,
            table,
            stats: SwitchStats::default(),
            buffered: 0,
            allocated: 0,
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Performance counters.
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }

    /// Free space in input `port`'s FIFO (credits to advertise upstream).
    pub fn input_free(&self, port: usize) -> usize {
        self.inputs[port].fifo.free()
    }

    /// Returns `true` if input `port` can accept a flit this cycle.
    pub fn can_accept(&self, port: usize) -> bool {
        !self.inputs[port].fifo.is_full()
    }

    /// Pushes a flit into input `port`. Returns `false` when the buffer is
    /// full (a flow-control violation by the caller).
    pub fn accept(&mut self, port: usize, flit: Flit) -> bool {
        let accepted = self.inputs[port].fifo.push(flit);
        self.buffered += usize::from(accepted);
        accepted
    }

    /// Sets the credit count of output `port` (downstream buffer space).
    pub fn set_output_credits(&mut self, port: usize, credits: u32) {
        self.outputs[port].credits = credits;
    }

    /// Returns one credit to output `port` (downstream freed a slot).
    pub fn add_output_credit(&mut self, port: usize) {
        self.outputs[port].credits += 1;
    }

    /// Current credits of output `port`.
    pub fn output_credits(&self, port: usize) -> u32 {
        self.outputs[port].credits
    }

    /// Returns `true` if output `port` is currently pinned by a locked
    /// sequence.
    pub fn is_output_locked(&self, port: usize) -> bool {
        self.outputs[port].lock.is_some()
    }

    /// Returns `true` if any output is pinned by a locked sequence.
    /// Idle-but-locked switches still accrue
    /// [`SwitchStats::lock_idle_cycles`] every cycle, so callers that
    /// skip ticking idle switches must keep accounting for these via
    /// [`Switch::skip_cycles`].
    pub fn has_locked_output(&self) -> bool {
        self.outputs.iter().any(|o| o.lock.is_some())
    }

    /// Returns `true` if the switch holds no flits and no allocations.
    pub fn is_idle(&self) -> bool {
        self.buffered == 0 && self.allocated == 0
    }

    /// The switch's event horizon: the earliest base cycle at or after
    /// `now` at which ticking it can move a flit, or `None` when no
    /// buffered flit exists. A switch holding any flit (or streaming
    /// allocation) may move — and accrues stall counters — every cycle,
    /// so it reports `Some(now)`; an idle switch reports `None` even
    /// when an output is still pinned by a locked sequence, because the
    /// only thing dense ticks would do then is count
    /// [`SwitchStats::lock_idle_cycles`] — which
    /// [`Switch::skip_cycles`] accounts in bulk, bit-identically.
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        if self.is_idle() {
            None
        } else {
            Some(now)
        }
    }

    /// Accounts `cycles` skipped ticks of an idle switch: every output
    /// pinned by a locked sequence would have counted one
    /// [`SwitchStats::lock_idle_cycles`] per tick (it has no candidate
    /// flits — the switch is idle), so the bulk add leaves the counters
    /// exactly as dense ticking would have.
    ///
    /// Callers must only skip while [`Switch::next_event_at`] returns
    /// `None`.
    pub fn skip_cycles(&mut self, cycles: u64) {
        debug_assert!(self.is_idle(), "skipping a switch that holds flits");
        let locked = self.outputs.iter().filter(|o| o.lock.is_some()).count() as u64;
        self.stats.lock_idle_cycles += locked * cycles;
    }

    /// Advances the switch one cycle: allocates outputs to waiting heads,
    /// then forwards at most one flit per output.
    pub fn tick(&mut self) -> SwitchTick {
        let mut tick = SwitchTick::default();
        self.tick_into(&mut tick);
        tick
    }

    /// [`Switch::tick`] into a caller-owned (cleared) result, so hot
    /// loops can reuse one buffer across many switch cycles.
    pub fn tick_into(&mut self, tick: &mut SwitchTick) {
        tick.sent.clear();
        tick.credits_released.clear();
        self.allocate(&mut tick.requests, &mut tick.req_scratch);
        self.forward(tick);
    }

    /// Output allocation: for every free output, competing head flits are
    /// arbitrated by pressure-aware round-robin.
    ///
    /// One pass over the inputs builds the cycle's request table — each
    /// idle input's head flit is looked at, routed and filtered exactly
    /// once — and each free output then arbitrates over its rows. A head
    /// requests one output only and a grant changes nothing another
    /// output's candidates depend on, so evaluating every filter up front
    /// selects the same candidates as re-scanning the inputs per output.
    fn allocate(&mut self, requests: &mut Vec<Request>, req_scratch: &mut Vec<Option<u8>>) {
        requests.clear();
        for (input, port) in self.inputs.iter().enumerate() {
            if port.alloc.is_some() {
                continue;
            }
            let Some(header) = port.fifo.peek().and_then(Flit::header) else {
                continue;
            };
            let Ok(out) = self.table.lookup(header.dst) else {
                continue;
            };
            let output = out.index();
            if output >= self.config.outputs {
                continue;
            }
            if self.config.mode == SwitchMode::StoreAndForward && port.fifo.complete_packets() == 0
            {
                continue;
            }
            // Lock pinning: a locked output only admits its owner.
            if self.outputs[output]
                .lock
                .is_some_and(|owner| owner != input)
            {
                continue;
            }
            requests.push(Request {
                input,
                output,
                pressure: header.pressure,
                locked: header.is_locked(),
                lock_release: header.lock_release,
            });
        }
        // The arbiter rotates over exactly this switch's inputs.
        req_scratch.resize(self.config.inputs, None);
        for (o, out) in self.outputs.iter_mut().enumerate() {
            // An output is free for (re)allocation when no input is
            // actively streaming to it.
            let streaming = out.owner.is_some_and(|i| self.inputs[i].alloc == Some(o));
            if streaming {
                continue;
            }
            let mut n_req = 0;
            for r in requests.iter().filter(|r| r.output == o) {
                req_scratch[r.input] = Some(r.pressure);
                n_req += 1;
            }
            if n_req == 0 {
                if out.lock.is_some() {
                    self.stats.lock_idle_cycles += 1;
                }
                continue;
            }
            if n_req > 1 {
                self.stats.arbitration_conflicts += 1;
            }
            let winner = out
                .arbiter
                .pick(req_scratch)
                .expect("candidates exist, arbiter must grant");
            req_scratch.fill(None);
            let grant = requests
                .iter()
                .find(|r| r.input == winner)
                .expect("the winner requested");
            if grant.locked {
                out.lock = Some(winner);
            }
            out.owner = Some(winner);
            let input = &mut self.inputs[winner];
            input.lock_release = grant.lock_release;
            input.alloc = Some(o);
            self.allocated += 1;
        }
    }

    /// Forwarding: each output streams one flit from its allocated input,
    /// credit permitting.
    fn forward(&mut self, tick: &mut SwitchTick) {
        for (o, out) in self.outputs.iter_mut().enumerate() {
            let Some(i) = out.owner else {
                continue;
            };
            let input = &mut self.inputs[i];
            if input.alloc != Some(o) {
                continue; // output locked-idle between packets of a sequence
            }
            if input.fifo.peek().is_none() {
                continue; // wormhole bubble: body flits not here yet
            }
            if out.credits == 0 {
                self.stats.credit_stalls += 1;
                continue;
            }
            let flit = input.fifo.pop().expect("peeked flit must pop");
            self.buffered -= 1;
            out.credits -= 1;
            self.stats.flits_forwarded += 1;
            tick.credits_released.push(i);
            let is_tail = flit.is_tail();
            tick.sent.push((PortId(o as u8), flit));
            if is_tail {
                self.stats.packets_forwarded += 1;
                input.alloc = None;
                self.allocated -= 1;
                match out.lock {
                    Some(owner) if owner == i => {
                        if input.lock_release {
                            // Unlocking packet: release pin and ownership.
                            out.lock = None;
                            out.owner = None;
                        }
                        // else: keep the owner pinned for the sequence.
                    }
                    _ => out.owner = None,
                }
                input.lock_release = false;
            }
        }
    }
}

impl fmt::Display for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "switch {}x{} {} (fwd {} flits)",
            self.config.inputs, self.config.outputs, self.config.mode, self.stats.flits_forwarded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Header, LOCKED_BIT};
    use crate::packet::Packet;

    /// Builds a 2-in 2-out switch where dst 0 → port 0, dst 1 → port 1.
    fn switch2x2(mode: SwitchMode) -> Switch {
        let mut table = RoutingTable::new(4);
        table.set(0, PortId(0));
        table.set(1, PortId(1));
        let cfg = SwitchConfig {
            inputs: 2,
            outputs: 2,
            mode,
            buffer_depth: 8,
        };
        let mut sw = Switch::new(cfg, table);
        sw.set_output_credits(0, 100);
        sw.set_output_credits(1, 100);
        sw
    }

    fn packet(dst: u16, src: u16, payload: usize, pressure: u8) -> Vec<Flit> {
        let h = Header::request(dst, src, 0).with_pressure(pressure);
        Packet::new(h, vec![0xAB; payload]).to_flits_with_id(4, (src as u64) << 8 | dst as u64)
    }

    fn inject(sw: &mut Switch, port: usize, flits: &[Flit]) {
        for f in flits {
            assert!(sw.accept(port, f.clone()), "input buffer overflow");
        }
    }

    fn drain(sw: &mut Switch, cycles: usize) -> Vec<(PortId, Flit)> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            out.extend(sw.tick().sent);
        }
        out
    }

    #[test]
    fn routes_single_flit_packet() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        inject(&mut sw, 0, &packet(1, 7, 0, 0));
        let sent = drain(&mut sw, 2);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, PortId(1));
        assert!(sw.is_idle());
        assert_eq!(sw.stats().packets_forwarded, 1);
    }

    #[test]
    fn one_flit_per_output_per_cycle() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        inject(&mut sw, 0, &packet(0, 1, 8, 0)); // 3 flits to port 0
        let t1 = sw.tick();
        assert_eq!(t1.sent.len(), 1);
        let t2 = sw.tick();
        assert_eq!(t2.sent.len(), 1);
        let t3 = sw.tick();
        assert_eq!(t3.sent.len(), 1);
        assert!(sw.tick().sent.is_empty());
    }

    #[test]
    fn parallel_outputs_forward_same_cycle() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        inject(&mut sw, 0, &packet(0, 1, 0, 0));
        inject(&mut sw, 1, &packet(1, 2, 0, 0));
        let t = sw.tick();
        assert_eq!(t.sent.len(), 2, "different outputs run in parallel");
    }

    #[test]
    fn wormhole_does_not_interleave_packets_on_output() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        // Two multi-flit packets, both to output 0, from different inputs.
        inject(&mut sw, 0, &packet(0, 1, 8, 0));
        inject(&mut sw, 1, &packet(0, 2, 8, 0));
        let sent = drain(&mut sw, 10);
        assert_eq!(sent.len(), 6);
        // All flits of the first packet precede all flits of the second.
        let ids: Vec<u64> = sent.iter().map(|(_, f)| f.packet_id()).collect();
        let first = ids[0];
        let switch_point = ids.iter().position(|&id| id != first).unwrap();
        assert!(ids[switch_point..].iter().all(|&id| id != first));
    }

    #[test]
    fn store_and_forward_waits_for_full_packet() {
        let mut sw = switch2x2(SwitchMode::StoreAndForward);
        let flits = packet(0, 1, 8, 0); // head + 2 payload
                                        // Inject only the head: nothing may move.
        sw.accept(0, flits[0].clone());
        assert!(sw.tick().sent.is_empty());
        sw.accept(0, flits[1].clone());
        assert!(sw.tick().sent.is_empty(), "partial packet must not move");
        sw.accept(0, flits[2].clone());
        let sent = drain(&mut sw, 5);
        assert_eq!(sent.len(), 3);
    }

    #[test]
    fn wormhole_cuts_through_before_tail() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        let flits = packet(0, 1, 8, 0);
        sw.accept(0, flits[0].clone());
        let t = sw.tick();
        assert_eq!(t.sent.len(), 1, "wormhole forwards the head immediately");
    }

    #[test]
    fn credit_stall_blocks_forwarding() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        sw.set_output_credits(0, 1);
        inject(&mut sw, 0, &packet(0, 1, 8, 0));
        assert_eq!(sw.tick().sent.len(), 1); // uses the only credit
        assert!(sw.tick().sent.is_empty());
        assert!(sw.stats().credit_stalls > 0);
        sw.add_output_credit(0);
        assert_eq!(sw.tick().sent.len(), 1);
    }

    #[test]
    fn credits_released_match_forwards() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        inject(&mut sw, 0, &packet(1, 1, 4, 0));
        let t = sw.tick();
        assert_eq!(t.credits_released, vec![0]);
    }

    #[test]
    fn higher_pressure_wins_output() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        inject(&mut sw, 0, &packet(0, 1, 0, 0)); // low pressure
        inject(&mut sw, 1, &packet(0, 2, 0, 3)); // high pressure
        let t = sw.tick();
        assert_eq!(t.sent.len(), 1);
        // high-pressure packet (from input 1, src 2) goes first
        assert_eq!(t.sent[0].1.header().unwrap().src, 2);
        assert!(sw.stats().arbitration_conflicts > 0);
    }

    #[test]
    fn equal_pressure_alternates_inputs() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        for _ in 0..3 {
            inject(&mut sw, 0, &packet(0, 1, 0, 0));
            inject(&mut sw, 1, &packet(0, 2, 0, 0));
        }
        let sent = drain(&mut sw, 10);
        let srcs: Vec<u16> = sent.iter().map(|(_, f)| f.header().unwrap().src).collect();
        assert_eq!(srcs.len(), 6);
        // strict alternation under round-robin
        for pair in srcs.windows(2) {
            assert_ne!(pair[0], pair[1], "round-robin must alternate: {srcs:?}");
        }
    }

    #[test]
    fn unroutable_destination_stalls_gracefully() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        inject(&mut sw, 0, &packet(3, 1, 0, 0)); // dst 3 has no route
        assert!(sw.tick().sent.is_empty());
        // switch not idle: the packet is stuck (caller detects via stats)
        assert!(!sw.is_idle());
    }

    fn locked_packet(dst: u16, src: u16, release: bool) -> Vec<Flit> {
        let mut h = Header::request(dst, src, 0).with_services(LOCKED_BIT);
        h.lock_release = release;
        Packet::new(h, vec![0; 4]).to_flits_with_id(4, (src as u64) << 8 | 0xF0)
    }

    #[test]
    fn lock_pins_output_across_packets() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        // Input 0 starts a locked sequence to output 0.
        inject(&mut sw, 0, &locked_packet(0, 1, false));
        // Input 1 wants the same output.
        inject(&mut sw, 1, &packet(0, 2, 0, 0));
        let sent = drain(&mut sw, 5);
        // Only the locked packet's 2 flits got through; input 1 is blocked.
        assert_eq!(sent.len(), 2);
        assert!(sent.iter().all(|(_, f)| f.packet_id() != 0x200));
        assert!(sw.is_output_locked(0));
        // The unlock packet releases the pin, after which input 1 finally
        // proceeds: 2 unlock flits + 1 blocked flit.
        inject(&mut sw, 0, &locked_packet(0, 1, true));
        let sent = drain(&mut sw, 6);
        assert!(!sw.is_output_locked(0));
        assert_eq!(sent.len(), 3);
        assert_eq!(sent.last().unwrap().1.packet_id(), 0x200);
        assert!(sw.is_idle());
    }

    #[test]
    fn lock_idle_cycles_counted() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        inject(&mut sw, 0, &locked_packet(0, 1, false));
        inject(&mut sw, 1, &packet(0, 2, 0, 0));
        let _ = drain(&mut sw, 6);
        assert!(sw.stats().lock_idle_cycles > 0);
    }

    #[test]
    fn next_event_at_is_dense_while_flits_are_buffered() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        assert_eq!(sw.next_event_at(7), None);
        inject(&mut sw, 0, &packet(1, 7, 0, 0));
        assert_eq!(sw.next_event_at(7), Some(7));
        let _ = drain(&mut sw, 3);
        assert_eq!(sw.next_event_at(10), None);
    }

    #[test]
    fn skip_cycles_matches_dense_lock_idle_accounting() {
        // Two identical switches holding an idle pinned lock: one ticked
        // densely, one bulk-skipped — counters must agree exactly.
        let mut dense = switch2x2(SwitchMode::Wormhole);
        inject(&mut dense, 0, &locked_packet(0, 1, false));
        let _ = drain(&mut dense, 3); // locked packet fully forwarded
        assert!(dense.is_idle());
        assert!(dense.is_output_locked(0));
        assert_eq!(dense.next_event_at(5), None, "idle lock is skippable");
        let mut skipped = dense.clone();
        for _ in 0..17 {
            let _ = dense.tick();
        }
        skipped.skip_cycles(17);
        assert_eq!(dense.stats(), skipped.stats());
    }

    #[test]
    fn other_output_unaffected_by_lock() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        inject(&mut sw, 0, &locked_packet(0, 1, false));
        inject(&mut sw, 1, &packet(1, 2, 0, 0));
        let sent = drain(&mut sw, 5);
        // lock is on output 0; packet to output 1 passes
        assert!(sent.iter().any(|(p, _)| *p == PortId(1)));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_panic() {
        Switch::new(
            SwitchConfig {
                inputs: 0,
                outputs: 1,
                mode: SwitchMode::Wormhole,
                buffer_depth: 1,
            },
            RoutingTable::new(1),
        );
    }

    #[test]
    fn display_mentions_mode() {
        let sw = switch2x2(SwitchMode::StoreAndForward);
        assert!(sw.to_string().contains("store-and-forward"));
    }
}
