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
//!
//! # Where a switch's state lives
//!
//! A switch is plain records: one [`SwitchState`] (counters, the active
//! port sets, lock counts), one [`InputPort`] per input (a FIFO handle)
//! and one [`OutputPort`] per output, with every buffered flit in a
//! [`FlitSlab`] and the routing row beside them. A fabric keeps the
//! records of all its switches in per-fabric arrays and one slab, and
//! ticks switch `s` through a [`SwitchMut`] borrowing its slices of them;
//! a standalone [`Switch`] owns a one-switch set of the same records and
//! goes through the same [`SwitchMut`]. There is one switch model.
//!
//! # Flits on their way
//!
//! Every buffered flit carries the base cycle it arrives at (see
//! [`FlitFifo`]). A fabric pushes a flit that crosses a one-cycle link on
//! the cycle it is sent, stamped for the next, so a switch ticked at
//! `now` treats a FIFO front stamped after `now` as absent: its head
//! makes no request, a body flit behind a granted head is a wormhole
//! bubble (not a credit stall), and a store-and-forward input waits until
//! the tail has arrived. A switch holding only such flits is no busier
//! than an empty one.

use crate::arbiter::RoundRobinArbiter;
use crate::buffer::{FlitFifo, FlitSlab};
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
    /// Flits emitted this cycle, one per output at most, in ascending
    /// output order.
    pub sent: Vec<(PortId, Flit)>,
    /// Input ports that drained one flit (their upstream regains a
    /// credit), in the order of `sent`.
    pub credits_released: Vec<usize>,
    /// Allocation scratch: this cycle's request table, one row per
    /// waiting input whose head may claim a free output. It lives in the
    /// caller-owned result, not in the switch, so a fabric of thousands
    /// of switches shares one.
    requests: Vec<Request>,
}

/// One row of a cycle's request table: a waiting input whose FIFO front
/// is a head flit eligible to claim the free `output`.
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

/// A set of port indices below [`PortSet::CAPACITY`] — every port a
/// [`PortId`] can name — kept inline: four bitmap words and a byte
/// marking the non-empty ones. Emptiness is one byte test, and a walk
/// visits only the words holding members, in ascending index order, at
/// one `trailing_zeros` per member: a five-port switch reads one word,
/// and a wide crossbar the words its members sit in.
///
/// A walk is two loops — [`PortSet::words`], then [`PortSet::word`] —
/// each over a copy of one integer, so the owner may edit the set while
/// walking it: a word's members are read when the walk reaches the word.
#[derive(Debug, Clone, Copy, Default)]
struct PortSet {
    words: [u64; 4],
    /// Bit `w` set exactly when `words[w]` is non-zero.
    occupied: u8,
}

impl PortSet {
    /// Ports a set can hold: one per value of a `u8`.
    const CAPACITY: usize = 256;

    /// Port `i`'s word and bit.
    fn slot(i: usize) -> (usize, u64) {
        debug_assert!(i < Self::CAPACITY, "port {i} beyond a port set");
        ((i >> 6) & 3, 1 << (i & 63))
    }

    fn insert(&mut self, i: usize) {
        let (w, bit) = Self::slot(i);
        self.words[w] |= bit;
        self.occupied |= 1 << w;
    }

    /// Removes port `i` (a no-op for a non-member).
    fn remove(&mut self, i: usize) {
        let (w, bit) = Self::slot(i);
        self.words[w] &= !bit;
        self.occupied &= !(u8::from(self.words[w] == 0) << w);
    }

    fn contains(&self, i: usize) -> bool {
        let (w, bit) = Self::slot(i);
        self.words[w] & bit != 0
    }

    fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The words holding members, ascending.
    fn words(&self) -> Bits {
        Bits {
            bits: u64::from(self.occupied),
            base: 0,
        }
    }

    /// The members in word `w`, ascending.
    fn word(&self, w: usize) -> Bits {
        Bits {
            bits: self.words[w],
            base: w * 64,
        }
    }
}

/// The set bits of one word, ascending, offset by `base`.
struct Bits {
    bits: u64,
    base: usize,
}

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let i = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

/// One switch's own record in a fabric: the three things it keeps up to
/// date as flits arrive, win an output and leave, so a cycle costs what
/// its events cost, not what its port count costs:
///
/// - the **waiting** inputs — holding flits but no output — which
///   [`SwitchMut::accept`], a grant and a tail that leaves flits behind
///   update, and which are the only inputs allocation reads;
/// - the **streaming** outputs — whose owner is mid-packet — which a
///   grant and a tail update, and which are the only outputs forwarding
///   reads;
/// - the number of outputs pinned by a locked sequence, and how many of
///   those sit between packets: [`SwitchState::has_locked_output`],
///   [`SwitchMut::skip_cycles`] and the per-cycle
///   [`SwitchStats::lock_idle_cycles`] read the counts instead of
///   scanning the outputs.
///
/// Both sets are inline bitmaps over the 256 ports a [`PortId`] can name.
/// The ports themselves are [`InputPort`] and [`OutputPort`] records in
/// the owner's arrays, their flits sit in the owner's [`FlitSlab`], and
/// the counters add up in the [`SwitchStats`] the owner passes (a fabric
/// keeps one for all its switches: nothing reads one switch's counters,
/// and every byte here is copied by every fork). Nothing here is a heap
/// object, so a fabric's switches are one array of these records.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchState {
    /// Flits buffered across all inputs: zero with no output streaming
    /// is [`SwitchState::is_idle`], without scanning.
    buffered: u32,
    /// Outputs pinned by a locked sequence.
    locked: u32,
    /// Pinned outputs whose owner is between packets: each counts one
    /// lock-idle cycle per cycle it is not granted again.
    locked_idle: u32,
    /// Inputs holding flits but no output.
    waiting: PortSet,
    /// Outputs whose owner is mid-packet.
    streaming: PortSet,
}

impl SwitchState {
    /// Returns `true` if any output is pinned by a locked sequence.
    /// Idle-but-locked switches still accrue
    /// [`SwitchStats::lock_idle_cycles`] every cycle, so callers that
    /// skip ticking idle switches must keep accounting for these via
    /// [`SwitchMut::skip_cycles`].
    pub fn has_locked_output(&self) -> bool {
        self.locked > 0
    }

    /// Returns `true` if the switch holds no flits and no allocations.
    pub fn is_idle(&self) -> bool {
        self.buffered == 0 && self.streaming.is_empty()
    }
}

/// One input port's record: its FIFO's handle into the flit slab, and
/// the state of the packet at its front.
#[derive(Debug, Clone, Copy)]
pub struct InputPort {
    fifo: FlitFifo,
    /// Whether this input's in-flight packet owns an output.
    allocated: bool,
    /// Whether the in-flight packet releases a lock at its tail.
    lock_release: bool,
}

/// One output port's record: ownership, lock pinning, downstream credit
/// and the port's arbiter.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputPort {
    /// Which input owns this output (persists across packets while
    /// locked).
    owner: Option<u8>,
    /// Lock pinning: the input this output is reserved for across packets.
    lock: Option<u8>,
    credits: u32,
    arbiter: RoundRobinArbiter,
}

impl OutputPort {
    /// Sets the credit count (downstream buffer space).
    pub fn set_credits(&mut self, credits: u32) {
        self.credits = credits;
    }

    /// Returns one credit (downstream freed a slot).
    pub fn add_credit(&mut self) {
        self.credits += 1;
    }
}

impl SwitchConfig {
    /// Appends a fresh switch's port records to `inputs` and `outputs`:
    /// `self.inputs` empty input ports buffering up to `buffer_depth` flits
    /// each, and `self.outputs` output ports without credit. A
    /// [`Switch`] and a fabric lay out a switch through this one call.
    ///
    /// # Panics
    ///
    /// Panics on a zero-port or zero-buffer configuration, and on more
    /// than 256 ports a side: a [`PortId`] is a `u8`.
    pub fn append_ports(&self, inputs: &mut Vec<InputPort>, outputs: &mut Vec<OutputPort>) {
        assert!(self.inputs > 0, "switch needs at least one input");
        assert!(self.outputs > 0, "switch needs at least one output");
        assert!(self.buffer_depth > 0, "switch needs buffering");
        assert!(
            self.inputs <= PortSet::CAPACITY && self.outputs <= PortSet::CAPACITY,
            "a switch has at most {} ports a side, not {}x{}",
            PortSet::CAPACITY,
            self.inputs,
            self.outputs
        );
        let input = InputPort {
            fifo: FlitFifo::new(self.buffer_depth),
            allocated: false,
            lock_release: false,
        };
        inputs.resize(inputs.len() + self.inputs, input);
        outputs.resize(outputs.len() + self.outputs, OutputPort::default());
    }
}

/// One switch, borrowed from wherever its records live: its
/// [`SwitchState`], its port records, the slab its flits sit in, the
/// counters it adds to and its routing row. This is the switch model — a
/// fabric builds one over its per-fabric arrays for each switch it
/// ticks, and [`Switch`] over its own.
#[derive(Debug)]
pub struct SwitchMut<'a> {
    /// The switch's own record.
    pub state: &'a mut SwitchState,
    /// The counters its cycles add to.
    pub stats: &'a mut SwitchStats,
    /// Its input ports, in port order.
    pub inputs: &'a mut [InputPort],
    /// Its output ports, in port order.
    pub outputs: &'a mut [OutputPort],
    /// Where its FIFOs' flits are.
    pub slab: &'a mut FlitSlab,
    /// Its routing row.
    pub table: &'a RoutingTable,
    /// Its switching discipline.
    pub mode: SwitchMode,
}

impl SwitchMut<'_> {
    /// Pushes a flit that arrives at base cycle `at` into input `port`;
    /// until then the switch treats it as absent. Returns `false` when the
    /// buffer is full (a flow-control violation by the caller).
    #[inline]
    pub fn accept(&mut self, port: usize, flit: Flit, at: u64) -> bool {
        let input = &mut self.inputs[port];
        let accepted = input.fifo.push(self.slab, flit, at);
        self.state.buffered += u32::from(accepted);
        if accepted && !input.allocated {
            self.state.waiting.insert(port);
        }
        accepted
    }

    /// Advances the switch through base cycle `now` into a caller-owned
    /// result (see [`Switch::tick_into`]).
    pub fn tick_into(&mut self, now: u64, tick: &mut SwitchTick) {
        tick.sent.clear();
        tick.credits_released.clear();
        if !self.state.waiting.is_empty() {
            self.allocate(now, &mut tick.requests);
        }
        // Pinned outputs their owner did not claim again idle this cycle.
        self.stats.lock_idle_cycles += u64::from(self.state.locked_idle);
        self.forward(now, tick);
    }

    /// Accounts the `cycles` ticks from base cycle `now` of a switch
    /// that none of them could move: every output pinned by a locked
    /// sequence counts one [`SwitchStats::lock_idle_cycles`] per tick, so
    /// the bulk add leaves the counters exactly as dense ticking would
    /// have.
    ///
    /// Callers must only skip a switch with no output streaming and no
    /// flit arriving before `now + cycles` — an idle switch, or one whose
    /// only flits are still on their way.
    pub fn skip_cycles(&mut self, now: u64, cycles: u64) {
        debug_assert!(
            self.state.streaming.is_empty()
                && self.state.waiting.words().all(|w| {
                    self.state.waiting.word(w).all(|i| {
                        cycles == 0 || !self.inputs[i].fifo.has_arrived(self.slab, now + cycles - 1)
                    })
                }),
            "skipping a switch with an arrived flit"
        );
        // Without a streaming output every pinned output is between
        // packets, so `locked` is `locked_idle`.
        self.stats.lock_idle_cycles += u64::from(self.state.locked) * cycles;
    }

    /// Output allocation: each free output goes to one of the heads that
    /// claim it, by pressure-aware round-robin.
    ///
    /// Only waiting inputs are read: each one's head flit is routed and
    /// filtered once into the cycle's request table, and a head whose
    /// output is streaming makes no request. A head requests one output
    /// only, so a grant changes nothing another output's candidates
    /// depend on, and the outputs may be granted in any order — here, the
    /// table sorted by output. An output with a sole requester grants it
    /// directly, exactly as [`RoundRobinArbiter::pick`] would, pointer and
    /// grant count included; only an output two or more heads contend for
    /// builds the arbiter's input.
    fn allocate(&mut self, now: u64, requests: &mut Vec<Request>) {
        requests.clear();
        for w in self.state.waiting.words() {
            for input in self.state.waiting.word(w) {
                requests.extend(self.request(input, now));
            }
        }
        // Each output's requesters side by side.
        requests.sort_unstable_by_key(|r| r.output);
        for claims in requests.chunk_by(|a, b| a.output == b.output) {
            let arbiter = &mut self.outputs[claims[0].output].arbiter;
            let grant = if let [sole] = claims {
                arbiter.grant_sole(sole.input);
                *sole
            } else {
                self.stats.arbitration_conflicts += 1;
                // The arbiter rotates over exactly this switch's inputs.
                let mut pressures = [None; PortSet::CAPACITY];
                for r in claims {
                    pressures[r.input] = Some(r.pressure);
                }
                let winner = arbiter
                    .pick(&pressures[..self.inputs.len()])
                    .expect("candidates exist, arbiter must grant");
                *claims
                    .iter()
                    .find(|r| r.input == winner)
                    .expect("the winner requested")
            };
            self.grant(grant);
        }
    }

    /// The request waiting input `input` makes at cycle `now`, if any:
    /// its FIFO front has arrived and is a head flit routed to a free
    /// output that admits it.
    #[inline]
    fn request(&self, input: usize, now: u64) -> Option<Request> {
        let port = &self.inputs[input];
        let header = port.fifo.front(self.slab, now)?.header()?;
        let output = self.table.lookup(header.dst).ok()?.index();
        let free = output < self.outputs.len() && !self.state.streaming.contains(output);
        // Lock pinning: a locked output only admits its owner.
        let admitted = free
            && self.outputs[output]
                .lock
                .is_none_or(|owner| usize::from(owner) == input);
        let whole =
            self.mode == SwitchMode::Wormhole || port.fifo.whole_packets(self.slab, now) > 0;
        (admitted && whole).then_some(Request {
            input,
            output,
            pressure: header.pressure,
            locked: header.is_locked(),
            lock_release: header.lock_release,
        })
    }

    /// Hands `r.output` to `r.input` for one packet.
    fn grant(&mut self, r: Request) {
        let state = &mut *self.state;
        let out = &mut self.outputs[r.output];
        if out.lock.is_some() {
            state.locked_idle -= 1; // the owner resumes its sequence
        } else if r.locked {
            state.locked += 1;
        }
        if r.locked {
            out.lock = Some(r.input as u8);
        }
        out.owner = Some(r.input as u8);
        state.streaming.insert(r.output);
        state.waiting.remove(r.input);
        let input = &mut self.inputs[r.input];
        input.allocated = true;
        input.lock_release = r.lock_release;
    }

    /// Forwarding: each streaming output, in ascending order, moves one
    /// flit from its owner, credit permitting.
    fn forward(&mut self, now: u64, tick: &mut SwitchTick) {
        for w in self.state.streaming.words() {
            for o in self.state.streaming.word(w) {
                self.forward_from(o, now, tick);
            }
        }
    }

    /// Moves one flit out of streaming output `o`, credit permitting.
    fn forward_from(&mut self, o: usize, now: u64, tick: &mut SwitchTick) {
        let state = &mut *self.state;
        let out = &mut self.outputs[o];
        let i = usize::from(out.owner.expect("a streaming output has an owner"));
        let input = &mut self.inputs[i];
        if !input.fifo.has_arrived(self.slab, now) {
            return; // wormhole bubble: body flits not here yet
        }
        if out.credits == 0 {
            self.stats.credit_stalls += 1;
            return;
        }
        let flit = input.fifo.pop(self.slab).expect("checked non-empty");
        state.buffered -= 1;
        out.credits -= 1;
        self.stats.flits_forwarded += 1;
        tick.credits_released.push(i);
        let is_tail = flit.is_tail();
        tick.sent.push((PortId(o as u8), flit));
        if !is_tail {
            return;
        }
        self.stats.packets_forwarded += 1;
        state.streaming.remove(o);
        input.allocated = false;
        if !input.fifo.is_empty() {
            state.waiting.insert(i);
        }
        debug_assert!(out.lock.is_none_or(|owner| usize::from(owner) == i));
        if out.lock.is_some() && !input.lock_release {
            // Keep the owner pinned for the rest of the sequence.
            state.locked_idle += 1;
        } else {
            // The unlocking packet releases the pin, with ownership.
            state.locked -= u32::from(out.lock.take().is_some());
            out.owner = None;
        }
        input.lock_release = false;
    }
}

/// An input-buffered NoC switch, standing alone.
///
/// A `Switch` owns what a fabric keeps in per-fabric arrays for each of
/// its switches — a [`SwitchState`], one [`InputPort`] and one
/// [`OutputPort`] record per port, its routing row — plus a flit slab of
/// its own, and runs them through the same [`SwitchMut`]. See
/// [`SwitchState`] for what a cycle reads. It keeps its own cycle count:
/// a flit it accepts arrives on the cycle its next tick runs.
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
    state: SwitchState,
    stats: SwitchStats,
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    slab: FlitSlab,
    /// The cycle the next tick runs at: ticks and skipped cycles so far.
    cycle: u64,
}

impl Switch {
    /// Creates a switch.
    ///
    /// # Panics
    ///
    /// Panics on a zero-port or zero-buffer configuration, and on more
    /// than 256 ports a side: a [`PortId`] is a `u8`.
    pub fn new(config: SwitchConfig, table: RoutingTable) -> Self {
        let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
        config.append_ports(&mut inputs, &mut outputs);
        Switch {
            config,
            table,
            state: SwitchState::default(),
            stats: SwitchStats::default(),
            inputs,
            outputs,
            slab: FlitSlab::new(),
            cycle: 0,
        }
    }

    fn view(&mut self) -> SwitchMut<'_> {
        SwitchMut {
            state: &mut self.state,
            stats: &mut self.stats,
            inputs: &mut self.inputs,
            outputs: &mut self.outputs,
            slab: &mut self.slab,
            table: &self.table,
            mode: self.config.mode,
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

    /// Returns `true` if input `port` can accept a flit this cycle.
    pub fn can_accept(&self, port: usize) -> bool {
        !self.inputs[port].fifo.is_full()
    }

    /// Pushes a flit into input `port`. Returns `false` when the buffer is
    /// full (a flow-control violation by the caller).
    pub fn accept(&mut self, port: usize, flit: Flit) -> bool {
        let now = self.cycle;
        self.view().accept(port, flit, now)
    }

    /// Sets the credit count of output `port` (downstream buffer space).
    pub fn set_output_credits(&mut self, port: usize, credits: u32) {
        self.outputs[port].set_credits(credits);
    }

    /// Returns one credit to output `port` (downstream freed a slot).
    pub fn add_output_credit(&mut self, port: usize) {
        self.outputs[port].add_credit();
    }

    /// Returns `true` if any output is pinned by a locked sequence (see
    /// [`SwitchState::has_locked_output`]).
    pub fn has_locked_output(&self) -> bool {
        self.state.has_locked_output()
    }

    /// Returns `true` if the switch holds no flits and no allocations.
    pub fn is_idle(&self) -> bool {
        self.state.is_idle()
    }

    /// Accounts `cycles` skipped ticks of an idle switch (see
    /// [`SwitchMut::skip_cycles`]). A switch holding any flit (or
    /// streaming allocation) may move — and accrues stall counters —
    /// every cycle; an idle one only counts
    /// [`SwitchStats::lock_idle_cycles`] for each output a locked
    /// sequence still pins, which this accounts in bulk, bit-identically.
    ///
    /// Callers must only skip while [`Switch::is_idle`] holds.
    pub fn skip_cycles(&mut self, cycles: u64) {
        let now = self.cycle;
        self.view().skip_cycles(now, cycles);
        self.cycle += cycles;
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
        let now = self.cycle;
        self.view().tick_into(now, tick);
        self.cycle += 1;
    }
}

impl fmt::Display for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "switch {}x{} {} (fwd {} flits)",
            self.config.inputs,
            self.config.outputs,
            self.config.mode,
            self.stats().flits_forwarded
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
        // The pin holds however long the owner pauses: input 1 still gets
        // nothing, and output 0 counts one lock-idle cycle per tick.
        let idle = sw.stats().lock_idle_cycles;
        assert!(drain(&mut sw, 4).is_empty());
        assert_eq!(sw.stats().lock_idle_cycles, idle + 4);
        assert!(sw.has_locked_output());
        // The unlock packet releases the pin, after which input 1 finally
        // proceeds: 2 unlock flits + 1 blocked flit.
        inject(&mut sw, 0, &locked_packet(0, 1, true));
        let sent = drain(&mut sw, 6);
        assert_eq!(sent.len(), 3);
        assert_eq!(sent.last().unwrap().1.packet_id(), 0x200);
        assert!(sw.is_idle());
        assert!(!sw.has_locked_output());
        let idle = sw.stats().lock_idle_cycles;
        let _ = drain(&mut sw, 4);
        assert_eq!(
            sw.stats().lock_idle_cycles,
            idle,
            "released: no more lock-idle"
        );
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
    fn a_switch_is_busy_while_flits_are_buffered() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        assert!(sw.is_idle());
        inject(&mut sw, 0, &packet(1, 7, 0, 0));
        assert!(!sw.is_idle());
        let _ = drain(&mut sw, 3);
        assert!(sw.is_idle());
    }

    #[test]
    fn skip_cycles_matches_dense_lock_idle_accounting() {
        // Two identical switches holding an idle pinned lock: one ticked
        // densely, one bulk-skipped — counters must agree exactly.
        let mut dense = switch2x2(SwitchMode::Wormhole);
        inject(&mut dense, 0, &locked_packet(0, 1, false));
        let _ = drain(&mut dense, 3); // locked packet fully forwarded
        assert!(dense.is_idle(), "idle lock is skippable");
        assert!(dense.has_locked_output());
        let mut skipped = dense.clone();
        for _ in 0..17 {
            let _ = dense.tick();
        }
        skipped.skip_cycles(17);
        assert_eq!(dense.stats(), skipped.stats());
    }

    /// One tick of `sw` at base cycle `now`, whatever its own count says.
    fn tick_at(sw: &mut Switch, now: u64) -> SwitchTick {
        let mut tick = SwitchTick::default();
        sw.view().tick_into(now, &mut tick);
        tick
    }

    #[test]
    fn a_head_on_its_way_makes_no_request() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        // Both heads want output 0; input 1's arrives a cycle later.
        let (early, late) = (packet(0, 1, 0, 0), packet(0, 2, 0, 0));
        assert!(sw.view().accept(0, early[0].clone(), 5));
        assert!(sw.view().accept(1, late[0].clone(), 6));
        assert!(!sw.is_idle(), "a flit on its way is buffered");
        let t = tick_at(&mut sw, 5);
        assert_eq!(t.sent.len(), 1);
        assert_eq!(t.sent[0].1.header().unwrap().src, 1);
        assert_eq!(sw.stats().arbitration_conflicts, 0, "one request only");
        let t = tick_at(&mut sw, 6);
        assert_eq!(t.sent[0].1.header().unwrap().src, 2);
        assert!(sw.is_idle());
    }

    #[test]
    fn a_body_flit_on_its_way_is_a_bubble_not_a_credit_stall() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        sw.set_output_credits(0, 1);
        let flits = packet(0, 1, 8, 0); // head + 2 payload flits
        assert!(sw.view().accept(0, flits[0].clone(), 5));
        assert_eq!(
            tick_at(&mut sw, 5).sent.len(),
            1,
            "the head takes the credit"
        );
        // The body arrives at 7: at 6 the output streams but has nothing.
        assert!(sw.view().accept(0, flits[1].clone(), 7));
        assert!(tick_at(&mut sw, 6).sent.is_empty());
        assert_eq!(sw.stats().credit_stalls, 0, "a bubble, not a stall");
        // Arrived, it stalls on the missing credit.
        assert!(tick_at(&mut sw, 7).sent.is_empty());
        assert_eq!(sw.stats().credit_stalls, 1);
    }

    #[test]
    fn store_and_forward_waits_until_the_tail_has_arrived() {
        let mut sw = switch2x2(SwitchMode::StoreAndForward);
        let flits = packet(0, 1, 8, 0);
        assert!(sw.view().accept(0, flits[0].clone(), 4));
        assert!(sw.view().accept(0, flits[1].clone(), 5));
        assert!(sw.view().accept(0, flits[2].clone(), 6));
        assert!(tick_at(&mut sw, 5).sent.is_empty(), "the tail lands at 6");
        let sent: Vec<_> = (6..9).flat_map(|now| tick_at(&mut sw, now).sent).collect();
        assert_eq!(sent.len(), 3);
    }

    #[test]
    fn a_pinned_switch_holding_only_a_flit_on_its_way_counts_lock_idle_as_when_idle() {
        let mut pinned = switch2x2(SwitchMode::Wormhole);
        inject(&mut pinned, 0, &locked_packet(0, 1, false));
        let _ = drain(&mut pinned, 3);
        assert!(pinned.is_idle() && pinned.has_locked_output());
        // The reference has no flit at 10; the others hold one arriving
        // at 11, for the free output 1. One skips cycle 10, one ticks it.
        let mut reference = pinned.clone();
        let flit = packet(1, 2, 0, 0).remove(0);
        let (mut skipped, mut ticked) = (pinned.clone(), pinned);
        for sw in [&mut skipped, &mut ticked] {
            assert!(sw.view().accept(1, flit.clone(), 11));
        }
        reference.view().skip_cycles(10, 1);
        skipped.view().skip_cycles(10, 1);
        assert!(tick_at(&mut ticked, 10).sent.is_empty());
        assert!(reference.view().accept(1, flit, 11));
        for sw in [&mut reference, &mut skipped, &mut ticked] {
            assert_eq!(tick_at(sw, 11).sent.len(), 1);
        }
        assert_eq!(skipped.stats(), reference.stats());
        assert_eq!(ticked.stats(), reference.stats());
        assert_eq!(reference.stats().lock_idle_cycles, 1 + 1 + 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "skipping a switch with an arrived flit")]
    fn skipping_over_an_arrival_panics_in_debug_builds() {
        let mut sw = switch2x2(SwitchMode::Wormhole);
        assert!(sw.view().accept(1, packet(1, 2, 0, 0).remove(0), 11));
        sw.view().skip_cycles(10, 2); // cycle 11 could have moved it
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
    #[should_panic(expected = "at most 256 ports a side")]
    fn more_ports_than_a_port_id_names_panic() {
        Switch::new(SwitchConfig::wormhole(257, 2), RoutingTable::new(1));
    }

    #[test]
    fn port_set_walks_its_members_in_ascending_order() {
        let members =
            |set: &PortSet| -> Vec<usize> { set.words().flat_map(|w| set.word(w)).collect() };
        let mut set = PortSet::default();
        assert!(set.is_empty() && members(&set).is_empty());
        for i in [255, 64, 3, 63, 128, 3] {
            set.insert(i);
        }
        set.insert(64); // already a member
        assert_eq!(members(&set), [3, 63, 64, 128, 255]);
        set.remove(64);
        set.remove(128);
        set.remove(7); // not a member
        assert!(!set.contains(64) && set.contains(63) && set.contains(255));
        assert_eq!(set.occupied, 0b1001, "emptied words leave the summary");
        assert_eq!(set.words().collect::<Vec<_>>(), [0, 3]);
        assert_eq!(members(&set), [3, 63, 255]);
        // A walk may edit the set: each word is read when reached.
        let mut walked = Vec::new();
        for w in set.words() {
            for i in set.word(w) {
                walked.push(i);
                set.remove(i);
                set.insert(i - 1);
            }
        }
        assert_eq!(walked, [3, 63, 255]);
        for i in [2, 62, 254] {
            assert!(set.contains(i), "{i}");
            set.remove(i);
        }
        assert!(set.is_empty());
    }

    /// A fork copies every output record and a hop touches one, so the
    /// record stays at two ports, a credit count and the rotation pointer.
    #[test]
    fn an_output_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<OutputPort>(), 16);
    }

    #[test]
    fn display_mentions_mode() {
        let sw = switch2x2(SwitchMode::StoreAndForward);
        assert!(sw.to_string().contains("store-and-forward"));
    }
}
