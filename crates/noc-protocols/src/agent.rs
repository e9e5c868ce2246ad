//! The one socket master agent, and the [`Socket`] trait that tells it
//! what a protocol's signals look like.
//!
//! Every VC socket master is the same machine: commands belong to issue
//! *lanes* (one for an ordered socket, one per thread for a threaded
//! one), each lane counts down its next command's `delay_before`,
//! drives it onto the port, remembers it as outstanding until a response
//! retires it, and logs a [`CompletionRecord`]. What differs between
//! sockets — the port's channels, which lane and response key a command
//! travels under, whether a write completes at accept — is a [`Socket`]
//! impl. [`Agent<S>`] is monomorphised per socket: every hook is resolved
//! at compile time, so the per-tick path has no `dyn`, no function
//! pointer and no branch on the protocol.

use crate::command::{CompletionLog, CompletionRecord, Program, ProtocolKind, SocketCommand};
use noc_transaction::{
    Burst, Opcode, RespStatus, StreamId, TransactionRequest, TransactionResponse,
};
use std::collections::VecDeque;
use std::fmt;

/// One VC socket protocol: its port, its lane shape, and the mapping
/// between its signals and the neutral transaction in both directions.
///
/// The value is the socket's own state — nothing for most, the flavour
/// for VCI, the `HMASTLOCK` level for AHB. Supporting a new socket is one
/// impl of this trait; `noc-niu`'s tests carry a worked sixth example.
pub trait Socket: Clone + fmt::Debug + Send + 'static {
    /// The signal bundle between the master and the slave side.
    type Port: Clone + fmt::Debug + Default + Send;

    /// Response channels that deliver independently (AXI's R and B).
    const RESP_CHANNELS: usize = 1;

    /// Whether a held request channel pauses the countdown of every lane
    /// (threads sharing one request group do not count while it is
    /// taken) instead of making an expired countdown wait.
    const BUSY_PAUSES: bool = false;

    /// The protocol, for [`ProtocolKind::expresses`].
    fn kind(&self) -> ProtocolKind;

    /// Most beats one command may carry.
    fn max_beats(&self) -> u32 {
        u32::MAX
    }

    /// Deepest per-lane outstanding limit the socket can be given.
    fn max_depth(&self) -> u32 {
        u32::MAX
    }

    /// The issue lane `cmd` joins. Lanes issue independently, each in
    /// program order.
    fn lane(&self, _cmd: &SocketCommand) -> usize {
        0
    }

    /// The key `cmd`'s response returns under: responses with one key
    /// arrive in issue order, keys are mutually unordered.
    fn key(&self, cmd: &SocketCommand) -> u32 {
        self.lane(cmd) as u32
    }

    /// The socket stream a completion of `cmd` is recorded under.
    fn stream(&self, cmd: &SocketCommand) -> StreamId {
        cmd.stream
    }

    /// Whether `opcode` completes when its request is accepted rather
    /// than on a response.
    fn posted(&self, _opcode: Opcode) -> bool {
        false
    }

    /// Master side: whether the request channel `cmd` needs is free.
    fn ready(&self, port: &Self::Port, cmd: &SocketCommand) -> bool;

    /// Master side: drives `cmd` onto the port; [`Socket::ready`] held.
    fn drive(&mut self, port: &mut Self::Port, cmd: &SocketCommand);

    /// Master side: hands every response on the port to
    /// `retire(key, status, read data)`.
    fn sample(port: &mut Self::Port, retire: impl FnMut(u32, RespStatus, Vec<u8>));

    /// Slave side: takes the next request off the port as a neutral
    /// transaction (routing fields left default).
    fn accept(port: &mut Self::Port) -> Option<TransactionRequest>;

    /// The response channel (`< RESP_CHANNELS`) answering `opcode`.
    fn resp_channel(_opcode: Opcode) -> usize {
        0
    }

    /// Slave side: drives the response to an `opcode` request of
    /// `stream` onto its channel, which the master emptied on its last
    /// tick.
    fn respond(port: &mut Self::Port, stream: StreamId, opcode: Opcode, resp: TransactionResponse);

    /// Whether every channel of the port is empty.
    fn quiet(port: &Self::Port) -> bool;
}

/// One issue lane: a cursor over the commands of the program that belong
/// to it.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// Program index of the lane's next command to issue; the program's
    /// length when it has none left.
    next: usize,
    /// Idle cycles left before that command issues; `None` until its
    /// countdown starts.
    wait: Option<u32>,
    /// Commands of this lane issued and not yet answered.
    in_flight: u32,
}

impl Lane {
    /// The next command's program index, while the lane may count down
    /// or issue: it has a command left and fewer than `limit` in flight.
    fn front(&self, program: &[SocketCommand], limit: u32) -> Option<usize> {
        (self.next < program.len() && self.in_flight < limit).then_some(self.next)
    }
}

/// The first index at or after `from` whose command joins `lane`, or the
/// program's length. A lane passes over each command once in a run.
fn seek<S: Socket>(socket: &S, program: &[SocketCommand], lane: usize, from: usize) -> usize {
    (from..program.len())
        .find(|&i| socket.lane(&program[i]) == lane)
        .unwrap_or(program.len())
}

/// An issued command awaiting its response.
#[derive(Debug, Clone, Copy)]
struct Issued {
    index: usize,
    issued_at: u64,
    key: u32,
    lane: u32,
}

/// A socket master agent executing a [`Program`] under socket `S`'s
/// ordering and outstanding rules. The per-protocol aliases
/// ([`AhbMaster`](crate::ahb::AhbMaster), …) carry the constructors.
#[derive(Debug, Clone)]
pub struct Agent<S: Socket> {
    socket: S,
    program: Program,
    lanes: Vec<Lane>,
    /// A lane with this many commands in flight stops counting down.
    lane_limit: u32,
    /// A command whose key has this many outstanding waits *after* its
    /// countdown.
    key_limit: u32,
    /// Issued, unanswered commands, oldest first. A response retires the
    /// oldest entry of its key; the limits bound the length.
    outstanding: VecDeque<Issued>,
    issue_rr: usize,
    log: CompletionLog,
}

/// Whether `cmd` must wait for a response under its key.
fn gated<S: Socket>(socket: &S, cmd: &SocketCommand, limit: u32, out: &VecDeque<Issued>) -> bool {
    if out.len() < limit as usize || socket.posted(cmd.opcode) {
        return false;
    }
    let key = socket.key(cmd);
    out.iter().filter(|o| o.key == key).count() >= limit as usize
}

impl<S: Socket> Agent<S> {
    /// Creates a master of `lanes` issue lanes. A lane pauses its
    /// countdown at `lane_limit` commands in flight; a command whose
    /// response key already has `key_limit` outstanding waits after it.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` or a limit is zero, if `lane_limit` exceeds
    /// [`Socket::max_depth`], or if a command is one the socket cannot
    /// carry: an opcode it cannot express ([`ProtocolKind::expresses`]),
    /// more beats than [`Socket::max_beats`], a stream beyond the lane
    /// count.
    pub fn with_shape(
        socket: S,
        program: Program,
        lanes: usize,
        lane_limit: u32,
        key_limit: u32,
    ) -> Self {
        assert!(lanes > 0, "a socket needs at least one lane");
        assert!(
            lane_limit > 0 && key_limit > 0,
            "outstanding limits must be non-zero"
        );
        let kind = socket.kind();
        assert!(
            lane_limit <= socket.max_depth(),
            "{kind} allows {} outstanding per lane, not {lane_limit}",
            socket.max_depth()
        );
        for (index, cmd) in program.iter().enumerate() {
            assert!(
                kind.expresses(cmd.opcode),
                "{kind} cannot express {:?} (command {index})",
                cmd.opcode
            );
            assert!(
                cmd.beats <= socket.max_beats(),
                "{kind} carries at most {} beat(s) per command (command {index} has {})",
                socket.max_beats(),
                cmd.beats
            );
            let lane = socket.lane(cmd);
            assert!(
                lane < lanes,
                "command stream {lane} exceeds {lanes} threads"
            );
        }
        let lanes = (0..lanes)
            .map(|at| Lane {
                next: seek(&socket, &program, at, 0),
                ..Lane::default()
            })
            .collect();
        Agent {
            socket,
            program,
            lanes,
            lane_limit,
            key_limit,
            outstanding: VecDeque::new(),
            issue_rr: 0,
            log: CompletionLog::new(),
        }
    }

    /// Replaces the program of a master that has not started executing,
    /// keeping its shape. Equivalent to constructing the master with
    /// `program` in the first place — warm-state forking relies on that
    /// equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the master already issued or completed a command, or if
    /// the new program violates the socket's constraints.
    pub fn load_program(&mut self, program: Program) {
        assert!(
            self.log.is_empty() && self.outstanding.is_empty(),
            "programs can only be loaded before execution starts"
        );
        *self = Agent::with_shape(
            self.socket.clone(),
            program,
            self.lanes.len(),
            self.lane_limit,
            self.key_limit,
        );
    }

    /// Returns `true` when every command has completed.
    pub fn done(&self) -> bool {
        self.outstanding.is_empty() && self.lanes.iter().all(|l| l.next >= self.program.len())
    }

    /// The completion log.
    pub fn log(&self) -> &CompletionLog {
        &self.log
    }

    /// Number of immediately upcoming socket ticks that are provably
    /// no-ops while `port`'s request channels hold what they hold now and
    /// no response reaches it. `u64::MAX` means the master is quiescent
    /// until new input; `0` means the very next tick may change state. A
    /// lane at its limit does not count down, exactly as in a dense tick,
    /// and one whose expired countdown waits on its key unblocks only when
    /// a response retires. A lane whose command finds its channel occupied
    /// cannot issue while the port holds it, so it bounds nothing; its
    /// countdown, which runs unless the socket pauses every lane on a held
    /// channel ([`Socket::BUSY_PAUSES`]), is [`Agent::skip_ticks`]'s to
    /// charge.
    pub fn idle_ticks(&self, port: &S::Port) -> u64 {
        let mut idle = u64::MAX;
        for lane in &self.lanes {
            let Some(idx) = lane.front(&self.program, self.lane_limit) else {
                continue;
            };
            let cmd = &self.program[idx];
            if !self.socket.ready(port, cmd) {
                continue;
            }
            let wait = lane.wait.unwrap_or(cmd.delay_before);
            if wait > 0 {
                idle = idle.min(wait as u64);
            } else if !gated(&self.socket, cmd, self.key_limit, &self.outstanding) {
                return 0;
            }
        }
        idle
    }

    /// Accounts `ticks` socket cycles skipped under the
    /// [`idle_ticks`](Agent::idle_ticks) contract, over a `port` that
    /// held the same requests throughout: afterwards the master is in
    /// exactly the state `ticks` dense no-op ticks would have left it in
    /// — every lane that would have counted down has.
    pub fn skip_ticks(&mut self, ticks: u64, port: &S::Port) {
        let ticks = ticks.min(u32::MAX as u64) as u32;
        for lane in &mut self.lanes {
            let Some(idx) = lane.front(&self.program, self.lane_limit) else {
                continue;
            };
            let cmd = &self.program[idx];
            if S::BUSY_PAUSES && !self.socket.ready(port, cmd) {
                continue;
            }
            let wait = lane.wait.get_or_insert(cmd.delay_before);
            *wait = wait.saturating_sub(ticks);
        }
    }

    /// Logs the completion of the oldest outstanding command of `key`.
    fn retire(&mut self, key: u32, status: RespStatus, data: Vec<u8>, cycle: u64) {
        let at = self.outstanding.iter().position(|o| o.key == key);
        let issued = at
            .and_then(|at| self.outstanding.remove(at))
            .expect("response with nothing outstanding under its key");
        self.lanes[issued.lane as usize].in_flight -= 1;
        let cmd = &self.program[issued.index];
        let data = if cmd.opcode.is_read() {
            data
        } else {
            cmd.payload()
        };
        self.log.push(CompletionRecord {
            index: issued.index,
            opcode: cmd.opcode,
            addr: cmd.addr,
            status,
            data,
            stream: self.socket.stream(cmd),
            issued_at: issued.issued_at,
            completed_at: cycle,
        });
    }

    /// Advances one socket cycle: retires the responses on the port,
    /// then issues at most one command, round-robin across lanes.
    pub fn tick(&mut self, cycle: u64, port: &mut S::Port) {
        S::sample(port, |key, status, data| {
            self.retire(key, status, data, cycle)
        });
        let n = self.lanes.len();
        for k in 0..n {
            let at = self.issue_rr + k;
            let at = if at >= n { at - n } else { at };
            let lane = &mut self.lanes[at];
            let Some(idx) = lane.front(&self.program, self.lane_limit) else {
                continue;
            };
            let cmd = &self.program[idx];
            if S::BUSY_PAUSES && !self.socket.ready(port, cmd) {
                continue;
            }
            let wait = lane.wait.get_or_insert(cmd.delay_before);
            if *wait > 0 {
                *wait -= 1;
                continue;
            }
            // An offer the port would refuse builds no payload.
            if gated(&self.socket, cmd, self.key_limit, &self.outstanding)
                || !self.socket.ready(port, cmd)
            {
                continue;
            }
            self.socket.drive(port, cmd);
            lane.next = seek(&self.socket, &self.program, at, idx + 1);
            lane.wait = None;
            if self.socket.posted(cmd.opcode) {
                self.log.push(CompletionRecord {
                    index: idx,
                    opcode: cmd.opcode,
                    addr: cmd.addr,
                    status: RespStatus::Okay,
                    data: cmd.payload(),
                    stream: self.socket.stream(cmd),
                    issued_at: cycle,
                    completed_at: cycle,
                });
            } else {
                lane.in_flight += 1;
                self.outstanding.push_back(Issued {
                    index: idx,
                    issued_at: cycle,
                    key: self.socket.key(cmd),
                    lane: at as u32,
                });
            }
            self.issue_rr = if at + 1 == n { 0 } else { at + 1 };
            break;
        }
    }
}

impl<S: Socket> fmt::Display for Agent<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} master: {} lane(s), {} outstanding, {} of {} done",
            self.socket.kind(),
            self.lanes.len(),
            self.outstanding.len(),
            self.log.len(),
            self.program.len()
        )
    }
}

/// The neutral request a slave-side [`Socket::accept`] builds from a
/// port message; reads carry empty `data`.
#[inline]
pub(crate) fn neutral(
    opcode: Opcode,
    addr: u64,
    burst: Burst,
    stream: StreamId,
    data: Vec<u8>,
) -> TransactionRequest {
    let builder = TransactionRequest::builder(opcode)
        .address(addr)
        .burst(burst)
        .stream(stream)
        .data(data);
    builder.build().expect("agent produces valid requests")
}

/// The write payload a master-side [`Socket::drive`] puts on the port.
#[inline]
pub(crate) fn write_data(cmd: &SocketCommand) -> Vec<u8> {
    if cmd.opcode.is_write() {
        cmd.payload()
    } else {
        Vec::new()
    }
}

/// The read data a slave-side [`Socket::respond`] puts on the port.
#[inline]
pub(crate) fn read_data(opcode: Opcode, resp: TransactionResponse) -> Vec<u8> {
    if opcode.is_read() {
        resp.into_data()
    } else {
        Vec::new()
    }
}
