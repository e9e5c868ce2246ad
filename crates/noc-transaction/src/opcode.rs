//! Canonical transaction opcodes and response statuses.
//!
//! The opcode set is the union of what the supported sockets need, folded
//! into neutral primitives: plain reads/writes, posted writes (OCP writes
//! without responses), both generations of synchronisation primitives —
//! legacy blocking `ReadLocked`/`WriteUnlock` (AHB `HMASTLOCK`, VCI
//! `READEX`/write-unlock) and modern non-blocking `ReadExclusive`/
//! `WriteExclusive` (AXI exclusive pair) / `ReadLinked`/`WriteConditional`
//! (OCP lazy synchronisation) — plus a broadcast write.

use std::fmt;

/// A VC-neutral transaction opcode.
///
/// # Examples
///
/// ```
/// use noc_transaction::Opcode;
/// assert!(Opcode::Read.is_read());
/// assert!(Opcode::WritePosted.is_posted());
/// assert!(!Opcode::WritePosted.expects_response());
/// assert!(Opcode::ReadLocked.is_locking());
/// assert!(Opcode::WriteExclusive.is_exclusive());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Plain read.
    Read,
    /// Plain write with response (non-posted).
    Write,
    /// Posted write: no response returns to the initiator (OCP `WR`,
    /// AHB-style fire-and-forget bridges). The NoC still acknowledges
    /// internally for flow control, but the socket sees nothing.
    WritePosted,
    /// Non-blocking exclusive read (AXI exclusive read). Arms the target
    /// NIU's exclusive monitor.
    ReadExclusive,
    /// Non-blocking exclusive write (AXI exclusive write). Succeeds with
    /// [`RespStatus::ExOkay`] only if the monitor reservation survived.
    WriteExclusive,
    /// Load-linked style read (OCP `RDL`, lazy synchronisation). Semantics
    /// identical to [`Opcode::ReadExclusive`] at the transaction layer —
    /// one shared "exclusive" service bit covers both (paper §3).
    ReadLinked,
    /// Store-conditional style write (OCP `WRC`). Fails cleanly (no write)
    /// when the reservation is gone.
    WriteConditional,
    /// Legacy blocking locked read (VCI `READEX`, AHB `HMASTLOCK` entry).
    /// Impacts the *transport* layer: switches pin the path until the
    /// matching [`Opcode::WriteUnlock`] passes (paper §3).
    ReadLocked,
    /// Legacy unlocking write, releasing a [`Opcode::ReadLocked`] sequence.
    WriteUnlock,
    /// Broadcast posted write to all targets (OCP `BCST`).
    Broadcast,
}

impl Opcode {
    /// All opcodes, for exhaustive tests and sweeps.
    pub const ALL: [Opcode; 10] = [
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

    /// Returns `true` for opcodes that move data from target to initiator.
    pub const fn is_read(self) -> bool {
        matches!(
            self,
            Opcode::Read | Opcode::ReadExclusive | Opcode::ReadLinked | Opcode::ReadLocked
        )
    }

    /// Returns `true` for opcodes that move data from initiator to target.
    pub const fn is_write(self) -> bool {
        !self.is_read()
    }

    /// Returns `true` if no response returns to the socket.
    pub const fn is_posted(self) -> bool {
        matches!(self, Opcode::WritePosted | Opcode::Broadcast)
    }

    /// Returns `true` if the initiator expects a response transaction.
    pub const fn expects_response(self) -> bool {
        !self.is_posted()
    }

    /// Returns `true` for the legacy blocking lock pair, which the
    /// transport layer must react to (path pinning).
    pub const fn is_locking(self) -> bool {
        matches!(self, Opcode::ReadLocked | Opcode::WriteUnlock)
    }

    /// Returns `true` for the non-blocking exclusive family, implemented
    /// purely with a packet service bit plus NIU state.
    pub const fn is_exclusive(self) -> bool {
        matches!(
            self,
            Opcode::ReadExclusive
                | Opcode::WriteExclusive
                | Opcode::ReadLinked
                | Opcode::WriteConditional
        )
    }

    /// The opcode an IP behind a target sees once the interconnect has
    /// served the synchronisation semantics itself: the exclusive, linked
    /// and locked reads are a [`Opcode::Read`], the exclusive,
    /// conditional and unlocking writes a [`Opcode::Write`], everything
    /// else is unchanged. Direction is always preserved.
    pub const fn plain(self) -> Opcode {
        match self {
            Opcode::ReadExclusive | Opcode::ReadLinked | Opcode::ReadLocked => Opcode::Read,
            Opcode::WriteExclusive | Opcode::WriteConditional | Opcode::WriteUnlock => {
                Opcode::Write
            }
            other => other,
        }
    }

    /// The status a target answers once its
    /// [`ExclusiveMonitor::admit`](crate::ExclusiveMonitor::admit) let
    /// this opcode through and storage (or the IP behind it) answered
    /// `status`: the exclusive family upgrades `OKAY` to `EXOKAY`; every
    /// other status, and every other opcode's status, passes through.
    pub const fn served(self, status: RespStatus) -> RespStatus {
        match status {
            RespStatus::Okay if self.is_exclusive() => RespStatus::ExOkay,
            other => other,
        }
    }

    /// Compact 4-bit encoding used in packet headers.
    pub const fn encode(self) -> u8 {
        match self {
            Opcode::Read => 0x0,
            Opcode::Write => 0x1,
            Opcode::WritePosted => 0x2,
            Opcode::ReadExclusive => 0x3,
            Opcode::WriteExclusive => 0x4,
            Opcode::ReadLinked => 0x5,
            Opcode::WriteConditional => 0x6,
            Opcode::ReadLocked => 0x7,
            Opcode::WriteUnlock => 0x8,
            Opcode::Broadcast => 0x9,
        }
    }

    /// Decodes a 4-bit header encoding.
    ///
    /// Returns `None` for unassigned encodings.
    pub const fn decode(raw: u8) -> Option<Opcode> {
        Some(match raw {
            0x0 => Opcode::Read,
            0x1 => Opcode::Write,
            0x2 => Opcode::WritePosted,
            0x3 => Opcode::ReadExclusive,
            0x4 => Opcode::WriteExclusive,
            0x5 => Opcode::ReadLinked,
            0x6 => Opcode::WriteConditional,
            0x7 => Opcode::ReadLocked,
            0x8 => Opcode::WriteUnlock,
            0x9 => Opcode::Broadcast,
            _ => return None,
        })
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Opcode::Read => "RD",
            Opcode::Write => "WR",
            Opcode::WritePosted => "WRP",
            Opcode::ReadExclusive => "RDX",
            Opcode::WriteExclusive => "WRX",
            Opcode::ReadLinked => "RDL",
            Opcode::WriteConditional => "WRC",
            Opcode::ReadLocked => "RDLK",
            Opcode::WriteUnlock => "WRUN",
            Opcode::Broadcast => "BCST",
        };
        f.write_str(s)
    }
}

/// Response status, the union of socket response vocabularies.
///
/// Each NIU maps these onto its socket's response wires: AHB only has
/// OKAY/ERROR, AXI has OKAY/EXOKAY/SLVERR/DECERR, OCP has DVA/FAIL/ERR,
/// VCI has an error bit. The mapping tables live in the per-protocol NIUs.
///
/// # Examples
///
/// ```
/// use noc_transaction::RespStatus;
/// assert!(RespStatus::Okay.is_ok());
/// assert!(RespStatus::ExOkay.is_ok());
/// assert!(RespStatus::SlvErr.is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RespStatus {
    /// Normal success.
    #[default]
    Okay,
    /// Exclusive success (reservation held). Maps to AXI `EXOKAY`,
    /// OCP `DVA` on a successful `WRC`.
    ExOkay,
    /// Exclusive/conditional failure *without* side effects (reservation
    /// lost; the write did not happen). Maps to OCP `FAIL`; AXI signals the
    /// same situation as plain `OKAY` on an exclusive write.
    ExFail,
    /// Target signalled an error (AXI `SLVERR`, OCP `ERR`, VCI error).
    SlvErr,
    /// No target decodes the address (AXI `DECERR`); generated by the
    /// initiator NIU's address decoder.
    DecErr,
}

impl RespStatus {
    /// Returns `true` for success statuses (including exclusive success).
    pub const fn is_ok(self) -> bool {
        matches!(self, RespStatus::Okay | RespStatus::ExOkay)
    }

    /// Returns `true` for error statuses. `ExFail` counts as an error for
    /// accounting purposes even though it is a defined, side-effect-free
    /// outcome.
    pub const fn is_err(self) -> bool {
        !self.is_ok()
    }

    /// Compact 3-bit header encoding.
    pub const fn encode(self) -> u8 {
        match self {
            RespStatus::Okay => 0,
            RespStatus::ExOkay => 1,
            RespStatus::ExFail => 2,
            RespStatus::SlvErr => 3,
            RespStatus::DecErr => 4,
        }
    }

    /// Decodes a 3-bit header encoding.
    pub const fn decode(raw: u8) -> Option<RespStatus> {
        Some(match raw {
            0 => RespStatus::Okay,
            1 => RespStatus::ExOkay,
            2 => RespStatus::ExFail,
            3 => RespStatus::SlvErr,
            4 => RespStatus::DecErr,
            _ => return None,
        })
    }
}

impl fmt::Display for RespStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RespStatus::Okay => "OKAY",
            RespStatus::ExOkay => "EXOKAY",
            RespStatus::ExFail => "EXFAIL",
            RespStatus::SlvErr => "SLVERR",
            RespStatus::DecErr => "DECERR",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_partition_is_total() {
        for op in Opcode::ALL {
            assert_ne!(op.is_read(), op.is_write(), "{op} must be read xor write");
        }
    }

    #[test]
    fn posted_never_expects_response() {
        for op in Opcode::ALL {
            assert_ne!(op.is_posted(), op.expects_response());
        }
        assert!(Opcode::WritePosted.is_posted());
        assert!(Opcode::Broadcast.is_posted());
        assert!(Opcode::Write.expects_response());
    }

    #[test]
    fn plain_drops_synchronisation_and_keeps_direction() {
        for op in Opcode::ALL {
            let plain = op.plain();
            assert_eq!(plain.is_read(), op.is_read(), "{op}");
            assert_eq!(plain.expects_response(), op.expects_response(), "{op}");
            assert!(!plain.is_exclusive() && !plain.is_locking(), "{op}");
            assert_eq!(plain.plain(), plain, "{op}: idempotent");
        }
        assert_eq!(Opcode::WritePosted.plain(), Opcode::WritePosted);
    }

    #[test]
    fn locking_and_exclusive_are_disjoint() {
        for op in Opcode::ALL {
            assert!(
                !(op.is_locking() && op.is_exclusive()),
                "{op} cannot be both legacy-locking and exclusive"
            );
        }
    }

    #[test]
    fn opcode_encoding_round_trips() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::decode(op.encode()), Some(op));
        }
        assert_eq!(Opcode::decode(0xF), None);
    }

    #[test]
    fn exclusive_family_membership() {
        assert!(Opcode::ReadExclusive.is_exclusive());
        assert!(Opcode::WriteExclusive.is_exclusive());
        assert!(Opcode::ReadLinked.is_exclusive());
        assert!(Opcode::WriteConditional.is_exclusive());
        assert!(!Opcode::Read.is_exclusive());
        assert!(!Opcode::ReadLocked.is_exclusive());
    }

    #[test]
    fn resp_status_classification() {
        assert!(RespStatus::Okay.is_ok());
        assert!(RespStatus::ExOkay.is_ok());
        assert!(RespStatus::ExFail.is_err());
        assert!(RespStatus::SlvErr.is_err());
        assert!(RespStatus::DecErr.is_err());
    }

    #[test]
    fn resp_status_encoding_round_trips() {
        for s in [
            RespStatus::Okay,
            RespStatus::ExOkay,
            RespStatus::ExFail,
            RespStatus::SlvErr,
            RespStatus::DecErr,
        ] {
            assert_eq!(RespStatus::decode(s.encode()), Some(s));
        }
        assert_eq!(RespStatus::decode(7), None);
    }

    #[test]
    fn displays_are_short_mnemonics() {
        assert_eq!(Opcode::Read.to_string(), "RD");
        assert_eq!(Opcode::WriteConditional.to_string(), "WRC");
        assert_eq!(RespStatus::DecErr.to_string(), "DECERR");
    }

    #[test]
    fn default_status_is_okay() {
        assert_eq!(RespStatus::default(), RespStatus::Okay);
    }
}
