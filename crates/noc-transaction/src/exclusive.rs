//! Synchronisation state machines: the exclusive-access monitor (modern,
//! non-blocking) and the lock arbiter (legacy, blocking).
//!
//! Paper §3: OCP "lazy synchronisation" and AXI "exclusive access"
//! implement non-blocking synchronisation between masters, unlike the older
//! `READEX`/`LOCK` transactions. In the NoC, the legacy pair impacts the
//! *transport* level (switches pin paths), while the modern pair needs only
//! one user-defined packet bit plus *state information in the NIU* — this
//! module is that state, and [`ExclusiveMonitor::admit`] its one rule:
//! the NoC's target NIU, the shared bus, the bridged crossbar and the
//! loopback slave all decide exclusive outcomes through it.

use crate::{Burst, MstAddr, Opcode};
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reservation {
    master: MstAddr,
    granule: u64,
}

/// A target's exclusive monitor in the style of the AXI exclusive
/// monitor / OCP synchronisation state, holding the one synchronisation
/// rule every target applies through [`ExclusiveMonitor::admit`]:
///
/// - an exclusive or linked read *arms* its master's reservation on the
///   granule of its address;
/// - an exclusive or conditional write *tries* it: the write is admitted
///   only while that master's reservation on its address's granule is
///   intact, and a refused write touches nothing;
/// - every admitted write, a won exclusive write included, clears the
///   reservations of every master on every granule it writes;
/// - reads, locked reads included, leave reservations alone.
///
/// [`Opcode::served`] then names the answer: an admitted exclusive
/// access is upgraded from `OKAY` to `EXOKAY`.
///
/// Capacity is bounded (`max_reservations`): the oldest reservation is
/// evicted when full, which is safe (an evicted master simply fails its
/// exclusive write and retries) and keeps NIU state — and hence gate
/// count — fixed.
///
/// # Examples
///
/// ```
/// use noc_transaction::{Burst, ExclusiveMonitor, MstAddr, Opcode};
/// let mut mon = ExclusiveMonitor::new(64, 4);
/// let (a, b) = (MstAddr::new(0), MstAddr::new(1));
/// let word = Burst::incr(1, 4)?;
/// mon.admit(a, Opcode::ReadExclusive, 0x1000, word);
/// mon.admit(b, Opcode::ReadExclusive, 0x1000, word);
/// // B steals the semaphore first:
/// assert!(mon.admit(b, Opcode::WriteExclusive, 0x1000, word));
/// // A's reservation was broken by B's winning write: A is answered
/// // EXFAIL and its write never reaches storage.
/// assert!(!mon.admit(a, Opcode::WriteExclusive, 0x1000, word));
/// # Ok::<(), noc_transaction::BurstError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExclusiveMonitor {
    granule_bytes: u64,
    max_reservations: usize,
    /// (slot age ordering maintained by Vec order: oldest first)
    reservations: Vec<Reservation>,
    successes: u64,
    failures: u64,
}

impl ExclusiveMonitor {
    /// Creates a monitor with the given reservation granule (power of two,
    /// e.g. 64 bytes — addresses are aligned down to it) and reservation
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `granule_bytes` is not a power of two or
    /// `max_reservations` is zero.
    pub fn new(granule_bytes: u64, max_reservations: usize) -> Self {
        assert!(
            granule_bytes.is_power_of_two(),
            "granule must be a power of two"
        );
        assert!(max_reservations > 0, "capacity must be non-zero");
        ExclusiveMonitor {
            granule_bytes,
            max_reservations,
            reservations: Vec::new(),
            successes: 0,
            failures: 0,
        }
    }

    /// Applies the rule to one request of `master`: arms on an exclusive
    /// or linked read, tries on an exclusive or conditional write, and
    /// clears the reservations under every beat of an admitted write.
    /// Returns `false` only for an exclusive or conditional write whose
    /// reservation is gone: the caller answers
    /// [`RespStatus::ExFail`](crate::RespStatus::ExFail) and touches no
    /// storage.
    #[inline]
    pub fn admit(&mut self, master: MstAddr, opcode: Opcode, addr: u64, burst: Burst) -> bool {
        match opcode {
            Opcode::ReadExclusive | Opcode::ReadLinked => self.arm(master, addr),
            Opcode::WriteExclusive | Opcode::WriteConditional
                if !self.try_exclusive_write(master, addr) =>
            {
                return false;
            }
            op if op.is_write() && !self.reservations.is_empty() => {
                let beat = u64::from(burst.beat_bytes());
                for a in burst.beat_addresses(addr) {
                    self.observe_write(a, beat);
                }
            }
            _ => {}
        }
        true
    }

    fn granule(&self, addr: u64) -> u64 {
        addr & !(self.granule_bytes - 1)
    }

    /// Arms (or re-arms) `master`'s reservation at `addr`'s granule.
    fn arm(&mut self, master: MstAddr, addr: u64) {
        let granule = self.granule(addr);
        // A master holds at most one reservation (AXI-style single monitor
        // per master): re-arming moves it.
        self.reservations.retain(|r| r.master != master);
        if self.reservations.len() == self.max_reservations {
            self.reservations.remove(0); // evict oldest
        }
        self.reservations.push(Reservation { master, granule });
    }

    /// Returns `true` if `master` currently holds a reservation covering
    /// `addr`.
    pub fn is_armed(&self, master: MstAddr, addr: u64) -> bool {
        let granule = self.granule(addr);
        self.reservations
            .iter()
            .any(|r| r.master == master && r.granule == granule)
    }

    /// Tries `master`'s reservation at `addr`: on success *all*
    /// reservations on the granule (including other masters') are
    /// cleared; on failure nothing changes except the failure count.
    fn try_exclusive_write(&mut self, master: MstAddr, addr: u64) -> bool {
        let armed = self.is_armed(master, addr);
        if armed {
            self.observe_write(addr, 1);
            self.successes += 1;
        } else {
            self.failures += 1;
        }
        armed
    }

    /// Clears every reservation on a granule that the `bytes` written
    /// from `addr` touch: a beat wider than a granule clears each granule
    /// it writes.
    fn observe_write(&mut self, addr: u64, bytes: u64) {
        let first = self.granule(addr);
        let last = self.granule(addr.saturating_add(bytes.max(1) - 1));
        self.reservations
            .retain(|r| r.granule < first || r.granule > last);
    }

    /// Successful exclusive writes observed.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Failed exclusive writes observed.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

/// Legacy blocking lock state at a target: at most one master owns the
/// lock; requests from others while locked must be stalled by the fabric
/// (that is the transport-layer impact the paper contrasts against the
/// exclusive service bit).
///
/// # Examples
///
/// ```
/// use noc_transaction::{LockArbiter, MstAddr};
/// let mut lock = LockArbiter::new();
/// assert!(lock.try_lock(MstAddr::new(0)));
/// assert!(!lock.try_lock(MstAddr::new(1)));   // B blocked
/// assert!(lock.try_lock(MstAddr::new(0)));    // re-entrant for owner
/// lock.unlock(MstAddr::new(0)).unwrap();
/// assert!(lock.try_lock(MstAddr::new(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LockArbiter {
    owner: Option<MstAddr>,
    lock_count: u64,
}

/// Error unlocking a lock not held by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotOwner {
    /// Who attempted the unlock.
    pub master: MstAddr,
    /// Actual owner, if any.
    pub owner: Option<MstAddr>,
}

impl fmt::Display for NotOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.owner {
            Some(o) => write!(f, "{} tried to unlock a lock owned by {o}", self.master),
            None => write!(f, "{} tried to unlock an unheld lock", self.master),
        }
    }
}

impl std::error::Error for NotOwner {}

impl LockArbiter {
    /// Creates an unheld lock.
    pub fn new() -> Self {
        LockArbiter::default()
    }

    /// Attempts to take (or re-enter) the lock for `master`. Returns
    /// `false` — the caller must stall — when another master holds it.
    pub fn try_lock(&mut self, master: MstAddr) -> bool {
        match self.owner {
            None => {
                self.owner = Some(master);
                self.lock_count += 1;
                true
            }
            Some(o) => o == master,
        }
    }

    /// Releases the lock.
    ///
    /// # Errors
    ///
    /// Returns [`NotOwner`] if `master` does not hold the lock.
    pub fn unlock(&mut self, master: MstAddr) -> Result<(), NotOwner> {
        match self.owner {
            Some(o) if o == master => {
                self.owner = None;
                Ok(())
            }
            owner => Err(NotOwner { master, owner }),
        }
    }

    /// Current owner, if locked.
    pub fn owner(&self) -> Option<MstAddr> {
        self.owner
    }

    /// Returns `true` while a master holds the lock.
    pub fn is_locked(&self) -> bool {
        self.owner.is_some()
    }

    /// Number of successful lock acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.lock_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RespStatus;

    fn m(n: u16) -> MstAddr {
        MstAddr::new(n)
    }

    #[test]
    fn arm_then_succeed() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        mon.arm(m(0), 0x100);
        assert!(mon.is_armed(m(0), 0x100));
        assert!(mon.try_exclusive_write(m(0), 0x100));
        // consumed
        assert!(!mon.is_armed(m(0), 0x100));
        assert_eq!(mon.successes(), 1);
    }

    #[test]
    fn a_wide_beat_clears_every_granule_it_writes() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        let (word, wide) = (Burst::incr(1, 4).unwrap(), Burst::incr(1, 128).unwrap());
        // One 128-byte beat at 0x0 writes the granules at 0x0 and 0x40.
        mon.admit(m(0), Opcode::ReadExclusive, 0x40, word);
        mon.admit(m(2), Opcode::ReadExclusive, 0x80, word);
        assert!(mon.admit(m(1), Opcode::Write, 0x0, wide));
        assert!(!mon.admit(m(0), Opcode::WriteExclusive, 0x40, word));
        assert!(mon.is_armed(m(2), 0x80), "0x80 lies past the beat");
        // A beat's address is aligned down to its width (0x5c → 0x0).
        mon.admit(m(0), Opcode::ReadExclusive, 0x40, word);
        assert!(mon.admit(m(1), Opcode::Write, 0x5c, wide));
        assert!(!mon.is_armed(m(0), 0x40) && mon.is_armed(m(2), 0x80));
    }

    #[test]
    fn unarmed_write_fails() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        assert!(!mon.try_exclusive_write(m(0), 0x100));
        assert_eq!(mon.failures(), 1);
    }

    #[test]
    fn granule_alignment_shares_reservation() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        mon.arm(m(0), 0x100);
        // same 64-byte granule
        assert!(mon.is_armed(m(0), 0x13F));
        // different granule
        assert!(!mon.is_armed(m(0), 0x140));
    }

    #[test]
    fn ordinary_write_breaks_reservation() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        mon.arm(m(0), 0x100);
        mon.observe_write(0x120, 4); // same granule
        assert!(!mon.try_exclusive_write(m(0), 0x100));
    }

    #[test]
    fn write_to_other_granule_preserves_reservation() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        mon.arm(m(0), 0x100);
        mon.observe_write(0x200, 4);
        assert!(mon.try_exclusive_write(m(0), 0x100));
    }

    #[test]
    fn winning_exclusive_breaks_competitors() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        mon.arm(m(0), 0x40);
        mon.arm(m(1), 0x40);
        assert!(mon.try_exclusive_write(m(1), 0x40));
        assert!(!mon.try_exclusive_write(m(0), 0x40));
    }

    #[test]
    fn one_reservation_per_master() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        mon.arm(m(0), 0x40);
        mon.arm(m(0), 0x80); // moves the reservation
        assert!(!mon.is_armed(m(0), 0x40));
        assert!(mon.is_armed(m(0), 0x80));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut mon = ExclusiveMonitor::new(64, 2);
        mon.arm(m(0), 0x0);
        mon.arm(m(1), 0x40);
        mon.arm(m(2), 0x80); // evicts m0
        assert!(!mon.is_armed(m(0), 0x0));
        assert!(mon.is_armed(m(1), 0x40));
        assert!(mon.is_armed(m(2), 0x80));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_granule_panics() {
        ExclusiveMonitor::new(48, 4);
    }

    #[test]
    fn lock_exclusion_and_reentry() {
        let mut lock = LockArbiter::new();
        assert!(!lock.is_locked());
        assert!(lock.try_lock(m(0)));
        assert!(lock.is_locked());
        assert_eq!(lock.owner(), Some(m(0)));
        assert!(lock.try_lock(m(0))); // re-entrant
        assert!(!lock.try_lock(m(1)));
        lock.unlock(m(0)).unwrap();
        assert!(lock.try_lock(m(1)));
        assert_eq!(lock.acquisitions(), 2);
    }

    #[test]
    fn unlock_by_non_owner_fails() {
        let mut lock = LockArbiter::new();
        lock.try_lock(m(0));
        let err = lock.unlock(m(1)).unwrap_err();
        assert_eq!(err.owner, Some(m(0)));
        assert!(err.to_string().contains("M1"));
        // still locked by m0
        assert_eq!(lock.owner(), Some(m(0)));
        let err2 = LockArbiter::new().unlock(m(2)).unwrap_err();
        assert_eq!(err2.owner, None);
    }

    /// The rule over every opcode: `a` (armed on granule 0x0) and `b`
    /// (armed on 0x40) hold reservations when a request covering both
    /// granules arrives, once from `a` and once from the unarmed `c`.
    #[test]
    fn admit_and_served_state_the_rule_for_every_opcode() {
        use Opcode::*;
        use RespStatus::{ExOkay, Okay};
        let (a, b, c) = (m(0), m(1), m(2));
        let two_granules = Burst::incr(4, 32).unwrap();
        // (opcode, served(OKAY), [a, b] armed after a's request,
        //  (admitted, b armed) after c's request)
        let table = [
            (Read, Okay, [true, true], (true, true)),
            (Write, Okay, [false, false], (true, false)),
            (WritePosted, Okay, [false, false], (true, false)),
            (ReadExclusive, ExOkay, [true, true], (true, true)),
            (WriteExclusive, ExOkay, [false, false], (false, true)),
            (ReadLinked, ExOkay, [true, true], (true, true)),
            (WriteConditional, ExOkay, [false, false], (false, true)),
            (ReadLocked, Okay, [true, true], (true, true)),
            (WriteUnlock, Okay, [false, false], (true, false)),
            (Broadcast, Okay, [false, false], (true, false)),
        ];
        assert_eq!(table.map(|row| row.0), Opcode::ALL);
        for (op, served, armed_after_a, (admitted_c, b_after_c)) in table {
            let armed = || {
                let mut mon = ExclusiveMonitor::new(64, 4);
                mon.arm(a, 0x0);
                mon.arm(b, 0x40);
                mon
            };
            let mut mon = armed();
            assert!(mon.admit(a, op, 0x0, two_granules), "{op} from a");
            assert_eq!(
                [mon.is_armed(a, 0x0), mon.is_armed(b, 0x40)],
                armed_after_a,
                "{op} from a"
            );
            let mut mon = armed();
            assert_eq!(
                mon.admit(c, op, 0x0, two_granules),
                admitted_c,
                "{op} from c"
            );
            assert_eq!(mon.is_armed(b, 0x40), b_after_c, "{op} from c");
            assert_eq!(
                mon.is_armed(a, 0x0),
                !op.is_write() || !admitted_c,
                "{op} from c"
            );
            assert_eq!(op.served(Okay), served, "{op}");
            for other in [
                ExOkay,
                RespStatus::ExFail,
                RespStatus::SlvErr,
                RespStatus::DecErr,
            ] {
                assert_eq!(op.served(other), other, "{op} passes {other:?} through");
            }
        }
    }
}
