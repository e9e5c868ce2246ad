//! Synchronisation state machines: the exclusive-access monitor (modern,
//! non-blocking) and the lock arbiter (legacy, blocking).
//!
//! Paper §3: OCP "lazy synchronisation" and AXI "exclusive access"
//! implement non-blocking synchronisation between masters, unlike the older
//! `READEX`/`LOCK` transactions. In the NoC, the legacy pair impacts the
//! *transport* level (switches pin paths), while the modern pair needs only
//! one user-defined packet bit plus *state information in the NIU* — this
//! module is that state.

use crate::node::MstAddr;
use std::fmt;

/// Result of an exclusive-write / write-conditional attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExclusiveOutcome {
    /// The reservation held: the write was performed ([`crate::RespStatus::ExOkay`]).
    Success,
    /// The reservation was lost: the write was *not* performed
    /// ([`crate::RespStatus::ExFail`] / plain `OKAY` on AXI).
    Fail,
}

impl ExclusiveOutcome {
    /// `true` on success.
    pub const fn is_success(self) -> bool {
        matches!(self, ExclusiveOutcome::Success)
    }
}

impl fmt::Display for ExclusiveOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExclusiveOutcome::Success => write!(f, "EXOKAY"),
            ExclusiveOutcome::Fail => write!(f, "EXFAIL"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reservation {
    master: MstAddr,
    granule: u64,
}

/// A target-NIU exclusive monitor in the style of the AXI exclusive
/// monitor / OCP synchronisation state.
///
/// The monitor tracks, per master, one reserved address granule. An
/// exclusive read (or read-linked) *arms* a reservation; an exclusive
/// write (or write-conditional) *succeeds* only if the master's
/// reservation on that granule is still intact. Any ordinary write —
/// from anyone — to a reserved granule clears the reservations covering
/// it, as does a successful exclusive write from another master.
///
/// Capacity is bounded (`max_reservations`): the oldest reservation is
/// evicted when full, which is safe (an evicted master simply fails its
/// exclusive write and retries) and keeps NIU state — and hence gate
/// count — fixed.
///
/// # Examples
///
/// ```
/// use noc_transaction::{ExclusiveMonitor, ExclusiveOutcome, MstAddr};
/// let mut mon = ExclusiveMonitor::new(64, 4);
/// let a = MstAddr::new(0);
/// let b = MstAddr::new(1);
/// mon.arm(a, 0x1000);
/// mon.arm(b, 0x1000);
/// // B steals the semaphore first:
/// assert_eq!(mon.try_exclusive_write(b, 0x1000), ExclusiveOutcome::Success);
/// // A's reservation was broken by B's winning write:
/// assert_eq!(mon.try_exclusive_write(a, 0x1000), ExclusiveOutcome::Fail);
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

    fn granule(&self, addr: u64) -> u64 {
        addr & !(self.granule_bytes - 1)
    }

    /// Arms (or re-arms) `master`'s reservation at `addr`'s granule.
    /// Called on `ReadExclusive` / `ReadLinked`.
    pub fn arm(&mut self, master: MstAddr, addr: u64) {
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

    /// Attempts an exclusive write / write-conditional by `master` at
    /// `addr`. On success the write proceeds and *all* reservations on the
    /// granule (including other masters') are cleared; on failure nothing
    /// changes except the failure count.
    pub fn try_exclusive_write(&mut self, master: MstAddr, addr: u64) -> ExclusiveOutcome {
        if self.is_armed(master, addr) {
            let granule = self.granule(addr);
            self.reservations.retain(|r| r.granule != granule);
            self.successes += 1;
            ExclusiveOutcome::Success
        } else {
            self.failures += 1;
            ExclusiveOutcome::Fail
        }
    }

    /// Observes an ordinary (non-exclusive) write at `addr`, clearing any
    /// reservation on its granule. Reads never clear reservations.
    pub fn observe_write(&mut self, addr: u64) {
        let granule = self.granule(addr);
        self.reservations.retain(|r| r.granule != granule);
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

    fn m(n: u16) -> MstAddr {
        MstAddr::new(n)
    }

    #[test]
    fn arm_then_succeed() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        mon.arm(m(0), 0x100);
        assert!(mon.is_armed(m(0), 0x100));
        assert_eq!(
            mon.try_exclusive_write(m(0), 0x100),
            ExclusiveOutcome::Success
        );
        // consumed
        assert!(!mon.is_armed(m(0), 0x100));
        assert_eq!(mon.successes(), 1);
    }

    #[test]
    fn unarmed_write_fails() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        assert_eq!(mon.try_exclusive_write(m(0), 0x100), ExclusiveOutcome::Fail);
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
        mon.observe_write(0x120); // same granule
        assert_eq!(mon.try_exclusive_write(m(0), 0x100), ExclusiveOutcome::Fail);
    }

    #[test]
    fn write_to_other_granule_preserves_reservation() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        mon.arm(m(0), 0x100);
        mon.observe_write(0x200);
        assert_eq!(
            mon.try_exclusive_write(m(0), 0x100),
            ExclusiveOutcome::Success
        );
    }

    #[test]
    fn winning_exclusive_breaks_competitors() {
        let mut mon = ExclusiveMonitor::new(64, 4);
        mon.arm(m(0), 0x40);
        mon.arm(m(1), 0x40);
        assert_eq!(
            mon.try_exclusive_write(m(1), 0x40),
            ExclusiveOutcome::Success
        );
        assert_eq!(mon.try_exclusive_write(m(0), 0x40), ExclusiveOutcome::Fail);
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

    #[test]
    fn outcome_display_and_predicate() {
        assert!(ExclusiveOutcome::Success.is_success());
        assert!(!ExclusiveOutcome::Fail.is_success());
        assert_eq!(ExclusiveOutcome::Success.to_string(), "EXOKAY");
    }
}
