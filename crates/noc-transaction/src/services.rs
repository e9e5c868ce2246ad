//! "NoC services": optional user-defined packet bits.
//!
//! Paper §3 closes with the observation that AXI/OCP exclusive access
//! *"only requires adding a single user-defined bit in the packets, and
//! state information in the NIU. This optional packet bit becomes simply
//! part of a family of similar 'NoC services' that can be activated in a
//! particular NoC configuration."*
//!
//! [`ServiceBits`] is that family: a 16-bit field of optional flags rider
//! on every packet. [`ServiceConfig`] describes which services a given NoC
//! instance activates, and therefore how many header bits the packet
//! format actually spends — the transport layer carries the field opaquely
//! either way.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// A set of optional per-packet service flags.
///
/// # Examples
///
/// ```
/// use noc_transaction::ServiceBits;
/// let s = ServiceBits::EXCLUSIVE | ServiceBits::SECURE;
/// assert!(s.contains(ServiceBits::EXCLUSIVE));
/// assert!(!s.contains(ServiceBits::LOCKED));
/// assert_eq!(s.bits().count_ones(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ServiceBits(u16);

impl ServiceBits {
    /// No services.
    pub const NONE: ServiceBits = ServiceBits(0);
    /// The exclusive-access bit (AXI exclusive / OCP lazy sync). One bit,
    /// NIU state only — no transport impact (paper §3).
    pub const EXCLUSIVE: ServiceBits = ServiceBits(1 << 0);
    /// Legacy lock indication (READEX/LOCK). Transport-visible: switches
    /// pin paths while a locked sequence is in flight.
    pub const LOCKED: ServiceBits = ServiceBits(1 << 1);
    /// Secure-world indication (TrustZone-style filtering at target NIUs).
    pub const SECURE: ServiceBits = ServiceBits(1 << 2);
    /// Posted-write indication (no socket-level response).
    pub const POSTED: ServiceBits = ServiceBits(1 << 3);
    /// First user-defined bit available to socket-specific features.
    pub const USER0: ServiceBits = ServiceBits(1 << 8);
    /// Second user-defined bit.
    pub const USER1: ServiceBits = ServiceBits(1 << 9);

    /// Builds a set from raw bits.
    pub const fn from_bits(bits: u16) -> Self {
        ServiceBits(bits)
    }

    /// Raw bit representation (as carried in the packet header).
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Returns `true` if every bit of `other` is set in `self`.
    pub const fn contains(self, other: ServiceBits) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if no bits are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[must_use]
    pub const fn union(self, other: ServiceBits) -> ServiceBits {
        ServiceBits(self.0 | other.0)
    }

    /// Removes the bits of `other`.
    #[must_use]
    pub const fn without(self, other: ServiceBits) -> ServiceBits {
        ServiceBits(self.0 & !other.0)
    }
}

impl BitOr for ServiceBits {
    type Output = ServiceBits;
    fn bitor(self, rhs: ServiceBits) -> ServiceBits {
        self.union(rhs)
    }
}

impl BitOrAssign for ServiceBits {
    fn bitor_assign(&mut self, rhs: ServiceBits) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for ServiceBits {
    type Output = ServiceBits;
    fn bitand(self, rhs: ServiceBits) -> ServiceBits {
        ServiceBits(self.0 & rhs.0)
    }
}

impl fmt::Display for ServiceBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "none");
        }
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if !first {
                write!(f, "+")?;
            }
            first = false;
            f.write_str(s)
        };
        if self.contains(ServiceBits::EXCLUSIVE) {
            put(f, "excl")?;
        }
        if self.contains(ServiceBits::LOCKED) {
            put(f, "lock")?;
        }
        if self.contains(ServiceBits::SECURE) {
            put(f, "secure")?;
        }
        if self.contains(ServiceBits::POSTED) {
            put(f, "posted")?;
        }
        if self.contains(ServiceBits::USER0) {
            put(f, "user0")?;
        }
        if self.contains(ServiceBits::USER1) {
            put(f, "user1")?;
        }
        Ok(())
    }
}

/// Which services a NoC instance activates, and hence how many optional
/// header bits its packet format carries.
///
/// Activating a service widens packets by its bit cost but never touches
/// switch logic (except `LOCKED`, whose *semantics* involve transport —
/// the bit itself is still just a bit).
///
/// # Examples
///
/// ```
/// use noc_transaction::{ServiceBits, ServiceConfig};
/// let cfg = ServiceConfig::new()
///     .enable(ServiceBits::EXCLUSIVE)
///     .enable(ServiceBits::SECURE);
/// assert_eq!(cfg.header_bits(), 2);
/// assert!(cfg.enabled().contains(ServiceBits::EXCLUSIVE));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceConfig {
    enabled: ServiceBits,
}

impl ServiceConfig {
    /// A configuration with no optional services.
    pub fn new() -> Self {
        ServiceConfig::default()
    }

    /// Enables a service (builder style).
    #[must_use]
    pub fn enable(mut self, service: ServiceBits) -> Self {
        self.enabled |= service;
        self
    }

    /// The enabled set.
    pub fn enabled(self) -> ServiceBits {
        self.enabled
    }

    /// Number of optional header bits this configuration spends.
    pub fn header_bits(self) -> u32 {
        self.enabled.bits().count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_algebra() {
        let s = ServiceBits::EXCLUSIVE | ServiceBits::POSTED;
        assert!(s.contains(ServiceBits::EXCLUSIVE));
        assert!(s.contains(ServiceBits::POSTED));
        assert!(!s.contains(ServiceBits::SECURE));
        assert_eq!(s.without(ServiceBits::POSTED), ServiceBits::EXCLUSIVE);
        assert_eq!(s & ServiceBits::EXCLUSIVE, ServiceBits::EXCLUSIVE);
        assert!((s & ServiceBits::SECURE).is_empty());
    }

    #[test]
    fn bitor_assign() {
        let mut s = ServiceBits::NONE;
        s |= ServiceBits::LOCKED;
        assert!(s.contains(ServiceBits::LOCKED));
    }

    #[test]
    fn from_bits_round_trip() {
        let s = ServiceBits::from_bits(0x0103);
        assert!(s.contains(ServiceBits::EXCLUSIVE));
        assert!(s.contains(ServiceBits::LOCKED));
        assert!(s.contains(ServiceBits::USER0));
        assert_eq!(s.bits(), 0x0103);
    }

    #[test]
    fn config_header_bit_accounting() {
        let cfg = ServiceConfig::new();
        assert_eq!(cfg.header_bits(), 0);
        let cfg = cfg.enable(ServiceBits::EXCLUSIVE);
        assert_eq!(cfg.header_bits(), 1);
        let cfg = cfg.enable(ServiceBits::SECURE).enable(ServiceBits::USER0);
        assert_eq!(cfg.header_bits(), 3);
        // re-enabling is idempotent
        let cfg = cfg.enable(ServiceBits::SECURE);
        assert_eq!(cfg.header_bits(), 3);
    }

    #[test]
    fn display_lists_flags() {
        assert_eq!(ServiceBits::NONE.to_string(), "none");
        let s = ServiceBits::EXCLUSIVE | ServiceBits::USER1;
        assert_eq!(s.to_string(), "excl+user1");
    }
}
