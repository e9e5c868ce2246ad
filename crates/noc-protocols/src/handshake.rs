//! Handshake channels modelling valid/ready socket wiring.

use std::fmt;

/// A one-slot register standing in for an unregistered valid/ready
/// handshake bundle: valid while it holds an item, ready while it does
/// not.
///
/// A producer [`Chan::offer`]s an item when the channel is ready; the
/// consumer [`Chan::take`]s it.
///
/// # Examples
///
/// ```
/// use noc_protocols::Chan;
/// let mut ch: Chan<u32> = Chan::new();
/// assert_eq!(ch.offer(7), Ok(()));
/// assert_eq!(ch.offer(8), Err(8)); // back-pressure: the item comes back
/// assert_eq!(ch.take(), Some(7));
/// assert_eq!(ch.offer(8), Ok(()));
/// ```
#[derive(Debug, Clone)]
pub struct Chan<T>(Option<T>);

impl<T> Chan<T> {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Chan(None)
    }

    /// Returns `true` while the channel can accept an item (ready).
    pub fn ready(&self) -> bool {
        self.0.is_none()
    }

    /// Offers an item.
    ///
    /// # Errors
    ///
    /// Hands the item back when the channel still holds one: the
    /// producer keeps it and retries.
    pub fn offer(&mut self, item: T) -> Result<(), T> {
        if self.0.is_some() {
            return Err(item);
        }
        self.0 = Some(item);
        Ok(())
    }

    /// Takes the item.
    pub fn take(&mut self) -> Option<T> {
        self.0.take()
    }

    /// Peeks at the item.
    pub fn peek(&self) -> Option<&T> {
        self.0.as_ref()
    }

    /// Returns `true` when the channel holds nothing (valid is low).
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

impl<T> Default for Chan<T> {
    fn default() -> Self {
        Chan::new()
    }
}

impl<T> fmt::Display for Chan<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.ready() {
            "chan ready"
        } else {
            "chan valid"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offer_take_fifo() {
        let mut ch = Chan::new();
        assert_eq!(ch.offer(1), Ok(()));
        assert_eq!(ch.offer(2), Err(2), "a refused item is handed back");
        assert_eq!(ch.take(), Some(1));
        assert_eq!(ch.offer(2), Ok(()));
        assert_eq!(ch.take(), Some(2));
        assert_eq!(ch.take(), None);
    }

    #[test]
    fn valid_ready_flags() {
        let mut ch: Chan<u8> = Chan::new();
        assert!(ch.ready());
        assert!(ch.is_empty());
        ch.offer(9).unwrap();
        assert!(!ch.ready());
        assert!(!ch.is_empty());
    }

    #[test]
    fn peek_non_destructive() {
        let mut ch = Chan::new();
        ch.offer(5u8).unwrap();
        assert_eq!(ch.peek(), Some(&5));
        assert!(!ch.is_empty());
    }

    #[test]
    fn display() {
        let mut ch: Chan<u8> = Chan::new();
        assert_eq!(ch.to_string(), "chan ready");
        ch.offer(1).unwrap();
        assert_eq!(ch.to_string(), "chan valid");
    }
}
