//! The configurable physical link.
//!
//! The link model is one record, [`LinkState`], whose methods carry the
//! timing arithmetic (serialisation, pipeline, CDC alignment, FIFO order,
//! one delivery per destination edge) exactly once. Its in-flight items
//! sit in a [`Slab`] the caller passes in, and its [`LinkConfig`] too: a
//! fabric keeps thousands of these records in one array over one shared
//! slab, and [`Link`] is the same record owning its configuration, a
//! slab and its delivery counters.

use noc_kernel::{Queue, Slab};
use std::fmt;

/// Physical parameters of a link.
///
/// Divisors follow the base-clock convention of `noc_kernel::ClockDomain`:
/// the source endpoint ticks on base cycles divisible by `src_divisor`,
/// the destination on those divisible by `dst_divisor`. Equal divisors
/// mean a synchronous link (no CDC penalty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkConfig {
    /// Phits (physical transfer units) per flit: 1 = full-width link,
    /// 2 = half-width (two cycles of occupancy per flit), etc.
    pub phits_per_flit: u32,
    /// Pipeline register stages along the wire (source-clock cycles of
    /// extra latency, zero occupancy cost).
    pub pipeline: u32,
    /// Source clock divisor (≥ 1).
    pub src_divisor: u64,
    /// Destination clock divisor (≥ 1).
    pub dst_divisor: u64,
    /// Synchroniser depth for asynchronous crossings, in destination
    /// cycles. Ignored when the divisors are equal.
    pub cdc_latency: u32,
    /// Maximum flits in flight (wire + synchroniser capacity).
    pub capacity: usize,
}

impl LinkConfig {
    /// A full-width, unpipelined, synchronous base-clock link.
    pub fn new() -> Self {
        LinkConfig {
            phits_per_flit: 1,
            pipeline: 0,
            src_divisor: 1,
            dst_divisor: 1,
            cdc_latency: 2,
            capacity: 16,
        }
    }

    /// Sets the serialisation ratio.
    ///
    /// # Panics
    ///
    /// Panics if `phits` is zero.
    #[must_use]
    pub fn with_phits_per_flit(mut self, phits: u32) -> Self {
        assert!(phits > 0, "phits per flit must be non-zero");
        self.phits_per_flit = phits;
        self
    }

    /// Sets the pipeline depth.
    #[must_use]
    pub fn with_pipeline(mut self, stages: u32) -> Self {
        self.pipeline = stages;
        self
    }

    /// Sets the synchroniser depth.
    #[must_use]
    pub fn with_cdc_latency(mut self, stages: u32) -> Self {
        self.cdc_latency = stages;
        self
    }

    /// Sets the in-flight capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        self.capacity = capacity;
        self
    }

    /// Returns `true` when the endpoints run on different clocks.
    pub fn is_asynchronous(&self) -> bool {
        self.src_divisor != self.dst_divisor
    }

    /// Returns `true` when every item sent on a link of this class
    /// arrives exactly one base cycle later: one phit, no pipeline stage,
    /// the base clock at both ends — and room in flight for the item sent
    /// on the cycle before, which a receiver ticked after its sender may
    /// not have taken yet, so a capacity bound never refuses an item
    /// either. Such a link needs no in-flight queue: its owner hands an
    /// item straight to the receiver, stamped with its arrival (see
    /// [`LinkState::pass`]).
    pub fn is_one_cycle(&self) -> bool {
        self.phits_per_flit == 1
            && self.pipeline == 0
            && self.src_divisor == 1
            && self.dst_divisor == 1
            && self.capacity >= 2
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::new()
    }
}

impl fmt::Display for LinkConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "link 1/{} width, {} stages, clk/{}→clk/{}",
            self.phits_per_flit, self.pipeline, self.src_divisor, self.dst_divisor
        )
    }
}

/// Error: the link cannot accept a flit right now (serialiser busy or
/// capacity reached). Back-pressure, not failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFull {
    /// The earliest base cycle at which the link can take an item: when
    /// its serialiser frees up and, on a link at its in-flight capacity,
    /// no earlier than its oldest item's arrival, whose delivery frees a
    /// slot.
    pub retry_at: u64,
}

impl fmt::Display for LinkFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link busy, retry at base cycle {}", self.retry_at)
    }
}

impl std::error::Error for LinkFull {}

/// `LinkState::last_delivery` before the first delivery.
const NEVER: u64 = u64::MAX;

/// Returns `true` when base cycle `cycle` is an edge of a clock of
/// `divisor`. Most links run on the base clock on both ends, so that case
/// skips the 64-bit division, which a send and a delivery would otherwise
/// each pay.
#[inline(always)]
fn on_edge(cycle: u64, divisor: u64) -> bool {
    divisor == 1 || cycle.is_multiple_of(divisor)
}

/// One link's state as a plain record: when its serialiser frees up, its
/// last delivery, its *class* — the owner's index of the [`LinkConfig`]
/// it runs on — and the [`Queue`] of its in-flight items in a [`Slab`]
/// that the record's owner keeps, each item stamped with its arrival
/// cycle. The configuration is passed in, so a fabric of thousands of
/// links keeps one configuration per class and one slab for every item
/// it holds, and building or cloning it costs no heap object per link.
/// Counting deliveries and latencies is the owner's business too
/// ([`LinkState::send`] returns each item's latency): a fabric keeps one
/// total for all its links, and every byte here is copied by every fork.
///
/// This is the link model: [`Link`] is a record, a configuration, a slab
/// and two counters of its own, and every method forwards here.
#[derive(Debug, Clone, Copy)]
pub struct LinkState {
    busy_until: u64,
    /// The last base cycle [`LinkState::deliver`] handed out an item, or
    /// `NEVER`.
    last_delivery: u64,
    in_flight: Queue,
    class: u32,
}

impl LinkState {
    /// An idle link of class `class`.
    pub fn new(class: u32) -> Self {
        LinkState {
            busy_until: 0,
            last_delivery: NEVER,
            in_flight: Queue::default(),
            class,
        }
    }

    /// The owner's index of this link's configuration.
    pub fn class(&self) -> u32 {
        self.class
    }

    /// Returns `true` if an item can be accepted at base cycle `now`
    /// (which must be a source-clock edge for the send itself).
    pub fn can_send(&self, config: &LinkConfig, now: u64) -> bool {
        now >= self.busy_until && self.in_flight.len() < config.capacity
    }

    /// Number of items currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Sends `item` at base cycle `now`, queueing it in `slab`, and
    /// returns its latency: the base cycles from `now` to its arrival.
    ///
    /// # Errors
    ///
    /// Returns [`LinkFull`] when the serialiser is occupied or the wire is
    /// at capacity.
    ///
    /// # Panics
    ///
    /// Panics if `now` is not a source-clock edge — the caller drives the
    /// link from its clock domain, so this is a wiring bug.
    pub fn send<T>(
        &mut self,
        config: &LinkConfig,
        slab: &mut Slab<T>,
        item: T,
        now: u64,
    ) -> Result<u64, LinkFull> {
        assert!(
            on_edge(now, config.src_divisor),
            "send must occur on a source clock edge"
        );
        if !self.can_send(config, now) {
            let mut retry_at = self.busy_until;
            if self.in_flight.len() >= config.capacity {
                let front = slab
                    .front_stamp(&self.in_flight)
                    .expect("a full link holds items");
                retry_at = retry_at.max(front);
            }
            return Err(LinkFull { retry_at });
        }
        let ser = config.phits_per_flit as u64 * config.src_divisor;
        let pipe = config.pipeline as u64 * config.src_divisor;
        self.busy_until = now + ser;
        let mut arrival = now + ser + pipe;
        if config.is_asynchronous() {
            arrival += config.cdc_latency as u64 * config.dst_divisor;
        }
        // Align to the next destination clock edge at or after arrival.
        if !on_edge(arrival, config.dst_divisor) {
            arrival += config.dst_divisor - arrival % config.dst_divisor;
        }
        // FIFO: never deliver before the previously queued item.
        if let Some(prev) = slab.back_stamp(&self.in_flight) {
            arrival = arrival.max(prev + config.dst_divisor);
        }
        slab.push(&mut self.in_flight, arrival, item);
        Ok(arrival - now)
    }

    /// Sends an item at base cycle `now` on a link whose class is
    /// one-cycle ([`LinkConfig::is_one_cycle`]) without queueing it, and
    /// returns its arrival, `now + 1`: the caller hands the item to the
    /// receiver stamped with that cycle. The serialiser rule still holds —
    /// the link takes nothing more this cycle — and the item is the same
    /// as one [`LinkState::send`] queues and [`LinkState::deliver`] hands
    /// out at the returned cycle.
    #[inline]
    pub fn pass(&mut self, config: &LinkConfig, now: u64) -> u64 {
        debug_assert!(config.is_one_cycle() && self.in_flight.is_empty());
        debug_assert!(self.can_send(config, now), "can_send checked");
        self.busy_until = now + 1;
        now + 1
    }

    /// Delivers the next item from `slab` if one has arrived by base
    /// cycle `now`. At most one item per destination-clock edge.
    pub fn deliver<T>(&mut self, config: &LinkConfig, slab: &mut Slab<T>, now: u64) -> Option<T> {
        if !on_edge(now, config.dst_divisor) || self.last_delivery == now {
            return None;
        }
        if slab.front_stamp(&self.in_flight)? > now {
            return None;
        }
        let (_, item) = slab.pop(&mut self.in_flight).expect("front exists");
        self.last_delivery = now;
        Some(item)
    }
}

/// A unidirectional physical link carrying items of type `T` (flits — the
/// link is payload-agnostic, underscoring layer independence).
///
/// Items are delivered in FIFO order; [`Link::deliver`] returns at most one
/// item per destination-clock edge. A `Link` is a [`LinkState`] that owns
/// its configuration, a slab and its delivery counters; a fabric keeps
/// the same records over one shared slab instead.
#[derive(Debug, Clone)]
pub struct Link<T> {
    config: LinkConfig,
    state: LinkState,
    slab: Slab<T>,
    delivered: u64,
    /// Latencies of every item sent so far.
    total_latency: u64,
}

impl<T> Link<T> {
    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            state: LinkState::new(0),
            slab: Slab::new(),
            delivered: 0,
            total_latency: 0,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Returns `true` if a flit can be accepted at base cycle `now`
    /// (which must be a source-clock edge for the send itself).
    pub fn can_send(&self, now: u64) -> bool {
        self.state.can_send(&self.config, now)
    }

    /// Number of flits currently in flight.
    pub fn in_flight(&self) -> usize {
        self.state.in_flight()
    }

    /// Flits delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Mean delivery latency in base cycles (0 when nothing delivered).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Sends a flit at base cycle `now` (see [`LinkState::send`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinkFull`] when the serialiser is occupied or the wire is
    /// at capacity.
    ///
    /// # Panics
    ///
    /// Panics if `now` is not a source-clock edge.
    pub fn send(&mut self, item: T, now: u64) -> Result<(), LinkFull> {
        let latency = self.state.send(&self.config, &mut self.slab, item, now)?;
        self.total_latency += latency;
        Ok(())
    }

    /// Delivers the next flit if one has arrived by base cycle `now`.
    /// At most one flit per destination-clock edge.
    pub fn deliver(&mut self, now: u64) -> Option<T> {
        let item = self.state.deliver(&self.config, &mut self.slab, now)?;
        self.delivered += 1;
        Some(item)
    }
}

impl<T> fmt::Display for Link<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} in flight, {} delivered]",
            self.config,
            self.in_flight(),
            self.delivered()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A default link between endpoints on the given clock divisors.
    fn clocks(src_divisor: u64, dst_divisor: u64) -> LinkConfig {
        LinkConfig {
            src_divisor,
            dst_divisor,
            ..LinkConfig::new()
        }
    }

    #[test]
    fn full_width_synchronous_latency_one() {
        let mut link: Link<u8> = Link::new(LinkConfig::new());
        link.send(1, 0).unwrap();
        assert_eq!(link.deliver(0), None);
        assert_eq!(link.deliver(1), Some(1));
    }

    #[test]
    fn serialisation_occupies_link() {
        let cfg = LinkConfig::new().with_phits_per_flit(4);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(1, 0).unwrap();
        // serialiser busy for 4 cycles
        assert!(!link.can_send(1));
        assert_eq!(link.send(2, 0).unwrap_err(), LinkFull { retry_at: 4 });
        assert!(link.can_send(4));
        link.send(2, 4).unwrap();
        assert_eq!(link.deliver(4), Some(1));
        assert_eq!(link.deliver(8), Some(2));
    }

    #[test]
    fn pipeline_adds_pure_latency() {
        let cfg = LinkConfig::new().with_pipeline(3);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(7, 0).unwrap();
        // occupancy is still 1 cycle: next send allowed at cycle 1
        assert!(link.can_send(1));
        assert_eq!(link.deliver(3), None);
        assert_eq!(link.deliver(4), Some(7));
        // zero-load latency: 1 (serialisation) + 3 (pipeline)
        assert!((link.mean_latency() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_full_width_is_one_per_cycle() {
        let mut link: Link<u64> = Link::new(LinkConfig::new());
        let mut received = Vec::new();
        for now in 0..20u64 {
            if link.can_send(now) {
                link.send(now, now).unwrap();
            }
            if let Some(v) = link.deliver(now) {
                received.push(v);
            }
        }
        assert!(received.len() >= 18, "got {}", received.len());
        // FIFO order
        assert!(received.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn half_width_halves_throughput() {
        let cfg = LinkConfig::new().with_phits_per_flit(2);
        let mut link: Link<u64> = Link::new(cfg);
        let mut sent = 0u32;
        for now in 0..40u64 {
            if link.can_send(now) {
                link.send(now, now).unwrap();
                sent += 1;
            }
            let _ = link.deliver(now);
        }
        assert_eq!(sent, 20);
    }

    #[test]
    fn cdc_crossing_aligns_to_destination_clock() {
        // src at base rate, dst at /3, 2-stage synchroniser
        let cfg = clocks(1, 3).with_cdc_latency(2);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(9, 0).unwrap();
        // arrival = 0 + 1 (ser) + 0 + 6 (cdc: 2*3) = 7 → aligned up to 9
        assert_eq!(first_delivery(&mut link, 0..20), Some((9, 9)));
    }

    #[test]
    fn slow_to_fast_crossing() {
        let cfg = clocks(4, 1).with_cdc_latency(2);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(1, 4).unwrap();
        // ser = 1*4 → 8, cdc = 2*1 → 10; dst divisor 1 aligns trivially
        assert_eq!(first_delivery(&mut link, 4..20), Some((10, 1)));
    }

    #[test]
    #[should_panic(expected = "source clock edge")]
    fn send_off_edge_panics() {
        let cfg = clocks(2, 2);
        let mut link: Link<u8> = Link::new(cfg);
        let _ = link.send(1, 3);
    }

    #[test]
    fn one_delivery_per_destination_edge() {
        let cfg = clocks(1, 2);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(1, 0).unwrap();
        link.send(2, 1).unwrap();
        // both have arrived by cycle 4, but only one pops per dst edge
        let mut got = Vec::new();
        for now in 0..10 {
            if let Some(v) = link.deliver(now) {
                got.push((now, v));
            }
        }
        assert_eq!(got.len(), 2);
        assert_ne!(got[0].0, got[1].0);
        assert_eq!(got[0].1, 1);
        assert_eq!(got[1].1, 2);
    }

    #[test]
    fn capacity_back_pressure() {
        let cfg = LinkConfig::new().with_capacity(2).with_pipeline(10);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(1, 0).unwrap();
        link.send(2, 1).unwrap();
        assert!(!link.can_send(2));
        assert!(link.send(3, 2).is_err());
    }

    #[test]
    fn a_full_link_retries_when_its_oldest_item_lands() {
        // Capacity 1, five stages: the serialiser frees at 1, but the one
        // slot only when the item lands at 0 + 1 + 5 = 6.
        let cfg = LinkConfig::new().with_capacity(1).with_pipeline(5);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(1, 0).unwrap();
        assert_eq!(link.send(2, 2), Err(LinkFull { retry_at: 6 }));
        assert_eq!(link.deliver(6), Some(1));
        link.send(2, 6).unwrap();
        // Not full: a busy serialiser alone decides.
        let cfg = LinkConfig::new().with_phits_per_flit(3).with_pipeline(5);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(1, 0).unwrap();
        assert_eq!(link.send(2, 1), Err(LinkFull { retry_at: 3 }));
    }

    #[test]
    fn latency_accounting() {
        let mut link: Link<u8> = Link::new(LinkConfig::new().with_pipeline(1));
        link.send(1, 0).unwrap();
        assert_eq!(link.deliver(2), Some(1));
        assert_eq!(link.delivered(), 1);
        assert!((link.mean_latency() - 2.0).abs() < 1e-12);
    }

    /// The first cycle of `cycles` at which `link` delivers, and what.
    fn first_delivery(link: &mut Link<u8>, cycles: std::ops::Range<u64>) -> Option<(u64, u8)> {
        cycles
            .into_iter()
            .find_map(|now| link.deliver(now).map(|v| (now, v)))
    }

    #[test]
    fn deep_pipelines_deliver_once_the_item_lands() {
        let cfg = LinkConfig::new().with_pipeline(9);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(1, 0).unwrap();
        // arrival at 0 + 1 (ser) + 9 (pipe) = 10
        assert_eq!(first_delivery(&mut link, 0..20), Some((10, 1)));
        assert_eq!(link.in_flight(), 0, "an empty link is idle");
    }

    #[test]
    fn deliveries_land_on_destination_edges() {
        let cfg = clocks(1, 3).with_cdc_latency(2);
        let mut link: Link<u8> = Link::new(cfg);
        link.send(9, 0).unwrap();
        // polled late, off an edge: the arrival at 9 waits for the edge at 12
        assert_eq!(link.deliver(10), None);
        assert_eq!(first_delivery(&mut link, 10..20), Some((12, 9)));
        // one delivery per destination edge: two flits that both land by
        // the edge at 21 leave on the edges at 21 and 24
        link.send(5, 12).unwrap();
        link.send(6, 13).unwrap();
        assert_eq!(first_delivery(&mut link, 12..30), Some((21, 5)));
        assert_eq!(first_delivery(&mut link, 22..30), Some((24, 6)));
    }

    #[test]
    fn one_cycle_classes_are_full_width_unpipelined_base_clock_links() {
        assert!(LinkConfig::new().is_one_cycle());
        for cfg in [
            LinkConfig::new().with_phits_per_flit(2),
            LinkConfig::new().with_pipeline(1),
            clocks(1, 2),
            clocks(2, 1),
            clocks(3, 3),
            LinkConfig::new().with_capacity(1),
        ] {
            assert!(!cfg.is_one_cycle(), "{cfg}");
        }
        // A pass lands where a queued send of the same class lands, and
        // keeps the serialiser rule.
        let cfg = LinkConfig::new();
        let mut queued: Link<u8> = Link::new(cfg);
        let mut passed = LinkState::new(0);
        for now in [0, 1, 5] {
            queued.send(1, now).unwrap();
            assert_eq!(
                first_delivery(&mut queued, now..now + 3),
                Some((now + 1, 1))
            );
            assert_eq!(passed.pass(&cfg, now), now + 1);
            assert!(!passed.can_send(&cfg, now) && passed.can_send(&cfg, now + 1));
        }
    }

    #[test]
    fn config_accessors_and_display() {
        let cfg = clocks(1, 2).with_phits_per_flit(2);
        assert!(cfg.is_asynchronous());
        assert!(!LinkConfig::new().is_asynchronous());
        assert!(cfg.to_string().contains("1/2 width"));
        let link: Link<u8> = Link::new(cfg);
        assert!(link.to_string().contains("0 delivered"));
        assert!(LinkFull { retry_at: 3 }.to_string().contains('3'));
    }
}
