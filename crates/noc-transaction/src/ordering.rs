//! Ordering models and the NIU tag-assignment policy — the centrepiece of
//! paper §3.
//!
//! The sockets disagree on ordering:
//!
//! - **AHB, PVCI, BVCI** are *fully ordered*: every response returns in
//!   request order.
//! - **OCP** is ordered *within a thread* (`ThreadID`); threads are
//!   mutually unordered.
//! - **AXI, AVCI** attach *transaction IDs* (`TID`): same-ID transactions
//!   are ordered, different IDs are not, and the ID space is large and
//!   sparse.
//!
//! The Arteris transaction layer absorbs all three with one mechanism: the
//! packet `Tag` field plus a per-NIU **assignment policy** mapping socket
//! streams to tags. [`OrderingPolicy`] implements that policy. The paper
//! calls out two resource knobs that let an NIU "scale its gate count to
//! its expected performance within the system": how many transactions
//! may be outstanding at once (the policy's budget) and whether one tag
//! may be outstanding at different targets at once ([`TargetRule`]). The
//! simulated NIU always stalls on a target switch; the other rule is
//! priced by the gate model only.

use crate::node::SlvAddr;
use crate::tag::Tag;
use std::collections::HashMap;
use std::fmt;

/// A socket-level stream identifier: 0 for fully-ordered sockets, the
/// `ThreadID` for OCP, the transaction ID for AXI/AVCI.
///
/// # Examples
///
/// ```
/// use noc_transaction::StreamId;
/// let s = StreamId::new(5);
/// assert_eq!(s.raw(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(u16);

impl StreamId {
    /// Stream 0, the only stream of a fully-ordered socket.
    pub const ZERO: StreamId = StreamId(0);

    /// Creates a stream id.
    pub const fn new(raw: u16) -> Self {
        StreamId(raw)
    }

    /// Raw value.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream {}", self.0)
    }
}

impl From<u16> for StreamId {
    fn from(raw: u16) -> Self {
        StreamId(raw)
    }
}

/// The three socket ordering models of paper §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingModel {
    /// Fully ordered between requests and responses (AHB, PVCI, BVCI).
    /// Every transaction uses [`Tag::ZERO`].
    FullyOrdered,
    /// Ordered within each of `threads` threads, unordered across threads
    /// (OCP). `ThreadID` maps directly onto the tag.
    Threaded {
        /// Number of socket threads (= number of tags used).
        threads: u8,
    },
    /// ID-based (AXI, AVCI): a sparse socket ID space is *renamed* onto a
    /// bounded pool of `tags` NoC tags; same-ID requests share a tag (and
    /// hence stay ordered), distinct IDs grab free tags.
    IdBased {
        /// Size of the NoC tag pool (renaming table capacity).
        tags: u8,
    },
}

impl OrderingModel {
    /// The number of distinct tags this model can emit.
    pub const fn tag_count(self) -> u8 {
        match self {
            OrderingModel::FullyOrdered => 1,
            OrderingModel::Threaded { threads } => threads,
            OrderingModel::IdBased { tags } => tags,
        }
    }
}

impl fmt::Display for OrderingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderingModel::FullyOrdered => write!(f, "fully-ordered"),
            OrderingModel::Threaded { threads } => write!(f, "threaded({threads})"),
            OrderingModel::IdBased { tags } => write!(f, "id-based({tags} tags)"),
        }
    }
}

/// How an NIU keeps same-tag responses in order across multiple targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TargetRule {
    /// Low-gate-count option: a tag with outstanding transactions to target
    /// A must drain before issuing to target B (response order is then
    /// guaranteed by per-target FIFO delivery in the fabric).
    #[default]
    StallOnSwitch,
    /// High-performance option: issue to any target immediately; the NIU
    /// carries a reorder buffer that restores same-tag order. Costs area
    /// (see `noc_examples::area`). The simulated initiator NIU has no
    /// reorder buffer and always stalls on a switch; this rule is priced
    /// by the gate model, not simulated.
    Interleave,
}

impl fmt::Display for TargetRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetRule::StallOnSwitch => write!(f, "stall-on-target-switch"),
            TargetRule::Interleave => write!(f, "interleave(reorder-buffer)"),
        }
    }
}

/// Why [`OrderingPolicy::try_issue`] refused to issue right now.
///
/// These are *back-pressure* conditions, not errors: each holds until a
/// transaction completes, and the NIU retries after the next completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueBlock {
    /// The global outstanding-transaction budget is exhausted.
    TableFull,
    /// Issuing would reorder same-tag responses across targets.
    TargetHazard {
        /// Tag with outstanding traffic to a different target.
        tag: Tag,
        /// The target currently outstanding.
        busy_with: SlvAddr,
    },
    /// No free tag in the renaming pool (ID-based model only).
    NoFreeTag,
}

impl fmt::Display for IssueBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueBlock::TableFull => write!(f, "transaction table full"),
            IssueBlock::TargetHazard { tag, busy_with } => {
                write!(f, "{tag} busy with {busy_with}")
            }
            IssueBlock::NoFreeTag => write!(f, "no free tag in renaming pool"),
        }
    }
}

/// Configuration or usage errors for [`OrderingPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyError {
    /// Model requires at least one tag/thread.
    ZeroTags,
    /// `max_outstanding` must be at least 1.
    ZeroOutstanding,
    /// A thread id was presented that exceeds the configured thread count.
    StreamOutOfRange {
        /// The offending stream.
        stream: StreamId,
        /// Number of threads configured.
        threads: u8,
    },
    /// A completion arrived for a tag with nothing outstanding.
    SpuriousCompletion {
        /// The offending tag.
        tag: Tag,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::ZeroTags => write!(f, "ordering model must have at least one tag"),
            PolicyError::ZeroOutstanding => write!(f, "max_outstanding must be at least 1"),
            PolicyError::StreamOutOfRange { stream, threads } => {
                write!(f, "{stream} out of range for {threads} threads")
            }
            PolicyError::SpuriousCompletion { tag } => {
                write!(f, "completion for idle {tag}")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

#[derive(Debug, Clone, Default, PartialEq)]
struct TagState {
    outstanding: u32,
    current_target: Option<SlvAddr>,
    /// For the ID-based model: which socket stream currently owns this tag.
    owner: Option<StreamId>,
}

/// The per-NIU field assignment policy: maps socket streams onto
/// `(Tag, outstanding-limits)` while preserving each socket's ordering
/// contract.
///
/// # Examples
///
/// An AXI-style NIU with a 2-entry tag pool renames IDs onto tags:
///
/// ```
/// use noc_transaction::{OrderingModel, OrderingPolicy, SlvAddr, StreamId};
/// let mut p = OrderingPolicy::new(OrderingModel::IdBased { tags: 2 }, 8)?;
/// let t0 = p.try_issue(StreamId::new(100), SlvAddr::new(0)).unwrap();
/// let t1 = p.try_issue(StreamId::new(200), SlvAddr::new(1)).unwrap();
/// assert_ne!(t0, t1);                    // distinct IDs → distinct tags
/// let t2 = p.try_issue(StreamId::new(100), SlvAddr::new(0)).unwrap();
/// assert_eq!(t0, t2);                    // same ID → same tag (stays ordered)
/// assert!(p.try_issue(StreamId::new(300), SlvAddr::new(0)).is_err()); // pool empty
/// # Ok::<(), noc_transaction::PolicyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OrderingPolicy {
    model: OrderingModel,
    max_outstanding: u32,
    tags: Vec<TagState>,
    rename: HashMap<StreamId, Tag>,
    outstanding: u32,
}

impl OrderingPolicy {
    /// Creates a policy for `model` allowing `max_outstanding` transactions
    /// in flight in total. A tag with traffic outstanding at one target
    /// stalls before it switches to another ([`TargetRule::StallOnSwitch`]).
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::ZeroTags`] or [`PolicyError::ZeroOutstanding`]
    /// on degenerate configurations.
    pub fn new(model: OrderingModel, max_outstanding: u32) -> Result<Self, PolicyError> {
        if model.tag_count() == 0 {
            return Err(PolicyError::ZeroTags);
        }
        if max_outstanding == 0 {
            return Err(PolicyError::ZeroOutstanding);
        }
        Ok(OrderingPolicy {
            model,
            max_outstanding,
            tags: vec![TagState::default(); model.tag_count() as usize],
            rename: HashMap::new(),
            outstanding: 0,
        })
    }

    /// The configured ordering model.
    pub fn model(&self) -> OrderingModel {
        self.model
    }

    /// Total transactions currently outstanding.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// The global outstanding budget.
    pub fn max_outstanding(&self) -> u32 {
        self.max_outstanding
    }

    /// Attempts to issue a transaction on socket stream `stream` towards
    /// `dst`, returning the NoC tag to stamp into the packet.
    ///
    /// # Errors
    ///
    /// Returns an [`IssueBlock`] back-pressure condition. A refusal leaves
    /// the policy unchanged, and further issues only keep it refused, so
    /// the same request is refused until a [`OrderingPolicy::complete`]:
    /// the caller need not ask again before one.
    ///
    /// # Panics
    ///
    /// Panics if an OCP-style thread id exceeds the configured thread
    /// count — that is a socket protocol violation, not back-pressure.
    pub fn try_issue(&mut self, stream: StreamId, dst: SlvAddr) -> Result<Tag, IssueBlock> {
        if self.outstanding >= self.max_outstanding {
            return Err(IssueBlock::TableFull);
        }
        let tag = match self.model {
            OrderingModel::FullyOrdered => Tag::ZERO,
            OrderingModel::Threaded { threads } => {
                assert!(
                    stream.raw() < threads as u16,
                    "thread {} out of range for {} threads (socket protocol violation)",
                    stream.raw(),
                    threads
                );
                Tag::new(stream.raw() as u8)
            }
            OrderingModel::IdBased { .. } => match self.rename.get(&stream) {
                Some(&t) => t,
                None => match self.free_tag() {
                    Some(t) => t,
                    None => return Err(IssueBlock::NoFreeTag),
                },
            },
        };
        let state = &self.tags[tag.index()];
        if let Some(busy_with) = state.current_target {
            if busy_with != dst && state.outstanding > 0 {
                return Err(IssueBlock::TargetHazard { tag, busy_with });
            }
        }
        // Commit.
        let state = &mut self.tags[tag.index()];
        state.outstanding += 1;
        state.current_target = Some(dst);
        if matches!(self.model, OrderingModel::IdBased { .. }) {
            state.owner = Some(stream);
            self.rename.insert(stream, tag);
        }
        self.outstanding += 1;
        Ok(tag)
    }

    /// Records completion of one transaction on `tag`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::SpuriousCompletion`] if the tag has nothing
    /// outstanding.
    pub fn complete(&mut self, tag: Tag) -> Result<(), PolicyError> {
        let state = self
            .tags
            .get_mut(tag.index())
            .filter(|s| s.outstanding > 0)
            .ok_or(PolicyError::SpuriousCompletion { tag })?;
        state.outstanding -= 1;
        self.outstanding -= 1;
        if state.outstanding == 0 {
            state.current_target = None;
            if let Some(owner) = state.owner.take() {
                self.rename.remove(&owner);
            }
        }
        Ok(())
    }

    fn free_tag(&self) -> Option<Tag> {
        self.tags
            .iter()
            .position(|s| s.outstanding == 0 && s.owner.is_none())
            .map(|i| Tag::new(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u16) -> StreamId {
        StreamId::new(n)
    }
    fn d(n: u16) -> SlvAddr {
        SlvAddr::new(n)
    }

    #[test]
    fn fully_ordered_always_tag_zero() {
        let mut p = OrderingPolicy::new(OrderingModel::FullyOrdered, 4).unwrap();
        let t = p.try_issue(s(0), d(1)).unwrap();
        assert_eq!(t, Tag::ZERO);
        let t = p.try_issue(s(0), d(1)).unwrap();
        assert_eq!(t, Tag::ZERO);
        assert_eq!(p.outstanding(), 2);
    }

    #[test]
    fn fully_ordered_stalls_on_target_switch() {
        let mut p = OrderingPolicy::new(OrderingModel::FullyOrdered, 4).unwrap();
        p.try_issue(s(0), d(1)).unwrap();
        let block = p.try_issue(s(0), d(2)).unwrap_err();
        assert_eq!(
            block,
            IssueBlock::TargetHazard {
                tag: Tag::ZERO,
                busy_with: d(1)
            }
        );
        // After completion the switch is allowed.
        p.complete(Tag::ZERO).unwrap();
        assert!(p.try_issue(s(0), d(2)).is_ok());
    }

    #[test]
    fn table_full_blocks() {
        let mut p = OrderingPolicy::new(OrderingModel::FullyOrdered, 2).unwrap();
        p.try_issue(s(0), d(1)).unwrap();
        p.try_issue(s(0), d(1)).unwrap();
        assert_eq!(p.try_issue(s(0), d(1)), Err(IssueBlock::TableFull));
        p.complete(Tag::ZERO).unwrap();
        assert!(p.try_issue(s(0), d(1)).is_ok());
    }

    #[test]
    fn threaded_maps_thread_to_tag() {
        let mut p = OrderingPolicy::new(OrderingModel::Threaded { threads: 4 }, 8).unwrap();
        assert_eq!(p.try_issue(s(0), d(1)).unwrap(), Tag::new(0));
        assert_eq!(p.try_issue(s(3), d(2)).unwrap(), Tag::new(3));
        // independent threads do not hazard each other
        assert_eq!(p.try_issue(s(1), d(3)).unwrap(), Tag::new(1));
    }

    #[test]
    fn threaded_per_thread_target_hazard() {
        let mut p = OrderingPolicy::new(OrderingModel::Threaded { threads: 2 }, 8).unwrap();
        p.try_issue(s(1), d(1)).unwrap();
        assert!(matches!(
            p.try_issue(s(1), d(2)),
            Err(IssueBlock::TargetHazard { .. })
        ));
        // other thread unaffected
        assert!(p.try_issue(s(0), d(2)).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn threaded_rejects_out_of_range_thread() {
        let mut p = OrderingPolicy::new(OrderingModel::Threaded { threads: 2 }, 8).unwrap();
        let _ = p.try_issue(s(5), d(0));
    }

    #[test]
    fn id_based_renames_and_reuses() {
        let mut p = OrderingPolicy::new(OrderingModel::IdBased { tags: 2 }, 8).unwrap();
        let t_a = p.try_issue(s(0xAB), d(0)).unwrap();
        let t_b = p.try_issue(s(0xCD), d(1)).unwrap();
        assert_ne!(t_a, t_b);
        assert_eq!(p.try_issue(s(0xAB), d(0)).unwrap(), t_a);
        assert_eq!(p.try_issue(s(0xEF), d(0)), Err(IssueBlock::NoFreeTag));
    }

    #[test]
    fn id_based_frees_tag_after_drain() {
        let mut p = OrderingPolicy::new(OrderingModel::IdBased { tags: 1 }, 8).unwrap();
        let t = p.try_issue(s(7), d(0)).unwrap();
        assert_eq!(p.try_issue(s(9), d(0)), Err(IssueBlock::NoFreeTag));
        p.complete(t).unwrap();
        // tag recycled for a new ID
        assert_eq!(p.try_issue(s(9), d(0)).unwrap(), t);
    }

    #[test]
    fn id_based_same_id_target_hazard_preserves_order() {
        let mut p = OrderingPolicy::new(OrderingModel::IdBased { tags: 4 }, 8).unwrap();
        p.try_issue(s(1), d(0)).unwrap();
        assert!(matches!(
            p.try_issue(s(1), d(1)),
            Err(IssueBlock::TargetHazard { .. })
        ));
    }

    /// What an NIU that stops asking after a refusal relies on: a refused
    /// `try_issue` changes nothing, and the same `(stream, dst)` stays
    /// refused — whatever else issues meanwhile — until a `complete`.
    #[test]
    fn a_refusal_changes_nothing_and_holds_until_a_completion() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let models = [
            OrderingModel::FullyOrdered,
            OrderingModel::Threaded { threads: 3 },
            OrderingModel::IdBased { tags: 2 },
        ];
        let mut seen = [0usize; 3];
        for model in models {
            for budget in [1, 3, 6] {
                let mut p = OrderingPolicy::new(model, budget).unwrap();
                let mut issued: Vec<Tag> = Vec::new();
                let mut refused: Vec<(StreamId, SlvAddr)> = Vec::new();
                for _ in 0..400 {
                    if !issued.is_empty() && draw(3) == 0 {
                        let tag = issued.remove(draw(issued.len() as u64) as usize);
                        p.complete(tag).unwrap();
                        refused.clear();
                        continue;
                    }
                    let (stream, dst) = (s(draw(3) as u16), d(draw(2) as u16));
                    let before = p.clone();
                    match p.try_issue(stream, dst) {
                        Ok(tag) => issued.push(tag),
                        Err(block) => {
                            assert_eq!(p, before, "{model}: {block} changed the policy");
                            seen[match block {
                                IssueBlock::TableFull => 0,
                                IssueBlock::NoFreeTag => 1,
                                IssueBlock::TargetHazard { .. } => 2,
                            }] += 1;
                            refused.push((stream, dst));
                        }
                    }
                    for &(stream, dst) in &refused {
                        let before = p.clone();
                        assert!(p.try_issue(stream, dst).is_err(), "{model}: refused again");
                        assert_eq!(p, before);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every reason drawn: {seen:?}");
    }

    #[test]
    fn spurious_completion_detected() {
        let mut p = OrderingPolicy::new(OrderingModel::FullyOrdered, 2).unwrap();
        assert_eq!(
            p.complete(Tag::ZERO),
            Err(PolicyError::SpuriousCompletion { tag: Tag::ZERO })
        );
        assert_eq!(
            p.complete(Tag::new(200)),
            Err(PolicyError::SpuriousCompletion { tag: Tag::new(200) })
        );
    }

    #[test]
    fn degenerate_configs_rejected() {
        assert_eq!(
            OrderingPolicy::new(OrderingModel::Threaded { threads: 0 }, 4).unwrap_err(),
            PolicyError::ZeroTags
        );
        assert_eq!(
            OrderingPolicy::new(OrderingModel::FullyOrdered, 0).unwrap_err(),
            PolicyError::ZeroOutstanding
        );
    }

    #[test]
    fn model_tag_counts() {
        assert_eq!(OrderingModel::FullyOrdered.tag_count(), 1);
        assert_eq!(OrderingModel::Threaded { threads: 3 }.tag_count(), 3);
        assert_eq!(OrderingModel::IdBased { tags: 8 }.tag_count(), 8);
    }

    #[test]
    fn displays() {
        assert_eq!(OrderingModel::FullyOrdered.to_string(), "fully-ordered");
        assert!(OrderingModel::IdBased { tags: 4 }.to_string().contains("4"));
        assert!(IssueBlock::TableFull.to_string().contains("full"));
        assert!(TargetRule::Interleave.to_string().contains("reorder"));
    }
}
