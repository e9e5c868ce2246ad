//! The synthetic traffic generator behind the set-top scenario.
//!
//! A program is a deterministic function of its seed (SplitMix64). The
//! shaped workloads (bursty, Zipf hotspot, trace replay) are the
//! `ProgramSpec` kinds of `noc_scenario::program`, which compile to
//! programs the same way.

use noc_kernel::SplitMix64;
use noc_protocols::{Program, SocketCommand};
use noc_transaction::{BurstKind, Opcode, StreamId};

/// Shared pattern parameters.
#[derive(Debug, Clone, Copy)]
pub struct PatternConfig {
    /// Commands to generate.
    pub commands: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of reads (rest are writes).
    pub read_fraction: f64,
    /// Beats per burst.
    pub beats: u32,
    /// Bytes per beat.
    pub beat_bytes: u32,
    /// Mean idle cycles between commands (geometric).
    pub mean_gap: u32,
    /// Number of socket streams (threads/IDs) to spread commands over.
    pub streams: u16,
}

impl PatternConfig {
    /// A light default: 32 commands, 70% reads, 4×4-byte bursts.
    pub fn new(commands: usize, seed: u64) -> Self {
        PatternConfig {
            commands,
            seed,
            read_fraction: 0.7,
            beats: 4,
            beat_bytes: 4,
            mean_gap: 2,
            streams: 1,
        }
    }

    /// Sets the stream count.
    #[must_use]
    pub fn with_streams(mut self, streams: u16) -> Self {
        self.streams = streams.max(1);
        self
    }

    /// Sets the burst shape.
    #[must_use]
    pub fn with_burst(mut self, beats: u32, beat_bytes: u32) -> Self {
        self.beats = beats;
        self.beat_bytes = beat_bytes;
        self
    }

    /// Sets the mean command gap.
    #[must_use]
    pub fn with_gap(mut self, mean_gap: u32) -> Self {
        self.mean_gap = mean_gap;
        self
    }
}

/// Uniform-random traffic over the given target ranges.
pub fn uniform_program(cfg: &PatternConfig, ranges: &[(u64, u64)]) -> Program {
    assert!(!ranges.is_empty(), "need at least one target range");
    let mut rng = SplitMix64::new(cfg.seed);
    let mut program = Vec::with_capacity(cfg.commands);
    let burst_bytes = (cfg.beats * cfg.beat_bytes) as u64;
    for i in 0..cfg.commands {
        let (start, end) = ranges[rng.next_below(ranges.len() as u64) as usize];
        let span = (end - start).saturating_sub(burst_bytes).max(1);
        let addr = start + (rng.next_below(span) & !(cfg.beat_bytes as u64 - 1));
        let is_read = rng.chance(cfg.read_fraction);
        let gap = if cfg.mean_gap == 0 {
            0
        } else {
            rng.next_below(2 * cfg.mean_gap as u64 + 1) as u32
        };
        let cmd = SocketCommand {
            opcode: if is_read { Opcode::Read } else { Opcode::Write },
            addr,
            beats: cfg.beats,
            beat_bytes: cfg.beat_bytes,
            burst_kind: BurstKind::Incr,
            stream: StreamId::new(i as u16 % cfg.streams),
            data_seed: cfg.seed ^ (i as u64) << 8,
            delay_before: gap,
            pressure: 0,
        };
        program.push(cmd);
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: [(u64, u64); 2] = [(0x0, 0x1000), (0x1000, 0x2000)];

    #[test]
    fn deterministic_for_seed() {
        let cfg = PatternConfig::new(16, 7);
        assert_eq!(uniform_program(&cfg, &R), uniform_program(&cfg, &R));
        let cfg2 = PatternConfig::new(16, 8);
        assert_ne!(uniform_program(&cfg, &R), uniform_program(&cfg2, &R));
    }

    #[test]
    fn addresses_stay_in_ranges() {
        let cfg = PatternConfig::new(100, 3).with_burst(4, 4);
        for cmd in uniform_program(&cfg, &R) {
            let hit = R.iter().any(|(s, e)| cmd.addr >= *s && cmd.addr + 16 <= *e);
            assert!(hit, "addr {:#x} outside ranges", cmd.addr);
        }
    }

    #[test]
    fn read_fraction_respected() {
        let mut cfg = PatternConfig::new(1000, 11);
        cfg.read_fraction = 1.0;
        assert!(uniform_program(&cfg, &R)
            .iter()
            .all(|c| c.opcode == Opcode::Read));
        cfg.read_fraction = 0.0;
        assert!(uniform_program(&cfg, &R)
            .iter()
            .all(|c| c.opcode == Opcode::Write));
    }

    #[test]
    fn streams_round_robin() {
        let cfg = PatternConfig::new(8, 1).with_streams(4);
        let p = uniform_program(&cfg, &R);
        assert_eq!(p[0].stream, StreamId::new(0));
        assert_eq!(p[5].stream, StreamId::new(1));
    }

    #[test]
    fn alignment_to_beat() {
        let cfg = PatternConfig::new(100, 2).with_burst(2, 8);
        for cmd in uniform_program(&cfg, &R) {
            assert_eq!(cmd.addr % 8, 0);
        }
    }
}
