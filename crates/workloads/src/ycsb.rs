//! YCSB workload generator (Section IX-A3).
//!
//! The paper's write-heavy workload: 5 % reads / 95 % updates, keys drawn
//! from a Zipfian over the existing records, 10 M unique records of 8-byte
//! key + 100-byte payload. Operations are interleaved deterministically as
//! the paper describes: "we performed 19 updates, then 1 read, then
//! repeated the cycle." A read-heavy variant (95 % reads) mirrors the
//! footnoted omitted experiment.

use crate::zipf::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One YCSB operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YcsbOp {
    Read(u64),
    Update(u64, Vec<u8>),
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Unique records (paper: 10 M; scale down per experiment).
    pub records: u64,
    /// Payload bytes per record (paper: 100).
    pub value_len: usize,
    /// Reads per 20-op cycle (1 = write-heavy 5 %/95 %, 19 = read-heavy).
    pub reads_per_cycle: u32,
    /// Zipfian skew (YCSB default 0.99).
    pub zipf_theta: f64,
    pub seed: u64,
}

impl YcsbConfig {
    /// The paper's write-heavy mix: 5 % reads, 95 % updates.
    pub fn write_heavy(records: u64, seed: u64) -> Self {
        YcsbConfig {
            records,
            value_len: 100,
            reads_per_cycle: 1,
            zipf_theta: 0.99,
            seed,
        }
    }

    /// The footnoted read-heavy mix: 95 % reads, 5 % updates.
    pub fn read_heavy(records: u64, seed: u64) -> Self {
        YcsbConfig {
            reads_per_cycle: 19,
            ..Self::write_heavy(records, seed)
        }
    }
}

/// Deterministic operation stream.
pub struct YcsbWorkload {
    cfg: YcsbConfig,
    zipf: Zipfian,
    rng: StdRng,
    cycle_pos: u32,
}

impl YcsbWorkload {
    pub fn new(cfg: YcsbConfig) -> Self {
        let zipf = Zipfian::new(cfg.records, cfg.zipf_theta);
        let rng = StdRng::seed_from_u64(cfg.seed);
        YcsbWorkload {
            cfg,
            zipf,
            rng,
            cycle_pos: 0,
        }
    }

    pub fn config(&self) -> &YcsbConfig {
        &self.cfg
    }

    /// A deterministic record payload.
    pub fn value(&mut self, key: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.cfg.value_len];
        let tag = key ^ self.rng.gen::<u64>();
        v[..8.min(self.cfg.value_len)]
            .copy_from_slice(&tag.to_le_bytes()[..8.min(self.cfg.value_len)]);
        v
    }

    /// Next operation in the 20-op cycle (reads first, then updates — the
    /// paper interleaves 19 updates then 1 read; position within the cycle
    /// does not affect steady-state measurements).
    pub fn next_op(&mut self) -> YcsbOp {
        let key = self.zipf.next_scrambled(&mut self.rng);
        let pos = self.cycle_pos;
        self.cycle_pos = (self.cycle_pos + 1) % 20;
        if pos < self.cfg.reads_per_cycle {
            YcsbOp::Read(key)
        } else {
            let value = self.value(key);
            YcsbOp::Update(key, value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_heavy_mix_is_5_95() {
        let mut w = YcsbWorkload::new(YcsbConfig::write_heavy(10_000, 1));
        let mut reads = 0;
        let mut updates = 0;
        for _ in 0..2000 {
            match w.next_op() {
                YcsbOp::Read(_) => reads += 1,
                YcsbOp::Update(_, _) => updates += 1,
            }
        }
        assert_eq!(reads, 100);
        assert_eq!(updates, 1900);
    }

    #[test]
    fn read_heavy_mix_is_95_5() {
        let mut w = YcsbWorkload::new(YcsbConfig::read_heavy(10_000, 1));
        let reads = (0..2000)
            .filter(|_| matches!(w.next_op(), YcsbOp::Read(_)))
            .count();
        assert_eq!(reads, 1900);
    }

    #[test]
    fn keys_in_range_and_values_sized() {
        let mut w = YcsbWorkload::new(YcsbConfig::write_heavy(500, 2));
        for _ in 0..500 {
            match w.next_op() {
                YcsbOp::Read(k) => assert!(k < 500),
                YcsbOp::Update(k, v) => {
                    assert!(k < 500);
                    assert_eq!(v.len(), 100);
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ops = |seed| {
            let mut w = YcsbWorkload::new(YcsbConfig::write_heavy(1000, seed));
            (0..100).map(|_| w.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
    }
}
