//! The correctness gate: fingerprints, result invariants and the
//! attempted/failed tally behind `run_failure_ratio`.
//!
//! A run fails when it panics or when its [`RunResult`] breaks an
//! invariant or differs from the reference fingerprint of the same
//! scenario: the first repetition of the seed, or the two-worker run
//! that the one-worker run must reproduce (the determinism contract:
//! bit-identical results at any worker count).

use raptee_sim::{RunResult, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// FNV-1a over the result's `Debug` text. `Debug` prints every field,
/// and every `f64` as its shortest round-trip decimal, so two results
/// share a fingerprint only if all fields agree bit for bit.
pub fn fingerprint(r: &RunResult) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Checks the invariants every run of `s` must satisfy.
pub fn invariants(s: &Scenario, r: &RunResult) -> Result<(), String> {
    if r.rounds != s.rounds || r.byz_share_series.len() != s.rounds {
        return Err(format!(
            "ran {} rounds with a {}-entry series, configured {}",
            r.rounds,
            r.byz_share_series.len(),
            s.rounds
        ));
    }
    if !(0.0..=1.0).contains(&r.resilience) {
        return Err(format!("resilience {} outside [0, 1]", r.resilience));
    }
    let seg_nodes: usize = r.segments.iter().map(|g| g.nodes).sum();
    let correct = s.n - s.byzantine_count();
    if seg_nodes != correct {
        return Err(format!(
            "segments hold {seg_nodes} nodes, correct population is {correct}"
        ));
    }
    if let Some(a) = &r.audit {
        if a.false_accusations != 0 {
            return Err(format!("{} correct nodes convicted", a.false_accusations));
        }
    }
    Ok(())
}

/// Checks `r` against the invariants of `s` and, when given, the
/// reference fingerprint; returns the run's fingerprint.
pub fn verify(s: &Scenario, r: &RunResult, reference: Option<u64>) -> Result<u64, String> {
    invariants(s, r)?;
    let fp = fingerprint(r);
    match reference {
        Some(want) if want != fp => Err(format!(
            "fingerprint {fp:016x} differs from reference {want:016x}"
        )),
        _ => Ok(fp),
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Attempted and failed runs, with the reason of each failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs attempted (timed repetitions and determinism checks).
    pub attempted: u64,
    /// Runs that panicked or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Books one attempted run and its outcome.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// `failed / attempted` (0 before any attempt).
    pub fn failure_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use raptee_sim::Simulation;

    fn tiny_result() -> (Scenario, RunResult) {
        let w = Workload::tiny("arena_mixed", 7).unwrap();
        let r = Simulation::new(w.scenario.clone()).run();
        (w.scenario, r)
    }

    #[test]
    fn planted_one_bit_mismatch_counts_as_failure() {
        let (s, r) = tiny_result();
        let mut tally = Tally::default();
        let reference = tally.record("first", verify(&s, &r, None));
        assert!(reference.is_some());

        let mut planted = r.clone();
        planted.resilience = f64::from_bits(planted.resilience.to_bits() ^ 1);
        assert!(tally
            .record("planted", verify(&s, &planted, reference))
            .is_none());

        let mut series = r.clone();
        let last = series.byz_share_series.len() - 1;
        series.byz_share_series[last] = f64::from_bits(series.byz_share_series[last].to_bits() ^ 1);
        assert!(tally
            .record("series", verify(&s, &series, reference))
            .is_none());

        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failure_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn broken_invariants_and_panics_are_failures() {
        let (s, r) = tiny_result();
        let mut short = r.clone();
        short.byz_share_series.pop();
        assert!(invariants(&s, &short).is_err());
        let mut out_of_range = r.clone();
        out_of_range.resilience = 1.5;
        assert!(invariants(&s, &out_of_range).is_err());
        let mut lost = r;
        lost.segments.pop();
        assert!(invariants(&s, &lost).is_err());
        assert!(guarded(|| panic!("boom")).is_err());
    }
}
