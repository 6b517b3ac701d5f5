//! The four named workloads: fixed sizes, seed-dependent inputs.
//!
//! Every workload is a [`Scenario`] the engine receives unchanged; the
//! benchmark seed only becomes `Scenario::seed`, so the same seed gives
//! the same population, adversary and network draws. `rounds` is the
//! run length of one timed repetition, chosen so a repetition is short
//! enough to repeat inside one measurement window.

use raptee_sim::{
    AdversaryMode, AuditConfig, ChurnSchedule, DiscoveryMode, EventNetConfig, LatencyModel,
    NetworkModel, PartitionWindow, Protocol, RejoinPolicy, RetryConfig, Scenario, SegmentSpec,
};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "paper_raptee",
    "arena_mixed",
    "hostile_events",
    "scale_200k",
];

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name passed as `--workload`.
    pub name: &'static str,
    /// The scenario of one timed repetition (seed applied).
    pub scenario: Scenario,
    /// Population of the one-worker determinism check, where a
    /// one-worker run at full size would not fit the run budget: the
    /// check then compares one- and two-worker runs of the scenario at
    /// this `n`. `None` checks the timed scenario itself.
    pub check_n: Option<usize>,
}

impl Workload {
    /// Builds workload `name` at full size under `seed`; `None` for an
    /// unknown name.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        let (name, mut scenario, check_n) = match name {
            "paper_raptee" => ("paper_raptee", paper_raptee(), Some(1_000)),
            "arena_mixed" => ("arena_mixed", arena_mixed(), None),
            "hostile_events" => ("hostile_events", hostile_events(), None),
            "scale_200k" => ("scale_200k", scale_200k(), Some(20_000)),
            _ => return None,
        };
        scenario.seed = seed;
        scenario.validate();
        Some(Self {
            name,
            scenario,
            check_n,
        })
    }

    /// The scenario of the one-worker determinism check (see
    /// [`Workload::check_n`]).
    pub fn check_scenario(&self) -> Scenario {
        let mut s = self.scenario.clone();
        if let Some(n) = self.check_n {
            s.n = n;
            s.validate();
        }
        s
    }

    /// The same workload shape at a tiny size (used by the self-tests):
    /// every feature the full workload switches on stays on.
    #[cfg(test)]
    pub fn tiny(name: &str, seed: u64) -> Option<Self> {
        let mut w = Self::by_name(name, seed)?;
        let sketch = w.scenario.sketch_discovery();
        let s = &mut w.scenario;
        s.rounds = 6;
        s.tail_window = 3;
        s.view_size = s.view_size.min(12);
        s.sample_size = s.sample_size.min(12);
        s.n = if s.population.is_empty() { 200 } else { 250 };
        if !s.population.is_empty() {
            let per = (s.n - s.byzantine_count()) / s.population.len();
            for seg in &mut s.population {
                seg.count = per;
                seg.protocol = resize_view(seg.protocol, s.view_size);
            }
            s.trusted_fraction = 0.1 * per as f64 / s.n as f64;
        }
        if let NetworkModel::Events(net) = &mut s.network {
            net.partitions = vec![third_of_run_partition(s.rounds, s.n)];
        }
        if sketch {
            s.discovery = DiscoveryMode::Sketch;
        }
        s.validate();
        Some(w)
    }

    /// Node-rounds of one repetition: `N × rounds`.
    pub fn node_rounds(&self) -> f64 {
        (self.scenario.n * self.scenario.rounds) as f64
    }

    /// The workload's sizes as `(key, value)` pairs for the environment
    /// record.
    pub fn sizes(&self) -> Vec<(&'static str, String)> {
        let s = &self.scenario;
        vec![
            ("n", s.n.to_string()),
            ("rounds", s.rounds.to_string()),
            ("view_size", s.view_size.to_string()),
            ("sample_size", s.sample_size.to_string()),
            ("byzantine_fraction", s.byzantine_fraction.to_string()),
            ("trusted_nodes", s.trusted_count().to_string()),
            ("segments", s.segments().len().to_string()),
            ("network", network_label(&s.network).to_string()),
            ("check_n", self.check_n.unwrap_or(s.n).to_string()),
            (
                "discovery",
                if s.sketch_discovery() {
                    "sketch"
                } else {
                    "exact"
                }
                .to_string(),
            ),
        ]
    }
}

fn network_label(net: &NetworkModel) -> &'static str {
    match net {
        NetworkModel::Rounds => "rounds",
        NetworkModel::Events(_) => "events",
    }
}

#[cfg(test)]
fn resize_view(p: Protocol, v: usize) -> Protocol {
    match p {
        Protocol::Basalt {
            rotation_interval, ..
        } => Protocol::Basalt {
            view_size: v,
            rotation_interval,
        },
        Protocol::Lift { fade_interval, .. } => Protocol::Lift {
            view_size: v,
            fade_interval,
        },
        Protocol::Honeybee { walk_length, .. } => Protocol::Honeybee {
            view_size: v,
            walk_length,
        },
        other => other,
    }
}

/// A cut through the middle of the population over the middle third of
/// the run.
fn third_of_run_partition(rounds: usize, n: usize) -> PartitionWindow {
    PartitionWindow {
        start: rounds / 3,
        end: (2 * rounds / 3).max(rounds / 3 + 1),
        boundary: n / 2,
    }
}

/// The paper's experiment: `Scenario::paper_scale()` RAPTEE, N = 10,000,
/// l1 = l2 = 200, f = 10 %, t = 1 %, lockstep rounds, exact discovery.
fn paper_raptee() -> Scenario {
    Scenario {
        rounds: 2,
        tail_window: 2,
        discovery: DiscoveryMode::Exact,
        ..Scenario::paper_scale()
    }
}

/// Five equal correct segments (Brahms, RAPTEE with 10 % of its segment
/// trusted, BASALT, LIFT, Honeybee) under an adaptive adversary,
/// f = 20 %, N = 2,000, view 24, lockstep rounds.
fn arena_mixed() -> Scenario {
    let n = 2_000;
    let view = 24;
    let base = Scenario {
        n,
        byzantine_fraction: 0.2,
        view_size: view,
        sample_size: view,
        rounds: 10,
        tail_window: 5,
        adversary_mode: AdversaryMode::Adaptive,
        ..Scenario::default()
    };
    let per = (n - base.byzantine_count()) / 5;
    let population = vec![
        SegmentSpec {
            protocol: Protocol::Brahms,
            count: per,
        },
        SegmentSpec {
            protocol: Protocol::Raptee,
            count: per,
        },
        SegmentSpec {
            protocol: Protocol::Basalt {
                view_size: view,
                rotation_interval: 30,
            },
            count: per,
        },
        SegmentSpec {
            protocol: Protocol::Lift {
                view_size: view,
                fade_interval: 20,
            },
            count: per,
        },
        SegmentSpec {
            protocol: Protocol::Honeybee {
                view_size: view,
                walk_length: 5,
            },
            count: per,
        },
    ];
    Scenario {
        // 10 % of the RAPTEE segment, expressed against N.
        trusted_fraction: 0.1 * per as f64 / n as f64,
        population,
        ..base
    }
}

/// RAPTEE on the event network under every fault the substrate models:
/// N = 20,000 (HLL discovery), view 24, f = 20 %, t = 10 %, adaptive
/// adversary, uniform latency with jitter, a partition over a third of
/// the run, retries, duplicates/reordering, 5 % loss, steady churn with
/// warm rejoin, audit budget 8.
fn hostile_events() -> Scenario {
    let n = 20_000;
    let rounds = 9;
    let mut s = Scenario {
        n,
        byzantine_fraction: 0.2,
        trusted_fraction: 0.1,
        view_size: 24,
        sample_size: 24,
        rounds,
        tail_window: 5,
        adversary_mode: AdversaryMode::Adaptive,
        message_loss: 0.05,
        churn: ChurnSchedule {
            rejoin: RejoinPolicy::Warm,
            ..ChurnSchedule::steady(0.01, 0.3)
        },
        audit: Some(AuditConfig {
            budget: 8,
            grace: 6,
        }),
        ..Scenario::default()
    };
    s.network = NetworkModel::Events(EventNetConfig {
        latency: LatencyModel::Uniform { min: 50, max: 600 },
        round_ticks: 1_000,
        jitter: 150,
        partitions: vec![third_of_run_partition(rounds, n)],
        retry: RetryConfig {
            max_retries: 2,
            base_backoff: 250,
        },
        duplicate_rate: 0.05,
        reorder_jitter: 50,
        ..EventNetConfig::default()
    });
    s
}

/// RAPTEE at N = 200,000, view 16, f = 10 %, t = 1 %, lockstep rounds,
/// sketched discovery: construction and memory dominate.
fn scale_200k() -> Scenario {
    Scenario {
        n: 200_000,
        view_size: 16,
        sample_size: 16,
        rounds: 3,
        tail_window: 3,
        discovery: DiscoveryMode::Sketch,
        ..Scenario::default()
    }
}
