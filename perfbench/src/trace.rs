//! `--trace 1`: the traced run and the per-layer replays.
//!
//! Untraced and traced repetitions alternate inside the window. An
//! untraced repetition is `Simulation::new` + `Simulation::run`, checked
//! like a timed one; its `RunResult` supplies the exact counts. A traced
//! repetition steps `Simulation::run_round` with one span per round and
//! one around `new`, and after each round — outside the round spans —
//! replays each layer's public hot function on the live state read
//! through the simulation's accessors. A stepped run cannot yield a
//! `RunResult` (`Simulation::run` always executes `scenario.rounds` more
//! rounds), so only the untraced repetitions are fingerprinted.
//!
//! Spans (name, start, end, parent, run id) stay in memory and are
//! written to `out/spans-<workload>-seed<seed>.json` when the run ends.

use crate::check::{self, Tally};
use crate::workloads::Workload;
use crate::{checked_rep, json_str, out_dir, stats, worker_count_check, Metric};
use raptee::provisioning;
use raptee_crypto::sha256::Sha256;
use raptee_honeybee::WalkTranscript;
use raptee_net::NodeId;
use raptee_sim::event::{Envelope, EventQueue, Lane};
use raptee_sim::{AuditConfig, Challenger, Discovery, RunResult, Scenario, Simulation};
use raptee_tee::merkle::{leaf_hash, MerkleTree};
use raptee_util::mix64;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nodes replayed per layer per round.
const PER_ROUND: usize = 8;
/// Bytes hashed per SHA-256 replay.
const SHA_BYTES: usize = 256 * 1024;
/// Cap on the event-queue replay volume (messages per round).
const MAX_QUEUE_VOLUME: usize = 1 << 20;

/// One recorded span.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    run: usize,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, run: usize) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed();
        (span.end - span.start).as_secs_f64()
    }

    /// Runs `f` inside a span.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let run = self.spans[parent].run;
        let id = self.open(name, Some(parent), run);
        let out = f();
        self.close(id);
        out
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"run\": {}}}",
                    json_str(s.name),
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.run
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Per-call samples of every replayed function, by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        stats::median(self.get(name))
    }

    fn count(&self, name: &str) -> f64 {
        self.get(name).len() as f64
    }
}

/// Times `f`, returning its output and the elapsed seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Up to `k` seed-chosen live correct nodes for which `get` yields a
/// value.
fn pick<T>(
    sim: &Simulation,
    key: u64,
    k: usize,
    get: impl Fn(NodeId) -> Option<T>,
) -> Vec<(NodeId, T)> {
    let byz = sim.scenario().byzantine_count() as u64;
    let span = sim.total_actors() as u64 - byz;
    let mut out: Vec<(NodeId, T)> = Vec::new();
    for j in 0..(k as u64) * 1024 {
        if out.len() == k {
            break;
        }
        let id = NodeId(byz + mix64(key ^ mix64(j)) % span);
        if !sim.is_alive(id) || out.iter().any(|(x, _)| *x == id) {
            continue;
        }
        if let Some(t) = get(id) {
            out.push((id, t));
        }
    }
    out
}

/// The current view of correct node `id`, whatever its protocol family.
fn view_ids(sim: &Simulation, id: NodeId) -> Option<Vec<NodeId>> {
    if let Some(n) = sim.node(id) {
        return Some(n.brahms().view().ids().collect());
    }
    if let Some(n) = sim.basalt(id) {
        return Some(n.view().sample_ids());
    }
    if let Some(n) = sim.lift(id) {
        return Some(n.view().to_vec());
    }
    sim.honeybee(id).map(|n| n.view().to_vec())
}

/// What `id` would receive from a pull round: its own view plus the
/// views of its first few correct view members.
fn pull_batch(sim: &Simulation, id: NodeId, view: &[NodeId]) -> Vec<NodeId> {
    let mut batch = view.to_vec();
    for m in view.iter().filter(|&&m| m != id).take(4) {
        if let Some(v) = view_ids(sim, *m) {
            batch.extend(v);
        }
    }
    batch
}

/// Replays every layer's hot function on the live state after `round`.
struct Replayer {
    seed: u64,
    challenger: Challenger,
    samples: Samples,
    errors: Vec<String>,
}

impl Replayer {
    fn new(sim: &Simulation, seed: u64) -> Self {
        let s = sim.scenario();
        Self {
            seed,
            challenger: Challenger::new(
                AuditConfig::with_budget(8),
                seed,
                sim.total_actors(),
                s.byzantine_count(),
            ),
            samples: Samples::default(),
            errors: Vec::new(),
        }
    }

    fn key(&self, round: usize, salt: u64) -> u64 {
        mix64(self.seed ^ mix64((round as u64) << 8 | salt))
    }

    fn after_round(&mut self, sim: &Simulation, round: usize, tr: &mut Tracer, parent: usize) {
        tr.span("replay.sampler", parent, || self.sampler(sim, round));
        tr.span("replay.lift", parent, || self.lift(sim, round));
        tr.span("replay.basalt", parent, || self.basalt(sim, round));
        tr.span("replay.honeybee", parent, || self.honeybee(sim, round));
        tr.span("replay.audit", parent, || self.audit(sim, round));
        tr.span("replay.crypto", parent, || self.crypto(sim, round));
        tr.span("replay.event", parent, || self.event(sim, round));
        tr.span("replay.discovery", parent, || self.discovery(sim, round));
    }

    /// `SamplerArray::observe_all` on clones of live samplers, once with
    /// the live seen-cache and once with it disabled: the cost ratio is
    /// the share of the batch that pays the full hash loop (first
    /// contacts).
    fn sampler(&mut self, sim: &Simulation, round: usize) {
        for (id, node) in pick(sim, self.key(round, 1), PER_ROUND, |id| sim.node(id)) {
            let view: Vec<NodeId> = node.brahms().view().ids().collect();
            let batch = pull_batch(sim, id, &view);
            if batch.is_empty() {
                continue;
            }
            let mut live = node.brahms().sampler().clone();
            let mut cold = live.clone();
            cold.limit_seen_cache(0);
            let ((), t_live) = timed(|| live.observe_all(batch.iter().copied()));
            let ((), t_cold) = timed(|| cold.observe_all(batch.iter().copied()));
            if live.samples() != cold.samples() {
                self.errors
                    .push(format!("sampler of {id:?}: seen-cache changed the samples"));
            }
            self.samples
                .push("sampler.observe_ns", t_live * 1e9 / batch.len() as f64);
            self.samples
                .push("sampler.first_contact_ratio", (t_live / t_cold).min(1.0));
        }
    }

    /// `LiftNode::record_pull_answer` on clones of live LIFT nodes, fed a
    /// live LIFT view member's pull answer.
    fn lift(&mut self, sim: &Simulation, round: usize) {
        for (id, node) in pick(sim, self.key(round, 2), PER_ROUND, |id| sim.lift(id)) {
            self.samples.push(
                "lift.score_table_fill",
                node.tracked_scores() as f64 / node.config().score_capacity as f64,
            );
            let Some((m, peer)) = node
                .view()
                .iter()
                .find_map(|&m| sim.lift(m).filter(|_| m != id).map(|p| (m, p)))
            else {
                continue;
            };
            let answer = peer.pull_answer();
            let mut c = node.clone();
            let ((), t) = timed(|| c.record_pull_answer(m, &answer));
            self.samples.push("lift.record_pull_answer_us", t * 1e6);
        }
    }

    /// `BasaltNode::record_pull_answer` on clones of live BASALT nodes.
    fn basalt(&mut self, sim: &Simulation, round: usize) {
        for (id, node) in pick(sim, self.key(round, 3), PER_ROUND, |id| sim.basalt(id)) {
            let Some((m, peer)) = node
                .view()
                .sample_iter()
                .find_map(|m| sim.basalt(m).filter(|_| m != id).map(|p| (m, p)))
            else {
                continue;
            };
            let answer = peer.pull_answer();
            let mut c = node.clone();
            let ((), t) = timed(|| c.record_pull_answer(m, &answer));
            self.samples.push("basalt.record_pull_answer_us", t * 1e6);
        }
    }

    /// `WalkTranscript::verify` on walks laid through live Honeybee
    /// views, each hop the one the chain commits to.
    fn honeybee(&mut self, sim: &Simulation, round: usize) {
        let key = self.key(round, 4);
        for (id, node) in pick(sim, key, PER_ROUND, |id| sim.honeybee(id)) {
            let Some(&first) = node.view().first() else {
                continue;
            };
            let mut walk = WalkTranscript::new(id, key ^ id.0);
            let mut hop = first;
            for _ in 0..node.config().walk_length {
                let Some(responder) = sim.honeybee(hop) else {
                    break;
                };
                walk.extend(hop, &responder.pull_answer());
                match walk.next_hop() {
                    Some(next) => hop = next,
                    None => break,
                }
            }
            if walk.is_empty() {
                continue;
            }
            let (ok, t) = timed(|| walk.verify());
            if !ok {
                self.errors
                    .push(format!("honest walk from {id:?} failed verification"));
            }
            self.samples.push("honeybee.walk_verify_us", t * 1e6);
        }
    }

    /// `Challenger::commit_view` and the merkle root under it, on live
    /// views of trusted nodes.
    fn audit(&mut self, sim: &Simulation, round: usize) {
        let trusted = pick(sim, self.key(round, 5), PER_ROUND, |id| {
            sim.is_trusted(id).then(|| view_ids(sim, id)).flatten()
        });
        for (id, view) in trusted {
            let ((), t) = timed(|| self.challenger.commit_view(round as u32, id.index(), &view));
            self.samples.push("audit.commit_view_us", t * 1e6);
            let (root, t) = timed(|| {
                let leaves: Vec<_> = view.iter().map(|v| leaf_hash(&v.to_bytes())).collect();
                MerkleTree::from_leaves(&leaves).root()
            });
            std::hint::black_box(root);
            self.samples.push("tee.merkle_root_us", t * 1e6);
        }
    }

    /// SHA-256 throughput over live view bytes.
    fn crypto(&mut self, sim: &Simulation, round: usize) {
        let mut buf: Vec<u8> = pick(sim, self.key(round, 6), PER_ROUND, |id| view_ids(sim, id))
            .iter()
            .flat_map(|(_, v)| v.iter().flat_map(|id| id.to_bytes()))
            .collect();
        if buf.is_empty() {
            return;
        }
        while buf.len() < SHA_BYTES {
            buf.extend_from_within(..buf.len().min(SHA_BYTES - buf.len()));
        }
        let (digest, t) = timed(|| Sha256::digest(&buf));
        std::hint::black_box(digest);
        self.samples.push(
            "crypto.sha256_mib_per_s",
            buf.len() as f64 / (1 << 20) as f64 / t,
        );
    }

    /// `EventQueue` push then pop of one round's message volume.
    fn event(&mut self, sim: &Simulation, round: usize) {
        let volume = queue_volume(sim.scenario());
        let key = self.key(round, 7);
        let total = sim.total_actors() as u64;
        let msgs: Vec<(u64, u32, NodeId)> = (0..volume as u64)
            .map(|j| {
                let h = mix64(key ^ j);
                (
                    h % 1_000,
                    (h >> 20) as u32 % total as u32,
                    NodeId(mix64(h) % total),
                )
            })
            .collect();
        let mut q = EventQueue::new();
        let (popped, t) = timed(|| {
            for &(time, dst, sender) in &msgs {
                q.push(
                    time,
                    Envelope::Request {
                        dst,
                        lane: Lane::Honest,
                        held: false,
                        msg: raptee::wire::Message::Push { sender },
                    },
                );
            }
            let mut popped = 0usize;
            while q.pop().is_some() {
                popped += 1;
            }
            popped
        });
        if popped != volume {
            self.errors
                .push(format!("event queue popped {popped} of {volume} messages"));
        }
        self.samples
            .push("event.queue_push_pop_ns", t * 1e9 / volume.max(1) as f64);
        self.samples.push("event.queue_volume", volume as f64);
    }

    /// Discovery inserts and estimates (HLL sketch and exact bitset) on
    /// the IDs live nodes would receive.
    fn discovery(&mut self, sim: &Simulation, round: usize) {
        let rows: Vec<Vec<NodeId>> =
            pick(sim, self.key(round, 8), PER_ROUND, |id| view_ids(sim, id))
                .into_iter()
                .map(|(id, view)| pull_batch(sim, id, &view))
                .collect();
        let inserts: usize = rows.iter().map(Vec::len).sum();
        if inserts == 0 {
            return;
        }
        let universe = sim.total_actors();
        for (sketch, name) in [
            (true, "discovery.hll_update_ns"),
            (false, "discovery.exact_insert_ns"),
        ] {
            let mut d = Discovery::new(rows.len(), universe, sketch);
            let ((), t) = timed(|| {
                for (r, ids) in rows.iter().enumerate() {
                    for id in ids {
                        d.insert(r, id.index());
                    }
                }
            });
            self.samples.push(name, t * 1e9 / inserts as f64);
            if sketch {
                for r in 0..rows.len() {
                    let (n, t) = timed(|| d.count(r));
                    std::hint::black_box(n);
                    self.samples.push("discovery.hll_estimate_us", t * 1e6);
                }
            }
        }
    }

    /// `certify_and_provision`: the per-trusted-node set-up cost.
    fn provision(&mut self, run: usize) {
        let mut service = provisioning::new_attestation_service(self.seed ^ run as u64);
        for platform in 0..PER_ROUND as u64 {
            let (key, t) = timed(|| provisioning::certify_and_provision(&mut service, platform));
            std::hint::black_box(key);
            self.samples.push("tee.provision_us", t * 1e6);
        }
    }
}

/// Messages per round on the run's network: every node's pushes and
/// pulls, `(α + β)·l1 = (1 − γ)·l1` each, capped at [`MAX_QUEUE_VOLUME`].
fn queue_volume(s: &Scenario) -> usize {
    (((1.0 - s.gamma) * (s.view_size * s.total_actors()) as f64) as usize)
        .clamp(1, MAX_QUEUE_VOLUME)
}

/// One traced repetition; returns (setup, per-round, teardown) seconds.
fn traced_rep(
    w: &Workload,
    run: usize,
    tr: &mut Tracer,
    replayer: &mut Option<Replayer>,
) -> (f64, Vec<f64>, f64) {
    let top = tr.open("run", None, run);
    let setup = tr.open("engine.setup", Some(top), run);
    let mut sim = Simulation::new(w.scenario.clone());
    let setup_s = tr.close(setup);
    let rp = replayer.get_or_insert_with(|| Replayer::new(&sim, w.scenario.seed));
    tr.span("replay.tee_provision", top, || rp.provision(run));
    let mut rounds = Vec::with_capacity(w.scenario.rounds);
    for round in 0..w.scenario.rounds {
        let id = tr.open("engine.round", Some(top), run);
        sim.run_round();
        rounds.push(tr.close(id));
        rp.after_round(&sim, round, tr, top);
    }
    let teardown = tr.open("engine.teardown", Some(top), run);
    drop(sim);
    let teardown_s = tr.close(teardown);
    tr.close(top);
    (setup_s, rounds, teardown_s)
}

/// `--trace 1`: alternating untraced and traced repetitions inside the
/// window, the determinism check, then the per-layer metrics.
pub fn traced(w: &Workload, window: Duration, tally: &mut Tally) -> Vec<Metric> {
    let mut tr = Tracer::new();
    let mut replayer = None;
    let mut reference = None;
    let mut untraced_runs = Vec::new();
    let mut first_result: Option<RunResult> = None;
    let mut setups = Vec::new();
    let mut teardowns = Vec::new();
    let mut traced_runs = Vec::new();
    let mut rounds_by_index: Vec<Vec<f64>> = vec![Vec::new(); w.scenario.rounds];
    let start = Instant::now();
    for pair in 1.. {
        if let Some(r) = checked_rep(
            &format!("untraced repetition {pair}"),
            &w.scenario,
            &mut reference,
            tally,
        ) {
            untraced_runs.push(r.run_s);
            first_result.get_or_insert(r.result);
        }
        let outcome = check::guarded(|| traced_rep(w, pair as usize, &mut tr, &mut replayer))
            .and_then(|v| {
                let errors = replayer.as_mut().map(|r| std::mem::take(&mut r.errors));
                match errors {
                    Some(e) if !e.is_empty() => Err(e.join("; ")),
                    _ => Ok(v),
                }
            });
        if let Some((setup_s, rounds, teardown_s)) =
            tally.record(&format!("traced repetition {pair}"), outcome)
        {
            setups.push(setup_s);
            teardowns.push(teardown_s);
            traced_runs.push(rounds.iter().sum::<f64>() + teardown_s);
            for (i, r) in rounds.into_iter().enumerate() {
                rounds_by_index[i].push(r);
            }
        }
        let elapsed = start.elapsed();
        if elapsed + elapsed / pair > window {
            break;
        }
    }
    worker_count_check(w, reference, tally);

    let path = out_dir().join(format!("spans-{}-seed{}.json", w.name, w.scenario.seed));
    if let Err(e) =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, tr.to_json()))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }

    let samples = replayer.map(|r| r.samples).unwrap_or_default();
    let mut m = engine_metrics(
        &rounds_by_index,
        &setups,
        &teardowns,
        &traced_runs,
        &untraced_runs,
    );
    m.extend(layer_metrics(&samples));
    m.extend(count_metrics(first_result.as_ref()));
    m
}

fn engine_metrics(
    rounds_by_index: &[Vec<f64>],
    setups: &[f64],
    teardowns: &[f64],
    traced_runs: &[f64],
    untraced_runs: &[f64],
) -> Vec<Metric> {
    let ms = |xs: &[f64]| xs.iter().map(|x| x * 1e3).collect::<Vec<f64>>();
    let all: Vec<f64> = ms(&rounds_by_index.concat());
    let (tail_pct, tail) = stats::tail(&all);
    let late_from = rounds_by_index.len() - (rounds_by_index.len() / 4).max(1);
    let untraced = stats::median(untraced_runs);
    let overhead = if untraced > 0.0 {
        (stats::median(traced_runs) - untraced) / untraced * 100.0
    } else {
        0.0
    };
    vec![
        ("engine.setup_ms", stats::median(&ms(setups)), "ms"),
        ("engine.round_ms.p50", stats::median(&all), "ms"),
        ("engine.round_ms.tail", tail, "ms"),
        ("engine.round_ms.tail_pct", tail_pct, "%"),
        ("engine.round_ms.samples", all.len() as f64, "count"),
        (
            "engine.first_round_ms",
            stats::mean(&ms(&rounds_by_index[0])),
            "ms",
        ),
        (
            "engine.late_round_ms",
            stats::mean(&ms(&rounds_by_index[late_from..].concat())),
            "ms",
        ),
        ("engine.teardown_ms", stats::median(&ms(teardowns)), "ms"),
        ("engine.trace_overhead_pct", overhead, "%"),
    ]
}

fn layer_metrics(s: &Samples) -> Vec<Metric> {
    vec![
        ("sampler.observe_ns", s.median("sampler.observe_ns"), "ns"),
        (
            "sampler.first_contact_ratio",
            s.median("sampler.first_contact_ratio"),
            "ratio",
        ),
        ("sampler.replays", s.count("sampler.observe_ns"), "count"),
        (
            "lift.record_pull_answer_us",
            s.median("lift.record_pull_answer_us"),
            "us",
        ),
        (
            "lift.score_table_fill",
            stats::mean(s.get("lift.score_table_fill")),
            "ratio",
        ),
        (
            "lift.replays",
            s.count("lift.record_pull_answer_us"),
            "count",
        ),
        (
            "basalt.record_pull_answer_us",
            s.median("basalt.record_pull_answer_us"),
            "us",
        ),
        (
            "basalt.replays",
            s.count("basalt.record_pull_answer_us"),
            "count",
        ),
        (
            "honeybee.walk_verify_us",
            s.median("honeybee.walk_verify_us"),
            "us",
        ),
        (
            "honeybee.replays",
            s.count("honeybee.walk_verify_us"),
            "count",
        ),
        (
            "audit.commit_view_us",
            s.median("audit.commit_view_us"),
            "us",
        ),
        ("audit.replays", s.count("audit.commit_view_us"), "count"),
        ("tee.merkle_root_us", s.median("tee.merkle_root_us"), "us"),
        ("tee.provision_us", s.median("tee.provision_us"), "us"),
        (
            "crypto.sha256_mib_per_s",
            s.median("crypto.sha256_mib_per_s"),
            "MiB/s",
        ),
        (
            "event.queue_push_pop_ns",
            s.median("event.queue_push_pop_ns"),
            "ns",
        ),
        (
            "event.queue_volume",
            s.median("event.queue_volume"),
            "count",
        ),
        (
            "discovery.hll_update_ns",
            s.median("discovery.hll_update_ns"),
            "ns",
        ),
        (
            "discovery.hll_estimate_us",
            s.median("discovery.hll_estimate_us"),
            "us",
        ),
        (
            "discovery.exact_insert_ns",
            s.median("discovery.exact_insert_ns"),
            "ns",
        ),
        (
            "discovery.replays",
            s.count("discovery.hll_estimate_us"),
            "count",
        ),
    ]
}

/// Exact counts of the first untraced repetition (0 where the layer is
/// off in the workload; availability 1 without churn).
fn count_metrics(r: Option<&RunResult>) -> Vec<Metric> {
    let c = |v: u64| v as f64;
    let net = r.and_then(|r| r.net).unwrap_or_default();
    let audit = r.and_then(|r| r.audit.as_ref());
    let a = |f: fn(&raptee_sim::AuditStats) -> u64| audit.map_or(0.0, |s| c(f(s)));
    let rec = r.and_then(|r| r.recovery.as_ref());
    vec![
        (
            "audit.answered_ratio",
            audit.map_or(0.0, |s| {
                s.audits_answered as f64 / s.audits_issued.max(1) as f64
            }),
            "ratio",
        ),
        (
            "brahms.floods_detected",
            r.map_or(0.0, |r| c(r.floods_detected)),
            "count",
        ),
        (
            "core.evicted_ids",
            r.map_or(0.0, |r| c(r.total_evicted)),
            "count",
        ),
        (
            "basalt.seed_rotations",
            r.map_or(0.0, |r| c(r.seed_rotations)),
            "count",
        ),
        ("audit.audits_issued", a(|s| s.audits_issued), "count"),
        ("audit.convictions", a(|s| s.convictions), "count"),
        (
            "audit.false_accusations",
            a(|s| s.false_accusations),
            "count",
        ),
        (
            "audit.commitments_recorded",
            a(|s| s.commitments_recorded),
            "count",
        ),
        ("event.late_deliveries", c(net.late_deliveries), "count"),
        ("event.partition_held", c(net.partition_held), "count"),
        ("event.refused_pulls", c(net.refused_pulls), "count"),
        ("event.retries_issued", c(net.retries_issued), "count"),
        (
            "event.duplicates_suppressed",
            c(net.duplicates_suppressed),
            "count",
        ),
        ("event.in_flight_at_end", c(net.in_flight_at_end), "count"),
        ("event.nonce_evictions", c(net.nonce_evictions), "count"),
        (
            "recovery.crashes",
            rec.map_or(0.0, |s| c(s.crashes)),
            "count",
        ),
        (
            "recovery.restarts",
            rec.map_or(0.0, |s| c(s.restarts)),
            "count",
        ),
        (
            "recovery.availability",
            rec.map_or(1.0, |s| s.availability),
            "ratio",
        ),
    ]
}
