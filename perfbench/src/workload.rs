//! The four workloads: what each one sets up, the operations of one round,
//! and the closed loop that repeats whole rounds for the measured phase.
//!
//! One client thread runs every operation in turn and waits for each (a
//! closed loop with no think time); the engine keeps its default, sequential
//! pool. A run repeats whole rounds, so every run attempts the same mix of
//! operations whatever its length.
//!
//! The result line must carry every end-to-end metric on every workload, so
//! each round holds every kind of operation. The kinds a workload is about
//! run on the hub and make up most of its time; the others sample the
//! bystander `B`, a peer outside the hub's closure, so they neither disturb
//! the hub's cache nor weigh on the round.

use crate::clock::{self, Clock, Sample, Scale};
use crate::gen::{self, Generated, Shape, UpdateSpec, UpdateStream, BYSTANDER, HUB};
use crate::layers::Layers;
use crate::oracle::Oracle;
use crate::stats::median;
use pdes_core::engine::Provenance;
use pdes_core::{Answers, PeerId, Query, QueryEngine, Strategy};
use pdes_session::{Session, Update, Writer};
use relalg::database::GroundAtom;
use relalg::{Delta, Tuple};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` reports their median.
pub const SETUPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdGround,
    ColdSearch,
    WarmRead,
    LiveUpdate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdGround,
        Workload::ColdSearch,
        Workload::WarmRead,
        Workload::LiveUpdate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdGround => "cold_ground",
            Workload::ColdSearch => "cold_search",
            Workload::WarmRead => "warm_read",
            Workload::LiveUpdate => "live_update",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated star. `cold_ground` is one world: every spoke is
    /// trusted more than the hub, so grounding the imports dominates.
    /// The others are a mixed-trust star whose four planted key conflicts
    /// give the hub 16 worlds.
    pub fn shape(self) -> Shape {
        match self {
            Workload::ColdGround => Shape {
                more: 7,
                same: 0,
                tuples: 200,
                conflicts: 0,
                group: 4,
                bystander: 40,
            },
            _ => Shape {
                more: 2,
                same: 3,
                tuples: 40,
                conflicts: 4,
                group: 4,
                bystander: 40,
            },
        }
    }
}

/// One operation of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A cold ASP answer, on an engine whose cache is empty.
    Cold(usize),
    /// A cold answer through the naive strategy (repair search).
    Naive(usize),
    /// A pass of cache hits, one per query.
    Warm(Vec<usize>),
    /// A commit of the next update aimed at the peer with this index.
    Commit(usize),
    /// The first read after a commit.
    Fresh(usize),
}

/// Queries and peers a round plan refers to, by index.
struct Targets {
    hub_scan: usize,
    hub_shapes: Vec<usize>,
    by_scan: usize,
    bystander: usize,
    hub: usize,
    /// Star spokes as `(peer index, scan query index)`.
    leaves: Vec<(usize, usize)>,
}

impl Targets {
    fn new(generated: &Generated) -> Self {
        let query = |name: &str| {
            generated
                .queries
                .iter()
                .position(|q| q.name == name)
                .expect("generated query")
        };
        let leaves = generated
            .peers
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.trust, gen::Trust::More | gen::Trust::Same))
            .map(|(i, p)| (i, query(&format!("scan_{}", p.name))))
            .collect();
        Targets {
            hub_scan: query("scan_H"),
            hub_shapes: generated
                .queries
                .iter()
                .enumerate()
                .filter(|(_, q)| q.peer == HUB)
                .map(|(i, _)| i)
                .collect(),
            by_scan: query(&format!("scan_{BYSTANDER}")),
            bystander: generated.peer_index(BYSTANDER),
            hub: generated.peer_index(HUB),
            leaves,
        }
    }
}

/// The operations of round number `round`.
fn plan(workload: Workload, t: &Targets, round: usize) -> Vec<Step> {
    use Step::*;
    let probes = |steps: &mut Vec<Step>, commits: usize| {
        for _ in 0..commits {
            steps.push(Commit(t.bystander));
            steps.push(Fresh(t.hub_scan));
        }
    };
    let mut steps = Vec::new();
    match workload {
        Workload::ColdGround => {
            steps.extend((0..4).map(|_| Cold(t.hub_scan)));
            steps.extend((0..2).map(|_| Naive(t.by_scan)));
            steps.extend((0..6).map(|_| Warm(t.hub_shapes.clone())));
            probes(&mut steps, 3);
        }
        Workload::ColdSearch => {
            steps.extend((0..2).map(|_| Cold(t.hub_scan)));
            steps.extend((0..2).map(|_| Naive(t.hub_scan)));
            steps.extend((0..8).map(|_| Warm(t.hub_shapes.clone())));
            probes(&mut steps, 3);
        }
        Workload::WarmRead => {
            steps.extend((0..25).map(|_| Warm(t.hub_shapes.clone())));
            steps.push(Cold(t.by_scan));
            steps.push(Naive(t.by_scan));
            probes(&mut steps, 1);
        }
        Workload::LiveUpdate => {
            // Three commits to the hot peer (the hub), then one to a spoke
            // that rotates with the round. Each commit is followed by the
            // first hub read and a pass over the spokes it did not touch.
            let spoke = t.leaves[round % t.leaves.len()].0;
            for target in [t.hub, t.hub, t.hub, spoke] {
                steps.push(Commit(target));
                steps.push(Fresh(t.hub_scan));
                steps.push(Warm(
                    t.leaves
                        .iter()
                        .filter(|(peer, _)| *peer != target)
                        .map(|(_, q)| *q)
                        .collect(),
                ));
            }
            steps.extend((0..3).map(|_| Cold(t.by_scan)));
            steps.extend((0..3).map(|_| Naive(t.by_scan)));
        }
    }
    steps
}

/// The queries the warm-up pass answers: every query a round reads warm,
/// plus the bystander's scan so its commits have a slice to repair.
fn warm_set(workload: Workload, t: &Targets) -> Vec<usize> {
    let mut queries = match workload {
        Workload::LiveUpdate => t.leaves.iter().map(|(_, q)| *q).collect(),
        _ => t.hub_shapes.clone(),
    };
    queries.extend([t.hub_scan, t.by_scan]);
    queries.sort_unstable();
    queries.dedup();
    queries
}

/// Everything a measured phase runs against.
pub struct Setup {
    pub generated: Generated,
    /// The engine queries, index-aligned with `generated.queries`.
    pub queries: Vec<Query>,
    /// Serves the cold and naive answers; never sees a commit.
    pub cold: QueryEngine,
    /// Serves the warm reads and takes the commits.
    pub session: Session,
    pub writer: Writer,
}

/// Parse the system, build both engines (the analyzer runs in each build)
/// and answer the warm-up pass.
fn set_up(generated: &Generated, warm: &[usize]) -> Result<(Setup, Vec<Answers>), String> {
    let parsed = dsl::parse(&generated.pds).map_err(|e| format!("parse: {e}"))?;
    let queries = generated
        .queries
        .iter()
        .map(|q| {
            let named = &parsed.queries[&q.name];
            Query::new(
                named.peer.clone(),
                named.formula.clone(),
                named.free_vars.clone(),
            )
        })
        .collect::<Vec<_>>();
    let cold = QueryEngine::builder(parsed.system.clone())
        .strategy(Strategy::Asp)
        .build();
    let session = Session::with_engine(
        QueryEngine::builder(parsed.system)
            .strategy(Strategy::Asp)
            .build(),
    );
    let writer = session.writer().map_err(|e| e.to_string())?;
    let answers = warm
        .iter()
        .map(|&q| session.query(&queries[q]).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        Setup {
            generated: generated.clone(),
            queries,
            cold,
            session,
            writer,
        },
        answers,
    ))
}

fn update_of(generated: &Generated, update: &UpdateSpec) -> Update {
    let relation = &generated.peers[generated.peer_index(&update.peer)].relation;
    let atom = |(k, v): &(String, String)| GroundAtom::new(relation.clone(), Tuple::strs([k, v]));
    Update::new(
        PeerId::new(update.peer.clone()),
        Delta::from_changes([atom(&update.insert)], [atom(&update.delete)]),
    )
}

/// Timing samples of a run, in milliseconds, each with the time it was
/// taken at so that it can be scaled by the host's speed then.
#[derive(Debug, Default)]
pub struct Samples {
    pub cold: Vec<Sample>,
    pub naive: Vec<Sample>,
    pub warm: Vec<Sample>,
    /// Mean hit latency of each warm pass.
    pub warm_passes: Vec<Sample>,
    pub commit: Vec<Sample>,
    pub fresh: Vec<Sample>,
    /// Every operation run.
    pub ops: Vec<Sample>,
    /// Each set-up's time in seconds, and the kernel's time around it.
    pub setup_s: Vec<(f64, f64)>,
}

/// Picks one kind of sample out of a run.
pub type Kind = fn(&Samples) -> &Vec<Sample>;

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub samples: Samples,
    /// The host's speed over the measured phase.
    pub scale: Scale,
    /// Kernel runs in the measured phase, in milliseconds.
    pub kernel: Vec<f64>,
    pub cache_bytes: usize,
    /// Per-layer metrics of a traced run, as `(name, unit, value)`.
    pub layers: Vec<(String, &'static str, f64)>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The checks of one answer, against the oracle and the path the operation
/// is meant to take. Returns what went wrong.
fn check(
    answers: &Answers,
    expected: &std::collections::BTreeSet<Tuple>,
    hit: Option<bool>,
    worlds: Option<usize>,
) -> Result<(), String> {
    if &answers.tuples != expected {
        let missing = expected.difference(&answers.tuples).count();
        let extra = answers.tuples.difference(expected).count();
        return Err(format!(
            "wrong answers: {missing} missing, {extra} unexpected"
        ));
    }
    if hit.is_some_and(|hit| hit != answers.stats.cache_hit) {
        return Err(format!("cache_hit is {}", answers.stats.cache_hit));
    }
    let counted = match answers.provenance {
        Provenance::Asp {
            answer_set_count, ..
        } => answer_set_count,
        Provenance::Naive { solution_count, .. } => solution_count,
        _ => answers.stats.worlds,
    };
    match worlds {
        Some(w) if counted != w || answers.stats.worlds != w => Err(format!(
            "{counted} solutions over {} worlds, expected {w}",
            answers.stats.worlds
        )),
        _ => Ok(()),
    }
}

/// Run `workload` for `seconds` of measured phase.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let generated = gen::generate(workload.shape(), seed);
    let targets = Targets::new(&generated);
    let warm = warm_set(workload, &targets);
    let planted = 1usize << workload.shape().conflicts;
    let mut samples = Samples::default();
    let mut layers = traced.then(|| Layers::new(workload));

    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let kernel = clock::block();
        let start = Instant::now();
        let (built, answers) = set_up(&generated, &warm)?;
        samples
            .setup_s
            .push((start.elapsed().as_secs_f64(), kernel));
        let oracle = Oracle::new(&generated);
        for (&q, answers) in warm.iter().zip(&answers) {
            check(answers, &oracle.expected(&generated.queries[q]), None, None)
                .map_err(|e| format!("warm-up {}: {e}", generated.queries[q].name))?;
        }
        if let Some(layers) = layers.as_mut() {
            layers.set_up(&generated);
        }
        setup = Some(built);
    }
    let mut setup = setup.expect("at least one set-up");
    if let Some(layers) = layers.as_mut() {
        layers.prepare(&setup, &warm);
    }
    if planted != Oracle::new(&generated).worlds(HUB) {
        return Err("the oracle's world count disagrees with the planted conflicts".into());
    }

    let original = Oracle::new(&generated);
    let mut live = original.clone();
    let mut stream = UpdateStream::new(&generated, seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut clock = Clock::start();
    let mut round = 0;
    // Whole rounds until the time is up.
    while round == 0 || clock.now() < seconds {
        for step in plan(workload, &targets, round) {
            clock.tick();
            let at = clock.now();
            match step {
                Step::Cold(q) | Step::Naive(q) => {
                    let naive = matches!(step, Step::Naive(_));
                    let spec = &generated.queries[q];
                    let query = &setup.queries[q];
                    let strategy = if naive {
                        Strategy::Naive
                    } else {
                        Strategy::Asp
                    };
                    let start = Instant::now();
                    let result = setup.cold.answer_with(
                        strategy,
                        &query.peer,
                        &query.query,
                        &query.free_vars,
                    );
                    let took = start.elapsed();
                    // Leave the cold engine's cache empty for the next one.
                    setup.cold.flush_cache();
                    attempted += 1;
                    samples.ops.push(Sample { at, ms: ms(took) });
                    let worlds = original.worlds(&spec.peer);
                    let served = result.as_ref().map_or(0, |a| a.stats.worlds);
                    match result.map_err(|e| e.to_string()).and_then(|a| {
                        check(&a, &original.expected(spec), Some(false), Some(worlds))
                    }) {
                        Ok(()) => {
                            let kind = if naive {
                                &mut samples.naive
                            } else {
                                &mut samples.cold
                            };
                            kind.push(Sample { at, ms: ms(took) })
                        }
                        Err(e) => fail(format!("{step:?} {}: {e}", spec.name), &mut failed),
                    }
                    if let Some(layers) = layers.as_mut() {
                        layers.cold(&setup, q, naive, served);
                    }
                }
                Step::Warm(pass) => {
                    let mut total = Duration::ZERO;
                    for q in pass.iter().copied() {
                        clock.tick();
                        let at = clock.now();
                        let (took, served) = read(&setup, &live, q, &mut attempted, &mut failed);
                        samples.ops.push(Sample { at, ms: ms(took) });
                        total += took;
                        if served > 0 {
                            samples.warm.push(Sample { at, ms: ms(took) });
                        }
                        if let Some(layers) = layers.as_mut() {
                            layers.read(&setup, q, served);
                        }
                    }
                    samples.warm_passes.push(Sample {
                        at,
                        ms: ms(total) / pass.len() as f64,
                    });
                }
                Step::Fresh(q) => {
                    let (took, served) = read(&setup, &live, q, &mut attempted, &mut failed);
                    samples.ops.push(Sample { at, ms: ms(took) });
                    if served > 0 {
                        samples.fresh.push(Sample { at, ms: ms(took) });
                    }
                    if let Some(layers) = layers.as_mut() {
                        layers.read(&setup, q, served);
                    }
                }
                Step::Commit(peer) => {
                    let spec = stream.next(&generated, peer);
                    let update = update_of(&generated, &spec);
                    let start = Instant::now();
                    let result = setup.writer.apply(std::slice::from_ref(&update));
                    let took = start.elapsed();
                    attempted += 1;
                    samples.ops.push(Sample { at, ms: ms(took) });
                    live.apply(&spec);
                    match result {
                        Ok(receipt) if receipt.touched.contains(&update.peer) => {
                            samples.commit.push(Sample { at, ms: ms(took) })
                        }
                        Ok(_) => fail(
                            format!("commit to {} changed nothing", spec.peer),
                            &mut failed,
                        ),
                        Err(e) => fail(format!("commit to {}: {e}", spec.peer), &mut failed),
                    }
                    if let Some(layers) = layers.as_mut() {
                        layers.commit(&setup, &update);
                    }
                }
            }
        }
        round += 1;
    }

    let cache_bytes = setup.session.engine().cached_bytes();
    let layers = match layers {
        Some(layers) => layers.report(&setup, attempted),
        None => Vec::new(),
    };
    if workload == Workload::ColdGround {
        // Cross-mechanism check: first-order rewriting answers every hub
        // query exactly as the ASP program does.
        for &q in &targets.hub_shapes {
            let query = &setup.queries[q];
            let spec = &generated.queries[q];
            let rewritten = setup
                .cold
                .answer_with(
                    Strategy::Rewriting,
                    &query.peer,
                    &query.query,
                    &query.free_vars,
                )
                .map_err(|e| e.to_string())?;
            check(&rewritten, &original.expected(spec), None, None)
                .map_err(|e| format!("rewriting {}: {e}", spec.name))?;
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        samples,
        scale: clock.scale(),
        kernel: clock.runs().iter().map(|s| s.ms).collect(),
        cache_bytes,
        layers,
    })
}

/// One hit read of query `q` from the serving session, checked against the
/// live oracle. Returns its latency and the worlds the engine reported, 0
/// when the read failed.
fn read(
    setup: &Setup,
    live: &Oracle,
    q: usize,
    attempted: &mut u64,
    failed: &mut u64,
) -> (Duration, usize) {
    let spec = &setup.generated.queries[q];
    let start = Instant::now();
    let result = setup.session.query(&setup.queries[q]);
    let took = start.elapsed();
    *attempted += 1;
    let worlds = live.worlds(&spec.peer);
    let served = result.as_ref().map_or(0, |a| a.stats.worlds);
    match result
        .map_err(|e| e.to_string())
        .and_then(|a| check(&a, &live.expected(spec), Some(true), Some(worlds)))
    {
        Ok(()) => (took, served),
        Err(e) => {
            fail(format!("read {}: {e}", spec.name), failed);
            (took, 0)
        }
    }
}

/// Count a failed operation, describing the first few on standard error.
fn fail(what: String, failed: &mut u64) {
    if *failed < 5 {
        eprintln!("FAILED {what}");
    }
    *failed += 1;
}

/// The end-to-end metrics of an untraced run, as `(name, unit, value)`:
/// whole-run order statistics of the latencies scaled by the host's speed
/// (see `clock`).
pub fn end_to_end(outcome: &Outcome) -> Vec<(String, &'static str, f64)> {
    let s = &outcome.samples;
    let scaled = |of: Kind| outcome.scale.apply(of(s));
    let p50 = |of: Kind| median(&scaled(of)).unwrap_or(f64::NAN);
    let setup: Vec<f64> = s
        .setup_s
        .iter()
        .map(|(secs, kernel)| secs * clock::REFERENCE_MS / kernel)
        .collect();
    let busy_s: f64 = scaled(|s| &s.ops).iter().sum::<f64>() / 1e3;
    let m = |name: &str, unit: &'static str, v: f64| (name.to_string(), unit, v);
    vec![
        m("setup_s", "s", median(&setup).unwrap_or(f64::NAN)),
        m("cold_p50_ms", "ms", p50(|s| &s.cold)),
        m("naive_p50_ms", "ms", p50(|s| &s.naive)),
        m("warm_p50_ms", "ms", p50(|s| &s.warm_passes)),
        m("commit_p50_ms", "ms", p50(|s| &s.commit)),
        m("fresh_p50_ms", "ms", p50(|s| &s.fresh)),
        m("ops_per_s", "1/s", s.ops.len() as f64 / busy_s),
        m("cache_bytes", "bytes", outcome.cache_bytes as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An answer with one tuple added or one tuple removed is a failure.
    #[test]
    fn one_tuple_more_or_less_is_caught() {
        let generated = gen::generate(Workload::ColdSearch.shape(), 3);
        let oracle = Oracle::new(&generated);
        let spec = &generated.queries[0];
        let engine = QueryEngine::builder(dsl::parse(&generated.pds).expect("parses").system)
            .strategy(Strategy::Asp)
            .build();
        let (peer, formula, vars) = {
            let parsed = dsl::parse(&generated.pds).expect("parses");
            let named = parsed.queries[&spec.name].clone();
            (named.peer, named.formula, named.free_vars)
        };
        let mut answers = engine.answer(&peer, &formula, &vars).expect("answers");
        let expected = oracle.expected(spec);
        assert_eq!(check(&answers, &expected, Some(false), Some(16)), Ok(()));
        let some = answers.tuples.iter().next().cloned().expect("non-empty");
        answers.tuples.remove(&some);
        assert!(check(&answers, &expected, None, None).is_err());
        answers.tuples.insert(some);
        answers.tuples.insert(Tuple::strs(["kh99999", "v0"]));
        assert!(check(&answers, &expected, None, None).is_err());
    }

    /// Two traced runs of one round report identical per-layer counts.
    #[test]
    fn traced_counts_repeat_exactly() {
        for workload in [Workload::ColdSearch, Workload::LiveUpdate] {
            let counts = || -> Vec<(String, f64)> {
                let outcome = run(workload, 11, 1e-9, true).expect("runs");
                assert_eq!(outcome.failed, 0);
                outcome
                    .layers
                    .into_iter()
                    .filter(|(_, unit, _)| *unit != "ms")
                    .map(|(name, _, value)| (name, value))
                    .collect()
            };
            let first = counts();
            assert!(first
                .iter()
                .any(|(name, _)| name == "datalog.rederived_rules"));
            assert_eq!(first, counts(), "{}", workload.name());
        }
    }
}
