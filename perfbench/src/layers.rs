//! The traced run's per-layer metrics, timed from outside the program.
//!
//! Beside each engine operation the traced run repeats that operation's work
//! layer by layer, calling each layer's public entry point from here and
//! timing the call: `dsl::parse`, `P2PSystem::analyze` and
//! `InProcessStore::new` for set-up; the annotated encoding, relevance
//! analysis, grounding, stable-model search and decoding for a cold ASP
//! answer; the repair search and the constraint check for a naive answer;
//! the columnar plan for a read; the store publish and the incremental
//! patch (then a re-solve and re-decode) for a commit. No span is added
//! inside the program.
//!
//! Each layer's samples come from one kind of operation per workload, so a
//! median never falls between a cheap kind and an expensive one: the
//! search and decode samples are the commits' repairs on `live_update` and
//! the cold answers elsewhere.

use crate::gen::{Generated, HUB};
use crate::stats::median;
use crate::workload::{Setup, Workload};
use constraints::{Constraint, ConstraintChecker};
use datalog::graph::is_head_cycle_free;
use datalog::shift::shift_ground;
use datalog::solve::NormalSolver;
use datalog::{
    AnswerSets, GroundAtom, GroundProgram, Grounder, IncrementalGround, QuerySeed,
    RelevanceAnalysis, SolverConfig,
};
use pdes_core::asp::encode::encode_value_shared;
use pdes_core::asp::{annotated_program_with, AnnotatedSpec};
use pdes_core::solution::solutions_with_stats;
use pdes_core::{
    CacheMetrics, InProcessStore, P2PSystem, PeerId, PeerStore, Query, SolutionOptions,
};
use pdes_session::Update;
use relalg::{ColumnarDatabase, CqPlan, SymbolTable};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// An outside replica of one slice the serving engine keeps warm: the
/// hub's or a spoke's scan slice, with its retained grounding state.
struct Slice {
    closure: BTreeSet<PeerId>,
    spec: AnnotatedSpec,
    state: IncrementalGround,
    worlds: Vec<ColumnarDatabase>,
}

/// Per-layer samples of a traced run.
pub struct Layers {
    workload: Workload,
    /// Milliseconds per call, by metric name.
    times: BTreeMap<&'static str, Vec<f64>>,
    /// Work per call, by metric name.
    counts: BTreeMap<&'static str, Vec<f64>>,
    /// Replicas of the serving engine's warm slices, by peer.
    slices: BTreeMap<PeerId, Slice>,
    /// A store that receives the same commits as the serving session.
    twin: Option<InProcessStore>,
    /// Engine counters when the measured phase began.
    before: CacheMetrics,
    /// Worlds of each answer the engine served.
    worlds: Vec<f64>,
}

/// Time `f` into `layers.times[name]`.
macro_rules! timed {
    ($layers:expr, $name:literal, $body:expr) => {{
        let start = Instant::now();
        let out = $body;
        let took = start.elapsed().as_secs_f64() * 1e3;
        $layers.times.entry($name).or_default().push(took);
        out
    }};
}

fn sum(a: CacheMetrics, b: CacheMetrics) -> CacheMetrics {
    let mut m = a;
    m.hits += b.hits;
    m.misses += b.misses;
    m.patched += b.patched;
    m.invalidated += b.invalidated;
    m
}

impl Layers {
    pub fn new(workload: Workload) -> Self {
        Layers {
            workload,
            times: BTreeMap::new(),
            counts: BTreeMap::new(),
            slices: BTreeMap::new(),
            twin: None,
            before: CacheMetrics::default(),
            worlds: Vec::new(),
        }
    }

    fn count(&mut self, name: &'static str, value: usize) {
        self.counts.entry(name).or_default().push(value as f64);
    }

    /// Set-up layers: parse, build the store (interning), then analyze the
    /// store's instance-free topology, as building an engine does.
    pub fn set_up(&mut self, generated: &Generated) {
        let parsed = timed!(self, "dsl.parse_ms", dsl::parse(&generated.pds)).expect("parses");
        let store = timed!(self, "store.build_ms", InProcessStore::new(parsed.system));
        let report = timed!(self, "core.analyze_ms", store.topology().analyze());
        std::hint::black_box(report);
        self.twin = Some(store);
    }

    /// Replicate the serving engine's warm slices and note its counters.
    pub fn prepare(&mut self, setup: &Setup, warm: &[usize]) {
        let system = setup.session.current_system().expect("current system");
        let symbols = setup.session.engine().store().symbols();
        let peers: BTreeSet<&str> = warm
            .iter()
            .map(|&q| setup.generated.queries[q].peer.as_str())
            .collect();
        for peer in peers {
            let relation = &setup.generated.peers[setup.generated.peer_index(peer)].relation;
            let peer = PeerId::new(peer);
            let (spec, seeds, grounder) = encode(&system, &peer, relation, &symbols);
            let restricted =
                RelevanceAnalysis::analyze(grounder.program(), &seeds).restrict(grounder.program());
            let state = IncrementalGround::new(&restricted).expect("grounds");
            let (sets, _) = solve(state.to_ground());
            let worlds = decode(&spec, &sets, &symbols);
            let closure = system.dependencies_of(&peer);
            self.slices.insert(
                peer,
                Slice {
                    closure,
                    spec,
                    state,
                    worlds,
                },
            );
        }
        self.before = sum(setup.cold.metrics(), setup.session.metrics());
    }

    /// A cold answer to query `q` (ASP, or naive when `naive`), replicated
    /// on the cold engine's system; `worlds` is what the engine reported.
    pub fn cold(&mut self, setup: &Setup, q: usize, naive: bool, worlds: usize) {
        self.worlds.push(worlds as f64);
        let spec = &setup.generated.queries[q];
        let system = setup.cold.snapshot_system().expect("cold system");
        let peer = PeerId::new(spec.peer.clone());
        if naive {
            let (solutions, stats) = timed!(
                self,
                "repair.solutions_ms",
                solutions_with_stats(&system, &peer, SolutionOptions::default())
            )
            .expect("solutions");
            self.count("repair.states", stats.states_explored);
            self.count("repair.solutions", solutions.len());
            let hub = PeerId::new(HUB);
            let decs: Vec<Constraint> = system
                .decs_of(&hub)
                .iter()
                .map(|d| d.constraint.clone())
                .collect();
            let global = system.global_instance().expect("global instance");
            let checker = ConstraintChecker::new(&global);
            let violations = timed!(
                self,
                "constraints.check_ms",
                checker.all_violations(decs.iter())
            );
            std::hint::black_box(violations.expect("checks"));
            return;
        }
        let symbols = setup.cold.store().symbols();
        let relation = &setup.generated.peers[setup.generated.peer_index(&spec.peer)].relation;
        let (asp, seeds, grounder) = timed!(
            self,
            "core.encode_ms",
            encode(&system, &peer, relation, &symbols)
        );
        let analysis = timed!(
            self,
            "datalog.relevance_ms",
            RelevanceAnalysis::analyze(grounder.program(), &seeds)
        );
        std::hint::black_box(analysis);
        let ground =
            timed!(self, "datalog.ground_ms", grounder.ground_relevant(&seeds)).expect("grounds");
        self.count("datalog.ground_rules", ground.rule_count());
        self.count("datalog.ground_atoms", ground.atom_count());
        let search = self.workload != Workload::LiveUpdate;
        self.search_and_decode(&asp, ground, &symbols, search);
    }

    /// Solve and decode a ground program, recording both layers when
    /// `record`; returns the decoded worlds.
    fn search_and_decode(
        &mut self,
        spec: &AnnotatedSpec,
        ground: GroundProgram,
        symbols: &Arc<SymbolTable>,
        record: bool,
    ) -> Vec<ColumnarDatabase> {
        let start = Instant::now();
        let (sets, _) = solve(ground);
        let solve_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let worlds = decode(spec, &sets, symbols);
        let decode_ms = start.elapsed().as_secs_f64() * 1e3;
        if record {
            self.times
                .entry("datalog.solve_ms")
                .or_default()
                .push(solve_ms);
            self.times
                .entry("core.decode_ms")
                .or_default()
                .push(decode_ms);
            self.count("datalog.branch_nodes", sets.branch_nodes);
            self.count("datalog.answer_sets", sets.sets.len());
        }
        worlds
    }

    /// A read of query `q` from the serving session: evaluate it over the
    /// replica of its slice.
    pub fn read(&mut self, setup: &Setup, q: usize, worlds: usize) {
        self.worlds.push(worlds as f64);
        let spec = &setup.generated.queries[q];
        let query = &setup.queries[q];
        let symbols = setup.session.engine().store().symbols();
        let slice = self
            .slices
            .get(&PeerId::new(spec.peer.clone()))
            .expect("warm slice");
        let ((world_rows, answer_rows), took) = eval(&slice.worlds, query, &symbols);
        self.times.entry("relalg.eval_ms").or_default().push(took);
        self.count("relalg.world_rows", world_rows);
        self.count("relalg.answer_rows", answer_rows);
    }

    /// A commit: publish it on the twin store, then patch, re-solve and
    /// re-decode every replica whose closure it touches.
    pub fn commit(&mut self, setup: &Setup, update: &Update) {
        let twin = self.twin.as_ref().expect("twin store");
        let cow_before = twin.mvcc_stats().cow_pages;
        let published = timed!(
            self,
            "store.publish_ms",
            twin.apply_delta(&update.peer, &update.delta)
        );
        published.expect("publishes");
        let cow = self
            .twin
            .as_ref()
            .expect("twin store")
            .mvcc_stats()
            .cow_pages
            - cow_before;
        self.count("store.cow_pages", cow as usize);
        let symbols = setup.session.engine().store().symbols();
        let atoms = |set: &BTreeSet<relalg::database::GroundAtom>| -> Vec<GroundAtom> {
            set.iter()
                .map(|a| GroundAtom {
                    predicate: a.relation.clone(),
                    strong_neg: false,
                    args: a
                        .tuple
                        .iter()
                        .map(|v| encode_value_shared(v, &symbols))
                        .collect(),
                })
                .collect()
        };
        let (insertions, deletions) = (
            atoms(&update.delta.insertions),
            atoms(&update.delta.deletions),
        );
        let record = self.workload == Workload::LiveUpdate;
        let touched: Vec<PeerId> = self
            .slices
            .iter()
            .filter(|(_, s)| s.closure.contains(&update.peer))
            .map(|(peer, _)| peer.clone())
            .collect();
        for peer in touched {
            let mut slice = self.slices.remove(&peer).expect("slice");
            let start = Instant::now();
            let patch = slice.state.apply_delta(&insertions, &deletions);
            let ground = slice.state.to_ground();
            self.times
                .entry("datalog.patch_ms")
                .or_default()
                .push(start.elapsed().as_secs_f64() * 1e3);
            self.count("datalog.rederived_rules", patch.reinstantiated_rules);
            slice.worlds = self.search_and_decode(&slice.spec, ground, &symbols, record);
            self.slices.insert(peer, slice);
        }
    }

    /// The per-layer metrics: the median of every timed layer and count,
    /// and the engine's cache counters per operation.
    pub fn report(self, setup: &Setup, operations: u64) -> Vec<(String, &'static str, f64)> {
        let mut out = Vec::new();
        for (name, samples) in &self.times {
            out.push((name.to_string(), "ms", median(samples).unwrap_or(f64::NAN)));
        }
        for (name, samples) in &self.counts {
            out.push((
                name.to_string(),
                "count",
                median(samples).unwrap_or(f64::NAN),
            ));
        }
        let now = sum(setup.cold.metrics(), setup.session.metrics());
        let per_op = |now: u64, before: u64| (now - before) as f64 / operations as f64;
        out.push((
            "core.cache_hits".into(),
            "count/op",
            per_op(now.hits, self.before.hits),
        ));
        out.push((
            "core.cache_misses".into(),
            "count/op",
            per_op(now.misses, self.before.misses),
        ));
        out.push((
            "core.patched".into(),
            "count/op",
            per_op(now.patched, self.before.patched),
        ));
        out.push((
            "core.invalidated".into(),
            "count/op",
            per_op(now.invalidated, self.before.invalidated),
        ));
        let worlds = self.worlds.iter().sum::<f64>() / self.worlds.len().max(1) as f64;
        out.push(("core.worlds".into(), "count/op", worlds));
        out
    }
}

/// The annotated specification program of `peer` over its relevant-peer
/// closure (as the engine hydrates it), with the unbound seed of the
/// peer's relation and the grounder over the program.
fn encode(
    system: &P2PSystem,
    peer: &PeerId,
    relation: &str,
    symbols: &SymbolTable,
) -> (AnnotatedSpec, Vec<QuerySeed>, Grounder) {
    let mut hydrated = system.topology_only();
    for member in system.dependencies_of(peer) {
        let instance = system.peer(&member).expect("peer").instance.clone();
        hydrated.set_instance(&member, instance).expect("hydrates");
    }
    let spec = annotated_program_with(&hydrated, peer, Some(symbols)).expect("encodes");
    let seeds = vec![QuerySeed::new(spec.solution_predicate(relation))];
    let grounder = Grounder::new(&spec.program);
    (spec, seeds, grounder)
}

/// Every stable model of a ground program, shifting a head-cycle-free
/// disjunctive program to a normal one first, as the engine does.
fn solve(ground: GroundProgram) -> (AnswerSets, GroundProgram) {
    let (program, used_shift) = if ground.is_disjunctive() {
        assert!(
            is_head_cycle_free(&ground),
            "generated programs are head-cycle-free"
        );
        (shift_ground(&ground), true)
    } else {
        (ground, false)
    };
    let (models, branch_nodes) = NormalSolver::new(&program, SolverConfig::default())
        .answer_sets()
        .expect("solves");
    let sets = models.iter().map(|m| program.decode(m)).collect();
    (
        AnswerSets {
            sets,
            branch_nodes,
            used_shift,
        },
        program,
    )
}

/// Answer sets to solution databases to the columnar worlds a read
/// evaluates over.
fn decode(
    spec: &AnnotatedSpec,
    sets: &AnswerSets,
    symbols: &Arc<SymbolTable>,
) -> Vec<ColumnarDatabase> {
    spec.solution_databases(sets)
        .expect("decodes")
        .iter()
        .map(|db| ColumnarDatabase::from_database(db, symbols))
        .collect()
}

/// Evaluate `query` in every world, intersect and materialize, as a warm
/// read does. Returns `(rows over all worlds, certain rows)` and the time
/// taken in milliseconds.
fn eval(
    worlds: &[ColumnarDatabase],
    query: &Query,
    symbols: &SymbolTable,
) -> ((usize, usize), f64) {
    let start = Instant::now();
    let plan = CqPlan::compile(&query.query, &query.free_vars).expect("conjunctive query");
    let mut rows = 0;
    let mut certain: Option<BTreeSet<Vec<u32>>> = None;
    for world in worlds {
        let these = plan.answers(world).expect("evaluates");
        rows += these.len();
        certain = Some(match certain {
            None => these,
            Some(acc) => acc.intersection(&these).cloned().collect(),
        });
    }
    let answers = CqPlan::materialize(&certain.unwrap_or_default(), symbols);
    let took = start.elapsed().as_secs_f64() * 1e3;
    ((rows, answers.len()), took)
}
