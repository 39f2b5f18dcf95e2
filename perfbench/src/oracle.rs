//! The answer oracle: the benchmark's own copy of every peer's tuples and
//! its own evaluation of the expected answers, computed apart from the
//! program (no `relalg` evaluator, no solver).
//!
//! For the generated stars the peer consistent answers of Definition 5 have
//! a closed form. The hub's solutions import every tuple of a more-trusted
//! spoke, and for each hub tuple whose key a same-trusted spoke gives
//! another value, either side may lose its tuple. So the certain extension
//! of the hub's relation is its imported tuples plus its own tuples minus
//! the conflicting ones, and there are `2^conflicts` solutions. The query
//! shapes are monotone and one solution drops every conflicting hub tuple,
//! so a query's certain answers are its answers over that certain
//! extension. Every other peer has no constraint of its own: its answers
//! are its own tuples. The tests check this form against the naive
//! mechanism on small systems.

use crate::gen::{Generated, QueryShape, QuerySpec, Trust, UpdateSpec};
use relalg::Tuple;
use std::collections::{BTreeMap, BTreeSet};

/// Binary tuples `(key, value)` of one peer.
pub type Pairs = BTreeSet<(String, String)>;

/// The benchmark's model of the system state.
#[derive(Debug, Clone)]
pub struct Oracle {
    trust: Vec<Trust>,
    names: Vec<String>,
    tuples: Vec<Pairs>,
}

impl Oracle {
    pub fn new(generated: &Generated) -> Self {
        Oracle {
            trust: generated.peers.iter().map(|p| p.trust).collect(),
            names: generated.peers.iter().map(|p| p.name.clone()).collect(),
            tuples: generated.tuples.clone(),
        }
    }

    fn index(&self, peer: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == peer)
            .unwrap_or_else(|| panic!("unknown peer {peer}"))
    }

    /// Apply one committed update.
    pub fn apply(&mut self, update: &UpdateSpec) {
        let i = self.index(&update.peer);
        assert!(
            self.tuples[i].remove(&update.delete),
            "deleted tuple must exist"
        );
        assert!(
            self.tuples[i].insert(update.insert.clone()),
            "inserted tuple must be new"
        );
    }

    /// Hub tuples that some same-trusted peer contradicts on the key and
    /// that no more-trusted peer forces in.
    fn conflicting(&self, imported: &Pairs) -> Vec<&(String, String)> {
        let same: BTreeMap<&str, Vec<&str>> = self
            .tuples
            .iter()
            .zip(&self.trust)
            .filter(|(_, t)| **t == Trust::Same)
            .flat_map(|(set, _)| set.iter())
            .fold(BTreeMap::new(), |mut by_key, (k, v)| {
                by_key
                    .entry(k.as_str())
                    .or_insert_with(Vec::new)
                    .push(v.as_str());
                by_key
            });
        self.tuples[0]
            .iter()
            .filter(|t| !imported.contains(*t))
            .filter(|(k, v)| {
                same.get(k.as_str())
                    .is_some_and(|vs| vs.iter().any(|w| w != v))
            })
            .collect()
    }

    fn imported(&self) -> Pairs {
        self.tuples
            .iter()
            .zip(&self.trust)
            .filter(|(_, t)| **t == Trust::More)
            .flat_map(|(set, _)| set.iter().cloned())
            .collect()
    }

    /// The certain extension of `peer`'s relation.
    pub fn certain(&self, peer: &str) -> Pairs {
        let i = self.index(peer);
        if self.trust[i] != Trust::Hub {
            return self.tuples[i].clone();
        }
        let imported = self.imported();
        let dropped: Pairs = self.conflicting(&imported).into_iter().cloned().collect();
        let mut certain: Pairs = self.tuples[i].difference(&dropped).cloned().collect();
        certain.extend(imported);
        certain
    }

    /// The number of solutions of `peer`: two per conflicting hub tuple.
    pub fn worlds(&self, peer: &str) -> usize {
        if self.trust[self.index(peer)] != Trust::Hub {
            return 1;
        }
        1 << self.conflicting(&self.imported()).len()
    }

    /// The expected answers of `query`.
    pub fn expected(&self, query: &QuerySpec) -> BTreeSet<Tuple> {
        evaluate(&query.shape, &self.certain(&query.peer))
    }
}

/// Evaluate a query shape over a binary relation.
pub fn evaluate(shape: &QueryShape, pairs: &Pairs) -> BTreeSet<Tuple> {
    match shape {
        QueryShape::Scan => pairs.iter().map(|(k, v)| Tuple::strs([k, v])).collect(),
        QueryShape::Select(key) => pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| Tuple::strs([v]))
            .collect(),
        QueryShape::Project => pairs.iter().map(|(k, _)| Tuple::strs([k])).collect(),
        QueryShape::SelfJoin => {
            let mut by_value: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
            for (k, v) in pairs {
                by_value.entry(v).or_default().push(k);
            }
            by_value
                .values()
                .flat_map(|keys| {
                    keys.iter()
                        .flat_map(move |x| keys.iter().map(move |z| Tuple::strs([*x, *z])))
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Shape, UpdateStream};
    use pdes_core::engine::Provenance;
    use pdes_core::{QueryEngine, Strategy};

    const TINY: Shape = Shape {
        more: 1,
        same: 2,
        tuples: 5,
        conflicts: 2,
        group: 2,
        bystander: 3,
    };

    /// The closed form agrees with Definition 5 as the naive mechanism
    /// computes it (repair search over the solutions), on every query of
    /// small systems, before and after updates, over several seeds.
    #[test]
    fn oracle_agrees_with_the_naive_mechanism() {
        for seed in 1..=6 {
            let generated = generate(TINY, seed);
            let mut oracle = Oracle::new(&generated);
            let mut stream = UpdateStream::new(&generated, seed);
            let mut system = dsl::parse(&generated.pds).expect("parses").system;
            for step in 0..3 {
                let engine = QueryEngine::builder(system.clone())
                    .strategy(Strategy::Naive)
                    .build();
                let parsed = dsl::parse(&generated.pds).expect("parses");
                for spec in &generated.queries {
                    let named = &parsed.queries[&spec.name];
                    let answers = engine
                        .answer(&named.peer, &named.formula, &named.free_vars)
                        .expect("answers");
                    assert_eq!(
                        answers.tuples,
                        oracle.expected(spec),
                        "seed {seed} step {step} {}",
                        spec.name
                    );
                    let Provenance::Naive { solution_count, .. } = answers.provenance else {
                        panic!("naive provenance")
                    };
                    assert_eq!(
                        solution_count,
                        oracle.worlds(&spec.peer),
                        "seed {seed} {}",
                        spec.name
                    );
                }
                assert_eq!(oracle.worlds("H"), 1 << TINY.conflicts);
                // Replace one tuple of the hub and of a spoke, as the
                // update stream of `live_update` does.
                for peer in [0, 1 + step % (TINY.more + TINY.same)] {
                    let update = stream.next(&generated, peer);
                    let relation = &generated.peers[peer].relation;
                    let pid = pdes_core::PeerId::new(update.peer.clone());
                    let (k, v) = &update.delete;
                    assert!(system
                        .delete(&pid, relation, &relalg::Tuple::strs([k, v]))
                        .expect("deletes"));
                    let (k, v) = &update.insert;
                    system
                        .insert(&pid, relation, relalg::Tuple::strs([k, v]))
                        .expect("inserts");
                    oracle.apply(&update);
                }
            }
        }
    }

    #[test]
    fn conflicts_leave_the_certain_answers_and_double_the_worlds() {
        let generated = generate(TINY, 7);
        let oracle = Oracle::new(&generated);
        let certain = oracle.certain("H");
        for key in &generated.conflict_keys {
            assert!(certain.iter().all(|(k, _)| k != key));
        }
        // Own tuples minus conflicts, plus the more-trusted spoke's.
        assert_eq!(certain.len(), TINY.tuples - TINY.conflicts + TINY.tuples);
        assert_eq!(oracle.worlds("H"), 4);
        assert_eq!(oracle.worlds("S1"), 1);
    }
}
