//! Seeded generation of the benchmark's inputs: a star-shaped peer system
//! rendered as `.pds` text, the query shapes posed to it, and the update
//! stream committed against it.
//!
//! Every size is fixed by the [`Shape`]; the seed only decides *which*
//! tuples share a value, which hub keys conflict with a same-trusted peer
//! and which tuples an update replaces. The work an operation does is
//! therefore the same on every seed, while the data and the expected
//! answers change with it.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The hub: the peer whose answers every workload is about.
pub const HUB: &str = "H";
/// The bystander: an isolated peer outside the hub's closure. Operations a
/// workload only samples (rather than stresses) are aimed at it, so they
/// never disturb the hub's cache.
pub const BYSTANDER: &str = "B";

/// SplitMix64: a tiny, portable, seedable generator (the benchmark must
/// produce the same inputs for the same seed on every machine).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The size and trust make-up of a generated star.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Spokes the hub trusts more than itself (full inclusion into the hub).
    pub more: usize,
    /// Spokes the hub trusts the same as itself (key agreement with the hub).
    pub same: usize,
    /// Tuples per star peer.
    pub tuples: usize,
    /// Hub keys that a same-trusted spoke gives another value. Each one
    /// doubles the hub's solutions.
    pub conflicts: usize,
    /// Tuples sharing one value, which sets the self-join's fan-out.
    pub group: usize,
    /// Tuples of the bystander.
    pub bystander: usize,
}

/// One peer of the star (or the bystander), with its single binary relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSpec {
    pub name: String,
    pub relation: String,
    /// Key prefix; keys of different peers never coincide unless planted.
    pub tag: String,
    pub trust: Trust,
}

/// How the hub trusts a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trust {
    /// The hub itself.
    Hub,
    /// More trusted than the hub: its tuples are imported (full inclusion).
    More,
    /// Trusted the same: keys must agree with the hub's.
    Same,
    /// Not connected to the hub.
    Apart,
}

/// A query shape over one peer's relation `R(k, v)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryShape {
    /// `(X, Y): R(X, Y)`.
    Scan,
    /// `(Y): R(key, Y)`.
    Select(String),
    /// `(X): ∃Y R(X, Y)`.
    Project,
    /// `(X, Z): ∃Y R(X, Y), R(Z, Y)`.
    SelfJoin,
}

/// A named query of the generated system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    pub name: String,
    pub peer: String,
    pub relation: String,
    pub shape: QueryShape,
}

impl QuerySpec {
    fn render(&self) -> String {
        let r = &self.relation;
        let (vars, body) = match &self.shape {
            QueryShape::Scan => ("X, Y".to_string(), format!("{r}(X, Y)")),
            QueryShape::Select(key) => ("Y".to_string(), format!("{r}({key}, Y)")),
            QueryShape::Project => ("X".to_string(), format!("{r}(X, Y)")),
            QueryShape::SelfJoin => ("X, Z".to_string(), format!("{r}(X, Y), {r}(Z, Y)")),
        };
        format!("query {} {} ({vars}): {body}", self.name, self.peer)
    }
}

/// A generated system: its peers and tuples, the `.pds` text the engine
/// parses, and the queries posed to it.
#[derive(Debug, Clone)]
pub struct Generated {
    pub peers: Vec<PeerSpec>,
    /// Initial tuples per peer, as `(key, value)` pairs, in `peers` order.
    pub tuples: Vec<BTreeSet<(String, String)>>,
    pub queries: Vec<QuerySpec>,
    /// Hub keys planted in conflict with a same-trusted spoke.
    pub conflict_keys: BTreeSet<String>,
    pub pds: String,
}

impl Generated {
    pub fn peer_index(&self, name: &str) -> usize {
        self.peers
            .iter()
            .position(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown peer {name}"))
    }
}

fn key(tag: &str, index: usize) -> String {
    format!("k{tag}{index:05}")
}

/// Generate the star of `shape` from `seed`.
pub fn generate(shape: Shape, seed: u64) -> Generated {
    assert!(
        shape.same > 0 || shape.conflicts == 0,
        "conflicts need a same-trusted spoke"
    );
    assert!(
        shape.conflicts < shape.tuples,
        "the hub needs a tuple without conflict"
    );
    let mut rng = Rng::new(seed);
    let mut peers = vec![PeerSpec {
        name: HUB.into(),
        relation: format!("R{HUB}"),
        tag: "h".into(),
        trust: Trust::Hub,
    }];
    for i in 1..=shape.more {
        peers.push(PeerSpec {
            name: format!("M{i}"),
            relation: format!("RM{i}"),
            tag: format!("m{i}"),
            trust: Trust::More,
        });
    }
    for i in 1..=shape.same {
        peers.push(PeerSpec {
            name: format!("S{i}"),
            relation: format!("RS{i}"),
            tag: format!("s{i}"),
            trust: Trust::Same,
        });
    }
    peers.push(PeerSpec {
        name: BYSTANDER.into(),
        relation: format!("R{BYSTANDER}"),
        tag: "b".into(),
        trust: Trust::Apart,
    });

    // The hub keys planted in conflict, chosen by the seed.
    let mut hub_keys: Vec<usize> = (0..shape.tuples).collect();
    rng.shuffle(&mut hub_keys);
    let conflicted: BTreeSet<usize> = hub_keys[..shape.conflicts].iter().copied().collect();

    // Values: each peer's own value space, `group` tuples per value, with a
    // seeded assignment of tuples to groups. A conflicting hub tuple gets a
    // value of its own, so dropping it from the certain answers removes
    // exactly one self-join pair whatever the seed.
    let mut tuples: Vec<BTreeSet<(String, String)>> = Vec::new();
    for peer in &peers {
        let n = if peer.trust == Trust::Apart {
            shape.bystander
        } else {
            shape.tuples
        };
        let grouped: Vec<usize> = (0..n)
            .filter(|i| peer.trust != Trust::Hub || !conflicted.contains(i))
            .collect();
        let mut slots: Vec<usize> = (0..grouped.len()).collect();
        rng.shuffle(&mut slots);
        let mut set: BTreeSet<(String, String)> = grouped
            .iter()
            .zip(&slots)
            .map(|(&i, slot)| {
                (
                    key(&peer.tag, i),
                    format!("v{}{:05}", peer.tag, slot / shape.group),
                )
            })
            .collect();
        if peer.trust == Trust::Hub {
            for (c, &i) in hub_keys[..shape.conflicts].iter().enumerate() {
                set.insert((key(&peer.tag, i), format!("vc{c:05}")));
            }
        }
        tuples.push(set);
    }

    // Each conflict key gets another value at one same-trusted spoke
    // (round-robin); the planted tuple replaces one of the spoke's own, so
    // every spoke keeps its size.
    let mut conflict_keys = BTreeSet::new();
    for (c, &i) in hub_keys[..shape.conflicts].iter().enumerate() {
        let hub_key = key("h", i);
        let spoke = &peers[1 + shape.more + c % shape.same];
        let own = format!("k{}", spoke.tag);
        let spoke_tuples = &mut tuples[1 + shape.more + c % shape.same];
        let victim = spoke_tuples
            .iter()
            .find(|(k, _)| k.starts_with(&own))
            .cloned()
            .expect("spoke has a tuple of its own");
        spoke_tuples.remove(&victim);
        spoke_tuples.insert((hub_key.clone(), format!("vx{c:05}")));
        conflict_keys.insert(hub_key);
    }

    // Queries: every shape at the hub, a scan at every other peer. The
    // selection binds a hub key without conflict, chosen by the seed.
    let select_key = key(
        "h",
        hub_keys[shape.conflicts + rng.below(shape.tuples - shape.conflicts)],
    );
    let mut queries = vec![
        QuerySpec {
            name: "scan_H".into(),
            peer: HUB.into(),
            relation: "RH".into(),
            shape: QueryShape::Scan,
        },
        QuerySpec {
            name: "select_H".into(),
            peer: HUB.into(),
            relation: "RH".into(),
            shape: QueryShape::Select(select_key),
        },
        QuerySpec {
            name: "project_H".into(),
            peer: HUB.into(),
            relation: "RH".into(),
            shape: QueryShape::Project,
        },
        QuerySpec {
            name: "join_H".into(),
            peer: HUB.into(),
            relation: "RH".into(),
            shape: QueryShape::SelfJoin,
        },
    ];
    for peer in &peers[1..] {
        queries.push(QuerySpec {
            name: format!("scan_{}", peer.name),
            peer: peer.name.clone(),
            relation: peer.relation.clone(),
            shape: QueryShape::Scan,
        });
    }

    let mut pds = String::new();
    for peer in &peers {
        let _ = writeln!(pds, "peer {}", peer.name);
        let _ = writeln!(pds, "relation {} {}(k, v)", peer.name, peer.relation);
    }
    for (peer, set) in peers.iter().zip(&tuples) {
        for (k, v) in set {
            let _ = writeln!(pds, "fact {}({k}, {v})", peer.relation);
        }
    }
    for peer in &peers {
        match peer.trust {
            Trust::More => {
                let _ = writeln!(pds, "trust {HUB} less {}", peer.name);
                let _ = writeln!(
                    pds,
                    "dec inc_{0} {HUB} {0}: {1}(X, Y) -> RH(X, Y)",
                    peer.name, peer.relation
                );
            }
            Trust::Same => {
                let _ = writeln!(pds, "trust {HUB} same {}", peer.name);
                let _ = writeln!(
                    pds,
                    "dec key_{0} {HUB} {0}: RH(X, Y), {1}(X, Z) -> Y = Z",
                    peer.name, peer.relation
                );
            }
            Trust::Hub | Trust::Apart => {}
        }
    }
    for q in &queries {
        let _ = writeln!(pds, "{}", q.render());
    }
    Generated {
        peers,
        tuples,
        queries,
        conflict_keys,
        pds,
    }
}

/// One committed batch: `(peer, deleted, inserted)` tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateSpec {
    pub peer: String,
    pub delete: (String, String),
    pub insert: (String, String),
}

/// The deterministic update stream: each update replaces one tuple of its
/// target peer by a tuple with a fresh key and the same value. Sizes, value
/// groups and conflicts never change, so every commit does the same work
/// whatever the seed; planted conflict tuples are never replaced.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    rng: Rng,
    /// Replaceable tuples per peer, in `Generated::peers` order.
    live: Vec<Vec<(String, String)>>,
    tags: Vec<String>,
    next_key: usize,
}

impl UpdateStream {
    pub fn new(generated: &Generated, seed: u64) -> Self {
        let live = generated
            .tuples
            .iter()
            .map(|set| {
                set.iter()
                    .filter(|(k, v)| !generated.conflict_keys.contains(k) && !v.starts_with("vx"))
                    .cloned()
                    .collect()
            })
            .collect();
        UpdateStream {
            rng: Rng::new(seed ^ 0xA5A5_A5A5),
            live,
            tags: generated.peers.iter().map(|p| p.tag.clone()).collect(),
            next_key: 50_000,
        }
    }

    /// The next update aimed at peer number `peer`.
    pub fn next(&mut self, generated: &Generated, peer: usize) -> UpdateSpec {
        let slot = self.rng.below(self.live[peer].len());
        let delete = self.live[peer][slot].clone();
        let insert = (key(&self.tags[peer], self.next_key), delete.1.clone());
        self.next_key += 1;
        self.live[peer][slot] = insert.clone();
        UpdateSpec {
            peer: generated.peers[peer].name.clone(),
            delete,
            insert,
        }
    }
}
