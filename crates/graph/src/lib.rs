//! # sskel-graph — graph substrate for stable skeleton graphs
//!
//! Directed-graph foundation for the reproduction of *“Solving k-Set
//! Agreement with Stable Skeleton Graphs”* (Biely, Robinson, Schmid,
//! IPDPS-W 2011, arXiv:1102.4423).
//!
//! Everything in the paper is phrased over directed graphs on a fixed
//! process universe `Π = {p1, …, pn}`:
//!
//! * per-round **communication graphs** `G^r` and their intersections, the
//!   **skeletons** `G∩r` — plain [`Digraph`]s with word-parallel
//!   intersection;
//! * **timely neighborhoods** `PT(p, r)` — bitset [`ProcessSet`] rows of a
//!   skeleton;
//! * the local **approximation graphs** `G_p` of Algorithm 1 — round-labelled
//!   [`LabeledDigraph`]s with max-combine merging, label aging and
//!   reachability pruning;
//! * **strongly connected components** and **root components** — [`scc`] and
//!   [`roots`], with Tarjan's SCC cross-checked by property tests against
//!   an independent, test-only Kosaraju.
//!
//! The higher layers (`sskel-model`, `sskel-predicates`, `sskel-kset`) build
//! the round model, the `Psrcs(k)` predicate machinery, and Algorithm 1 on
//! top of this crate.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the paper-to-code
//! map covering every public module.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod digraph;
pub mod dot;
pub mod labeled;
pub mod process;
pub mod pset;
pub mod rand_graph;
pub mod reach;
pub mod roots;
pub mod scc;

pub use adjacency::Adjacency;
pub use digraph::Digraph;
pub use labeled::LabeledDigraph;
pub use process::{ProcessId, Round, FIRST_ROUND};
pub use pset::ProcessSet;
pub use roots::{root_components, Condensation};
pub use scc::{is_strongly_connected, tarjan, SccDecomposition};
