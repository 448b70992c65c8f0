//! The strategy layer: the runtime choice of anonymization algorithm.
//!
//! [`Algorithm`] names the choice; its [`name`](Algorithm::name) is the
//! stable tag the CLI flag, the genesis file and the checkpoint use.
//! [`Strategy`] carries one algorithm's parameters (Mondrian's requirement,
//! bucketization's ℓ, full-domain's search mode). Planting it on a table
//! yields a [`Planted`]: the algorithm paired with its retained **state** —
//! the data structure a publishing session keeps alive between deltas so
//! republication is incremental. For Mondrian the state is the
//! [`PartitionTree`]; for bucketization it is the bucket membership
//! ([`BucketizeState`]); for full-domain generalization it is the
//! satisfying frontier of the generalization lattice ([`FullDomainState`]).
//! Each variant pairs an algorithm with its own state type, so a strategy
//! refreshing another algorithm's state cannot be represented.
//!
//! The contract every algorithm upholds, proptest-enforced in
//! `tests/tests/strategies.rs`:
//!
//! * **Bit-identity.** After any sequence of [`refresh`]es the
//!   [`snapshot`](Planted::snapshot) is bit-identical to
//!   [`plant`](Strategy::plant)ing on the final table from scratch —
//!   incremental maintenance is an optimization, never a different answer.
//!   [`plant_with`](Strategy::plant_with) under any [`Parallelism`] is
//!   bit-identical to the serial `plant`.
//! * **Error atomicity.** A [`refresh`] that returns [`Infeasible`] leaves
//!   the state untouched and usable.
//! * **Stamp semantics.** The `Vec<u64>` half of a snapshot carries one
//!   stamp per group, aligned with the anonymized table's groups. A group's
//!   stamp changes whenever its membership changes and never collides
//!   between distinct memberships, making the stamps valid cache tokens for
//!   audit-session risk caches.
//!
//! [`refresh`]: Planted::refresh

use std::fmt;

use bgkanon_data::{Parallelism, Table};

use crate::anonymized::AnonymizedTable;
use crate::bucketize::{Bucketize, BucketizeState};
use crate::fulldomain::{FullDomain, FullDomainState};
use crate::mondrian::Mondrian;
use crate::tree::PartitionTree;

/// The algorithm cannot produce (or maintain) a publication for this input.
///
/// Mondrian reports infeasibility when the whole table violates the
/// requirement; bucketization when the most frequent sensitive value
/// exceeds `1/ℓ` of the tuples; full-domain generalization when even the
/// top of the lattice fails. The `reason` is human-readable and stable
/// enough to surface in CLI errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Infeasible {
    /// Why no publication exists.
    pub reason: String,
}

impl Infeasible {
    /// Build from any displayable reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Infeasible {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Infeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "infeasible: {}", self.reason)
    }
}

impl std::error::Error for Infeasible {}

/// Which anonymization algorithm publishes a table. All three publish the
/// same [`AnonymizedTable`] group structure; they differ in how groups are
/// formed and which requirement kinds they can enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Mondrian multidimensional local recoding — the default; enforces any
    /// requirement combination.
    #[default]
    Mondrian,
    /// Anatomy-style bucketization on the sensitive attribute; enforces
    /// k-anonymity and distinct ℓ-diversity (the bucket invariant — ≥ ℓ
    /// distinct sensitive values, size ≥ ℓ — implies both).
    Bucketize,
    /// Incognito-style full-domain generalization over the level lattice;
    /// enforces any requirement combination.
    FullDomain,
}

impl Algorithm {
    /// The stable lowercase identifier: CLI flag value, genesis-file
    /// `algorithm` line and checkpoint `strategy` tag.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Mondrian => "mondrian",
            Algorithm::Bucketize => "bucketize",
            Algorithm::FullDomain => "fulldomain",
        }
    }

    /// Parse the identifier [`name()`](Self::name) emits.
    pub fn parse(s: &str) -> Option<Self> {
        [
            Algorithm::Mondrian,
            Algorithm::Bucketize,
            Algorithm::FullDomain,
        ]
        .into_iter()
        .find(|a| a.name() == s)
    }
}

/// Map a row index of the pre-delta table to its index in the post-delta
/// table: survivors shift down by the number of deleted rows below them,
/// deleted rows map to `None`. `sorted_deletes` is ascending and
/// deduplicated (the [`bgkanon_data::Delta`] contract).
pub(crate) fn remap_row(row: usize, sorted_deletes: &[usize]) -> Option<usize> {
    match sorted_deletes.binary_search(&row) {
        Ok(_) => None,
        Err(below) => Some(row - below),
    }
}

/// Carry group stamps across a refresh: a new group whose row list is
/// exactly an old group's row list remapped through the delta (same
/// records, same order) keeps its stamp; every other group draws a fresh
/// one from `next_stamp`. Old groups that lost a member to a delete can
/// never match — their membership changed by definition.
///
/// Exact-order matching (not set matching) is deliberate: a cached risk is
/// replayed only when recomputing it would walk the identical rows in the
/// identical order, so replay is bit-identical even where float summation
/// order matters.
pub(crate) fn reuse_stamps(
    old_groups: &[Vec<usize>],
    old_stamps: &[u64],
    deletes: &[usize],
    new_groups: &[Vec<usize>],
    next_stamp: &mut u64,
) -> Vec<u64> {
    use std::collections::BTreeMap;
    let mut surviving: Vec<(Vec<usize>, u64)> = Vec::with_capacity(old_groups.len());
    'groups: for (rows, &stamp) in old_groups.iter().zip(old_stamps) {
        let mut mapped = Vec::with_capacity(rows.len());
        for &r in rows {
            match remap_row(r, deletes) {
                Some(nr) => mapped.push(nr),
                None => continue 'groups,
            }
        }
        surviving.push((mapped, stamp));
    }
    let mut by_rows: BTreeMap<&[usize], u64> = surviving
        .iter()
        .map(|(rows, stamp)| (rows.as_slice(), *stamp))
        .collect();
    new_groups
        .iter()
        .map(|rows| match by_rows.remove(rows.as_slice()) {
            Some(stamp) => stamp,
            None => {
                let stamp = *next_stamp;
                *next_stamp += 1;
                stamp
            }
        })
        .collect()
}

/// An algorithm with its parameters, ready to plant on a table.
pub enum Strategy {
    /// Mondrian local recoding over a [`PartitionTree`].
    Mondrian(Mondrian),
    /// Anatomy-style ℓ-diverse bucketization.
    Bucketize(Bucketize),
    /// Incognito-style full-domain generalization.
    FullDomain(FullDomain),
}

impl Strategy {
    /// The algorithm this strategy runs.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Strategy::Mondrian(_) => Algorithm::Mondrian,
            Strategy::Bucketize(_) => Algorithm::Bucketize,
            Strategy::FullDomain(_) => Algorithm::FullDomain,
        }
    }

    /// Human-readable one-line description of the configured parameters,
    /// for the CLI's `--explain`.
    pub fn describe(&self) -> String {
        match self {
            Strategy::Mondrian(m) => format!(
                "mondrian (local recoding, median splits) enforcing {}",
                m.requirement().name()
            ),
            Strategy::Bucketize(b) => format!(
                "bucketize (Anatomy): ≥ {} distinct sensitive values per bucket, QI published verbatim",
                b.l()
            ),
            Strategy::FullDomain(f) => format!(
                "full-domain generalization ({}) enforcing {}",
                if f.monotone {
                    "monotone minimal-vector search"
                } else {
                    "exhaustive lattice search"
                },
                f.requirement.name()
            ),
        }
    }

    /// Build the retained state for `table` from scratch with the chosen
    /// execution engine. Output is bit-identical across every
    /// [`Parallelism`] (serial twin: [`plant`](Self::plant)). Only Mondrian
    /// has a parallel engine; bucketization's greedy and full-domain's
    /// lattice sweep are sequential and run serially regardless.
    ///
    /// Mondrian panics when the whole table violates its requirement;
    /// callers check that first (as sessions and `Publisher` do).
    pub fn plant_with(
        self,
        table: &Table,
        parallelism: Parallelism,
    ) -> Result<Planted, Infeasible> {
        Ok(match self {
            Strategy::Mondrian(m) => {
                let tree = m.plant_with(table, parallelism);
                Planted::Mondrian(m, tree)
            }
            Strategy::Bucketize(b) => {
                let state = b.plant(table)?;
                Planted::Bucketize(b, state)
            }
            Strategy::FullDomain(f) => {
                let state = f.plant(table)?;
                Planted::FullDomain(f, state)
            }
        })
    }

    /// Serial reference twin of [`plant_with`](Self::plant_with).
    pub fn plant(self, table: &Table) -> Result<Planted, Infeasible> {
        self.plant_with(table, Parallelism::Serial)
    }
}

/// A planted strategy: each algorithm paired with the state it retains
/// between deltas.
pub enum Planted {
    /// Mondrian and its partition tree.
    Mondrian(Mondrian, PartitionTree),
    /// Bucketization and its bucket membership.
    Bucketize(Bucketize, BucketizeState),
    /// Full-domain generalization and its lattice frontier.
    FullDomain(FullDomain, FullDomainState),
}

impl Planted {
    /// The algorithm this state belongs to.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Planted::Mondrian(..) => Algorithm::Mondrian,
            Planted::Bucketize(..) => Algorithm::Bucketize,
            Planted::FullDomain(..) => Algorithm::FullDomain,
        }
    }

    /// Derive the current publication and its per-group stamps from the
    /// state and the table it reflects. Stamps are aligned with
    /// `AnonymizedTable::groups()` (see the module docs for their
    /// contract).
    pub fn snapshot(&self, table: &Table) -> (AnonymizedTable, Vec<u64>) {
        match self {
            Planted::Mondrian(_, tree) => tree.snapshot(table),
            Planted::Bucketize(_, state) => state.snapshot(table),
            Planted::FullDomain(_, state) => state.snapshot(table),
        }
    }

    /// Evolve the state from `old` to `new` (relating the two through the
    /// delta's `deletes`, indices into `old`; inserted rows are appended
    /// at the tail of `new`). On `Ok` the state reflects `new`
    /// bit-identically to a from-scratch plant; on `Err` the state is
    /// unchanged and still reflects `old`.
    pub fn refresh(
        &mut self,
        old: &Table,
        new: &Table,
        deletes: &[usize],
    ) -> Result<(), Infeasible> {
        match self {
            Planted::Mondrian(m, tree) => {
                m.refresh(tree, old, new, deletes);
                Ok(())
            }
            Planted::Bucketize(b, state) => b.refresh(state, new, deletes),
            Planted::FullDomain(f, state) => f.refresh(state, new, deletes),
        }
    }

    /// Amortize derived caches (Mondrian's per-node histograms) after a
    /// plant or resume so the first refresh runs at steady-state speed.
    /// Changes no observable output.
    pub fn warm(&mut self, table: &Table) {
        if let Planted::Mondrian(m, tree) = self {
            m.warm_stats(tree, table);
        }
    }

    /// Heap bytes the state holds resident — rolled into the serving hub's
    /// per-tenant memory gauges, same accounting policy as
    /// [`Table::bytes_accounted`].
    pub fn bytes_accounted(&self) -> usize {
        match self {
            Planted::Mondrian(_, tree) => tree.bytes_accounted(),
            Planted::Bucketize(_, state) => state.bytes_accounted(),
            Planted::FullDomain(_, state) => state.bytes_accounted(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::adult;
    use bgkanon_privacy::KAnonymity;
    use std::sync::Arc;

    #[test]
    fn mondrian_strategy_matches_inherent_engine() {
        let t = adult::generate(300, 21);
        let requirement: Arc<dyn bgkanon_privacy::PrivacyRequirement> =
            Arc::new(KAnonymity::new(4));
        let planted = Strategy::Mondrian(Mondrian::new(Arc::clone(&requirement)))
            .plant(&t)
            .expect("satisfiable");
        let direct = Mondrian::new(requirement).plant(&t);
        let (a, stamps_a) = planted.snapshot(&t);
        let (b, stamps_b) = direct.snapshot(&t);
        assert_eq!(stamps_a, stamps_b);
        for (ga, gb) in a.groups().iter().zip(b.groups()) {
            assert_eq!(ga.rows, gb.rows);
        }
    }

    #[test]
    fn infeasible_is_a_std_error() {
        let e = Infeasible::new("no ℓ-diverse partition");
        assert!(e.to_string().contains("infeasible"));
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.source().is_none());
    }
}
