//! Gradient aggregation strategies — the three S-SGD variants the paper
//! evaluates, plus extensions — behind one [`GradientAggregator`] trait.
//!
//! The trainer hands every aggregator the worker's error-feedback
//! [`Residual`] buffer (already containing this iteration's accumulated
//! gradient), the live membership, and the selection budget `k`; the
//! aggregator extracts what it needs, exchanges it across the members,
//! handles residual put-back, and returns the *averaged* global update
//! to apply. The gTop-k tree variants run their collectives as
//! epoch-stamped plan executions over the member positions, so the same
//! aggregator objects serve the plain and the fault-tolerant training
//! loops (shrunken memberships included) and accept any
//! [`Topology`].

use crate::ft::epoch_tag_offset;
use crate::gtopk_allreduce::{gtopk_all_reduce_over, naive_gtopk_all_reduce};
use crate::selector::{Selector, SelectorState};
use crate::sparse_coll::{sparse_sum_recursive_doubling, sparse_zoo_all_reduce_over};
use gtopk_comm::{collectives, Communicator, Result, Topology};
use gtopk_perfmodel::ZooSchedule;
use gtopk_sparse::{Residual, SparseVec};

/// Lazily-initialized per-rank local top-k extraction (the rank is only
/// known once a communicator is in hand).
#[derive(Debug, Default)]
struct LocalSelect {
    selector: Selector,
    state: Option<SelectorState>,
}

impl LocalSelect {
    fn new(selector: Selector) -> Self {
        LocalSelect {
            selector,
            state: None,
        }
    }

    /// Fused accumulate + extract (one memory pass for the exact and
    /// threshold-estimate selectors; accumulate-then-extract for the
    /// sampled one).
    fn accumulate_extract(
        &mut self,
        comm: &Communicator,
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> SparseVec {
        self.state_for(comm).accumulate_extract(residual, grad, k)
    }

    fn state_for(&mut self, comm: &Communicator) -> &mut SelectorState {
        let selector = self.selector;
        self.state
            .get_or_insert_with(|| SelectorState::new(selector, comm.rank()))
    }

    /// The materialized per-rank state, once an iteration has run.
    fn state(&self) -> Option<&SelectorState> {
        self.state.as_ref()
    }

    /// Restores a previously captured state (process restart), resuming
    /// the RNG stream exactly where the checkpoint froze it.
    fn restore(&mut self, state: SelectorState) {
        self.state = Some(state);
    }
}

/// The aggregated, already `1/P`-averaged model update.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Dense update (the S-SGD baseline).
    Dense(Vec<f32>),
    /// Sparse update (all sparsified variants).
    Sparse(SparseVec),
}

impl Update {
    /// Number of non-zero entries the update carries.
    pub fn nnz(&self) -> usize {
        match self {
            Update::Dense(v) => v.len(),
            Update::Sparse(sv) => sv.nnz(),
        }
    }
}

/// A distributed gradient aggregation strategy.
pub trait GradientAggregator: Send {
    /// Algorithm name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Aggregates this iteration's gradient across `members` (the
    /// sorted, alive rank set — the full `0..P` outside the
    /// fault-tolerant loop).
    ///
    /// On entry, `residual` holds the error feedback carried over from
    /// previous iterations and `grad` this iteration's fresh gradient.
    /// The aggregator folds `grad` into the residual (Algorithm 1/4,
    /// line 4 — fused with selection into a single memory pass where the
    /// selector allows), extracts its share, communicates, returns
    /// rejected values to `residual`, and yields the update averaged
    /// over `|members|`. Must be called collectively by every member.
    ///
    /// # Errors
    ///
    /// Propagates transport errors from the communicator.
    fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> Result<Update>;

    /// The aggregator's local-selection state, when it owns one that has
    /// been materialized. Durable checkpoints persist this at process
    /// granularity so that a restarted rank resumes the sampled kernels'
    /// RNG streams bit-exactly. The dense baseline has no selection
    /// state and keeps the default.
    fn selector_state(&self) -> Option<&SelectorState> {
        None
    }

    /// Restores state captured via
    /// [`GradientAggregator::selector_state`] after a process restart.
    /// No-op for aggregators without selection state.
    fn restore_selector_state(&mut self, _state: SelectorState) {}
}

/// Expands the selector-state capture/restore pair for aggregators that
/// hold a [`LocalSelect`].
macro_rules! selector_state_passthrough {
    () => {
        fn selector_state(&self) -> Option<&SelectorState> {
            self.select.state()
        }

        fn restore_selector_state(&mut self, state: SelectorState) {
            self.select.restore(state);
        }
    };
}

/// Generates the `new`/`with_selector` constructor pair every
/// selector-driven aggregator shares; extra fields (e.g. the collective
/// topology) come from `Default`.
macro_rules! selector_ctors {
    ($ty:ident, $what:literal) => {
        impl $ty {
            #[doc = concat!("Creates the ", $what, " aggregator (exact selection).")]
            pub fn new() -> Self {
                Self::with_selector(Selector::Exact)
            }

            #[doc = concat!("Creates the ", $what, " aggregator with an explicit \
                             local selection kernel.")]
            // The update is a no-op for the single-field aggregators the
            // macro also expands for.
            #[allow(clippy::needless_update)]
            pub fn with_selector(selector: Selector) -> Self {
                Self {
                    select: LocalSelect::new(selector),
                    ..Self::default()
                }
            }
        }
    };
}

/// Generates the topology builder for aggregators whose collective is a
/// plan execution.
macro_rules! topology_builder {
    ($ty:ident) => {
        impl $ty {
            /// Same aggregator, different collective plan topology.
            #[must_use]
            pub fn with_topology(mut self, topology: Topology) -> Self {
                self.topology = topology;
                self
            }
        }
    };
}

/// The AllGather-style baselines run over the fixed full-cluster
/// schedules; a shrunken membership would need the plan-driven variants.
fn require_full_membership(comm: &Communicator, members: &[usize], name: &str) {
    assert_eq!(
        members.len(),
        comm.size(),
        "{name} aggregation supports full membership only"
    );
}

/// Which aggregation algorithm to run — the experiment configuration
/// enum used across the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Dense S-SGD over ring AllReduce.
    Dense,
    /// Top-k S-SGD over the AllGather-equivalent sparse sum (Alg. 1).
    TopK,
    /// gTop-k S-SGD over gTopKAllReduce (Alg. 4, the paper's method).
    GTopK,
    /// gTop-k with the exact sparse sum (Alg. 2; reference).
    NaiveGTopK,
    /// gTop-k with per-merge rejection feedback (our extension).
    GTopKFeedback,
    /// Ablation: gTop-k *without* the residual put-back of Algorithm 4
    /// line 10 — the configuration §III-A warns "could damage the model
    /// convergence". Exists to demonstrate that claim.
    GTopKNoPutback,
    /// Ok-Topk (Li & Hoefler, PPoPP'22): equal `⌈k/P⌉` per-rank
    /// contribution quotas, balanced split-and-aggregate rounds and a
    /// region gather — per-rank volume `O(k)` with no `log P` factor.
    OkTopk,
    /// SparDL (Duan et al.): Spar-Reduce-Scatter with cascading holding
    /// budgets and Spar-All-Gather of the surviving regions — no dense
    /// allgather tail.
    SparDl,
}

impl Algorithm {
    /// All algorithms used in experiments, in presentation order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Dense,
        Algorithm::TopK,
        Algorithm::GTopK,
        Algorithm::NaiveGTopK,
        Algorithm::GTopKFeedback,
        Algorithm::GTopKNoPutback,
        Algorithm::OkTopk,
        Algorithm::SparDl,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Dense => "Dense",
            Algorithm::TopK => "Top-k",
            Algorithm::GTopK => "gTop-k",
            Algorithm::NaiveGTopK => "gTop-k(naive)",
            Algorithm::GTopKFeedback => "gTop-k(feedback)",
            Algorithm::GTopKNoPutback => "gTop-k(no-putback)",
            Algorithm::OkTopk => "Ok-Topk",
            Algorithm::SparDl => "SparDL",
        }
    }

    /// Whether the algorithm's collective is a plan execution that can
    /// run on any [`Topology`] (the gTop-k tree variants). The others
    /// have fixed schedules — ring for dense, recursive doubling /
    /// AllGather for the k-sparse sums — and accept only the default.
    pub fn supports_topology(&self) -> bool {
        matches!(
            self,
            Algorithm::GTopK | Algorithm::GTopKFeedback | Algorithm::GTopKNoPutback
        )
    }

    /// Instantiates the corresponding aggregator with the exact
    /// selection kernel.
    pub fn aggregator(&self) -> Box<dyn GradientAggregator> {
        self.aggregator_with(Selector::Exact)
    }

    /// Instantiates the corresponding aggregator with an explicit local
    /// top-k selection kernel (ignored by the dense baseline).
    pub fn aggregator_with(&self, selector: Selector) -> Box<dyn GradientAggregator> {
        self.aggregator_with_topology(selector, Topology::Binomial)
    }

    /// Instantiates the corresponding aggregator with an explicit
    /// selection kernel *and* collective topology.
    ///
    /// # Panics
    ///
    /// Panics if `topology` is not [`Topology::Binomial`] and the
    /// algorithm's collective is not plan-driven (see
    /// [`Algorithm::supports_topology`]).
    pub fn aggregator_with_topology(
        &self,
        selector: Selector,
        topology: Topology,
    ) -> Box<dyn GradientAggregator> {
        assert!(
            topology == Topology::Binomial || self.supports_topology(),
            "{} has a fixed collective schedule; only the binomial topology applies",
            self.name()
        );
        match self {
            Algorithm::Dense => Box::new(DenseAggregator::new()),
            Algorithm::TopK => Box::new(TopkAggregator::with_selector(selector)),
            Algorithm::GTopK => {
                Box::new(GtopkAggregator::with_selector(selector).with_topology(topology))
            }
            Algorithm::NaiveGTopK => Box::new(NaiveGtopkAggregator::with_selector(selector)),
            Algorithm::GTopKFeedback => {
                Box::new(GtopkFeedbackAggregator::with_selector(selector).with_topology(topology))
            }
            Algorithm::GTopKNoPutback => {
                Box::new(GtopkNoPutbackAggregator::with_selector(selector).with_topology(topology))
            }
            Algorithm::OkTopk => Box::new(OkTopkAggregator::with_selector(selector)),
            Algorithm::SparDl => Box::new(SparDlAggregator::with_selector(selector)),
        }
    }
}

/// Dense S-SGD: ring AllReduce of the full gradient (paper §II-D).
///
/// The residual buffer is drained completely (dense training has no
/// residuals — every gradient is applied immediately).
#[derive(Debug, Default)]
pub struct DenseAggregator;

impl DenseAggregator {
    /// Creates the dense baseline aggregator.
    pub fn new() -> Self {
        DenseAggregator
    }
}

impl GradientAggregator for DenseAggregator {
    fn name(&self) -> &'static str {
        "Dense"
    }

    fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        _k: usize,
    ) -> Result<Update> {
        require_full_membership(comm, members, "Dense");
        residual.accumulate(grad);
        let mut grad = residual.dense().to_vec();
        residual.clear();
        collectives::allreduce_ring(comm, &mut grad)?;
        let inv = 1.0 / comm.size() as f32;
        grad.iter_mut().for_each(|v| *v *= inv);
        Ok(Update::Dense(grad))
    }
}

/// Top-k S-SGD (paper **Algorithm 1**): local top-k extraction, exact
/// sparse sum across ranks (`O(kP)` — the AllGather-equivalent), dense
/// application of the whole summed result.
///
/// Every extracted coordinate is represented in the global sum, so no
/// put-back is needed beyond what stays in the residual.
#[derive(Debug, Default)]
pub struct TopkAggregator {
    select: LocalSelect,
}

selector_ctors!(TopkAggregator, "Top-k baseline");

impl GradientAggregator for TopkAggregator {
    fn name(&self) -> &'static str {
        "Top-k"
    }

    selector_state_passthrough!();

    fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> Result<Update> {
        require_full_membership(comm, members, "Top-k");
        let local = self.select.accumulate_extract(comm, residual, grad, k);
        let mut sum = sparse_sum_recursive_doubling(comm, local)?;
        sum.scale(1.0 / comm.size() as f32);
        Ok(Update::Sparse(sum))
    }
}

/// gTop-k S-SGD (paper **Algorithm 4**): local top-k extraction,
/// gTopKAllReduce, and put-back of the locally-selected-but-globally-
/// rejected values (line 10).
#[derive(Debug, Default)]
pub struct GtopkAggregator {
    select: LocalSelect,
    topology: Topology,
}

selector_ctors!(GtopkAggregator, "gTop-k");
topology_builder!(GtopkAggregator);

impl GradientAggregator for GtopkAggregator {
    fn name(&self) -> &'static str {
        "gTop-k"
    }

    selector_state_passthrough!();

    fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> Result<Update> {
        let local = self.select.accumulate_extract(comm, residual, grad, k);
        let tag_off = epoch_tag_offset(comm.epoch());
        let (mut global, gmask, tree_rejects) =
            gtopk_all_reduce_over(comm, members, local.clone(), k, tag_off, self.topology)?;
        comm.pool().put_sparse(tree_rejects);
        // Alg. 4 line 10: Gᵍ += G̃ᵍ ⊙ ¬gMask ⊙ Mask.
        let (_kept, rejected) = local.partition_by(&gmask);
        residual.put_back(&rejected);
        global.scale(1.0 / members.len() as f32);
        Ok(Update::Sparse(global))
    }
}

/// Algorithm 2 reference: exact sparse sum, then the true global top-k;
/// extracted values outside the global mask return to the residual.
#[derive(Debug, Default)]
pub struct NaiveGtopkAggregator {
    select: LocalSelect,
}

selector_ctors!(NaiveGtopkAggregator, "naive (AllGather-based) gTop-k");

impl GradientAggregator for NaiveGtopkAggregator {
    fn name(&self) -> &'static str {
        "gTop-k(naive)"
    }

    selector_state_passthrough!();

    fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> Result<Update> {
        require_full_membership(comm, members, "gTop-k(naive)");
        let local = self.select.accumulate_extract(comm, residual, grad, k);
        let (mut global, gmask) = naive_gtopk_all_reduce(comm, local.clone(), k)?;
        let (_kept, rejected) = local.partition_by(&gmask);
        residual.put_back(&rejected);
        global.scale(1.0 / comm.size() as f32);
        Ok(Update::Sparse(global))
    }
}

/// Extension: gTop-k whose tree merges feed their truncated entries back
/// into the *receiving* rank's residual, so the sum of residuals plus the
/// applied update always equals the sum of all contributions (no silent
/// gradient loss at interior tree nodes — see `DESIGN.md` §5 item 2).
#[derive(Debug, Default)]
pub struct GtopkFeedbackAggregator {
    select: LocalSelect,
    topology: Topology,
}

selector_ctors!(GtopkFeedbackAggregator, "feedback-extension");
topology_builder!(GtopkFeedbackAggregator);

impl GradientAggregator for GtopkFeedbackAggregator {
    fn name(&self) -> &'static str {
        "gTop-k(feedback)"
    }

    selector_state_passthrough!();

    fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> Result<Update> {
        let local = self.select.accumulate_extract(comm, residual, grad, k);
        let tag_off = epoch_tag_offset(comm.epoch());
        let (mut global, gmask, tree_rejects) =
            gtopk_all_reduce_over(comm, members, local.clone(), k, tag_off, self.topology)?;
        // Standard Alg. 4 put-back: our own values whose coordinate did
        // not survive globally. (Every owner does this, so coordinates
        // outside the global mask are fully restored across the cluster.)
        let (_kept, rejected) = local.partition_by(&gmask);
        residual.put_back(&rejected);
        // The loss case the plain algorithm misses: a coordinate *in*
        // the global mask whose contribution was truncated at an
        // interior tree merge — its owners believe it was applied, so
        // nobody restores it. The merging rank witnessed the truncation
        // and restores exactly that portion. (Rejects outside the mask
        // are covered by the owners' put-back above; restoring them here
        // too would double-count gradient mass.)
        let (lost_but_selected, _owner_covered) = tree_rejects.partition_by(&gmask);
        residual.put_back(&lost_but_selected);
        global.scale(1.0 / members.len() as f32);
        Ok(Update::Sparse(global))
    }
}

/// Ablation: gTop-k that silently drops globally-rejected values
/// instead of returning them to the residual (Algorithm 4 *without*
/// line 10). The paper's §III-A observation predicts degraded
/// convergence; `ext_putback_ablation` demonstrates it.
#[derive(Debug, Default)]
pub struct GtopkNoPutbackAggregator {
    select: LocalSelect,
    topology: Topology,
}

selector_ctors!(GtopkNoPutbackAggregator, "no-putback ablation");
topology_builder!(GtopkNoPutbackAggregator);

impl GradientAggregator for GtopkNoPutbackAggregator {
    fn name(&self) -> &'static str {
        "gTop-k(no-putback)"
    }

    selector_state_passthrough!();

    fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> Result<Update> {
        let local = self.select.accumulate_extract(comm, residual, grad, k);
        let tag_off = epoch_tag_offset(comm.epoch());
        let (mut global, _gmask, tree_rejects) =
            gtopk_all_reduce_over(comm, members, local, k, tag_off, self.topology)?;
        comm.pool().put_sparse(tree_rejects);
        // Deliberately no residual put-back.
        global.scale(1.0 / members.len() as f32);
        Ok(Update::Sparse(global))
    }
}

/// Shared body of the zoo aggregators: (re)build the cached schedule for
/// the current `(P, k)`, extract the schedule's contribution quota into a
/// pooled vector (allocation-free for the exact and threshold-estimate
/// selectors), run the budget-padded collective, return the witnessed
/// rejects to this rank's residual, and average.
#[allow(clippy::too_many_arguments)]
fn zoo_aggregate(
    comm: &mut Communicator,
    members: &[usize],
    residual: &mut Residual,
    grad: &[f32],
    k: usize,
    select: &mut LocalSelect,
    cache: &mut Option<ZooSchedule>,
    build: fn(usize, usize) -> ZooSchedule,
) -> Result<Update> {
    let p = members.len();
    let sched = match cache {
        Some(s) if s.p == p && s.k == k => &*s,
        _ => &*cache.insert(build(p, k)),
    };
    let mut local = comm.pool().take_sparse(grad.len());
    select
        .state_for(comm)
        .accumulate_extract_into(residual, grad, sched.contrib_slots, &mut local);
    let tag_off = epoch_tag_offset(comm.epoch());
    let (mut global, rejects) = sparse_zoo_all_reduce_over(comm, members, local, sched, tag_off)?;
    // Witness-based put-back: whichever rank a budget forced to drop
    // entries returns exactly that dropped sum to its own residual, so
    // no gradient mass is lost anywhere in the collective.
    residual.put_back(&rejects);
    comm.pool().put_sparse(rejects);
    global.scale(1.0 / p as f32);
    Ok(Update::Sparse(global))
}

/// Ok-Topk S-SGD: equal `⌈k/P⌉` contribution quotas with a
/// threshold-prefiltered local selection, balanced
/// split-and-aggregate rounds, and a gather of the per-region top
/// selections. Per-rank communication volume is `O(k)` — no `log P`
/// factor (contrast the gTop-k tree's `O(k log P)`).
#[derive(Debug, Default)]
pub struct OkTopkAggregator {
    select: LocalSelect,
    sched: Option<ZooSchedule>,
}

selector_ctors!(OkTopkAggregator, "Ok-Topk");

impl GradientAggregator for OkTopkAggregator {
    fn name(&self) -> &'static str {
        "Ok-Topk"
    }

    selector_state_passthrough!();

    fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> Result<Update> {
        zoo_aggregate(
            comm,
            members,
            residual,
            grad,
            k,
            &mut self.select,
            &mut self.sched,
            ZooSchedule::oktopk,
        )
    }
}

/// SparDL S-SGD: Spar-Reduce-Scatter with cascading `⌈h/2⌉` holding
/// budgets, then Spar-All-Gather of the surviving regions — the whole
/// tail stays sparse (no dense allgather), with every cascade
/// truncation witnessed back into the truncating rank's residual.
#[derive(Debug, Default)]
pub struct SparDlAggregator {
    select: LocalSelect,
    sched: Option<ZooSchedule>,
}

selector_ctors!(SparDlAggregator, "SparDL");

impl GradientAggregator for SparDlAggregator {
    fn name(&self) -> &'static str {
        "SparDL"
    }

    selector_state_passthrough!();

    fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> Result<Update> {
        zoo_aggregate(
            comm,
            members,
            residual,
            grad,
            k,
            &mut self.select,
            &mut self.sched,
            ZooSchedule::spardl,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_comm::{Cluster, CostModel};

    fn worker_grad(r: usize, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| {
                let h = (i as u64 + 3)
                    .wrapping_mul(r as u64 + 17)
                    .wrapping_mul(0x2545_f491_4f6c_dd1d);
                ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    fn run_algorithm(alg: Algorithm, p: usize, dim: usize, k: usize) -> Vec<(Update, Vec<f32>)> {
        Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = alg.aggregator();
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let update = agg
                .aggregate(
                    comm,
                    &members,
                    &mut residual,
                    &worker_grad(comm.rank(), dim),
                    k,
                )
                .unwrap();
            (update, residual.dense().to_vec())
        })
    }

    #[test]
    fn all_algorithms_agree_across_ranks() {
        for alg in Algorithm::ALL {
            let out = run_algorithm(alg, 4, 32, 3);
            let first = &out[0].0;
            for (u, _) in &out {
                assert_eq!(u, first, "{}", alg.name());
            }
        }
    }

    #[test]
    fn plan_driven_algorithms_agree_on_every_topology() {
        for alg in Algorithm::ALL
            .into_iter()
            .filter(Algorithm::supports_topology)
        {
            for topology in Topology::ALL {
                let out = Cluster::new(5, CostModel::zero()).run(move |comm| {
                    let mut agg = alg.aggregator_with_topology(Selector::Exact, topology);
                    let members: Vec<usize> = (0..comm.size()).collect();
                    let mut residual = Residual::new(32);
                    agg.aggregate(
                        comm,
                        &members,
                        &mut residual,
                        &worker_grad(comm.rank(), 32),
                        3,
                    )
                    .unwrap()
                });
                for u in &out {
                    assert_eq!(u, &out[0], "{} over {topology}", alg.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fixed collective schedule")]
    fn fixed_schedule_algorithms_reject_other_topologies() {
        let _ = Algorithm::Dense.aggregator_with_topology(Selector::Exact, Topology::Ring);
    }

    #[test]
    fn dense_aggregator_averages_exactly() {
        let p = 4;
        let dim = 16;
        let out = run_algorithm(Algorithm::Dense, p, dim, 0);
        let mut expect = vec![0.0f32; dim];
        for r in 0..p {
            for (e, g) in expect.iter_mut().zip(worker_grad(r, dim)) {
                *e += g / p as f32;
            }
        }
        match &out[0].0 {
            Update::Dense(v) => {
                for (a, b) in v.iter().zip(expect.iter()) {
                    assert!((a - b).abs() < 1e-5);
                }
            }
            other => panic!("expected dense update, got {other:?}"),
        }
        // Dense training leaves no residual.
        assert!(out[0].1.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn topk_update_covers_all_extracted_coordinates() {
        let p = 4;
        let k = 3;
        let out = run_algorithm(Algorithm::TopK, p, 40, k);
        match &out[0].0 {
            Update::Sparse(sv) => {
                // Between k and kP coordinates (the paper's K).
                assert!(sv.nnz() >= k && sv.nnz() <= k * p, "nnz = {}", sv.nnz());
            }
            other => panic!("expected sparse update, got {other:?}"),
        }
    }

    #[test]
    fn gtopk_update_has_at_most_k_coordinates() {
        for alg in [
            Algorithm::GTopK,
            Algorithm::NaiveGTopK,
            Algorithm::GTopKFeedback,
        ] {
            let out = run_algorithm(alg, 8, 64, 5);
            match &out[0].0 {
                Update::Sparse(sv) => assert!(sv.nnz() <= 5, "{}: {}", alg.name(), sv.nnz()),
                other => panic!("expected sparse update, got {other:?}"),
            }
        }
    }

    #[test]
    fn gtopk_put_back_restores_globally_rejected_values() {
        // With k=1 and disjoint supports, only one worker's coordinate
        // survives; the others must find their value back in the residual.
        let p = 4;
        let dim = 16;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = GtopkAggregator::new();
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let mut g = vec![0.0f32; dim];
            g[comm.rank()] = 1.0 + comm.rank() as f32; // rank 3 wins
            let update = agg.aggregate(comm, &members, &mut residual, &g, 1).unwrap();
            (update, residual.dense().to_vec())
        });
        for (r, (update, residual)) in out.iter().enumerate() {
            match update {
                Update::Sparse(sv) => {
                    assert_eq!(sv.indices(), &[3]);
                    assert!((sv.get(3) - 4.0 / p as f32).abs() < 1e-6);
                }
                other => panic!("expected sparse, got {other:?}"),
            }
            if r != 3 {
                assert!(
                    (residual[r] - (1.0 + r as f32)).abs() < 1e-6,
                    "rank {r} residual {residual:?}"
                );
            } else {
                assert!(residual.iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn feedback_variant_never_leaves_less_residual_than_plain() {
        // The feedback extension can only add mass back to residuals.
        let p = 8;
        let dim = 64;
        let k = 2;
        let totals = |alg: Algorithm| -> f64 {
            run_algorithm(alg, p, dim, k)
                .iter()
                .map(|(_, res)| res.iter().map(|v| v.abs() as f64).sum::<f64>())
                .sum()
        };
        let plain = totals(Algorithm::GTopK);
        let feedback = totals(Algorithm::GTopKFeedback);
        assert!(
            feedback >= plain - 1e-6,
            "feedback {feedback} < plain {plain}"
        );
    }

    #[test]
    fn feedback_aggregator_conserves_gradient_mass_exactly() {
        // Each rank's gradient has exactly k non-zeros, so extraction
        // takes everything and the residual afterwards holds precisely
        // the put-backs. Conservation: sum of all contributed gradients
        // == P x (averaged update) + sum of all residuals.
        let p = 8usize;
        let dim = 32usize;
        let k = 2usize;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = GtopkFeedbackAggregator::new();
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let r = comm.rank() as u32;
            let mut g = vec![0.0f32; dim];
            // Overlapping coordinate 0 plus a unique one per rank.
            g[0] = 0.5 + r as f32 * 0.1;
            g[(r + 1) as usize] = 1.0 + r as f32;
            let update = agg.aggregate(comm, &members, &mut residual, &g, k).unwrap();
            (g, update, residual.dense().to_vec())
        });
        let mut contributed = vec![0.0f64; dim];
        let mut recovered = vec![0.0f64; dim];
        for (r, (g, update, res)) in out.iter().enumerate() {
            for (c, &v) in contributed.iter_mut().zip(g.iter()) {
                *c += v as f64;
            }
            for (rec, &v) in recovered.iter_mut().zip(res.iter()) {
                *rec += v as f64;
            }
            if r == 0 {
                match update {
                    Update::Sparse(sv) => {
                        for (i, v) in sv.iter() {
                            recovered[i as usize] += v as f64 * p as f64;
                        }
                    }
                    other => panic!("expected sparse, got {other:?}"),
                }
            }
        }
        for i in 0..dim {
            assert!(
                (contributed[i] - recovered[i]).abs() < 1e-4,
                "coord {i}: contributed {} vs recovered {}",
                contributed[i],
                recovered[i]
            );
        }
    }

    #[test]
    fn plain_gtopk_drops_mass_in_the_loss_corner() {
        // The same accounting applied to the plain aggregator shows the
        // leak (coordinate proposed by two subtrees, truncated in one).
        let p = 4usize;
        let dim = 8usize;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = GtopkAggregator::new();
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let mut g = vec![0.0f32; dim];
            match comm.rank() {
                0 => g[1] = 1.0,
                1 => g[2] = 1.1,
                2 => g[1] = 5.0,
                _ => g[3] = 0.2,
            }
            let update = agg.aggregate(comm, &members, &mut residual, &g, 1).unwrap();
            (g, update, residual.dense().to_vec())
        });
        let mut contributed = 0.0f64;
        let mut recovered = 0.0f64;
        for (r, (g, update, res)) in out.iter().enumerate() {
            contributed += g.iter().map(|&v| v as f64).sum::<f64>();
            recovered += res.iter().map(|&v| v as f64).sum::<f64>();
            if r == 0 {
                if let Update::Sparse(sv) = update {
                    recovered += sv.values().iter().map(|&v| v as f64).sum::<f64>() * p as f64;
                }
            }
        }
        // Worker 0's 1.0 on coordinate 1 vanished (truncated at an
        // interior merge while coordinate 1 still won globally).
        assert!(
            (contributed - recovered - 1.0).abs() < 1e-5,
            "expected exactly 1.0 lost: contributed {contributed} recovered {recovered}"
        );
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::ALL.len(), 8);
        assert_eq!(Algorithm::GTopK.name(), "gTop-k");
        assert_eq!(Algorithm::OkTopk.name(), "Ok-Topk");
        assert_eq!(Algorithm::SparDl.name(), "SparDL");
        assert!(Algorithm::GTopK.supports_topology());
        assert!(!Algorithm::Dense.supports_topology());
        assert!(!Algorithm::NaiveGTopK.supports_topology());
        assert!(!Algorithm::OkTopk.supports_topology());
        assert!(!Algorithm::SparDl.supports_topology());
        for alg in Algorithm::ALL {
            assert_eq!(alg.aggregator().name(), alg.name());
        }
    }

    #[test]
    fn zoo_aggregators_conserve_gradient_mass_exactly() {
        // Same accounting as the feedback aggregator: sum of all
        // contributed gradients == P x (averaged update) + sum of all
        // residuals — here it must hold even though the zoo budgets can
        // drop entries mid-collective, because every drop is witnessed
        // back into the dropping rank's residual.
        for alg in [Algorithm::OkTopk, Algorithm::SparDl] {
            let p = 8usize;
            let dim = 32usize;
            let k = 4usize;
            let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
                let mut agg = alg.aggregator();
                let members: Vec<usize> = (0..comm.size()).collect();
                let mut residual = Residual::new(dim);
                let g = worker_grad(comm.rank(), dim);
                let update = agg.aggregate(comm, &members, &mut residual, &g, k).unwrap();
                (g, update, residual.dense().to_vec())
            });
            let mut contributed = vec![0.0f64; dim];
            let mut recovered = vec![0.0f64; dim];
            for (r, (g, update, res)) in out.iter().enumerate() {
                for (c, &v) in contributed.iter_mut().zip(g.iter()) {
                    *c += v as f64;
                }
                for (rec, &v) in recovered.iter_mut().zip(res.iter()) {
                    *rec += v as f64;
                }
                if r == 0 {
                    match update {
                        Update::Sparse(sv) => {
                            for (i, v) in sv.iter() {
                                recovered[i as usize] += v as f64 * p as f64;
                            }
                        }
                        other => panic!("expected sparse, got {other:?}"),
                    }
                }
            }
            for i in 0..dim {
                assert!(
                    (contributed[i] - recovered[i]).abs() < 1e-4,
                    "{} coord {i}: contributed {} vs recovered {}",
                    alg.name(),
                    contributed[i],
                    recovered[i]
                );
            }
        }
    }

    #[test]
    fn zoo_update_respects_schedule_budget() {
        for (alg, sched_of) in [
            (
                Algorithm::OkTopk,
                ZooSchedule::oktopk as fn(usize, usize) -> ZooSchedule,
            ),
            (Algorithm::SparDl, ZooSchedule::spardl),
        ] {
            let p = 8usize;
            let k = 5usize;
            let sched = sched_of(p, k);
            let cap = sched.region_slots * 8; // p2 regions
            let out = run_algorithm(alg, p, 64, k);
            match &out[0].0 {
                Update::Sparse(sv) => {
                    assert!(sv.nnz() <= cap, "{}: {} > {cap}", alg.name(), sv.nnz());
                }
                other => panic!("expected sparse update, got {other:?}"),
            }
        }
    }
}
