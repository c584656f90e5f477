//! `exchange-gtopk-sim`: the paper-scale gradient exchange on its own —
//! `GtopkAggregator` over the sim transport — with both ranks on threads
//! of this process, in lock-step. Its traced run adds the dense baseline,
//! `DenseAggregator` over the frame-codec wire transport
//! ([`WireTransport`]), for the codec layers.

use crate::ranks::{abandon, mean, ms, peak_rss_mb, run_ranks, set_comm_counters, Gate};
use crate::report::Outcome;
use crate::stats::{describe, median, min_samples_for_tail, percentile, TAIL_PERCENTILE};
use crate::wire::WireTransport;
use gtopk::ft::epoch_tag_offset;
use gtopk::{
    gtopk_all_reduce_over, DenseAggregator, GradientAggregator, GtopkAggregator, Selector,
    SelectorState, Update,
};
use gtopk_comm::transport::frame::{self, Frame};
use gtopk_comm::{Cluster, CommStats, Communicator, CostModel, Message, Payload, Topology};
use gtopk_sparse::{Residual, SparseVec};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;
/// Gradient length: paper scale (ResNet-20 has 0.27M, VGG-16 14.7M).
pub const M: usize = 4_000_000;
pub const DENSITY: f64 = 0.001;
pub const K: usize = 4_000;
/// Distinct gradients per rank, reused round-robin across steps.
const RING: usize = 3;
/// Gradient entries that share one scale.
const SEGMENT: usize = 1 << 16;
/// Sessions (set-up, then timed steps) per untraced run, each on a fresh
/// mesh and fresh buffers. A session's step time can settle into a level
/// fixed for its life (where its buffers landed, which core each rank
/// got); with many equally weighted sessions the run's median depends
/// little on which levels its sessions drew.
const SESSIONS: usize = 30;
/// Set-up-only sessions after the timed ones; `setup_s` is the median
/// over all set-ups.
const SETUP_ONLY: usize = 5;
/// Untimed (but checked) steps that end each set-up: the first step on a
/// fresh mesh and fresh state faults in its buffers.
const WARMUP_STEPS: usize = 1;
/// Untraced/traced session pairs of a traced run.
const TRACED_PAIRS: usize = 4;
/// Fewest timed steps in each session of a traced run.
const TRACED_MIN_STEPS: usize = 10;
/// Dense updates must equal the f64 mean of the rank gradients to within
/// this share of `|g₀| + |g₁|` per coordinate (one f32 rounding of the
/// sum is at most 2⁻²⁴ of it).
const DENSE_TOL: f64 = 1e-6;
/// Tags of the benchmark's own point-to-point messages (below the
/// collectives' tag space).
const TAG_PING: u32 = 7;
const TAG_PINGPONG: u32 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `GtopkAggregator` (exact selection, binomial tree) over sim.
    GtopkSim,
    /// `DenseAggregator` (ring allreduce) over [`WireTransport`].
    DenseWire,
}

/// The generated inputs: `grads[rank][slot]`, and for each slot the
/// squared norm of the exact mean gradient (f64).
struct Inputs {
    grads: Vec<Vec<Vec<f32>>>,
    mean_sq: Vec<f64>,
}

/// splitmix64: a small, fast, seedable generator for the inputs.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Per-segment scales, log-spaced from 10^-1.5 to 10^0.5 in one fixed
/// shuffled order: a fixed layer profile, as a given network has. Only
/// the values drawn at those scales depend on the seed, so every seed
/// poses a selection problem of the same shape and cost.
fn segment_scales() -> Vec<f64> {
    let n = M.div_ceil(SEGMENT);
    let mut scales: Vec<f64> = (0..n)
        .map(|s| 10f64.powf(-1.5 + 2.0 * (s as f64 + 0.5) / n as f64))
        .collect();
    let mut rng = Rng(0x5ca1e5);
    for i in (1..n).rev() {
        scales.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    scales
}

/// Near-Gaussian gradient (Box–Muller) whose scale changes by contiguous
/// segment, as layers' gradients do; every rank shares the layer scales.
fn gradient(seed: u64, scales: &[f64], rank: usize, slot: usize) -> Vec<f32> {
    let mut rng = Rng(seed ^ ((rank * RING + slot) as u64 + 1).wrapping_mul(0xd134_2543_de82_ef95));
    let mut g = Vec::with_capacity(M);
    for &scale in scales {
        let n = SEGMENT.min(M - g.len());
        for _ in 0..n / 2 {
            let r = (-2.0 * rng.unit().ln()).sqrt() * scale;
            let theta = std::f64::consts::TAU * rng.unit();
            g.push((r * theta.cos()) as f32);
            g.push((r * theta.sin()) as f32);
        }
    }
    g
}

fn inputs(seed: u64) -> Inputs {
    let scales = segment_scales();
    let grads: Vec<Vec<Vec<f32>>> = std::thread::scope(|s| {
        let scales = &scales;
        let hs: Vec<_> = (0..WORKERS)
            .map(|r| s.spawn(move || (0..RING).map(|j| gradient(seed, scales, r, j)).collect()))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("input generation"))
            .collect()
    });
    let mean_sq = (0..RING)
        .map(|j| {
            (0..M)
                .map(|i| {
                    let mu = mean_of(&grads, j, i);
                    mu * mu
                })
                .sum()
        })
        .collect();
    Inputs { grads, mean_sq }
}

/// The exact (f64) mean of coordinate `i` of slot `j` across ranks.
fn mean_of(grads: &[Vec<Vec<f32>>], j: usize, i: usize) -> f64 {
    grads.iter().map(|g| f64::from(g[j][i])).sum::<f64>() / WORKERS as f64
}

/// One rank's exchange state.
enum State {
    Gtopk {
        agg: GtopkAggregator,
        residual: Residual,
        /// Traced: the same calls `aggregate` makes, composed here.
        composed: Option<Box<(SelectorState, Residual)>>,
    },
    Dense {
        agg: DenseAggregator,
        residual: Residual,
    },
}

/// One timed step, as rank 0 records it.
struct StepOut {
    update: Update,
    /// Traced gTop-k: what `aggregate` itself returned for the step.
    reference: Option<Update>,
    start: Instant,
    wall: Duration,
    sim_ms: f64,
    stats: CommStats,
    /// Traced gTop-k: select, collective and put-back times.
    layers: Option<[Duration; 3]>,
}

impl State {
    fn new(kind: Kind, traced: bool, rank: usize) -> State {
        match kind {
            Kind::GtopkSim => State::Gtopk {
                agg: GtopkAggregator::new(),
                residual: Residual::new(M),
                composed: traced.then(|| {
                    Box::new((SelectorState::new(Selector::Exact, rank), Residual::new(M)))
                }),
            },
            Kind::DenseWire => State::Dense {
                agg: DenseAggregator::new(),
                residual: Residual::new(M),
            },
        }
    }

    /// One exchange step. Untraced, and for dense, it is one timed
    /// `aggregate` call. Traced gTop-k makes, itself, the calls
    /// `aggregate` makes — select, collective, put-back — timing each;
    /// then it runs `aggregate` untimed on a residual of its own, so the
    /// two can be checked against each other.
    fn step(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        grad: &[f32],
    ) -> Result<StepOut, String> {
        let err = |e| format!("exchange returned {e:?}");
        let (sim0, stats0) = (comm.now_ms(), comm.stats());
        let start = Instant::now();
        let (update, layers) = match self {
            State::Gtopk {
                composed: Some(composed),
                ..
            } => {
                let (selector, residual) = &mut **composed;
                let local = selector.accumulate_extract(residual, grad, K);
                let t1 = Instant::now();
                let tag_off = epoch_tag_offset(comm.epoch());
                let (mut global, gmask, rejects) = gtopk_all_reduce_over(
                    comm,
                    members,
                    local.clone(),
                    K,
                    tag_off,
                    Topology::Binomial,
                )
                .map_err(err)?;
                let t2 = Instant::now();
                comm.pool().put_sparse(rejects);
                let (_kept, rejected) = local.partition_by(&gmask);
                residual.put_back(&rejected);
                let t3 = Instant::now();
                global.scale(1.0 / members.len() as f32);
                (Update::Sparse(global), Some([t1 - start, t2 - t1, t3 - t2]))
            }
            State::Gtopk { agg, residual, .. } => (
                agg.aggregate(comm, members, residual, grad, K)
                    .map_err(err)?,
                None,
            ),
            State::Dense { agg, residual } => (
                agg.aggregate(comm, members, residual, grad, M)
                    .map_err(err)?,
                None,
            ),
        };
        let wall = start.elapsed();
        let (sim_ms, stats) = (comm.now_ms() - sim0, delta(comm.stats(), stats0));
        let reference = match self {
            State::Gtopk {
                agg,
                residual,
                composed: Some(_),
            } => Some(
                agg.aggregate(comm, members, residual, grad, K)
                    .map_err(err)?,
            ),
            _ => None,
        };
        Ok(StepOut {
            update,
            reference,
            start,
            wall,
            sim_ms,
            stats,
            layers,
        })
    }

    /// Traced gTop-k: the composed residual must equal `aggregate`'s.
    fn check_residuals(&self) -> Result<(), String> {
        match self {
            State::Gtopk {
                residual,
                composed: Some(composed),
                ..
            } if !same_bits(residual.dense(), composed.1.dense()) => {
                Err("composed calls left a different residual than aggregate".into())
            }
            _ => Ok(()),
        }
    }
}

fn delta(a: CommStats, b: CommStats) -> CommStats {
    CommStats {
        msgs_sent: a.msgs_sent - b.msgs_sent,
        elems_sent: a.elems_sent - b.elems_sent,
        msgs_received: a.msgs_received - b.msgs_received,
        elems_received: a.elems_received - b.elems_received,
        retransmissions: a.retransmissions - b.retransmissions,
        timeouts: a.timeouts - b.timeouts,
        pool_hits: a.pool_hits - b.pool_hits,
        pool_misses: a.pool_misses - b.pool_misses,
    }
}

fn add(a: &mut CommStats, b: CommStats) {
    a.msgs_sent += b.msgs_sent;
    a.elems_sent += b.elems_sent;
    a.msgs_received += b.msgs_received;
    a.elems_received += b.elems_received;
    a.retransmissions += b.retransmissions;
    a.timeouts += b.timeouts;
    a.pool_hits += b.pool_hits;
    a.pool_misses += b.pool_misses;
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_update(a: &Update, b: &Update) -> bool {
    match (a, b) {
        (Update::Dense(x), Update::Dense(y)) => same_bits(x, y),
        (Update::Sparse(x), Update::Sparse(y)) => same_sparse(x, y),
        _ => false,
    }
}

fn same_sparse(a: &SparseVec, b: &SparseVec) -> bool {
    a.dim() == b.dim() && a.indices() == b.indices() && same_bits(a.values(), b.values())
}

/// What a rank hands rank 0 after each step.
struct Published {
    update: Update,
    reference: Option<Update>,
    start: Instant,
    select_end: Option<Instant>,
}

/// Rank 0's record of one session.
#[derive(Default)]
struct Record {
    steps_ms: Vec<f64>,
    sim_ms: Vec<f64>,
    layers_ms: [Vec<f64>; 3],
    peer_wait_ms: Vec<f64>,
    codec_ms: Vec<f64>,
    stats: CommStats,
    nnz: Vec<f64>,
    /// The update's relative squared error against the exact mean
    /// gradient at the session's last required step (so the value is
    /// fixed by the seed).
    loss: Option<f64>,
}

impl Record {
    /// Adds another session's record to this one.
    fn absorb(&mut self, other: Record) {
        self.steps_ms.extend(other.steps_ms);
        self.sim_ms.extend(other.sim_ms);
        for (mine, theirs) in self.layers_ms.iter_mut().zip(other.layers_ms) {
            mine.extend(theirs);
        }
        self.peer_wait_ms.extend(other.peer_wait_ms);
        self.codec_ms.extend(other.codec_ms);
        add(&mut self.stats, other.stats);
        self.nnz.extend(other.nnz);
        self.loss = self.loss.or(other.loss);
    }
}

/// One rank's result of a session.
#[derive(Default)]
struct RankEnd {
    /// Mesh creation to the start of the first timed step (rank 0).
    setup: Duration,
    steps: usize,
    failed_step: Option<usize>,
    problems: Vec<String>,
    record: Record,
    /// Wire-transport α (ms) and β (ms/elem) fitted by rank 0.
    fit: Option<(f64, f64)>,
}

struct Shared<'a> {
    kind: Kind,
    inputs: &'a Inputs,
    traced: bool,
    gate: Gate,
    stop: AtomicBool,
    /// Set by the rank that fails a step or a check, before it passes the
    /// gate: its peers then skip the session's remaining exchanges.
    failed: AtomicBool,
    slots: Mutex<Vec<Option<Published>>>,
    /// Fewest steps to run (0: set up only); rank 0 stops the run once
    /// it has these and `seconds` of stepping.
    min_steps: usize,
    seconds: f64,
}

/// One set-up — mesh, rank state, first message each way and the
/// warm-up steps — then lock-stepped timed steps until rank 0 calls time.
/// `min_steps == 0` measures set-up only.
fn session(
    kind: Kind,
    inputs: &Inputs,
    traced: bool,
    seconds: f64,
    min_steps: usize,
) -> Result<Vec<RankEnd>, String> {
    let shared = Shared {
        kind,
        inputs,
        traced,
        gate: Gate::new(WORKERS),
        stop: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        slots: Mutex::new((0..WORKERS).map(|_| None).collect()),
        min_steps,
        seconds,
    };
    let t0 = Instant::now();
    let comms = match kind {
        Kind::GtopkSim => Cluster::new(WORKERS, CostModel::gigabit_ethernet()).communicators(),
        Kind::DenseWire => WireTransport::mesh(WORKERS)
            .into_iter()
            .map(|t| Communicator::from_transport(Box::new(t), CostModel::gigabit_ethernet()))
            .collect(),
    };
    let ends = run_ranks(comms, &shared.gate, |comm| {
        let end = rank_main(comm, &shared, t0);
        // No rank drops its endpoint while a peer may still exchange.
        shared.gate.wait();
        end
    });
    ends.into_iter()
        .enumerate()
        .map(|(r, e)| e.map_err(|panic| format!("rank {r} panicked: {panic}")))
        .collect()
}

fn rank_main(comm: &mut Communicator, sh: &Shared, t0: Instant) -> RankEnd {
    let rank = comm.rank();
    let members: Vec<usize> = (0..WORKERS).collect();
    let mut end = RankEnd::default();
    let mut state = State::new(sh.kind, sh.traced, rank);
    // The mesh is up once it has carried a message each way.
    if let Err(e) = ping(comm) {
        end.problems
            .push(format!("rank {rank}: first message failed: {e:?}"));
        abandon(comm, &sh.gate);
        return end;
    }
    if !sh.gate.wait() {
        return end;
    }
    let mut first_step = Instant::now();
    let mut step = 0;
    loop {
        if step == WARMUP_STEPS {
            // Set-up ends where the timed steps start.
            end.setup = t0.elapsed();
            first_step = Instant::now();
        }
        if sh.stop.load(SeqCst) {
            break;
        }
        let grad = &sh.inputs.grads[rank][step % RING];
        let out = match state.step(comm, &members, grad) {
            Ok(out) => out,
            Err(why) => {
                end.problems.push(format!("rank {rank} step {step}: {why}"));
                end.failed_step = Some(step);
                sh.failed.store(true, SeqCst);
                abandon(comm, &sh.gate);
                break;
            }
        };
        end.steps += 1;
        if rank == 0 && step >= WARMUP_STEPS {
            let rec = &mut end.record;
            rec.steps_ms.push(ms(out.wall));
            rec.sim_ms.push(out.sim_ms);
            add(&mut rec.stats, out.stats);
            rec.nnz.push(out.update.nnz() as f64);
            if let Some(layers) = out.layers {
                for (v, d) in rec.layers_ms.iter_mut().zip(layers) {
                    v.push(ms(d));
                }
            }
        }
        let select_end = out.layers.map(|l| out.start + l[0]);
        sh.slots.lock().expect("slots lock")[rank] = Some(Published {
            update: out.update,
            reference: out.reference,
            start: out.start,
            select_end,
        });
        if !sh.gate.wait() {
            break;
        }
        if rank == 0 {
            if let Err(why) = check_step(sh, step, &mut end.record) {
                end.problems.push(format!("step {step}: {why}"));
                end.failed_step = Some(step);
                sh.failed.store(true, SeqCst);
                sh.stop.store(true, SeqCst);
            }
            let done = step + 1 >= WARMUP_STEPS + sh.min_steps
                && (sh.min_steps == 0 || first_step.elapsed().as_secs_f64() >= sh.seconds);
            if done {
                sh.stop.store(true, SeqCst);
            }
        }
        if !sh.gate.wait() {
            break;
        }
        step += 1;
    }
    if sh.failed.load(SeqCst) || end.setup.is_zero() {
        return end;
    }
    if let Err(why) = state.check_residuals() {
        end.problems.push(format!("rank {rank}: {why}"));
        end.failed_step = Some(step);
    }
    if sh.traced && sh.kind == Kind::DenseWire && sh.min_steps > 0 {
        match ping_pong_fit(comm) {
            Ok(fit) => end.fit = fit,
            Err(e) => end
                .problems
                .push(format!("rank {rank}: ping-pong failed: {e:?}")),
        }
    }
    end
}

/// Rank 0 sends one control message to every peer and awaits each echo.
fn ping(comm: &mut Communicator) -> gtopk_comm::Result<()> {
    if comm.rank() == 0 {
        for peer in 1..comm.size() {
            comm.send(peer, TAG_PING, Payload::Control)?;
        }
        for peer in 1..comm.size() {
            comm.recv(peer, TAG_PING)?;
        }
    } else {
        comm.recv(0, TAG_PING)?;
        comm.send(0, TAG_PING, Payload::Control)?;
    }
    Ok(())
}

/// Rank 0's output check of one step, with every rank's update in hand.
fn check_step(sh: &Shared, step: usize, rec: &mut Record) -> Result<(), String> {
    let published: Vec<Published> = sh
        .slots
        .lock()
        .expect("slots lock")
        .iter_mut()
        .map(|s| s.take())
        .collect::<Option<_>>()
        .ok_or("a rank published no update")?;
    let first = &published[0];
    // Ranks meet in the collective after selecting (gTop-k traced) or at
    // the start of the call (otherwise): the last to arrive sets the pace.
    let arrived = |p: &Published| p.select_end.unwrap_or(p.start);
    let timed = step >= WARMUP_STEPS;
    if timed {
        let wait = published
            .iter()
            .map(|p| ms(arrived(p).saturating_duration_since(arrived(first))))
            .fold(0.0, f64::max);
        rec.peer_wait_ms.push(wait);
    }
    for (r, p) in published.iter().enumerate() {
        if !same_update(&p.update, &first.update) {
            return Err(format!("rank {r}'s update differs from rank 0's"));
        }
        if let Some(reference) = &p.reference {
            if !same_update(reference, &p.update) {
                return Err(format!("rank {r}: composed calls and aggregate disagree"));
            }
        }
    }
    let slot = step % RING;
    let grads = &sh.inputs.grads;
    let mean_sq = sh.inputs.mean_sq[slot];
    let err_sq = match &first.update {
        Update::Sparse(u) => {
            if u.nnz() != K {
                return Err(format!("update has {} non-zeros, not k = {K}", u.nnz()));
            }
            // ‖u − ḡ‖² = ‖ḡ‖² − Σ_S ḡᵢ² + Σ_S (uᵢ − ḡᵢ)² over the support S.
            u.indices()
                .iter()
                .zip(u.values())
                .fold(mean_sq, |acc, (&i, &v)| {
                    let mu = mean_of(grads, slot, i as usize);
                    acc - mu * mu + (f64::from(v) - mu).powi(2)
                })
        }
        Update::Dense(u) => {
            if u.len() != M {
                return Err(format!("dense update has {} entries, not {M}", u.len()));
            }
            let mut err_sq = 0.0;
            for (i, &v) in u.iter().enumerate() {
                let mu = mean_of(grads, slot, i);
                let diff = (f64::from(v) - mu).abs();
                let scale: f64 = grads.iter().map(|g| f64::from(g[slot][i]).abs()).sum();
                if diff > DENSE_TOL * scale {
                    return Err(format!("coordinate {i}: {v} vs exact mean {mu}"));
                }
                err_sq += diff * diff;
            }
            err_sq
        }
    };
    if step + 1 == WARMUP_STEPS + sh.min_steps {
        rec.loss = Some(err_sq / mean_sq);
    }
    if timed && sh.traced && sh.kind == Kind::DenseWire {
        rec.codec_ms.push(codec_ms(&grads[0][slot], &first.update)?);
    }
    Ok(())
}

/// Encodes and decodes, from memory, the two DATA frames rank 0 sends in
/// a two-rank ring allreduce: half the gradient (reduce-scatter), then
/// half the reduced vector (all-gather; the update has the same size).
fn codec_ms(grad: &[f32], update: &Update) -> Result<f64, String> {
    let Update::Dense(u) = update else {
        return Err("dense exchange returned a sparse update".into());
    };
    let mut total = Duration::ZERO;
    for chunk in [&grad[..M / 2], &u[M / 2..]] {
        let sent = Frame::Data {
            tag: Message::COLLECTIVE_TAG_BASE,
            arrival_ms: 0.0,
            payload: Payload::dense(chunk.to_vec()),
        };
        let t = Instant::now();
        let bytes = frame::encode(&sent);
        let back = frame::read_frame(&mut bytes.as_slice());
        total += t.elapsed();
        if back.as_ref().ok() != Some(&sent) {
            return Err("a DATA frame did not survive encode + read_frame".into());
        }
    }
    Ok(ms(total))
}

/// Message sizes (elements) of the wire ping-pong, with repetitions.
const PING_PONG: [(usize, usize); 6] = [
    (1, 200),
    (4_096, 100),
    (65_536, 40),
    (262_144, 12),
    (1_048_576, 6),
    (2_000_000, 5),
];

/// The paper's Fig. 8 on the wire transport: one-way time of
/// `Communicator` send/recv (frame encode, hand-over, decode) over a size
/// sweep, and its least-squares `t = α + β·n` fit.
fn ping_pong_fit(comm: &mut Communicator) -> gtopk_comm::Result<Option<(f64, f64)>> {
    let mut points = Vec::new();
    for (n, reps) in PING_PONG {
        if comm.rank() == 0 {
            let data = Arc::new(vec![1.0f32; n]);
            let mut rtt = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                comm.send(1, TAG_PINGPONG, Payload::dense_shared(data.clone()))?;
                comm.recv(1, TAG_PINGPONG)?;
                rtt.push(ms(t.elapsed()));
            }
            points.push((n as f64, median(&rtt) / 2.0));
        } else if comm.rank() == 1 {
            for _ in 0..reps {
                let echo = comm.recv(0, TAG_PINGPONG)?;
                comm.send(0, TAG_PINGPONG, echo.payload)?;
            }
        }
    }
    if points.is_empty() {
        return Ok(None);
    }
    for (x, y) in &points {
        println!("  ping-pong {x:>9} elems: {y:.4} ms one-way");
    }
    Ok(Some(fit_alpha_beta(&points)))
}

/// Least-squares `t = α + β·n` over `(n, t)` points, each weighted by
/// 1/t² so that the sweep's small messages (which set α) count as much as
/// its large ones (which set β): it minimizes relative error.
fn fit_alpha_beta(points: &[(f64, f64)]) -> (f64, f64) {
    let w = |y: f64| 1.0 / (y * y);
    let sw: f64 = points.iter().map(|&(_, y)| w(y)).sum();
    let mx = points.iter().map(|&(x, y)| w(y) * x).sum::<f64>() / sw;
    let my = points.iter().map(|&(_, y)| w(y) * y).sum::<f64>() / sw;
    let sxy: f64 = points
        .iter()
        .map(|&(x, y)| w(y) * (x - mx) * (y - my))
        .sum();
    let sxx: f64 = points.iter().map(|&(x, y)| w(y) * (x - mx).powi(2)).sum();
    let beta = sxy / sxx;
    (my - beta * mx, beta)
}

/// A session's outcome folded into the run's counts, or the reason it
/// produced nothing.
fn fold(out: &mut Outcome, ends: Result<Vec<RankEnd>, String>) -> Option<Vec<RankEnd>> {
    match ends {
        Err(why) => {
            out.attempted += 1;
            out.failed += 1;
            out.fail(why);
            None
        }
        Ok(ends) => {
            let attempted = ends
                .iter()
                .map(|e| e.steps + usize::from(e.failed_step.is_some()))
                .max()
                .unwrap_or(0);
            let mut failed: Vec<usize> = ends.iter().filter_map(|e| e.failed_step).collect();
            failed.sort_unstable();
            failed.dedup();
            out.attempted += attempted as u64;
            out.failed += failed.len() as u64;
            for e in &ends {
                for p in &e.problems {
                    out.fail(p.clone());
                }
            }
            Some(ends)
        }
    }
}

/// Generates the inputs, then runs `SESSIONS` gTop-k sessions (set-up,
/// then timed steps) and `SETUP_ONLY` set-ups, and reports the end-to-end
/// metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let inputs = inputs(seed);
    let mut setups = Vec::new();
    let mut first: Option<Record> = None;
    let mut peak_rss = 0.0;
    let (mut steps, mut sim, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    // The first session runs for its share of the time; every later one
    // runs exactly as many steps, so each session weighs the same.
    let mut per_session = min_samples_for_tail().div_ceil(SESSIONS);
    for i in 0..SESSIONS + SETUP_ONLY {
        let (secs, min_steps) = match i {
            0 => (seconds / SESSIONS as f64, per_session),
            _ if i < SESSIONS => (0.0, per_session),
            _ => (0.0, 0),
        };
        let ends = fold(
            &mut out,
            session(Kind::GtopkSim, &inputs, false, secs, min_steps),
        );
        let Some(mut ends) = ends.filter(|_| out.correct) else {
            return out;
        };
        let end = ends.swap_remove(0);
        setups.push(end.setup.as_secs_f64());
        if min_steps == 0 {
            continue;
        }
        println!(
            "  session: setup {:.3} ms, step wall ms median {:.3}",
            ms(end.setup),
            median(&end.record.steps_ms)
        );
        let session_s: f64 = end.record.steps_ms.iter().sum::<f64>() / 1e3;
        rates.push((WORKERS * end.record.steps_ms.len()) as f64 / session_s);
        steps.extend(&end.record.steps_ms);
        sim.extend(&end.record.sim_ms);
        if first.is_none() {
            // Later sessions' peaks depend on whether the allocator
            // reuses the memory earlier sessions freed.
            peak_rss = peak_rss_mb();
            per_session = end.record.steps_ms.len();
            first = Some(end.record);
        }
    }
    if !out.correct {
        return out;
    }
    println!("rank-0 step wall ms: {}", describe(&steps));
    out.set("step_wall_ms_p50", median(&steps));
    out.set("step_wall_ms_p90", percentile(&steps, TAIL_PERCENTILE));
    // One gradient per rank per step; the median over sessions, as the
    // training workload takes the median over its runs.
    out.set("samples_per_s", median(&rates));
    out.set("step_sim_ms", mean(&sim));
    if let Some(loss) = first.and_then(|r| r.loss) {
        out.set("final_loss", loss);
    }
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss);
    out
}

/// The traced run: untraced gTop-k sessions for the overhead baseline
/// alternating with traced ones, `TRACED_PAIRS` of each (a session's
/// level is one sample); then `TRACED_PAIRS` traced sessions of the dense
/// ring allreduce over the wire transport, for the codec layers and the
/// wire α-β fit.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let inputs = inputs(seed);
    let secs = seconds / (3 * TRACED_PAIRS) as f64;
    let (mut base, mut rec, mut dense) = (Record::default(), Record::default(), Record::default());
    let mut fits = Vec::new();
    let plan = (0..TRACED_PAIRS)
        .flat_map(|_| [(Kind::GtopkSim, false), (Kind::GtopkSim, true)])
        .chain((0..TRACED_PAIRS).map(|_| (Kind::DenseWire, true)));
    for (kind, traced) in plan {
        let ends = fold(
            &mut out,
            session(kind, &inputs, traced, secs, TRACED_MIN_STEPS),
        );
        let Some(mut ends) = ends.filter(|_| out.correct) else {
            return out;
        };
        let end = ends.swap_remove(0);
        fits.extend(end.fit);
        match (kind, traced) {
            (Kind::DenseWire, _) => dense.absorb(end.record),
            (_, true) => rec.absorb(end.record),
            (_, false) => base.absorb(end.record),
        }
    }
    if base.steps_ms.is_empty() || rec.steps_ms.is_empty() || dense.steps_ms.is_empty() {
        return out;
    }
    let steps = rec.steps_ms.len() as f64;
    let exchange = median(&rec.steps_ms);
    let allreduce = median(&dense.steps_ms);
    let [select, collective, putback] = &rec.layers_ms;
    let (alpha, beta) = if fits.is_empty() {
        (0.0, 0.0)
    } else {
        let (a, b): (Vec<f64>, Vec<f64>) = fits.into_iter().unzip();
        (median(&a), median(&b))
    };
    // The fitted model's time for a two-rank ring allreduce of m elements:
    // 2(P − 1) messages of m/P elements.
    let predicted = 2.0 * (WORKERS - 1) as f64 * (alpha + beta * (M / WORKERS) as f64);
    println!(
        "wire fit: alpha {alpha:.5} ms, beta {beta:.4e} ms/elem \
         (paper 1 GbE: alpha 0.436 ms, beta 3.6e-5 ms/elem); \
         model predicts {predicted:.3} ms per dense allreduce, measured {allreduce:.3} ms"
    );
    set_comm_counters(&mut out, &rec.stats, steps);
    for (name, v) in [
        ("core.exchange_ms", mean(&rec.steps_ms)),
        ("sparse.select_ms", mean(select)),
        ("core.collective_ms", mean(collective)),
        ("sparse.putback_ms", mean(putback)),
        ("core.peer_wait_ms", mean(&rec.peer_wait_ms)),
        ("core.allreduce_ms", mean(&dense.steps_ms)),
        ("comm.frame_codec_ms", mean(&dense.codec_ms)),
        ("core.update_nnz", mean(&rec.nnz)),
        ("comm.wire_alpha_ms", alpha),
        ("comm.wire_beta_ms_per_elem", beta),
        (
            "comm.wire_model_ratio",
            if predicted > 0.0 {
                allreduce / predicted
            } else {
                0.0
            },
        ),
        (
            "trace_overhead_pct",
            100.0 * (exchange - median(&base.steps_ms)) / median(&base.steps_ms),
        ),
        // No dataset and no model in an exchange workload.
        ("data.batch_ms", 0.0),
        ("nn.forward_ms", 0.0),
        ("nn.backward_ms", 0.0),
        ("nn.apply_ms", 0.0),
    ] {
        out.set(name, v);
    }
    println!(
        "traced: {} gTop-k steps on rank 0; traced step p50 {exchange:.4} ms vs untraced {:.4} ms; \
         {} dense wire steps",
        rec.steps_ms.len(),
        median(&base.steps_ms),
        dense.steps_ms.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_beta_fit_recovers_an_exact_line() {
        let points: Vec<(f64, f64)> = [1.0, 1e3, 1e5, 2e6]
            .iter()
            .map(|&n| (n, 0.436 + 3.6e-5 * n))
            .collect();
        let (alpha, beta) = fit_alpha_beta(&points);
        assert!((alpha - 0.436).abs() < 1e-9, "{alpha}");
        assert!((beta - 3.6e-5).abs() < 1e-15, "{beta}");
    }

    #[test]
    fn gradients_are_seeded_on_a_fixed_scale_profile() {
        let a = segment_scales();
        assert_eq!(a, segment_scales());
        assert!(a.windows(2).any(|w| w[0] > w[1]), "the profile is shuffled");
        let g = |seed, rank, slot| gradient(seed, &a, rank, slot)[..64].to_vec();
        assert_eq!(g(3, 1, 2), g(3, 1, 2));
        assert_ne!(g(3, 1, 2), g(4, 1, 2));
        assert_ne!(g(3, 0, 2), g(3, 1, 2));
        assert_eq!(gradient(3, &a, 0, 0).len(), M);
    }
}
