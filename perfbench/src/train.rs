//! `train-resnet20-sim`: gTop-k S-SGD (Alg. 4) through `train_distributed`
//! on the sim transport, timed from outside by pass-through wrappers of
//! the model and the dataset.

use crate::ranks::{mean, ms, peak_rss_mb, set_comm_counters};
use crate::report::Outcome;
use crate::stats::{describe, median, percentile, TAIL_PERCENTILE};
use gtopk::{train_distributed, train_rank, TrainConfig, TrainReport};
use gtopk_comm::{Cluster, CommStats};
use gtopk_data::{Dataset, PatternImages};
use gtopk_nn::{models, Model, Sequential};
use gtopk_tensor::Tensor;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;
pub const BATCH: usize = 8;
/// Five epochs: the four warm-up densities of §IV-B, then ρ = 0.005.
pub const EPOCHS: usize = 5;
pub const LR: f32 = 0.05;
pub const DENSITY: f64 = 0.005;
/// Data orders per run whose last-epoch losses give `final_loss` (their
/// mean): one order's loss differs from another's by about a fifth.
const DATA_ORDERS: usize = 32;

/// Sized as the CLI sizes it for `--model resnet`.
fn dataset_len() -> usize {
    16 * WORKERS.max(4) * BATCH.max(8)
}

/// The task — dataset and initial model — is fixed, as a given network
/// and dataset are; the run's seed draws the data order. (Drawing the task
/// too makes the last-epoch loss vary by a third from seed to seed.)
const TASK_SEED: u64 = 0x5eed;

/// Iterations of one training run.
fn iterations() -> u64 {
    (EPOCHS * dataset_len() / (WORKERS * BATCH)) as u64
}

fn config(data_seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::convergence(WORKERS, BATCH, EPOCHS, LR, DENSITY);
    cfg.data_seed = data_seed;
    cfg
}

fn dataset() -> PatternImages {
    PatternImages::cifar_like(TASK_SEED, dataset_len())
}

fn build_model() -> Sequential {
    models::resnet20_lite(TASK_SEED, 3, 10)
}

thread_local! {
    /// The rank whose shard this thread last read.
    static RANK: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Time this thread spent in `Dataset::batch` since the last forward.
    static BATCH_TIME: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// Pass-through dataset. It tells its calling thread which rank it is
/// (from the shard of the batch indices) and, traced, times `batch`.
struct ProbeData<'a> {
    inner: &'a PatternImages,
    traced: bool,
}

impl Dataset for ProbeData<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn input_dims(&self) -> Vec<usize> {
        self.inner.input_dims()
    }
    fn targets_per_item(&self) -> usize {
        self.inner.targets_per_item()
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn item(&self, i: usize) -> (Vec<f32>, Vec<usize>) {
        self.inner.item(i)
    }
    fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        // `shard_indices` gives rank r the items from r·len/P on.
        let len = self.len();
        let rank = (0..WORKERS)
            .rev()
            .find(|&r| r * len / WORKERS <= indices[0])
            .expect("rank 0's shard starts at item 0");
        RANK.with(|c| c.set(rank));
        if !self.traced {
            return self.inner.batch(indices);
        }
        let t = Instant::now();
        let out = self.inner.batch(indices);
        BATCH_TIME.with(|c| c.set(c.get() + t.elapsed()));
        out
    }
}

/// What one rank's model wrapper saw, one entry per iteration.
#[derive(Default)]
struct StepLog {
    rank: usize,
    forward_at: Vec<Instant>,
    batch: Vec<Duration>,
    forward: Vec<Duration>,
    backward: Vec<Duration>,
    grads_at: Vec<Instant>,
    apply_at: Vec<Instant>,
    apply: Vec<Duration>,
}

/// Pass-through model. Untraced it only stamps the start of each
/// `forward` (one stamp per iteration); traced it also times the other
/// calls the training loop makes and stamps the return of `flat_grads`. On drop, at the end of the rank's
/// loop, it hands its log to `sink`.
struct Probe {
    inner: Sequential,
    traced: bool,
    log: StepLog,
    /// `flat_grads` takes `&self`; its stamps land here.
    grads_at: RefCell<Vec<Instant>>,
    sink: Arc<Mutex<Vec<StepLog>>>,
}

impl Probe {
    fn new(inner: Sequential, traced: bool, sink: Arc<Mutex<Vec<StepLog>>>) -> Self {
        let n = iterations() as usize + 1;
        let cap = |on: bool| if on { n } else { 0 };
        let log = StepLog {
            rank: usize::MAX,
            forward_at: Vec::with_capacity(n),
            batch: Vec::with_capacity(cap(traced)),
            forward: Vec::with_capacity(cap(traced)),
            backward: Vec::with_capacity(cap(traced)),
            grads_at: Vec::new(),
            apply_at: Vec::with_capacity(cap(traced)),
            apply: Vec::with_capacity(cap(traced)),
        };
        Probe {
            inner,
            traced,
            log,
            grads_at: RefCell::new(Vec::with_capacity(cap(traced))),
            sink,
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.log.rank = RANK.with(Cell::get);
        self.log.grads_at = self.grads_at.take();
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.log));
        }
    }
}

impl Model for Probe {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let t = Instant::now();
        self.log.forward_at.push(t);
        if !self.traced {
            return self.inner.forward(input, train);
        }
        self.log
            .batch
            .push(BATCH_TIME.with(|c| c.replace(Duration::ZERO)));
        let out = self.inner.forward(input, train);
        self.log.forward.push(t.elapsed());
        out
    }
    fn backward(&mut self, grad_logits: &Tensor) {
        if !self.traced {
            return self.inner.backward(grad_logits);
        }
        let t = Instant::now();
        self.inner.backward(grad_logits);
        self.log.backward.push(t.elapsed());
    }
    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }
    fn flat_grads(&self) -> Vec<f32> {
        let g = self.inner.flat_grads();
        if self.traced {
            self.grads_at.borrow_mut().push(Instant::now());
        }
        g
    }
    fn flat_params(&self) -> Vec<f32> {
        self.inner.flat_params()
    }
    fn set_flat_params(&mut self, values: &[f32]) {
        self.inner.set_flat_params(values);
    }
    fn add_to_flat_params(&mut self, delta: &[f32]) {
        if !self.traced {
            return self.inner.add_to_flat_params(delta);
        }
        let t = Instant::now();
        self.log.apply_at.push(t);
        self.inner.add_to_flat_params(delta);
        self.log.apply.push(t.elapsed());
    }
    fn param_segments(&self) -> Vec<usize> {
        self.inner.param_segments()
    }
}

/// One untraced `train_distributed` call, timed from outside.
struct Run {
    report: TrainReport,
    setup: Duration,
    wall: Duration,
    /// Rank 0's iteration times: forward start to next forward start.
    steps_ms: Vec<f64>,
}

fn untraced_run(data_seed: u64) -> Result<Run, String> {
    let t_setup = Instant::now();
    let data = dataset();
    let probe_data = ProbeData {
        inner: &data,
        traced: false,
    };
    let sink = Arc::new(Mutex::new(Vec::new()));
    let cfg = config(data_seed);
    let t_call = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        train_distributed(
            &cfg,
            || Probe::new(build_model(), false, sink.clone()),
            &probe_data,
            None,
        )
    }))
    .map_err(|_| "train_distributed panicked".to_string())?;
    let wall = t_call.elapsed();
    let log = rank_log(&sink, 0)?;
    let first = *log.forward_at.first().ok_or("rank 0 ran no iteration")?;
    Ok(Run {
        report,
        setup: first - t_setup,
        wall,
        steps_ms: log.forward_at.windows(2).map(|w| ms(w[1] - w[0])).collect(),
    })
}

fn rank_log(sink: &Mutex<Vec<StepLog>>, rank: usize) -> Result<StepLog, String> {
    let mut logs = sink.lock().map_err(|_| "log sink poisoned")?;
    let at = logs
        .iter()
        .position(|l| l.rank == rank)
        .ok_or(format!("no log from rank {rank}"))?;
    Ok(logs.swap_remove(at))
}

fn epoch_losses(r: &TrainReport) -> Vec<f64> {
    r.epochs.iter().map(|e| e.train_loss).collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks one run's losses: finite, the last epoch below the first, and
/// bitwise equal to the reference run's when one is given.
fn check_losses(r: &TrainReport, reference: Option<&[f64]>) -> Result<(), String> {
    let losses = epoch_losses(r);
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    if !last.is_finite() || last >= first {
        return Err(format!(
            "final loss {last} must be finite and below the first epoch's {first}"
        ));
    }
    if let Some(reference) = reference {
        if !same_bits(&losses, reference) {
            return Err(format!("losses {losses:?} differ from the first run's with the same data order {reference:?}"));
        }
    }
    Ok(())
}

/// Trains for `seconds`: once at each of `DATA_ORDERS` data orders
/// derived from `seed`, then again at each in turn, every repeat checked
/// bitwise against the first run with its order. Times come from every
/// iteration of every run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let start = Instant::now();
    let (mut steps, mut setups, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_losses: Vec<Vec<f64>> = Vec::new();
    let mut sim_per_step = 0.0;
    let iters = iterations();
    let mut i = 0;
    while i < DATA_ORDERS + 1 || start.elapsed().as_secs_f64() < seconds {
        let at = i % DATA_ORDERS;
        let data_seed = seed
            .wrapping_mul(DATA_ORDERS as u64)
            .wrapping_add(at as u64);
        out.attempted += iters;
        let checked = untraced_run(data_seed).and_then(|r| {
            check_losses(&r.report, first_losses.get(at).map(Vec::as_slice))?;
            Ok(r)
        });
        let r = match checked {
            Ok(r) => r,
            Err(why) => {
                out.failed += iters;
                out.fail(format!("data order {data_seed}: {why}"));
                break;
            }
        };
        if i < DATA_ORDERS {
            first_losses.push(epoch_losses(&r.report));
        }
        sim_per_step = r.report.sim_time_ms / r.report.timing.iterations as f64;
        rates.push((WORKERS * BATCH) as f64 * iters as f64 / r.wall.as_secs_f64());
        setups.push(r.setup.as_secs_f64());
        steps.extend(r.steps_ms);
        i += 1;
    }
    if first_losses.len() < DATA_ORDERS {
        return out;
    }
    println!(
        "{} training runs; rank-0 iteration wall ms: {}",
        setups.len(),
        describe(&steps)
    );
    let finals: Vec<f64> = first_losses.iter().map(|l| l[l.len() - 1]).collect();
    println!("last-epoch loss at each of the {DATA_ORDERS} data orders: {finals:.5?}");
    out.set("step_wall_ms_p50", median(&steps));
    out.set("step_wall_ms_p90", percentile(&steps, TAIL_PERCENTILE));
    out.set("samples_per_s", median(&rates));
    out.set("step_sim_ms", sim_per_step);
    out.set("final_loss", mean(&finals));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced run: an unwrapped reference run, untraced wrapped runs
/// for the overhead baseline, then a traced run whose per-layer times
/// come from the wrappers. Every run must match the reference bitwise.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let iters = iterations();
    let data = dataset();
    let cfg = config(seed);

    out.attempted += iters;
    let reference = match catch_unwind(AssertUnwindSafe(|| {
        train_distributed(&cfg, build_model, &data, None)
    })) {
        Ok(r) => r,
        Err(_) => {
            out.failed += iters;
            out.fail("unwrapped train_distributed panicked");
            return out;
        }
    };
    let ref_losses = epoch_losses(&reference);
    if let Err(why) = check_losses(&reference, None) {
        out.failed += iters;
        out.fail(why);
    }

    // Untraced baseline for the tracing overhead.
    let start = Instant::now();
    let mut untraced = Vec::new();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < seconds / 2.0 {
        out.attempted += iters;
        match untraced_run(seed).and_then(|r| {
            check_losses(&r.report, Some(&ref_losses))?;
            same_sim(&r.report, &reference)?;
            Ok(r)
        }) {
            Ok(r) => untraced.extend(r.steps_ms),
            Err(why) => {
                out.failed += iters;
                out.fail(format!("wrapped run: {why}"));
                return out;
            }
        }
    }

    // Traced: `train_rank` on this benchmark's own communicators, so the
    // rank's communication counters are readable afterwards.
    out.attempted += iters;
    let sink = Arc::new(Mutex::new(Vec::new()));
    let probe_data = ProbeData {
        inner: &data,
        traced: true,
    };
    let cluster = Cluster::new(WORKERS, cfg.cost_model);
    let results = cluster.run_caught(|comm| {
        let report = train_rank(
            &cfg,
            comm,
            || Probe::new(build_model(), true, sink.clone()),
            &probe_data,
            None,
        );
        (report, comm.stats())
    });
    let traced = (|| {
        let mut reports = Vec::new();
        for r in results {
            let (report, stats) = r?;
            reports.push((report.ok_or("a rank left the traced run")?, stats));
        }
        // The report's loss is the cross-rank mean, summed in rank order.
        let mean_losses: Vec<f64> = (0..EPOCHS)
            .map(|e| {
                reports
                    .iter()
                    .map(|(r, _)| r.epochs[e].train_loss)
                    .sum::<f64>()
                    / WORKERS as f64
            })
            .collect();
        if !same_bits(&mean_losses, &ref_losses) {
            return Err(format!(
                "traced losses {mean_losses:?} differ from unwrapped {ref_losses:?}"
            ));
        }
        same_sim(&reports[0].0, &reference)?;
        let logs = (0..WORKERS)
            .map(|r| rank_log(&sink, r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, String>((reports.swap_remove(0), logs))
    })();
    let ((report, stats), logs) = match traced {
        Ok(t) => t,
        Err(why) => {
            out.failed += iters;
            out.fail(format!("traced run: {why}"));
            return out;
        }
    };
    set_layers(&mut out, &report, &stats, &logs, median(&untraced));
    out
}

fn same_sim(r: &TrainReport, reference: &TrainReport) -> Result<(), String> {
    if r.sim_time_ms.to_bits() == reference.sim_time_ms.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "sim time {} differs from unwrapped {}",
            r.sim_time_ms, reference.sim_time_ms
        ))
    }
}

fn set_layers(
    out: &mut Outcome,
    report: &TrainReport,
    stats: &CommStats,
    logs: &[StepLog],
    untraced_p50: f64,
) {
    let log0 = &logs[0];
    let iters = report.timing.iterations as f64;
    let durs = |v: &[Duration]| v.iter().map(|&d| ms(d)).collect::<Vec<_>>();
    let exchange: Vec<f64> = log0
        .grads_at
        .iter()
        .zip(&log0.apply_at)
        .map(|(&g, &a)| ms(a - g))
        .collect();
    let peer_wait: Vec<f64> = (0..log0.grads_at.len())
        .map(|i| {
            logs.iter()
                .map(|l| ms(l.grads_at[i].saturating_duration_since(log0.grads_at[i])))
                .fold(0.0, f64::max)
        })
        .collect();
    let traced_steps: Vec<f64> = log0
        .forward_at
        .windows(2)
        .map(|w| ms(w[1] - w[0]))
        .collect();
    set_comm_counters(out, stats, iters);
    for (name, v) in [
        ("data.batch_ms", mean(&durs(&log0.batch))),
        ("nn.forward_ms", mean(&durs(&log0.forward))),
        ("nn.backward_ms", mean(&durs(&log0.backward))),
        ("nn.apply_ms", mean(&durs(&log0.apply))),
        ("core.exchange_ms", mean(&exchange)),
        ("core.peer_wait_ms", mean(&peer_wait)),
        ("core.update_nnz", report.mean_update_nnz),
        (
            "trace_overhead_pct",
            100.0 * (median(&traced_steps) - untraced_p50) / untraced_p50,
        ),
    ] {
        out.set(name, v);
    }
    // Layers this workload does not run from the benchmark's side:
    // selection, collective and put-back happen inside `aggregate`, and
    // there is no wire transport.
    for name in [
        "sparse.select_ms",
        "core.collective_ms",
        "sparse.putback_ms",
        "core.allreduce_ms",
        "comm.frame_codec_ms",
        "comm.wire_alpha_ms",
        "comm.wire_beta_ms_per_elem",
        "comm.wire_model_ratio",
    ] {
        out.set(name, 0.0);
    }
    println!(
        "traced: {} iterations on rank 0; traced step p50 {:.4} ms vs untraced {:.4} ms",
        traced_steps.len() + 1,
        median(&traced_steps),
        untraced_p50
    );
}
