//! Hot-path kernel throughput at paper scale → `BENCH_kernels.json`.
//!
//! Measures elements/sec for the kernels the trainer spends its compute
//! budget on — top-k selection, sparse top-k merge, matmul, residual
//! accumulate, and the fused accumulate+select+compact pass — comparing:
//!
//! * the exact top-k kernel's threshold prefilter, alone and fused with
//!   the residual accumulate, against the plain quickselect it replaced;
//! * the zero-allocation scratch-reuse paths against the allocating ones;
//! * the blocked/row-parallel matmul against the naive i-k-j loop (and
//!   asserting the single-thread dispatch is never slower than naive);
//! * every available `GTOPK_SIMD` level against the scalar kernels;
//! * the fused single-pass residual+select against the three-pass
//!   accumulate / scan / compact sequence, at m = 25M;
//! * thread counts 1/2/4 via the `crate::parallel` runtime (on a
//!   single-core CI machine the thread rows document oversubscription
//!   rather than speedup — `cpus` in the JSON records what was available).
//!
//! Run with `cargo run --release -p gtopk-bench --bin bench_kernels`;
//! the JSON lands in the repository root so future PRs have a perf
//! trajectory to compare against.

use gtopk_sparse::{
    topk_merge, topk_merge_into, topk_sparse, topk_sparse_into, MergeScratch, Residual, SparseVec,
    TopkScratch,
};
use gtopk_tensor::simd::{self, SimdLevel};
use gtopk_tensor::{matmul_flat, parallel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// VGG-16 has ~14.7M convolutional + fc parameters; ρ = 0.001.
const N: usize = 14_000_000;
const K: usize = 14_000;
/// SIMD / fusion rows run at the larger 25M scale from the perf issue so
/// the kernels are firmly memory-bound (100 MB per buffer).
const N2: usize = 25_000_000;
const K2: usize = 25_000;
/// Sample size for the threshold-estimate selector (trainer default).
const SAMPLE: usize = 512;
const THREADS: &[usize] = &[1, 2, 4];

struct Row {
    kernel: &'static str,
    variant: &'static str,
    threads: usize,
    /// SIMD level the row actually dispatched ("scalar"/"sse2"/"avx2").
    simd: &'static str,
    elements: usize,
    secs: f64,
    /// Marks the row others of the same kernel are normalized against.
    baseline: bool,
}

impl Row {
    fn elements_per_sec(&self) -> f64 {
        self.elements as f64 / self.secs
    }
}

/// Median-of-`runs` wall time for `f`, after one warm-up call.
fn time_median<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Every SIMD level this host can run, scalar first.
fn levels() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|l| l.available())
        .collect()
}

/// The pre-optimization matmul: plain scalar i-k-j, no blocking, no
/// threads. Kept here as the ablation baseline.
fn naive_matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c.iter_mut().for_each(|v| *v = 0.0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                *cv += av * bv;
            }
        }
    }
}

/// The exact top-k kernel before its threshold prefilter: a serial
/// quickselect over all indices (larger |value| first, NaN as 0, lower
/// index on ties), indices ascending into `out`. Kept here as the
/// ablation baseline.
fn quickselect_topk(values: &[f32], k: usize, idx: &mut Vec<u32>, out: &mut Vec<u32>) {
    let mag = |i: u32| {
        let m = values[i as usize].abs();
        if m.is_nan() {
            0.0
        } else {
            m
        }
    };
    idx.clear();
    idx.extend(0..values.len() as u32);
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        mag(b)
            .partial_cmp(&mag(a))
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    out.clear();
    out.extend_from_slice(&idx[..k]);
    out.sort_unstable();
}

fn bench_select(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(7);
    let dense: Vec<f32> = (0..N).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

    let (mut idx, mut before) = (Vec::new(), Vec::new());
    rows.push(Row {
        kernel: "topk_select",
        variant: "quickselect",
        threads: 1,
        simd: "scalar",
        elements: N,
        baseline: true,
        secs: time_median(5, || {
            quickselect_topk(black_box(&dense), K, &mut idx, &mut before);
            black_box(&before);
        }),
    });
    let mut scratch = TopkScratch::new();
    let mut out = SparseVec::empty(N);
    rows.push(Row {
        kernel: "topk_select",
        variant: "prefiltered",
        threads: 1,
        simd: simd::level().name(),
        elements: N,
        baseline: false,
        secs: parallel::with_thread_limit(1, || {
            time_median(5, || {
                topk_sparse_into(black_box(&dense), K, &mut scratch, &mut out);
                black_box(&out);
            })
        }),
    });
    assert_eq!(
        out.indices(),
        &before[..],
        "prefiltered select must be exact"
    );
    rows.push(Row {
        kernel: "topk_select",
        variant: "alloc_per_call",
        threads: 1,
        simd: simd::level().name(),
        elements: N,
        baseline: false,
        secs: parallel::with_thread_limit(1, || {
            time_median(5, || {
                black_box(topk_sparse(black_box(&dense), K));
            })
        }),
    });
    // One thread is the `prefiltered` row above.
    for &t in &THREADS[1..] {
        let mut scratch = TopkScratch::new();
        let mut out = SparseVec::empty(N);
        rows.push(Row {
            kernel: "topk_select",
            variant: "scratch_reuse",
            threads: t,
            simd: simd::level().name(),
            elements: N,
            baseline: false,
            secs: parallel::with_thread_limit(t, || {
                time_median(5, || {
                    topk_sparse_into(black_box(&dense), K, &mut scratch, &mut out);
                    black_box(&out);
                })
            }),
        });
    }
}

fn bench_merge(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(11);
    let mk_sparse = |rng: &mut StdRng| {
        let dense: Vec<f32> = (0..N).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        topk_sparse(&dense, K)
    };
    let a = mk_sparse(&mut rng);
    let b = mk_sparse(&mut rng);

    // The merge operator touches 2k = 28 000 entries; loop it so each
    // timing sample is well above clock resolution.
    const REPS: usize = 200;
    rows.push(Row {
        kernel: "topk_merge",
        variant: "alloc_per_call",
        threads: 1,
        simd: simd::level().name(),
        elements: 2 * K * REPS,
        baseline: true,
        secs: time_median(5, || {
            for _ in 0..REPS {
                black_box(topk_merge(black_box(&a), black_box(&b), K));
            }
        }),
    });
    let mut scratch = MergeScratch::new();
    let mut out = SparseVec::empty(N);
    rows.push(Row {
        kernel: "topk_merge",
        variant: "scratch_reuse",
        threads: 1,
        simd: simd::level().name(),
        elements: 2 * K * REPS,
        baseline: false,
        secs: time_median(5, || {
            for _ in 0..REPS {
                topk_merge_into(black_box(&a), black_box(&b), K, &mut scratch, &mut out);
                black_box(&out);
            }
        }),
    });
}

fn bench_matmul(rows: &mut Vec<Row>) {
    // A VGG-style fully-connected shape: 256-sample batch × 512 × 512.
    let (m, k, n) = (256usize, 512usize, 512usize);
    let mut rng = StdRng::seed_from_u64(13);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut c = vec![0.0f32; m * n];
    let flops = m * k * n;

    rows.push(Row {
        kernel: "matmul",
        variant: "naive_ikj",
        threads: 1,
        simd: "scalar",
        elements: flops,
        baseline: true,
        secs: time_median(5, || {
            naive_matmul(black_box(&a), black_box(&b), &mut c, m, k, n);
            black_box(&c);
        }),
    });
    for &t in THREADS {
        // At one effective thread `matmul_flat` dispatches the unblocked
        // serial kernel (blocking only pays for itself with row
        // parallelism); label the row accordingly.
        rows.push(Row {
            kernel: "matmul",
            variant: if t == 1 {
                "serial_unblocked"
            } else {
                "blocked_parallel"
            },
            threads: t,
            simd: simd::level().name(),
            elements: flops,
            baseline: false,
            secs: parallel::with_thread_limit(t, || {
                time_median(5, || {
                    matmul_flat(black_box(&a), black_box(&b), &mut c, m, k, n);
                    black_box(&c);
                })
            }),
        });
    }
}

/// Residual accumulate (`acc += grad`) at every SIMD level, m = 25M.
fn bench_axpy(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(17);
    let grad: Vec<f32> = (0..N2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut acc: Vec<f32> = (0..N2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    for level in levels() {
        rows.push(Row {
            kernel: "residual_axpy",
            variant: level.name(),
            threads: 1,
            simd: level.name(),
            elements: N2,
            baseline: level == SimdLevel::Scalar,
            secs: parallel::with_thread_limit(1, || {
                simd::with_simd_level(level, || {
                    time_median(5, || {
                        simd::axpy(black_box(&mut acc), black_box(&grad));
                    })
                })
            }),
        });
    }
}

/// Threshold magnitude scan + compaction at every SIMD level, m = 25M.
/// The threshold is placed so ~k = 25 000 indices survive (ρ = 0.001 on
/// uniform [-1, 1) data → |v| > 0.999).
fn bench_compact(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(19);
    let dense: Vec<f32> = (0..N2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let thr = 1.0 - K2 as f32 / N2 as f32;
    let mut out: Vec<u32> = Vec::new();
    for level in levels() {
        rows.push(Row {
            kernel: "threshold_compact",
            variant: level.name(),
            threads: 1,
            simd: level.name(),
            elements: N2,
            baseline: level == SimdLevel::Scalar,
            secs: parallel::with_thread_limit(1, || {
                simd::with_simd_level(level, || {
                    time_median(5, || {
                        out.clear();
                        simd::compact_above(black_box(&dense), thr, 0, &mut out);
                        black_box(&out);
                    })
                })
            }),
        });
    }
}

/// Fused accumulate+select+compact vs the three-pass accumulate / scan /
/// compact sequence, m = 25M, k = 25 000, single thread.
///
/// Each rep re-accumulates the same fresh gradient and extracts the
/// top-k, so the residual reaches the trainer's steady state (rotating
/// selection) and per-rep work stays constant. Both variants run the
/// identical rep sequence from the same RNG seed, so thresholds — and
/// every float — match bitwise between them; only the number of memory
/// passes differs.
fn bench_fused_select(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(21);
    let grad: Vec<f32> = (0..N2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let best = simd::detect_best();
    let configs: [(&'static str, SimdLevel, bool); 4] = [
        ("three_pass_scalar", SimdLevel::Scalar, false),
        ("three_pass_simd", best, false),
        ("fused_scalar", SimdLevel::Scalar, true),
        ("fused_simd", best, true),
    ];
    for (variant, level, fused) in configs {
        let mut r = Residual::new(N2);
        let mut sel_rng = StdRng::seed_from_u64(23);
        let mut out = SparseVec::empty(N2);
        rows.push(Row {
            kernel: "residual_select",
            variant,
            threads: 1,
            simd: level.name(),
            elements: N2,
            baseline: variant == "three_pass_scalar",
            secs: parallel::with_thread_limit(1, || {
                simd::with_simd_level(level, || {
                    time_median(5, || {
                        if fused {
                            r.accumulate_extract_threshold_into(
                                black_box(&grad),
                                K2,
                                SAMPLE,
                                &mut sel_rng,
                                &mut out,
                            );
                        } else {
                            r.accumulate(black_box(&grad));
                            r.extract_topk_threshold_into(K2, SAMPLE, &mut sel_rng, &mut out);
                        }
                        black_box(&out);
                    })
                })
            }),
        });
    }
}

/// Exact-selector residual extraction, m = 25M, k = 25 000, single
/// thread: the fused prefiltered pass against the path it replaced —
/// accumulate, then quickselect over the whole buffer, then zero the
/// selection. Same rep sequence as [`bench_fused_select`]; both variants
/// select identically.
fn bench_exact_residual_select(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(21);
    let grad: Vec<f32> = (0..N2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let level = simd::detect_best();
    let mut acc = vec![0.0f32; N2];
    let (mut idx, mut before) = (Vec::new(), Vec::new());
    rows.push(Row {
        kernel: "residual_select",
        variant: "accumulate_quickselect",
        threads: 1,
        simd: level.name(),
        elements: N2,
        baseline: false,
        secs: simd::with_simd_level(level, || {
            time_median(5, || {
                simd::axpy(&mut acc, black_box(&grad));
                quickselect_topk(&acc, K2, &mut idx, &mut before);
                for &i in &before {
                    acc[i as usize] = 0.0;
                }
                black_box(&before);
            })
        }),
    });
    let mut r = Residual::new(N2);
    let mut out = SparseVec::empty(N2);
    rows.push(Row {
        kernel: "residual_select",
        variant: "fused_exact",
        threads: 1,
        simd: level.name(),
        elements: N2,
        baseline: false,
        secs: parallel::with_thread_limit(1, || {
            simd::with_simd_level(level, || {
                time_median(5, || {
                    r.accumulate_extract_topk_into(black_box(&grad), K2, &mut out);
                    black_box(&out);
                })
            })
        }),
    });
    assert_eq!(
        out.indices(),
        &before[..],
        "fused exact select must be exact"
    );
    assert_eq!(r.dense(), &acc[..], "fused exact residual state must match");
}

fn render_json(rows: &[Row]) -> String {
    let per_elem = |r: &Row| r.secs / r.elements as f64;
    let baseline = |kernel: &str| -> f64 {
        rows.iter()
            .find(|r| r.kernel == kernel && r.baseline)
            .map(per_elem)
            .expect("every kernel has a baseline row")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"bench\": \"hot-path kernels at paper scale (n=14M k=14000 for select/merge; n=25M k=25000 for simd/fusion rows)\","
    );
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"cpus\": {cpus},");
    let _ = writeln!(out, "  \"cpu_features\": \"{}\",", simd::features_string());
    let _ = writeln!(out, "  \"simd_default\": \"{}\",", simd::level().name());
    if cpus < 4 {
        let _ = writeln!(
            out,
            "  \"note\": \"measured on a {cpus}-cpu machine: rows with threads > {cpus} document oversubscription overhead, not speedup; rerun on a multi-core host for the threading trajectory\","
        );
    }
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let speedup = baseline(r.kernel) / per_elem(r);
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"threads\": {}, \"simd\": \"{}\", \"millis\": {:.3}, \"elements_per_sec\": {:.0}, \"speedup_vs_baseline\": {:.2}}}{}",
            r.kernel,
            r.variant,
            r.threads,
            r.simd,
            r.secs * 1e3,
            r.elements_per_sec(),
            speedup,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Single-thread matmul dispatch must never lose to the naive loop — the
/// whole point of the serial-unblocked dispatch (the 1.05 factor absorbs
/// timer noise on shared CI machines).
fn assert_single_thread_matmul_not_slower(rows: &[Row]) {
    let naive = rows
        .iter()
        .find(|r| r.kernel == "matmul" && r.variant == "naive_ikj")
        .expect("naive matmul row");
    let serial = rows
        .iter()
        .find(|r| r.kernel == "matmul" && r.variant == "serial_unblocked")
        .expect("serial matmul row");
    assert!(
        serial.secs <= naive.secs * 1.05,
        "single-thread matmul regressed vs naive: {:.3}ms vs {:.3}ms",
        serial.secs * 1e3,
        naive.secs * 1e3,
    );
}

fn main() {
    eprintln!(
        "simd: dispatching at '{}' (host features: {}; set GTOPK_SIMD to override)",
        simd::level().name(),
        simd::features_string()
    );
    let mut rows = Vec::new();
    eprintln!("benchmarking top-k selection (n = {N}, k = {K}) ...");
    bench_select(&mut rows);
    eprintln!("benchmarking top-k merge ...");
    bench_merge(&mut rows);
    eprintln!("benchmarking matmul ...");
    bench_matmul(&mut rows);
    eprintln!("benchmarking residual axpy across simd levels (n = {N2}) ...");
    bench_axpy(&mut rows);
    eprintln!("benchmarking threshold compaction across simd levels ...");
    bench_compact(&mut rows);
    eprintln!("benchmarking fused vs three-pass residual select (n = {N2}, k = {K2}) ...");
    bench_fused_select(&mut rows);
    eprintln!("benchmarking fused exact vs accumulate + quickselect residual select ...");
    bench_exact_residual_select(&mut rows);

    assert_single_thread_matmul_not_slower(&rows);
    let secs = |kernel: &str, variant: &str| {
        rows.iter()
            .find(|r| r.kernel == kernel && r.variant == variant)
            .map(|r| r.secs)
            .expect("benchmarked row")
    };
    eprintln!(
        "fused_simd vs three_pass_scalar: {:.2}x; prefiltered vs quickselect: {:.2}x; \
         fused_exact vs accumulate_quickselect: {:.2}x",
        secs("residual_select", "three_pass_scalar") / secs("residual_select", "fused_simd"),
        secs("topk_select", "quickselect") / secs("topk_select", "prefiltered"),
        secs("residual_select", "accumulate_quickselect") / secs("residual_select", "fused_exact"),
    );

    let json = render_json(&rows);
    print!("{json}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_kernels.json");
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    eprintln!("wrote {}", path.display());
}
