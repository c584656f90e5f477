//! Steady-state allocation accounting for the convolution hot path.
//!
//! `Conv2d` keeps its input, its one-sample im2col buffer and its weight
//! gradient scratch across steps, so once those are warm a forward +
//! backward pass allocates nothing but the two tensors it hands back (the
//! output and the input gradient) — however many samples the batch has.
//! A counting `#[global_allocator]` wrapper enforces that at the
//! allocator itself.
//!
//! This lives in its own integration binary so no concurrently-running
//! test can allocate into the measurement window. The counter is
//! *thread-local*: libtest's harness threads allocate at unpredictable
//! moments, so each `#[test]` only ever counts its own thread's
//! allocations.

use gtopk_nn::{Conv2d, Layer};
use gtopk_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts every allocation entry point
/// made by the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the calling thread's counter; `try_with` sidesteps the TLS
/// teardown window where the key is no longer accessible.
fn count_one() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Allocations `f` makes on this thread, with its result dropped outside
/// the window.
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = alloc_calls();
    let out = f();
    let allocs = alloc_calls() - before;
    drop(out);
    allocs
}

fn ramp(shape: Shape, scale: f32) -> Tensor {
    let data = (0..shape.volume())
        .map(|i| (i as f32 * scale).sin())
        .collect();
    Tensor::from_vec(shape, data).expect("ramp volume")
}

/// The ResNet20Lite convolutions: (in_c, out_c, stride, input side).
const SHAPES: [(usize, usize, usize, usize); 3] = [(8, 8, 1, 8), (8, 16, 2, 8), (16, 16, 1, 4)];

#[test]
fn conv2d_step_allocates_only_its_returned_tensors() {
    let mut rng = StdRng::seed_from_u64(0);
    for (in_c, out_c, stride, side) in SHAPES {
        let mut conv = Conv2d::new(&mut rng, in_c, out_c, 3, stride, 1);
        let out_side = conv.out_size(side);
        for n in [1, 2, 8] {
            let x = ramp(Shape::d4(n, in_c, side, side), 0.37);
            let dy = ramp(Shape::d4(n, out_c, out_side, out_side), 0.11);
            let mut step = || {
                let y = conv.forward(&x, true);
                let dx = conv.backward(&dy);
                (y, dx)
            };
            step(); // warm-up: buffers reach this batch's size
            let allocs = allocs_of(step);
            let returned = allocs_of(|| {
                (
                    Tensor::zeros(Shape::d4(n, out_c, out_side, out_side)),
                    Tensor::zeros(Shape::d4(n, in_c, side, side)),
                )
            });
            assert_eq!(
                allocs, returned,
                "conv {in_c}->{out_c} stride {stride} at {side}x{side}, batch {n}: \
                 {allocs} allocations, the returned tensors need {returned}"
            );
        }
    }
}
