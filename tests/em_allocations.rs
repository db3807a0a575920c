//! An EM trajectory allocates nothing per E-step, for either model: its
//! three iterates, the step's scratch and the forward–backward buffers
//! are allocated once, so a trajectory twice as long makes exactly as
//! many allocations. A global allocator counts each thread's allocations
//! on that thread, and the fits run on the test's own thread
//! (`parallelism: Some(1)`), so whatever else the harness does is not
//! charged to them.

use dominant_congested_links::probnum::Obs;
use dominant_congested_links::{hmm, mmhd};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made on this thread. `const`-initialised and without a
    /// destructor, so counting allocates nothing.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation on the calling thread. A thread being torn down
/// may no longer reach its counter, and goes uncounted.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread by `fit(max_iters)`, which must spend
/// its cap.
fn allocations(max_iters: usize, fit: impl Fn(usize) -> usize) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let iterations = fit(max_iters);
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(iterations, max_iters);
    after - before
}

/// 30 E-steps against 60 (whole SQUAREM cycles) and 61 (cycles, then
/// plain steps).
fn assert_flat(what: &str, fit: impl Fn(usize) -> usize) {
    let short = allocations(30, &fit);
    // A fit allocates its iterates and buffers once; none counted means
    // it ran on another thread.
    assert!(short > 0, "{what}: nothing counted on this thread");
    for long in [60, 61] {
        assert_eq!(
            allocations(long, &fit),
            short,
            "{what}: {long} E-steps allocated more than 30"
        );
    }
}

#[test]
fn trajectory_allocations_do_not_grow_with_its_steps() {
    let mut rng = SmallRng::seed_from_u64(11);
    let obs: Vec<Obs> = mmhd::Mmhd::random(2, 5, &mut rng).generate(&mut rng, 600);
    for tied_loss in [false, true] {
        assert_flat(&format!("mmhd, tied {tied_loss}"), |max_iters| {
            let opts = mmhd::EmOptions {
                num_hidden: 2,
                num_symbols: 5,
                tol: 0.0,
                max_iters,
                restarts: 1,
                parallelism: Some(1),
                settings: mmhd::MmhdSettings {
                    tied_loss,
                    ..Default::default()
                },
                ..mmhd::EmOptions::default()
            };
            mmhd::try_fit(&obs, &opts).unwrap().iterations
        });
    }
    assert_flat("hmm", |max_iters| {
        let opts = hmm::EmOptions {
            num_hidden: 2,
            num_symbols: 5,
            tol: 0.0,
            max_iters,
            restarts: 1,
            parallelism: Some(1),
            ..hmm::EmOptions::default()
        };
        hmm::try_fit(&obs, &opts).unwrap().iterations
    });
}
