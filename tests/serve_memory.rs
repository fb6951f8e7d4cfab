//! What the streaming risk service allocates and holds while it scores.
//!
//! A counting global allocator counts allocations and live bytes. The
//! test replays a 5,000-user, 8-day generated login stream through one
//! `StreamingRiskService` with `replay::score_event`, the serve path.
//! After the first day every account and home IP is known, so scoring
//! should allocate almost nothing; the service's heap per account is
//! bounded; and `StateSize::approx_bytes`, which the serve report and
//! the benchmark read, must stay near the heap it describes. Print the
//! numbers with
//!
//! ```text
//! cargo test --offline --release --test serve_memory -- --nocapture
//! ```
//!
//! The allocator counts every thread, so this binary holds one test.

use manual_hijacking_wild::core::replay::{self, WorkloadConfig};
use manual_hijacking_wild::defense::{RiskEngine, RiskService, StreamingRiskService};
use manual_hijacking_wild::netmodel::GeoDb;
use manual_hijacking_wild::types::{SimTime, DAY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting calls that hand out memory and the
/// bytes it has handed out and taken back. With one thread allocating,
/// `Relaxed` counts are exact.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            ALLOCATED.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            ALLOCATED.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // meets `realloc`'s contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            FREED.fetch_add(layout.size(), Relaxed);
            ALLOCATED.fetch_add(new_size, Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    ALLOCATED.load(Relaxed) - FREED.load(Relaxed)
}

#[test]
fn scoring_allocates_almost_nothing_and_the_size_estimate_is_honest() {
    let geo = GeoDb::new();
    let config = WorkloadConfig { users: 5_000, days: 8, ..WorkloadConfig::small(1) };
    let events = replay::generate_workload(&config, &geo);
    let first_day = events.partition_point(|e| e.at < SimTime::from_secs(DAY));
    let (warm, scored) = events.split_at(first_day);

    let before = live();
    let mut service = StreamingRiskService::new(RiskEngine::default());
    let mut request = replay::placeholder_request();
    for event in warm {
        replay::score_event(&mut service, &geo, event, &mut request);
    }
    let allocations_before = ALLOCATIONS.load(Relaxed);
    for event in scored {
        replay::score_event(&mut service, &geo, event, &mut request);
    }
    let allocations = ALLOCATIONS.load(Relaxed) - allocations_before;
    let size = service.state_size();
    let heap = live() - before;
    drop(service);
    assert_eq!(live(), before, "the service's heap is all that scoring left live");

    let per_thousand = 1_000.0 * allocations as f64 / scored.len() as f64;
    let per_account = heap as f64 / size.accounts as f64;
    let estimate = size.approx_bytes as f64 / heap as f64;
    println!(
        "{allocations} allocations over {} logins after day 1 ({per_thousand:.3} per 1,000)",
        scored.len()
    );
    println!(
        "service heap {heap} B for {} accounts and {} IPs: {per_account:.0} B per account",
        size.accounts, size.ip_entries
    );
    println!("approx_bytes {} B: {estimate:.3} of the heap", size.approx_bytes);

    assert!(per_thousand <= 1.0, "{per_thousand:.3} allocations per 1,000 scored logins");
    assert!(per_account <= 400.0, "{per_account:.0} B of service heap per account");
    assert!(
        (0.75..=1.25).contains(&estimate),
        "approx_bytes reads {estimate:.3} of the counted heap"
    );
}
