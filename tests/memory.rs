//! Where a world's live heap goes, subsystem by subsystem.
//!
//! A counting global allocator tracks live bytes. The test builds a
//! 1-shard `scale_world(1, 3_000, 1)` world, takes it apart, and
//! records the bytes each subsystem frees when it is dropped. It bounds
//! the mail provider, which holds most of a scale world's memory
//! (docs/SCALING.md). Print the split with
//!
//! ```text
//! cargo test --offline --release --test memory -- --nocapture
//! ```
//!
//! The allocator counts every thread, so this binary holds one test,
//! and the engine runs on the calling thread (one worker).

use manual_hijacking_wild::defense::{ActivityMonitor, LoginPipeline, NotificationEngine};
use manual_hijacking_wild::identity::{CredentialStore, LoginLog, RecoveryOptions, TwoFactorState};
use manual_hijacking_wild::mailsys::MailProvider;
use manual_hijacking_wild::population::Population;
use manual_hijacking_wild::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// The system allocator, counting the bytes it has handed out and
/// taken back. With one thread allocating, `Relaxed` counts are exact.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCATED.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
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

/// Bytes freed by dropping `value`.
fn freed_by<T>(value: T) -> usize {
    let before = live();
    drop(value);
    before - live()
}

const USERS: usize = 3_000;

/// The subsystems measured one by one, moved out of the world.
struct Parts {
    population: Arc<Population>,
    login: LoginPipeline,
    login_log: LoginLog,
    credentials: CredentialStore,
    options: RecoveryOptions,
    twofactor: TwoFactorState,
    monitor: ActivityMonitor,
    notifications: NotificationEngine,
    provider: MailProvider,
}

/// Move the measured subsystems out of `eco`; the rest of the world is
/// dropped on return.
fn take_apart(eco: Ecosystem) -> Parts {
    Parts {
        population: eco.population,
        login: eco.login,
        login_log: eco.login_log,
        credentials: eco.credentials,
        options: eco.options,
        twofactor: eco.twofactor,
        monitor: eco.monitor,
        notifications: eco.notifications,
        provider: eco.provider,
    }
}

#[test]
fn mail_provider_memory_per_user_stays_bounded() {
    let baseline = live();
    let run = ShardedEngine::new(ScenarioConfig::scale_world(1, USERS, 1), 1)
        .workers(1)
        .run()
        .expect("scale world runs");
    let eco = run.into_shards().pop().expect("one shard");
    let world = live() - baseline;

    // Allocated up front, so filling it allocates nothing.
    let mut split: Vec<(&str, usize)> = Vec::with_capacity(16);
    let before = live();
    let parts = take_apart(eco);
    split.push(("rest of the world", before - live()));
    // An address is one allocation shared by the provider, the user
    // profiles and every contact list; it is freed with the last of
    // them, so the provider goes last.
    let Parts {
        population,
        login,
        login_log,
        credentials,
        options,
        twofactor,
        monitor,
        notifications,
        provider,
    } = parts;
    split.push(("population", freed_by(population)));
    split.push(("login", freed_by(login)));
    split.push(("login_log", freed_by(login_log)));
    split.push(("credentials", freed_by(credentials)));
    split.push(("options", freed_by(options)));
    split.push(("twofactor", freed_by(twofactor)));
    split.push(("monitor", freed_by(monitor)));
    split.push(("notifications", freed_by(notifications)));
    split.push(("MailProvider", freed_by(provider)));

    let per_user = |bytes: usize| bytes as f64 / USERS as f64 / 1000.0;
    println!("live heap of a 1-shard scale_world(1, {USERS}, 1) after day 1, KB per user:");
    for (name, bytes) in &split {
        let share = 100.0 * *bytes as f64 / world as f64;
        println!("  {name:<18} {:>6.2}  {share:>5.1}%", per_user(*bytes));
    }
    println!("  {:<18} {:>6.2}", "world", per_user(world));

    let accounted: usize = split.iter().map(|(_, bytes)| bytes).sum();
    assert_eq!(accounted, world, "every live byte of the world belongs to one row");
    let provider = split.iter().find(|(name, _)| *name == "MailProvider").map_or(0, |r| r.1);
    assert!(
        per_user(provider) <= 1.5,
        "the mail provider holds {:.2} KB per user, over the 1.5 KB bound",
        per_user(provider)
    );
}
