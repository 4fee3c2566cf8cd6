//! Allocation probe for the zero-copy wire path: once the reusable
//! buffers are warm, the steady-state hot loop — gather words, digest,
//! classify/encode into the frame ring, apply the ring's views — must
//! not touch the allocator at all. A counting global allocator asserts
//! this directly, and the engine's own [`hypertp_migrate::ScratchStats`]
//! probe (capacity-growth events on the shared scratch) asserts the same
//! invariant across whole migrations, where pool threads and report
//! construction put the raw counter out of reach.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hypertp::prelude::*;
use hypertp_migrate::{FrameRing, TransferCache};
use hypertp_sim::hash::{digest_pages_into, Digest128};

/// Counts every allocation and reallocation (frees are irrelevant: the
/// invariant is that the hot path never *asks* for memory).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One encode+apply round over the reusable buffers, exactly the shapes
/// the engine's ring path uses.
fn round(
    cache: &TransferCache,
    ring: &mut FrameRing,
    gfns: &[Gfn],
    words: &[u64],
    digests: &mut Vec<Digest128>,
    current: &mut [u64],
) -> u64 {
    digest_pages_into(words, digests);
    cache.begin_round();
    ring.restart();
    ring.begin();
    let wb = cache.encode_batch_into(7, gfns, words, digests, ring);
    // Apply side: walk the borrowed views against a reused "destination
    // RAM" vector, as `apply_ring` does.
    for (i, view) in ring.iter().enumerate() {
        let cur = current[i];
        let word = cache.apply_view(&view, cur).expect("self-produced frame");
        current[i] = word;
    }
    cache.commit_round();
    ring.commit();
    wb
}

/// Allocations the first `encode_batch_into` of a fresh VM may make,
/// whatever its page count. 16 are expected: the dedup map and its
/// journal each doubling up to the 65 distinct words (six apiece), the
/// VM's table slot, word vector and presence bitset, and the list of
/// tables created this round. A fresh table's writes are not journalled.
const FIRST_ROUND_ALLOC_BOUND: u64 = 20;

/// Counts the allocations of the first encode of a fresh VM with `pages`
/// pages on a fresh cache, idle-guest shaped: zero pages, 64 unique
/// words and a recurring word, so the dedup map holds the same few
/// entries at any size. The frame ring is warmed on a throwaway cache
/// first, as the engine's scratch ring is warm after its first VM.
fn first_round_allocs(pages: u64) -> u64 {
    let gfns: Vec<Gfn> = (0..pages).map(Gfn).collect();
    let stride = pages / 64;
    let words: Vec<u64> = (0..pages)
        .map(|g| match (g % stride, g / stride) {
            (0, k) => k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            (1, _) => 0x5a5a_5a5a,
            _ => 0,
        })
        .collect();
    let mut digests = Vec::new();
    digest_pages_into(&words, &mut digests);
    let mut ring = FrameRing::new();
    let encode = |cache: &TransferCache, ring: &mut FrameRing| {
        cache.begin_round();
        ring.restart();
        ring.begin();
        cache.encode_batch_into(3, &gfns, &words, &digests, ring);
        cache.commit_round();
        ring.commit();
    };
    encode(&TransferCache::new(), &mut ring);
    let cache = TransferCache::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    encode(&cache, &mut ring);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(cache.sent_len() as u64, pages, "every page got a base");
    allocs
}

// Plain main(), no libtest harness (`harness = false` in Cargo.toml):
// the allocation counter is process-global and the harness's own threads
// allocate at unpredictable points, so the probe must be the only thread
// alive during the measured window. Part 2 (the engine-level probe) runs
// after the counter assertion completes.
fn main() {
    println!("alloc_probe: steady-state hot path must not allocate");
    // A mixed round: zeros, a recurring word (dup fodder), unique words.
    let gfns: Vec<Gfn> = (0..256u64).map(|g| Gfn(g * 3)).collect();
    let words: Vec<u64> = (0..256u64)
        .map(|i| match i % 4 {
            0 => 0,
            1 => 0x5a5a_5a5a,
            _ => i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        })
        .collect();
    let cache = TransferCache::new();
    let mut ring = FrameRing::new();
    let mut digests = Vec::new();
    let mut current = vec![0u64; gfns.len()];

    // Warm-up: two rounds. The first populates the dedup cache and sizes
    // every buffer; the second settles classification (unique words now
    // classify as dups) and journal capacities.
    for _ in 0..2 {
        round(&cache, &mut ring, &gfns, &words, &mut digests, &mut current);
    }
    let grows_before = ring.grows();

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut wire_bytes = 0u64;
    for _ in 0..100 {
        wire_bytes += round(&cache, &mut ring, &gfns, &words, &mut digests, &mut current);
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert!(wire_bytes > 0, "rounds did run");
    assert_eq!(
        after - before,
        0,
        "steady-state encode+apply must not allocate"
    );
    assert_eq!(ring.grows(), grows_before, "ring regrew after warm-up");

    // Eviction phase: a capped cache fed 256 fresh unique words per round
    // on the same gfns evicts 256 LRU entries every round. Victim choice,
    // unlinking and the map's insert/remove churn must stay off the
    // allocator too. The long warm-up outlasts the dedup map's one-time
    // resize under that churn, whose round depends on the hasher's random
    // seed.
    let capped = TransferCache::with_capacity(64);
    let mut fresh = vec![0u64; gfns.len()];
    let mut next_word = 0u64;
    let mut evicting_round = |ring: &mut FrameRing, digests: &mut Vec<Digest128>| {
        for w in fresh.iter_mut() {
            next_word += 1;
            *w = next_word.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        }
        round(&capped, ring, &gfns, &fresh, digests, &mut current)
    };
    for _ in 0..200 {
        evicting_round(&mut ring, &mut digests);
    }
    let evictions_before = capped.stats().evictions;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..400 {
        evicting_round(&mut ring, &mut digests);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    let evicted = capped.stats().evictions - evictions_before;
    assert!(evicted >= 100_000, "only {evicted} evictions in the window");
    assert_eq!(after - before, 0, "steady-state eviction must not allocate");

    // First round of a fresh VM: setting up its delta-base table must
    // cost a fixed number of allocations, not one per doubling of the
    // page count.
    let first_round = [65_536u64, 262_144].map(first_round_allocs);
    println!("alloc_probe: first-round allocations {first_round:?} at 65,536 / 262,144 pages");
    assert_eq!(
        first_round[0], first_round[1],
        "first-round allocations grow with page count"
    );
    for allocs in first_round {
        assert!(
            allocs <= FIRST_ROUND_ALLOC_BOUND,
            "first encode of a fresh VM made {allocs} allocations \
             (bound {FIRST_ROUND_ALLOC_BOUND}, independent of page count)"
        );
    }

    // Part 2 — whole-migration version of the same invariant, via the
    // engine's capacity-growth probe: a second same-shape migration
    // reuses every scratch buffer without a single regrow. (Pool threads
    // and report construction allocate legitimately, so this level uses
    // the scratch probe, not the raw counter.)
    let registry = default_registry();
    let clock = SimClock::new();
    let mut src_m = Machine::with_clock(MachineSpec::m1(), clock.clone());
    let mut dst_m = Machine::with_clock(MachineSpec::m1(), clock);
    let mut src = registry.create(HypervisorKind::Xen, &mut src_m).unwrap();
    let mut dst = registry.create(HypervisorKind::Kvm, &mut dst_m).unwrap();
    let tp = MigrationTp::new().with_config(MigrationConfig {
        wire_mode: WireMode::ContentAware,
        dirty_rate_pages_per_sec: 500.0,
        ..MigrationConfig::default()
    });

    let migrate_one = |name: &str, src: &mut dyn Hypervisor, src_m: &mut Machine| {
        let id = src
            .create_vm(src_m, &VmConfig::small(name).with_memory_gb(1))
            .unwrap();
        for k in 0..512u64 {
            src.write_guest(src_m, id, Gfn(k * 11), k | 0xbeef_0000)
                .unwrap();
        }
        id
    };

    let id = migrate_one("probe0", src.as_mut(), &mut src_m);
    tp.migrate(&mut src_m, src.as_mut(), id, &mut dst_m, dst.as_mut())
        .unwrap();
    let warm = tp.scratch_stats();
    assert!(warm.rounds > 0, "ring path exercised");

    let id = migrate_one("probe1", src.as_mut(), &mut src_m);
    tp.migrate(&mut src_m, src.as_mut(), id, &mut dst_m, dst.as_mut())
        .unwrap();
    let steady = tp.scratch_stats();

    assert!(steady.rounds > warm.rounds);
    assert_eq!(
        steady.grows, warm.grows,
        "second same-shape migration must not regrow any scratch buffer"
    );
    assert_eq!(steady.ring_capacity, warm.ring_capacity);
    println!(
        "alloc_probe: ok (0 hot-path allocations over 100 rounds and {evicted} evictions, \
         no scratch regrowth)"
    );
}
