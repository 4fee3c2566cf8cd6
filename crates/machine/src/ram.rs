//! Physical RAM: frame contents, ownership and kexec survival.
//!
//! Frame contents are modelled as 64-bit *content words* — an opaque value
//! that changes whenever the owner writes the frame. This is sufficient for
//! every property the transplant path must preserve (guest memory is kept
//! byte-identical in place across InPlaceTP; migrated memory equals the
//! source at pause time) while letting experiments instantiate multi-GiB
//! machines cheaply. Small tests that need real bytes can attach a byte
//! buffer to a frame; its content word is then a hash of the bytes, so the
//! two views stay consistent.

use std::collections::HashMap;

use crate::addr::{Extent, Mfn, PageOrder, PAGE_SIZE};
use crate::buddy::{BuddyAllocator, BuddyError};

/// Errors from physical memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Frame number beyond the end of RAM.
    OutOfRange {
        /// The offending frame.
        mfn: Mfn,
    },
    /// Allocation failed.
    Buddy(BuddyError),
    /// Access to a frame that is not allocated.
    NotAllocated {
        /// The offending frame.
        mfn: Mfn,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfRange { mfn } => write!(f, "{mfn} out of range"),
            MemError::Buddy(e) => write!(f, "allocator: {e}"),
            MemError::NotAllocated { mfn } => write!(f, "{mfn} not allocated"),
        }
    }
}

impl std::error::Error for MemError {}

impl From<BuddyError> for MemError {
    fn from(e: BuddyError) -> Self {
        MemError::Buddy(e)
    }
}

// Per-frame ownership flag bits, one byte per frame. Content words live
// in a separate dense array so the two concerns scale independently: the
// wire path borrows whole extents of contents as `&[u64]` without
// dragging flag bytes through the cache, and ownership sweeps (kexec,
// scrub) walk the 1-byte flag array instead of 16-byte AoS records.
// A plain byte (rather than a struct) lets `vec![0u8; n]` take the
// allocator's zeroed-allocation path, so a fresh multi-GiB machine never
// writes its flag array.

/// Set while some owner holds the frame (cleared by kexec).
const ALLOCATED: u8 = 1 << 0;
/// Set if the frame is protected by a parsed PRAM reservation.
const RESERVED: u8 = 1 << 1;

/// The machine's physical RAM.
///
/// Structure-of-arrays layout: `contents[i]` is frame `i`'s opaque
/// content word (0 means scrubbed/zeroed) and `flags[i]` its ownership
/// state. Keeping contents contiguous is what lets
/// [`PhysicalMemory::content_slice`] hand extent-backed borrows to the
/// migration gather path with zero copies.
#[derive(Debug)]
pub struct PhysicalMemory {
    contents: Vec<u64>,
    flags: Vec<u8>,
    buddy: BuddyAllocator,
    /// Optional byte-level backing for frames that tests want to inspect.
    bytes: HashMap<u64, Box<[u8]>>,
}

impl PhysicalMemory {
    /// Creates RAM with `total_frames` zeroed frames.
    pub fn new(total_frames: u64) -> Self {
        PhysicalMemory {
            contents: vec![0; total_frames as usize],
            flags: vec![0; total_frames as usize],
            buddy: BuddyAllocator::new(total_frames),
            bytes: HashMap::new(),
        }
    }

    /// Creates RAM of the given size in GiB.
    pub fn with_gib(gib: u64) -> Self {
        PhysicalMemory::new(gib * (1 << 30) / PAGE_SIZE)
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> u64 {
        self.buddy.total_frames()
    }

    /// Number of free frames.
    pub fn free_frames(&self) -> u64 {
        self.buddy.free_frames()
    }

    /// Number of allocated frames.
    pub fn allocated_frames(&self) -> u64 {
        self.buddy.allocated_frames()
    }

    /// Allocates a `2^order` run of frames and marks it owned.
    pub fn alloc(&mut self, order: PageOrder) -> Result<Extent, MemError> {
        let e = self.buddy.alloc(order)?;
        for mfn in e.frames() {
            self.flags[mfn.0 as usize] |= ALLOCATED;
        }
        Ok(e)
    }

    /// Frees a run of frames. Contents are left in place (freeing does not
    /// scrub — exactly the property InPlaceTP exploits and the paper's
    /// "logic to ensure VM memory regions are not accidentally erased"
    /// guards).
    pub fn free(&mut self, extent: Extent) -> Result<(), MemError> {
        self.buddy.free(extent)?;
        for mfn in extent.frames() {
            self.flags[mfn.0 as usize] &= !ALLOCATED;
        }
        Ok(())
    }

    fn flags(&self, mfn: Mfn) -> Result<u8, MemError> {
        self.flags
            .get(mfn.0 as usize)
            .copied()
            .ok_or(MemError::OutOfRange { mfn })
    }

    /// Writes a content word to an allocated frame.
    pub fn write(&mut self, mfn: Mfn, content: u64) -> Result<(), MemError> {
        if self.flags(mfn)? & ALLOCATED == 0 {
            return Err(MemError::NotAllocated { mfn });
        }
        self.contents[mfn.0 as usize] = content;
        self.bytes.remove(&mfn.0);
        Ok(())
    }

    /// Reads a frame's content word. Reading free frames is allowed (the
    /// transplant path reads guest frames after kexec has cleared
    /// ownership).
    pub fn read(&self, mfn: Mfn) -> Result<u64, MemError> {
        self.contents
            .get(mfn.0 as usize)
            .copied()
            .ok_or(MemError::OutOfRange { mfn })
    }

    /// Borrows the content words of a physically-contiguous frame run as a
    /// slice — the zero-copy primitive behind the migration gather path.
    /// Where the old wire path copied every frame's word into a fresh
    /// per-round `Vec`, callers now read straight from the extent backing.
    /// Reading free frames is allowed, same as [`PhysicalMemory::read`].
    pub fn content_slice(&self, base: Mfn, pages: u64) -> Result<&[u64], MemError> {
        let start = base.0 as usize;
        let end = start
            .checked_add(pages as usize)
            .ok_or(MemError::OutOfRange { mfn: base })?;
        self.contents.get(start..end).ok_or(MemError::OutOfRange {
            mfn: Mfn(base.0 + pages.saturating_sub(1)),
        })
    }

    /// Attaches a full 4 KiB byte buffer to an allocated frame. The content
    /// word becomes a hash of the bytes.
    pub fn write_bytes(&mut self, mfn: Mfn, data: &[u8]) -> Result<(), MemError> {
        assert_eq!(data.len() as u64, PAGE_SIZE, "frame writes are page-sized");
        if self.flags(mfn)? & ALLOCATED == 0 {
            return Err(MemError::NotAllocated { mfn });
        }
        self.contents[mfn.0 as usize] = fnv1a(data);
        self.bytes.insert(mfn.0, data.to_vec().into_boxed_slice());
        Ok(())
    }

    /// Reads the byte buffer attached to a frame, if any.
    pub fn read_bytes(&self, mfn: Mfn) -> Option<&[u8]> {
        self.bytes.get(&mfn.0).map(|b| &b[..])
    }

    /// Marks a frame range as reserved (PRAM-protected): the buddy allocator
    /// will never hand these frames out and boot scrubbing skips them.
    pub fn reserve_range(&mut self, base: Mfn, pages: u64) -> Result<u64, MemError> {
        if base.0 + pages > self.total_frames() {
            return Err(MemError::OutOfRange {
                mfn: Mfn(base.0 + pages - 1),
            });
        }
        let got = self.buddy.reserve_range(base, pages);
        for i in base.0..base.0 + pages {
            self.flags[i as usize] |= RESERVED;
        }
        Ok(got)
    }

    /// Returns true if the frame is reserved.
    pub fn is_reserved(&self, mfn: Mfn) -> bool {
        self.flags(mfn).is_ok_and(|f| f & RESERVED != 0)
    }

    /// Returns true if the frame is allocated.
    pub fn is_allocated(&self, mfn: Mfn) -> bool {
        self.flags(mfn).is_ok_and(|f| f & ALLOCATED != 0)
    }

    /// Kexec semantics: all ownership and reservations are forgotten (the
    /// new kernel starts with a fresh allocator), but contents survive.
    pub fn forget_ownership(&mut self) {
        self.flags.fill(0);
        self.buddy = BuddyAllocator::new(self.total_frames());
    }

    /// Boot-time scrubbing: zeroes the contents of every frame that is
    /// neither reserved nor allocated. A hypervisor that boots without
    /// parsing PRAM destroys all pre-existing guest memory here — the
    /// failure mode the paper's PRAM reservations exist to prevent.
    ///
    /// Returns the number of frames scrubbed.
    pub fn scrub_unreserved(&mut self) -> u64 {
        let mut scrubbed = 0;
        for (i, &f) in self.flags.iter().enumerate() {
            if f == 0 && self.contents[i] != 0 {
                self.contents[i] = 0;
                self.bytes.remove(&(i as u64));
                scrubbed += 1;
            }
        }
        scrubbed
    }

    /// Re-adopts a reserved frame range as an allocated extent without
    /// touching contents (the PRAM filesystem handing guest memory to the
    /// new hypervisor). The range keeps its reserved marking.
    pub fn adopt_reserved(&mut self, base: Mfn, pages: u64) -> Result<(), MemError> {
        for i in base.0..base.0 + pages {
            let f = self
                .flags
                .get_mut(i as usize)
                .ok_or(MemError::OutOfRange { mfn: Mfn(i) })?;
            if *f & RESERVED == 0 {
                return Err(MemError::NotAllocated { mfn: Mfn(i) });
            }
            *f |= ALLOCATED;
        }
        Ok(())
    }

    /// Releases a reservation (cleanup step ❼ of Fig. 3 frees ephemeral
    /// PRAM metadata back to the allocator).
    pub fn unreserve_and_free(&mut self, base: Mfn, pages: u64) -> Result<(), MemError> {
        for i in base.0..base.0 + pages {
            let f = self
                .flags
                .get_mut(i as usize)
                .ok_or(MemError::OutOfRange { mfn: Mfn(i) })?;
            *f &= !RESERVED;
            if *f & ALLOCATED == 0 {
                // Return to the allocator frame by frame.
                self.buddy.free(Extent::new(Mfn(i), PageOrder(0))).ok();
            }
        }
        Ok(())
    }

    /// Sums a simple checksum over a set of extents' content words (used by
    /// the transplant engine and tests to verify guest memory integrity end
    /// to end).
    ///
    /// The checksum is defined as per-extent partial hashes combined in
    /// extent order, so partials can be computed on any number of worker
    /// threads without changing the result. This convenience wrapper runs
    /// on the default pool ([`hypertp_sim::WorkerPool::from_env`], i.e.
    /// `HYPERTP_WORKERS` or the machine's available parallelism); callers
    /// on a latency-sensitive path can pass their own pool via
    /// [`PhysicalMemory::checksum_with_pool`].
    pub fn checksum(&self, extents: &[Extent]) -> u64 {
        self.checksum_with_pool(extents, &hypertp_sim::WorkerPool::from_env())
    }

    /// [`PhysicalMemory::checksum`] on an explicit worker pool. Serial and
    /// parallel runs return identical values for the same extents.
    pub fn checksum_with_pool(&self, extents: &[Extent], pool: &hypertp_sim::WorkerPool) -> u64 {
        combine_partials(&self.extent_partials_with_pool(extents, pool))
    }

    /// Computes the per-extent partial hashes that
    /// [`combine_partials`] folds into the final checksum. The returned
    /// vector is indexed like `extents`, so callers can cache it and later
    /// recompute only the partials of extents whose frames were redirtied
    /// ([`PhysicalMemory::refresh_partials_with_pool`]) instead of rehashing
    /// every frame — the incremental-translate fast path.
    pub fn extent_partials_with_pool(
        &self,
        extents: &[Extent],
        pool: &hypertp_sim::WorkerPool,
    ) -> Vec<u64> {
        // Fan out only when the work amortizes thread spawn: below ~128 MiB
        // of frames the serial loop wins.
        const PAR_THRESHOLD_FRAMES: u64 = 1 << 15;
        let total: u64 = extents.iter().map(|e| e.pages()).sum();
        if pool.workers() <= 1 || extents.len() <= 1 || total < PAR_THRESHOLD_FRAMES {
            extents.iter().map(|e| self.extent_partial(e)).collect()
        } else {
            pool.map_indices(extents.len(), |i| self.extent_partial(&extents[i]))
                .results
        }
    }

    /// Recomputes the cached partials of the extents named by `dirty`
    /// (indices into `extents`), leaving every clean extent's partial
    /// untouched. Combined with [`combine_partials`], this reproduces the
    /// exact value [`PhysicalMemory::checksum_with_pool`] would compute from
    /// scratch while only rehashing the dirtied extents.
    pub fn refresh_partials_with_pool(
        &self,
        extents: &[Extent],
        partials: &mut [u64],
        dirty: &[usize],
        pool: &hypertp_sim::WorkerPool,
    ) {
        assert_eq!(
            extents.len(),
            partials.len(),
            "partials cache must be indexed like extents"
        );
        const PAR_THRESHOLD_FRAMES: u64 = 1 << 15;
        let total: u64 = dirty.iter().map(|&i| extents[i].pages()).sum();
        if pool.workers() <= 1 || dirty.len() <= 1 || total < PAR_THRESHOLD_FRAMES {
            for &i in dirty {
                partials[i] = self.extent_partial(&extents[i]);
            }
        } else {
            let fresh = pool
                .map_indices(dirty.len(), |k| self.extent_partial(&extents[dirty[k]]))
                .results;
            for (&i, p) in dirty.iter().zip(fresh) {
                partials[i] = p;
            }
        }
    }

    /// Order-dependent fold over one extent's content words — the unit of
    /// parallelism for [`PhysicalMemory::checksum_with_pool`].
    pub fn extent_partial(&self, e: &Extent) -> u64 {
        let base = e.base.0 as usize;
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for &c in &self.contents[base..base + e.pages() as usize] {
            acc = acc.rotate_left(5) ^ c.wrapping_mul(0x1000_0000_01b3);
        }
        acc
    }
}

/// Folds per-extent partial hashes (in extent order) into the final
/// checksum — the combining step of [`PhysicalMemory::checksum_with_pool`],
/// exposed so cached partials can be recombined after a dirty-extent
/// refresh without touching frame contents. The combiner is defined only
/// by the partial values and their order, never by the worker count that
/// produced them.
pub fn combine_partials(partials: &[u64]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &p in partials {
        acc = acc.rotate_left(17) ^ p.wrapping_mul(0x1000_0000_01b3);
    }
    acc
}

/// FNV-1a-style hash of a byte slice (content word for byte-backed
/// frames).
///
/// The inner loop folds eight bytes per multiply instead of one — the hash
/// is only ever compared against itself (frame content identity across a
/// kexec), so the exact constants matter less than the 4 KiB-page
/// throughput on the transplant hot path. The trailing `len % 8` bytes
/// fall back to the classic byte-at-a-time step.
pub fn fnv1a(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read() {
        let mut ram = PhysicalMemory::new(256);
        let e = ram.alloc(PageOrder(1)).unwrap();
        ram.write(e.base, 0xdead).unwrap();
        assert_eq!(ram.read(e.base).unwrap(), 0xdead);
        assert!(ram.is_allocated(e.base));
    }

    #[test]
    fn write_unallocated_rejected() {
        let mut ram = PhysicalMemory::new(16);
        assert_eq!(
            ram.write(Mfn(3), 1),
            Err(MemError::NotAllocated { mfn: Mfn(3) })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let ram = PhysicalMemory::new(16);
        assert!(matches!(
            ram.read(Mfn(99)),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn byte_backed_frames_hash_consistently() {
        let mut ram = PhysicalMemory::new(16);
        let e = ram.alloc(PageOrder(0)).unwrap();
        let page = vec![7u8; PAGE_SIZE as usize];
        ram.write_bytes(e.base, &page).unwrap();
        assert_eq!(ram.read(e.base).unwrap(), fnv1a(&page));
        assert_eq!(ram.read_bytes(e.base).unwrap(), &page[..]);
        // A word write invalidates the byte view.
        ram.write(e.base, 5).unwrap();
        assert!(ram.read_bytes(e.base).is_none());
    }

    #[test]
    fn contents_survive_free_and_kexec() {
        let mut ram = PhysicalMemory::new(256);
        let e = ram.alloc(PageOrder(2)).unwrap();
        for (i, mfn) in e.frames().enumerate() {
            ram.write(mfn, 100 + i as u64).unwrap();
        }
        ram.forget_ownership();
        for (i, mfn) in e.frames().enumerate() {
            assert_eq!(ram.read(mfn).unwrap(), 100 + i as u64);
        }
    }

    #[test]
    fn scrub_destroys_unreserved_contents() {
        let mut ram = PhysicalMemory::new(256);
        let keep = ram.alloc(PageOrder(0)).unwrap();
        let lose = ram.alloc(PageOrder(0)).unwrap();
        ram.write(keep.base, 111).unwrap();
        ram.write(lose.base, 222).unwrap();
        ram.forget_ownership();
        // Only `keep` gets a PRAM reservation.
        ram.reserve_range(keep.base, 1).unwrap();
        let scrubbed = ram.scrub_unreserved();
        assert!(scrubbed >= 1);
        assert_eq!(ram.read(keep.base).unwrap(), 111);
        assert_eq!(ram.read(lose.base).unwrap(), 0);
    }

    #[test]
    fn reserved_frames_not_reallocated() {
        let mut ram = PhysicalMemory::new(64);
        let e = ram.alloc(PageOrder(0)).unwrap();
        let target = e.base;
        ram.write(target, 42).unwrap();
        ram.forget_ownership();
        ram.reserve_range(target, 1).unwrap();
        // Exhaust the allocator; the reserved frame must never come back.
        while let Ok(got) = ram.alloc(PageOrder(0)) {
            assert_ne!(got.base, target);
        }
        assert_eq!(ram.read(target).unwrap(), 42);
    }

    #[test]
    fn adopt_reserved_roundtrip() {
        let mut ram = PhysicalMemory::new(64);
        let e = ram.alloc(PageOrder(3)).unwrap();
        ram.write(e.base, 9).unwrap();
        ram.forget_ownership();
        ram.reserve_range(e.base, e.pages()).unwrap();
        ram.adopt_reserved(e.base, e.pages()).unwrap();
        assert!(ram.is_allocated(e.base));
        assert_eq!(ram.read(e.base).unwrap(), 9);
        // Adoption of a non-reserved range fails.
        assert!(ram.adopt_reserved(Mfn(60), 2).is_err());
    }

    #[test]
    fn unreserve_returns_frames_to_pool() {
        let mut ram = PhysicalMemory::new(64);
        ram.forget_ownership();
        ram.reserve_range(Mfn(10), 4).unwrap();
        let before = ram.free_frames();
        ram.unreserve_and_free(Mfn(10), 4).unwrap();
        assert_eq!(ram.free_frames(), before + 4);
        assert!(!ram.is_reserved(Mfn(10)));
    }

    #[test]
    fn content_slice_borrows_extent_words() {
        let mut ram = PhysicalMemory::new(64);
        let e = ram.alloc(PageOrder(3)).unwrap();
        for (i, mfn) in e.frames().enumerate() {
            ram.write(mfn, 0x40 + i as u64).unwrap();
        }
        let s = ram.content_slice(e.base, e.pages()).unwrap();
        assert_eq!(s.len(), e.pages() as usize);
        for (i, &w) in s.iter().enumerate() {
            assert_eq!(w, 0x40 + i as u64);
        }
        // Free frames stay readable, like `read`.
        ram.free(e).unwrap();
        assert_eq!(ram.content_slice(e.base, e.pages()).unwrap()[0], 0x40);
        // Out-of-range runs are rejected, not truncated.
        assert!(matches!(
            ram.content_slice(Mfn(60), 8),
            Err(MemError::OutOfRange { .. })
        ));
        assert!(matches!(
            ram.content_slice(Mfn(99), 1),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn checksum_detects_change() {
        let mut ram = PhysicalMemory::new(64);
        let e = ram.alloc(PageOrder(2)).unwrap();
        for mfn in e.frames() {
            ram.write(mfn, mfn.0 * 3).unwrap();
        }
        let c1 = ram.checksum(&[e]);
        ram.write(e.base + 1, 999).unwrap();
        let c2 = ram.checksum(&[e]);
        assert_ne!(c1, c2);
    }

    #[test]
    fn checksum_serial_and_parallel_identical() {
        let mut ram = PhysicalMemory::new(1 << 16);
        let extents: Vec<Extent> = (0..64).map(|_| ram.alloc(PageOrder(9)).unwrap()).collect();
        for e in &extents {
            for mfn in e.frames() {
                ram.write(mfn, mfn.0 ^ 0x5a5a).unwrap();
            }
        }
        // 64 × 512 frames ≥ the parallel threshold, so worker counts > 1
        // actually take the fan-out path.
        let serial = ram.checksum_with_pool(&extents, &hypertp_sim::WorkerPool::serial());
        for w in [2usize, 4, 8, 32] {
            assert_eq!(
                serial,
                ram.checksum_with_pool(&extents, &hypertp_sim::WorkerPool::new(w)),
                "workers={w}"
            );
        }
        assert_eq!(serial, ram.checksum(&extents));
    }

    #[test]
    fn refreshed_partials_recombine_to_full_checksum() {
        let mut ram = PhysicalMemory::new(1 << 14);
        let extents: Vec<Extent> = (0..16).map(|_| ram.alloc(PageOrder(6)).unwrap()).collect();
        for e in &extents {
            for mfn in e.frames() {
                ram.write(mfn, mfn.0.wrapping_mul(0x9e37)).unwrap();
            }
        }
        let pool = hypertp_sim::WorkerPool::serial();
        let mut partials = ram.extent_partials_with_pool(&extents, &pool);
        assert_eq!(
            combine_partials(&partials),
            ram.checksum_with_pool(&extents, &pool)
        );
        // Dirty two extents, refresh only those partials: the recombined
        // value must match a from-scratch checksum.
        for &i in &[3usize, 11] {
            ram.write(extents[i].base, 0xfeed + i as u64).unwrap();
        }
        ram.refresh_partials_with_pool(&extents, &mut partials, &[3, 11], &pool);
        assert_eq!(
            combine_partials(&partials),
            ram.checksum_with_pool(&extents, &pool)
        );
    }

    #[test]
    fn partials_serial_and_pooled_agree_on_fragmented_layouts() {
        // Regression: the translate hot path reuses pooled partials; they
        // must equal the serial fold on a fragmented (mixed-order,
        // interleaved) extent layout, for any worker count.
        let mut ram = PhysicalMemory::new(1 << 17);
        let mut extents = Vec::new();
        for i in 0..96u64 {
            let order = PageOrder((i % 4 + 6) as u8); // 64..512-page extents
            let e = ram.alloc(order).unwrap();
            for mfn in e.frames() {
                ram.write(mfn, mfn.0.rotate_left((i % 13) as u32) ^ i)
                    .unwrap();
            }
            extents.push(e);
            if i % 3 == 0 {
                // Punch holes so later allocations fragment.
                let hole = ram.alloc(PageOrder(5)).unwrap();
                ram.free(hole).unwrap();
            }
        }
        let serial = ram.extent_partials_with_pool(&extents, &hypertp_sim::WorkerPool::serial());
        assert_eq!(combine_partials(&serial), ram.checksum(&extents));
        for w in [2usize, 3, 8, 16] {
            let pooled = ram.extent_partials_with_pool(&extents, &hypertp_sim::WorkerPool::new(w));
            assert_eq!(serial, pooled, "workers={w}");
        }
    }

    #[test]
    fn fnv1a_sensitive_at_every_offset_and_tail_length() {
        // The word-at-a-time loop plus byte tail must react to a flipped
        // bit at any position, for lengths around the 8-byte boundary.
        for len in 0..=17usize {
            let a: Vec<u8> = (0..len as u8).collect();
            let h = fnv1a(&a);
            for i in 0..len {
                let mut b = a.clone();
                b[i] ^= 1;
                assert_ne!(h, fnv1a(&b), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn with_gib_sizes() {
        let ram = PhysicalMemory::with_gib(1);
        assert_eq!(ram.total_frames(), 262_144);
    }
}
