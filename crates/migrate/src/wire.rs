//! Content-aware page encoding for the migration wire path.
//!
//! This module holds the two stateful halves of PR 3's wire path:
//!
//! * an **XOR+RLE delta codec** ([`delta_encode`]/[`delta_decode`]) for
//!   re-dirtied pages: the new page is XORed against the last version the
//!   destination acked, and the (hopefully sparse) XOR image is run-length
//!   encoded — zero runs collapse to 3 bytes, literals are shipped as-is.
//!   The encoder is total and the decoder rejects malformed streams
//!   instead of panicking, so a corrupted delta is a recoverable fault.
//! * a **destination-synchronised [`TransferCache`]** keyed by 128-bit
//!   content digests ([`hypertp_sim::hash::Digest128`]). The source
//!   mirrors exactly what the destination holds: which content digests it
//!   has materialised (for [`WireFrame::Dup`] suppression — across
//!   pre-copy rounds *and* across VMs sharing the engine in
//!   `migrate_many`), and the last word acked per (vm, gfn) (for
//!   [`WireFrame::Delta`] encoding), held in a dense per-VM table
//!   indexed by gfn.
//!
//! **Transactional rounds.** The destination only acks a round as a whole;
//! if the link drops mid-round, nothing the round shipped can be assumed
//! present on the other side. The cache therefore journals every mutation
//! between [`TransferCache::begin_round`] and
//! [`TransferCache::commit_round`] (a VM's delta-base table created in
//! the round is dropped whole instead of journalled); a drop triggers
//! [`TransferCache::rollback_round`], which restores the last committed
//! state so the retry re-encodes against what the destination *actually*
//! holds. An abandoned migration calls [`TransferCache::forget_vm`] (the
//! destination shell is torn down, its pages gone); a committed one calls
//! [`TransferCache::release_vm`] (the source domain is gone, so its delta
//! bases are dead).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use hypertp_machine::{Gfn, PAGE_SIZE};
use hypertp_sim::hash::{digest_words, Digest128};

use crate::framing::{FrameRing, FrameView};
use crate::network::{FrameKind, WireFrame, WIRE_FRAME_HEADER};

/// RLE opcode: a run of zero bytes in the XOR image (`[0x00, len: u16le]`).
pub(crate) const OP_ZERO_RUN: u8 = 0x00;
/// RLE opcode: literal bytes (`[0x01, len: u16le, bytes...]`).
const OP_LITERAL: u8 = 0x01;
/// RLE opcode: a repeated 8-byte XOR pattern
/// (`[0x02, count: u16le, pattern: 8 bytes]` covering `count * 8` bytes).
/// Pages in the simulator's memory model are a 64-bit word repeated
/// across the page, so the XOR image of two versions is an 8-byte pattern
/// repeated 512× — this op collapses a whole-page delta to 11 bytes.
pub(crate) const OP_PATTERN8: u8 = 0x02;
/// Longest run any opcode can carry.
const MAX_RUN: usize = u16::MAX as usize;

/// Expands a content word to its full 4 KiB page image (the simulator's
/// memory model stores one 64-bit word per page; on the wire the page is
/// the word repeated little-endian across the page).
pub fn expand_word(word: u64) -> Vec<u8> {
    let mut page = Vec::new();
    expand_word_into(word, &mut page);
    page
}

/// [`expand_word`] into a caller-owned buffer: `out` is cleared and
/// refilled, so steady-state callers expand pages with zero allocations.
pub fn expand_word_into(word: u64, out: &mut Vec<u8>) {
    let le = word.to_le_bytes();
    out.clear();
    out.reserve(PAGE_SIZE as usize);
    for _ in 0..(PAGE_SIZE as usize / 8) {
        out.extend_from_slice(&le);
    }
}

/// Encodes `new` as an XOR+RLE delta against `old`. Both buffers must be
/// the same length. The stream is a sequence of zero-run and literal ops
/// over `old XOR new`; applying it with [`delta_decode`] against `old`
/// reproduces `new` exactly.
pub fn delta_encode(old: &[u8], new: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    delta_encode_into(old, new, &mut out);
    out
}

/// [`delta_encode`] into a caller-owned op buffer: `out` is cleared and
/// refilled, so a gather loop reuses one scratch buffer across pages
/// instead of allocating a fresh stream per page. Output bytes are
/// identical to [`delta_encode`].
pub fn delta_encode_into(old: &[u8], new: &[u8], out: &mut Vec<u8>) {
    assert_eq!(old.len(), new.len(), "delta operands must align");
    let n = new.len();
    out.clear();
    // Whole-buffer periodic fast path: when the XOR image is one 8-byte
    // pattern repeated (the common case for uniform pages), a single
    // pattern op covers everything. Skipped for the all-zero pattern,
    // where one zero-run op is smaller still.
    if n >= 16 && n.is_multiple_of(8) && n / 8 <= MAX_RUN {
        let mut pattern = [0u8; 8];
        for (p, (&o, &w)) in pattern.iter_mut().zip(old[..8].iter().zip(&new[..8])) {
            *p = o ^ w;
        }
        let periodic = (8..n).all(|i| (old[i] ^ new[i]) == pattern[i % 8]);
        if periodic && pattern.iter().any(|&b| b != 0) {
            let count = (n / 8) as u16;
            out.push(OP_PATTERN8);
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&pattern);
            return;
        }
    }
    let mut i = 0usize;
    while i < n {
        if old[i] == new[i] {
            // Zero run in the XOR image.
            let mut j = i;
            while j < n && old[j] == new[j] && j - i < MAX_RUN {
                j += 1;
            }
            let len = (j - i) as u16;
            out.push(OP_ZERO_RUN);
            out.extend_from_slice(&len.to_le_bytes());
            i = j;
        } else {
            let mut j = i;
            while j < n && old[j] != new[j] && j - i < MAX_RUN {
                j += 1;
            }
            let len = (j - i) as u16;
            out.push(OP_LITERAL);
            out.extend_from_slice(&len.to_le_bytes());
            for k in i..j {
                out.push(old[k] ^ new[k]);
            }
            i = j;
        }
    }
}

/// Delta-encodes two *uniform* pages directly from their content words —
/// the zero-copy hot path. Byte-identical to
/// `delta_encode(&expand_word(old_word), &expand_word(new_word))` without
/// expanding either page: the XOR image of two uniform pages is the
/// words' XOR repeated, which is exactly one pattern op (or one zero-run
/// op when the words are equal).
pub fn delta_encode_words_into(old_word: u64, new_word: u64, out: &mut Vec<u8>) {
    out.clear();
    let x = old_word ^ new_word;
    if x == 0 {
        // Equal pages: the zero-run loop emits a single full-page run.
        out.push(OP_ZERO_RUN);
        out.extend_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
    } else {
        out.push(OP_PATTERN8);
        out.extend_from_slice(&((PAGE_SIZE / 8) as u16).to_le_bytes());
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Applies a delta stream to a *uniform* page given only its content
/// word — the zero-copy destination hot path. Returns the new content
/// word exactly when `delta_decode(&expand_word(old_word), delta)`
/// succeeds *and* decodes to a uniform page (the same condition
/// [`TransferCache::apply_frame`] enforces); `None` otherwise. Total on
/// arbitrary bytes, allocates nothing.
///
/// Works by tracking, per byte-offset class modulo 8, the XOR byte each
/// op assigns: the decoded page is uniform iff every class gets a single
/// consistent value, and then the new word is `old ^ pattern`.
pub fn delta_apply_word(old_word: u64, delta: &[u8]) -> Option<u64> {
    let n = PAGE_SIZE as usize;
    let mut xb: [Option<u8>; 8] = [None; 8];
    let mut uniform = true;
    fn set(xb: &mut [Option<u8>; 8], uniform: &mut bool, class: usize, v: u8) {
        match xb[class] {
            None => xb[class] = Some(v),
            Some(u) if u == v => {}
            Some(_) => *uniform = false,
        }
    }
    let mut pos = 0usize;
    let mut d = 0usize;
    while d < delta.len() {
        let op = delta[d];
        let len_bytes = delta.get(d + 1..d + 3)?;
        let len = u16::from_le_bytes([len_bytes[0], len_bytes[1]]) as usize;
        d += 3;
        let start = pos;
        let end = start.checked_add(len)?;
        if end > n {
            return None;
        }
        match op {
            OP_ZERO_RUN => {
                for k in 0..len.min(8) {
                    set(&mut xb, &mut uniform, (start + k) % 8, 0);
                }
                pos = end;
            }
            OP_LITERAL => {
                let lits = delta.get(d..d + len)?;
                d += len;
                for (k, &b) in lits.iter().enumerate() {
                    set(&mut xb, &mut uniform, (start + k) % 8, b);
                }
                pos = end;
            }
            OP_PATTERN8 => {
                // `len` counts 8-byte repetitions here.
                let pattern = delta.get(d..d + 8)?;
                d += 8;
                let bytes = len.checked_mul(8)?;
                let end = start.checked_add(bytes)?;
                if end > n {
                    return None;
                }
                for k in 0..bytes.min(8) {
                    set(&mut xb, &mut uniform, (start + k) % 8, pattern[k % 8]);
                }
                pos = end;
            }
            _ => return None,
        }
    }
    if pos != n || !uniform {
        return None;
    }
    let ow = old_word.to_le_bytes();
    let mut w = [0u8; 8];
    for (c, b) in w.iter_mut().enumerate() {
        *b = ow[c] ^ xb[c].unwrap_or(0);
    }
    Some(u64::from_le_bytes(w))
}

/// Applies a [`delta_encode`] stream to `old`, returning the
/// reconstructed buffer, or `None` if the stream is malformed (truncated
/// op, bad opcode, or coverage not exactly `old.len()`). Total: never
/// panics on arbitrary bytes.
pub fn delta_decode(old: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(old.len());
    let mut d = 0usize;
    while d < delta.len() {
        let op = delta[d];
        let len_bytes = delta.get(d + 1..d + 3)?;
        let len = u16::from_le_bytes([len_bytes[0], len_bytes[1]]) as usize;
        d += 3;
        let start = out.len();
        let end = start.checked_add(len)?;
        if end > old.len() {
            return None;
        }
        match op {
            OP_ZERO_RUN => out.extend_from_slice(&old[start..end]),
            OP_LITERAL => {
                let lits = delta.get(d..d + len)?;
                d += len;
                out.extend(lits.iter().zip(&old[start..end]).map(|(&x, &o)| x ^ o));
            }
            OP_PATTERN8 => {
                // `len` counts 8-byte repetitions here.
                let pattern = delta.get(d..d + 8)?;
                d += 8;
                let end = start.checked_add(len.checked_mul(8)?)?;
                if end > old.len() {
                    return None;
                }
                out.extend(
                    old[start..end]
                        .iter()
                        .enumerate()
                        .map(|(k, &o)| o ^ pattern[k % 8]),
                );
            }
            _ => return None,
        }
    }
    if out.len() == old.len() {
        Some(out)
    } else {
        None
    }
}

/// Default cap on committed dedup entries (see
/// [`TransferCache::with_capacity`]). 64 Ki entries (64 bytes each in the
/// map, LRU links included) cover every distinct content word of the
/// fig. 12 fleets while bounding a long-lived destination's memory.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// One committed dedup entry: the content word, the logical tick of its
/// last touch (insert or dup hit), and the digests of its neighbours in
/// the LRU list. The head's `prev` and the tail's `next` name the entry
/// itself.
#[derive(Debug, Clone, Copy)]
struct DedupEntry {
    word: u64,
    touched: u64,
    /// Neighbour touched just before this entry.
    prev: u128,
    /// Neighbour touched just after this entry.
    next: u128,
}

/// Observability counters of the dedup cache (see [`TransferCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Dedup entries currently held.
    pub occupancy: u64,
    /// Configured entry cap.
    pub capacity: u64,
    /// Entries evicted (LRU) since the cache was created.
    pub evictions: u64,
    /// Dedup lookups that hit since the cache was created.
    pub dup_hits: u64,
    /// Dedup lookups performed since the cache was created (every
    /// non-zero page encode consults the map once).
    pub dup_lookups: u64,
}

/// The delta bases of one VM: the last word acked per gfn, dense over
/// `0..words.len()`. A presence bit per gfn keeps "no base" (the page
/// ships `Raw`) apart from "the base is the zero page" (a re-dirtied
/// zero page ships a `Delta`). The span only ever grows, to the highest
/// gfn the source has encoded for the VM; gfns come from the source's
/// own memory map, never from the wire.
#[derive(Debug, Default)]
struct BaseTable {
    /// Base word per gfn; meaningful only where the presence bit is set.
    words: Vec<u64>,
    /// Presence bitset, one bit per gfn of `words`.
    present: Vec<u64>,
    /// Set bits in `present`.
    len: usize,
    /// Created since the round opened: a rollback drops the whole table,
    /// so its writes are not journalled.
    fresh: bool,
}

impl BaseTable {
    /// Extends the span to cover gfns `0..span`. Amortised: the vectors
    /// grow geometrically, so a VM whose batches creep upward reallocates
    /// O(log span) times in all.
    fn cover(&mut self, span: u64) {
        let span = usize::try_from(span).expect("gfn span fits in memory");
        if span > self.words.len() {
            self.words.resize(span, 0);
            self.present.resize(span.div_ceil(64), 0);
        }
    }

    /// The base of `gfn`, if the destination holds a version of it.
    fn get(&self, gfn: u64) -> Option<u64> {
        let i = gfn as usize;
        let set = self
            .present
            .get(i / 64)
            .is_some_and(|b| b >> (i % 64) & 1 == 1);
        set.then(|| self.words[i])
    }

    /// Sets the base of `gfn` (inside the span) to `word`, returning the
    /// one it replaces.
    fn replace(&mut self, gfn: u64, word: u64) -> Option<u64> {
        let i = gfn as usize;
        let old = std::mem::replace(&mut self.words[i], word);
        let (block, bit) = (&mut self.present[i / 64], 1u64 << (i % 64));
        if *block & bit != 0 {
            Some(old)
        } else {
            *block |= bit;
            self.len += 1;
            None
        }
    }

    /// [`BaseTable::replace`], journalling the replaced base as `vm`'s
    /// unless the table is fresh.
    fn record(&mut self, journal: &mut Vec<BaseUndo>, vm: u32, gfn: u64, word: u64) {
        let prev = self.replace(gfn, word);
        if !self.fresh {
            journal.push(BaseUndo { vm, gfn, prev });
        }
    }

    /// Puts back a base [`BaseTable::replace`] returned (rollback).
    fn restore(&mut self, gfn: u64, prev: Option<u64>) {
        match prev {
            Some(word) => {
                self.replace(gfn, word);
            }
            None => {
                let i = gfn as usize;
                let (block, bit) = (&mut self.present[i / 64], 1u64 << (i % 64));
                if *block & bit != 0 {
                    *block &= !bit;
                    self.len -= 1;
                }
            }
        }
    }
}

/// One delta base overwritten since `begin_round`: rollback puts `prev`
/// back (`None` = the gfn had no base).
#[derive(Debug, Clone, Copy)]
struct BaseUndo {
    vm: u32,
    gfn: u64,
    prev: Option<u64>,
}

/// The delta-base tables of the VMs in flight.
#[derive(Debug, Default)]
struct BaseTables {
    by_vm: HashMap<u32, BaseTable>,
    /// Tags whose tables are fresh (created since the round opened).
    fresh: Vec<u32>,
}

impl BaseTables {
    /// `vm`'s table, created fresh if it has none.
    fn of(&mut self, vm: u32) -> &mut BaseTable {
        let fresh = &mut self.fresh;
        self.by_vm.entry(vm).or_insert_with(|| {
            fresh.push(vm);
            BaseTable {
                fresh: true,
                ..BaseTable::default()
            }
        })
    }

    /// The round's writes became committed state: fresh tables become
    /// ordinary ones, journalled from now on.
    fn seal(&mut self) {
        for vm in self.fresh.drain(..) {
            if let Some(table) = self.by_vm.get_mut(&vm) {
                table.fresh = false;
            }
        }
    }

    /// Rolls the round back for fresh tables: the VM had no bases when
    /// the round opened, so its whole table goes.
    fn drop_fresh(&mut self) {
        for vm in self.fresh.drain(..) {
            self.by_vm.remove(&vm);
        }
    }

    /// The base of (`vm`, `gfn`), if the destination holds one.
    fn get(&self, vm: u32, gfn: u64) -> Option<u64> {
        self.by_vm.get(&vm)?.get(gfn)
    }

    /// Bases held across all VMs.
    fn len(&self) -> usize {
        self.by_vm.values().map(|t| t.len).sum()
    }
}

/// Committed + in-flight state of the dedup/delta cache.
#[derive(Debug)]
struct CacheInner {
    /// Content the destination has materialised: digest → entry. An
    /// intrusive doubly-linked list threads the entries in touch order.
    dedup: HashMap<u128, DedupEntry>,
    /// Digests at the LRU list's ends: (least, most) recently touched;
    /// `None` exactly when `dedup` is empty.
    lru: Option<(u128, u128)>,
    /// Delta bases per VM tag — the destination's current version of
    /// each page.
    bases: BaseTables,
    /// Digests inserted into `dedup` since `begin_round` (rollback:
    /// remove).
    journal_dedup: Vec<u128>,
    /// Delta bases overwritten since `begin_round` (rollback: restore).
    journal_bases: Vec<BaseUndo>,
    /// Max committed dedup entries before LRU eviction kicks in. A soft
    /// cap: entries touched by the in-flight round are never evicted (a
    /// `Dup` frame already encoded this round may reference them), so
    /// occupancy can transiently exceed the cap by the round's footprint.
    capacity: usize,
    /// Logical clock driving LRU order: bumps on every insert/hit.
    tick: u64,
    /// Tick at the last `begin_round` — entries touched at or after this
    /// are pinned for the round.
    round_start_tick: u64,
    /// Entries evicted so far (monotonic; never rolled back).
    evictions: u64,
    /// Dedup lookups that hit (monotonic observability counter).
    dup_hits: u64,
    /// Dedup lookups performed (monotonic observability counter).
    dup_lookups: u64,
}

impl Default for CacheInner {
    fn default() -> Self {
        CacheInner {
            dedup: HashMap::new(),
            lru: None,
            bases: BaseTables::default(),
            journal_dedup: Vec::new(),
            journal_bases: Vec::new(),
            capacity: DEFAULT_CACHE_CAPACITY,
            tick: 0,
            round_start_tick: 0,
            evictions: 0,
            dup_hits: 0,
            dup_lookups: 0,
        }
    }
}

impl CacheInner {
    /// The content word held for `digest`, if the destination has it.
    fn dedup_word(&self, digest: u128) -> Option<u64> {
        self.dedup.get(&digest).map(|e| e.word)
    }

    /// The held entry an LRU link or end names.
    fn linked(&mut self, digest: u128) -> &mut DedupEntry {
        self.dedup
            .get_mut(&digest)
            .expect("LRU links name held entries")
    }

    /// Detaches `digest` (held) from the LRU list.
    fn unlink(&mut self, digest: u128) {
        let DedupEntry { prev, next, .. } = self.dedup[&digest];
        let (head, tail) = self.lru.expect("a held entry is linked");
        match (prev == digest, next == digest) {
            (true, true) => self.lru = None,
            (true, false) => {
                self.linked(next).prev = next;
                self.lru = Some((next, tail));
            }
            (false, true) => {
                self.linked(prev).next = prev;
                self.lru = Some((head, prev));
            }
            (false, false) => {
                self.linked(prev).next = next;
                self.linked(next).prev = prev;
            }
        }
    }

    /// Stamps `digest` (held, unlinked) with a fresh tick and appends it
    /// at the LRU tail. Ticks are unique and only grow, so the list stays
    /// sorted by `touched`.
    fn push_tail(&mut self, digest: u128) {
        self.tick += 1;
        let touched = self.tick;
        let prev = match self.lru {
            None => {
                self.lru = Some((digest, digest));
                digest
            }
            Some((head, tail)) => {
                self.linked(tail).next = digest;
                self.lru = Some((head, digest));
                tail
            }
        };
        let e = self.linked(digest);
        e.touched = touched;
        e.prev = prev;
        e.next = digest;
    }

    /// LRU touch: refreshes the entry's eviction rank and pins it for the
    /// in-flight round.
    fn touch(&mut self, digest: u128) {
        self.unlink(digest);
        self.push_tail(digest);
    }

    /// Counts one dedup lookup for a non-zero page and, on a hit,
    /// touches the entry. Returns whether the destination holds the
    /// content.
    fn probe_dedup(&mut self, digest: u128) -> bool {
        self.dup_lookups += 1;
        if !self.dedup.contains_key(&digest) {
            return false;
        }
        self.dup_hits += 1;
        self.touch(digest);
        true
    }

    /// Inserts `digest → word` (absent from the map) as the most recently
    /// touched entry and journals it, evicting the least recently used
    /// entry first when at capacity — unless that entry was touched since
    /// `begin_round`: frames already encoded this round may reference it,
    /// and every entry behind it in the list is newer still, so nothing is
    /// evictable and the cap is soft. The list head is always the minimum
    /// `touched`, so the victim is deterministic and found in O(1).
    ///
    /// Eviction is safe by construction: losing a digest only downgrades
    /// a *future* `Dup` to `Raw`/`Delta`; it never invalidates delta bases
    /// (those live in `bases`) or frames already on the wire.
    fn insert_dedup(&mut self, digest: u128, word: u64) {
        debug_assert!(!self.dedup.contains_key(&digest));
        if self.dedup.len() >= self.capacity {
            let (lru, _) = self.lru.expect("a full cache has a list");
            if self.dedup[&lru].touched < self.round_start_tick {
                self.remove_dedup(lru);
                self.evictions += 1;
            }
        }
        self.dedup.insert(
            digest,
            DedupEntry {
                word,
                touched: 0,
                prev: digest,
                next: digest,
            },
        );
        self.push_tail(digest);
        self.journal_dedup.push(digest);
    }

    /// Drops `digest` (held) from the LRU list and the map.
    fn remove_dedup(&mut self, digest: u128) {
        self.unlink(digest);
        self.dedup.remove(&digest);
    }

    /// Forgets every dedup entry, including the in-flight inserts.
    fn clear_dedup(&mut self) {
        self.dedup.clear();
        self.lru = None;
        self.journal_dedup.clear();
    }

    /// Sets the delta base of (`vm`, `gfn`) to `word`, journalling the
    /// old one.
    fn record_sent(&mut self, vm: u32, gfn: u64, word: u64) {
        let table = self.bases.of(vm);
        table.cover(gfn + 1);
        table.record(&mut self.journal_bases, vm, gfn, word);
    }

    /// Drops `vm`'s delta bases, including the in-flight ones.
    fn drop_bases(&mut self, vm: u32) {
        self.bases.by_vm.remove(&vm);
        self.journal_bases.retain(|u| u.vm != vm);
    }
}

/// The destination-synchronised dedup/delta cache. Cheap to clone —
/// clones share state, which is exactly what `migrate_many` wants: VMs
/// migrated through the same engine dedup against each other's pages
/// (shared template content crosses the wire once).
#[derive(Debug, Clone, Default)]
pub struct TransferCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl TransferCache {
    /// A fresh, empty cache with the default entry cap
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    pub fn new() -> Self {
        TransferCache::default()
    }

    /// A fresh cache capped at `capacity` committed dedup entries
    /// (minimum 1). The cap is soft — see [`CacheInner::insert_dedup`]'s
    /// pinning rule — and eviction-only-safe: overflowing it can only
    /// downgrade future `Dup` frames to `Raw`/`Delta`, never corrupt a
    /// transfer.
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = TransferCache::default();
        cache.lock().capacity = capacity.max(1);
        cache
    }

    /// The configured dedup entry cap.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Observability counters: occupancy, capacity, evictions, dup
    /// hit/lookup totals.
    pub fn stats(&self) -> CacheStats {
        let c = self.lock();
        CacheStats {
            occupancy: c.dedup.len() as u64,
            capacity: c.capacity as u64,
            evictions: c.evictions,
            dup_hits: c.dup_hits,
            dup_lookups: c.dup_lookups,
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("transfer cache poisoned")
    }

    /// Opens a transactional round: mutations from here to
    /// [`TransferCache::commit_round`] can be undone by
    /// [`TransferCache::rollback_round`].
    pub fn begin_round(&self) {
        let mut c = self.lock();
        debug_assert!(
            c.journal_dedup.is_empty() && c.journal_bases.is_empty() && c.bases.fresh.is_empty(),
            "previous round neither committed nor rolled back"
        );
        c.journal_dedup.clear();
        c.journal_bases.clear();
        c.bases.seal();
        // Entries touched from here on are pinned against eviction until
        // the round commits or rolls back: frames already encoded this
        // round may reference them.
        c.round_start_tick = c.tick + 1;
    }

    /// The destination acked the round: in-flight state becomes committed.
    pub fn commit_round(&self) {
        let mut c = self.lock();
        c.journal_dedup.clear();
        c.journal_bases.clear();
        c.bases.seal();
    }

    /// The round was lost on the wire: undo every mutation since
    /// [`TransferCache::begin_round`], restoring the last committed state
    /// (what the destination actually holds).
    pub fn rollback_round(&self) {
        let mut c = self.lock();
        while let Some(digest) = c.journal_dedup.pop() {
            c.remove_dedup(digest);
        }
        // Restore in reverse so the oldest snapshot of a twice-written key
        // wins. A span grown this round stays grown; its new gfns simply
        // lose their presence bits. Tables created this round go whole.
        while let Some(BaseUndo { vm, gfn, prev }) = c.journal_bases.pop() {
            c.bases.of(vm).restore(gfn, prev);
        }
        c.bases.drop_fresh();
    }

    /// Drops every entry belonging to `vm` (the destination shell was
    /// torn down after an abandoned migration; its pages no longer exist
    /// on the other side). Dedup entries stay: they are owned by whichever
    /// VMs committed them — but when no other VM holds the content the
    /// conservative choice is to drop the whole dedup map, which is what
    /// this does. Correctness never depends on dedup hits, only on the
    /// map never claiming content the destination lacks.
    pub fn forget_vm(&self, vm: u32) {
        let mut c = self.lock();
        c.drop_bases(vm);
        c.clear_dedup();
    }

    /// Drops `vm`'s delta bases once its migration has committed: the
    /// source domain is destroyed and its tag is never reused, so the
    /// bases are dead state, and a long-lived source holds bases only
    /// for in-flight VMs. Dedup entries stay — the destination still
    /// holds that content for later VMs to dup against.
    pub fn release_vm(&self, vm: u32) {
        self.lock().drop_bases(vm);
    }

    /// Wipes everything (tests; or a destination host restart). The
    /// configured capacity survives; counters restart from zero.
    pub fn clear(&self) {
        let mut c = self.lock();
        let capacity = c.capacity;
        *c = CacheInner {
            capacity,
            ..CacheInner::default()
        };
    }

    /// Committed dedup entries (diagnostics).
    pub fn dedup_len(&self) -> usize {
        self.lock().dedup.len()
    }

    /// Tracked (vm, gfn) delta bases (diagnostics).
    pub fn sent_len(&self) -> usize {
        self.lock().bases.len()
    }

    /// Encodes one page for the wire, journalling the cache mutations the
    /// destination will perform when it applies the frame.
    ///
    /// Classification order: zero marker, dedup hit, delta against the
    /// last acked version (falling back to raw when the delta does not
    /// pay), raw.
    pub fn encode_page(&self, vm: u32, gfn: u64, word: u64) -> WireFrame {
        let mut c = self.lock();
        if word == 0 {
            // Destination materialises zeros locally; record the base so a
            // later non-zero version can delta against a zero page.
            c.record_sent(vm, gfn, 0);
            return WireFrame::Zero;
        }
        let digest = digest_words(&[word]);
        if c.probe_dedup(digest.as_u128()) {
            c.record_sent(vm, gfn, word);
            return WireFrame::Dup { digest };
        }
        let frame = match c.bases.get(vm, gfn) {
            Some(old) if old != word => {
                let delta = delta_encode(&expand_word(old), &expand_word(word));
                if (delta.len() as u64) + WIRE_FRAME_HEADER < WIRE_FRAME_HEADER + PAGE_SIZE {
                    WireFrame::Delta { delta }
                } else {
                    WireFrame::Raw { word }
                }
            }
            // `old == word` reaches here only when the word's digest was
            // evicted after `old` shipped (a dedup hit would otherwise
            // have fired above); the re-send ships raw, which is always
            // correct. An untracked page ships raw too.
            _ => WireFrame::Raw { word },
        };
        c.insert_dedup(digest.as_u128(), word);
        c.record_sent(vm, gfn, word);
        frame
    }

    /// Applies a frame on the destination side, given the destination's
    /// current content word for the page. Returns the page's new word, or
    /// `None` when the frame is inconsistent with the destination's state
    /// (a dup for unknown content; a delta that does not decode to a
    /// uniform page) — an integrity violation for the engine to surface.
    pub fn apply_frame(&self, frame: &WireFrame, dst_current: u64) -> Option<u64> {
        match frame {
            WireFrame::Raw { word } => Some(*word),
            WireFrame::Zero => Some(0),
            WireFrame::Dup { digest } => self.lock().dedup_word(digest.as_u128()),
            WireFrame::Delta { delta } => {
                let old = expand_word(dst_current);
                let page = delta_decode(&old, delta)?;
                let word = u64::from_le_bytes(page[..8].try_into().ok()?);
                // The simulator's pages are uniform; a non-uniform decode
                // means the delta base diverged from the destination.
                if page == expand_word(word) {
                    Some(word)
                } else {
                    None
                }
            }
        }
    }

    /// Batch counterpart of [`TransferCache::encode_page`]: encodes a
    /// whole extent of pages straight into `ring` under **one** lock
    /// acquisition, with digests precomputed by the caller (fanned over
    /// the worker pool). Returns the accounted wire bytes of the batch.
    ///
    /// Classification, journalling and LRU mutation order are identical
    /// to calling `encode_page` per page — `WireStats`, cache counters
    /// and chaos-replay rollback behaviour match byte for byte. The one
    /// shortcut is deliberate and lossless: the simulator's pages are
    /// uniform, so a re-dirtied page's delta is the ≤11-byte word-level
    /// stream, which always beats a raw page — `encode_page`'s size check can
    /// never pick `Raw` there.
    ///
    /// `digests[i]` must equal `digest_words(&[words[i]])`; it is only
    /// consulted for non-zero words, matching `encode_page`.
    ///
    /// The VM's base table is looked up once per batch and grown at most
    /// once, to the batch's highest gfn.
    pub fn encode_batch_into(
        &self,
        vm: u32,
        gfns: &[Gfn],
        words: &[u64],
        digests: &[Digest128],
        ring: &mut FrameRing,
    ) -> u64 {
        debug_assert_eq!(gfns.len(), words.len());
        debug_assert_eq!(words.len(), digests.len());
        let mut c = self.lock();
        // Borrow the table out of the map for the batch, so the loop can
        // mutate it and the dedup state side by side.
        let mut table = std::mem::take(c.bases.of(vm));
        if let Some(top) = gfns.iter().map(|g| g.0).max() {
            table.cover(top + 1);
        }
        let mut wire_bytes = 0u64;
        for ((&g, &word), &digest) in gfns.iter().zip(words).zip(digests) {
            let gfn = g.0;
            if word == 0 {
                table.record(&mut c.journal_bases, vm, gfn, 0);
                wire_bytes += ring.push_zero(gfn);
                continue;
            }
            debug_assert_eq!(digest, digest_words(&[word]));
            if c.probe_dedup(digest.as_u128()) {
                table.record(&mut c.journal_bases, vm, gfn, word);
                wire_bytes += ring.push_dup(gfn, digest);
                continue;
            }
            match table.get(gfn) {
                Some(old) if old != word => {
                    wire_bytes += ring.push_delta_words(gfn, old, word);
                }
                _ => {
                    wire_bytes += ring.push_raw(gfn, word);
                }
            }
            c.insert_dedup(digest.as_u128(), word);
            table.record(&mut c.journal_bases, vm, gfn, word);
        }
        *c.bases.of(vm) = table;
        wire_bytes
    }

    /// Applies a borrowed serialized frame on the destination side — the
    /// zero-copy counterpart of [`TransferCache::apply_frame`], using the
    /// word-level delta apply so the steady state never expands a page.
    /// Same contract: `None` flags an integrity violation.
    pub fn apply_view(&self, view: &FrameView<'_>, dst_current: u64) -> Option<u64> {
        match view.kind {
            FrameKind::Raw => view.raw_word(),
            FrameKind::Zero => Some(0),
            FrameKind::Dup => {
                let digest = view.dup_digest()?;
                self.lock().dedup_word(digest.as_u128())
            }
            FrameKind::Delta => delta_apply_word(dst_current, view.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::FrameRing;
    use crate::network::FrameKind;
    use hypertp_sim::SimRng;

    #[test]
    fn expand_word_shape() {
        let p = expand_word(0x0102_0304_0506_0708);
        assert_eq!(p.len(), PAGE_SIZE as usize);
        assert_eq!(&p[..8], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&p[8..16], &p[..8]);
        assert!(expand_word(0).iter().all(|&b| b == 0));
    }

    #[test]
    fn delta_roundtrip_identity_and_disjoint() {
        let old = expand_word(0xdead_beef);
        // Identical pages: a couple of zero-run ops, tiny stream.
        let d = delta_encode(&old, &old);
        assert!(d.len() <= 6, "identity delta is {} bytes", d.len());
        assert_eq!(delta_decode(&old, &d).unwrap(), old);
        // Single-byte change per word: mostly zero runs.
        let new = expand_word(0xdead_beef ^ 0x41);
        let d = delta_encode(&old, &new);
        assert!(d.len() < PAGE_SIZE as usize / 2, "sparse delta pays");
        assert_eq!(delta_decode(&old, &d).unwrap(), new);
    }

    #[test]
    fn delta_property_random_mutations() {
        // Seeded property test: arbitrary byte-level mutations of a 4 KiB
        // page always round-trip, and the stream is never absurdly large.
        let mut rng = SimRng::new(0xde17a);
        for case in 0..200 {
            let old = expand_word(rng.next_u64());
            let mut new = old.clone();
            let mutations = rng.gen_range(64) as usize;
            for _ in 0..mutations {
                let at = rng.gen_range(PAGE_SIZE) as usize;
                new[at] ^= (rng.gen_range(255) + 1) as u8;
            }
            let d = delta_encode(&old, &new);
            assert_eq!(
                delta_decode(&old, &d).as_deref(),
                Some(new.as_slice()),
                "case {case}"
            );
            // Worst case: alternating ops cost ≤ 4 bytes/byte + slack.
            assert!(d.len() <= 4 * PAGE_SIZE as usize + 8, "case {case}");
            // Wrong base must not silently succeed as the right page.
            let wrong = expand_word(rng.next_u64());
            if wrong != old {
                if let Some(p) = delta_decode(&wrong, &d) {
                    assert_ne!(p, new, "case {case}: wrong base produced right page");
                }
            }
        }
    }

    #[test]
    fn word_level_encode_matches_expanded_encode() {
        // The zero-copy fast path must emit byte-identical streams to the
        // page-expanding encoder for every pair of uniform pages.
        let mut rng = SimRng::new(0x0e17_c0de);
        let mut fast = Vec::new();
        for case in 0..500 {
            let old = rng.next_u64();
            let new = if case % 7 == 0 { old } else { rng.next_u64() };
            delta_encode_words_into(old, new, &mut fast);
            assert_eq!(
                fast,
                delta_encode(&expand_word(old), &expand_word(new)),
                "case {case}: old={old:#x} new={new:#x}"
            );
        }
        // Scratch reuse never regrows after the first call.
        let cap = fast.capacity();
        for i in 0..64u64 {
            delta_encode_words_into(i, i ^ 0xff, &mut fast);
        }
        assert_eq!(fast.capacity(), cap);
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_scratch() {
        let mut rng = SimRng::new(0xe4c0);
        let mut scratch = Vec::new();
        for _ in 0..100 {
            let old = expand_word(rng.next_u64());
            let mut new = old.clone();
            for _ in 0..rng.gen_range(96) {
                let at = rng.gen_range(PAGE_SIZE) as usize;
                new[at] ^= (rng.gen_range(255) + 1) as u8;
            }
            delta_encode_into(&old, &new, &mut scratch);
            assert_eq!(scratch, delta_encode(&old, &new));
        }
    }

    #[test]
    fn word_level_apply_matches_expanded_apply() {
        // delta_apply_word must agree with decode-then-uniform-check on
        // real deltas, garbage streams, and mismatched bases alike.
        let mut rng = SimRng::new(0xa117);
        let legacy = |old_word: u64, delta: &[u8]| -> Option<u64> {
            let old = expand_word(old_word);
            let page = delta_decode(&old, delta)?;
            let word = u64::from_le_bytes(page[..8].try_into().ok()?);
            if page == expand_word(word) {
                Some(word)
            } else {
                None
            }
        };
        for case in 0..400 {
            let base = rng.next_u64();
            let delta: Vec<u8> = match case % 4 {
                0 => delta_encode(&expand_word(base), &expand_word(rng.next_u64())),
                1 => {
                    // A non-uniform mutation: decodes but fails uniformity.
                    let mut new = expand_word(base);
                    let at = rng.gen_range(PAGE_SIZE) as usize;
                    new[at] ^= 1 + rng.gen_range(255) as u8;
                    delta_encode(&expand_word(base), &new)
                }
                2 => {
                    let len = rng.gen_range(48) as usize;
                    (0..len).map(|_| rng.gen_range(256) as u8).collect()
                }
                _ => {
                    // Valid delta applied against the wrong base word.
                    delta_encode(&expand_word(rng.next_u64()), &expand_word(rng.next_u64()))
                }
            };
            assert_eq!(
                delta_apply_word(base, &delta),
                legacy(base, &delta),
                "case {case}"
            );
        }
        assert_eq!(delta_apply_word(7, &[]), None);
        assert_eq!(delta_apply_word(7, &[OP_ZERO_RUN]), None);
    }

    #[test]
    fn delta_decode_is_total_on_garbage() {
        let old = expand_word(7);
        let mut rng = SimRng::new(0x6a6b);
        for _ in 0..500 {
            let len = rng.gen_range(64) as usize;
            let junk: Vec<u8> = (0..len).map(|_| rng.gen_range(256) as u8).collect();
            // Must not panic; may decode or reject.
            let _ = delta_decode(&old, &junk);
        }
        assert_eq!(delta_decode(&old, &[]), None, "empty covers nothing");
        assert_eq!(delta_decode(&old, &[OP_ZERO_RUN]), None, "truncated op");
        assert_eq!(delta_decode(&old, &[0x7f, 0, 16]), None, "bad opcode");
    }

    #[test]
    fn encode_classifies_zero_dup_delta_raw() {
        let cache = TransferCache::new();
        cache.begin_round();
        assert_eq!(cache.encode_page(0, 1, 0).kind(), FrameKind::Zero);
        assert_eq!(cache.encode_page(0, 2, 0xaaaa).kind(), FrameKind::Raw);
        // Same content, different page / different VM: dedup.
        assert_eq!(cache.encode_page(0, 3, 0xaaaa).kind(), FrameKind::Dup);
        assert_eq!(cache.encode_page(1, 9, 0xaaaa).kind(), FrameKind::Dup);
        cache.commit_round();
        // Page 2 re-dirtied with a near value: delta beats raw.
        cache.begin_round();
        let f = cache.encode_page(0, 2, 0xaaab);
        assert_eq!(f.kind(), FrameKind::Delta);
        assert!(f.wire_bytes() < WIRE_FRAME_HEADER + PAGE_SIZE);
        // And the destination, holding 0xaaaa, reconstructs 0xaaab.
        assert_eq!(cache.apply_frame(&f, 0xaaaa), Some(0xaaab));
        cache.commit_round();
    }

    #[test]
    fn apply_matches_encode_for_all_kinds() {
        let cache = TransferCache::new();
        cache.begin_round();
        let raw = cache.encode_page(0, 1, 0x1234);
        assert_eq!(cache.apply_frame(&raw, 0), Some(0x1234));
        let dup = cache.encode_page(0, 2, 0x1234);
        assert_eq!(dup.kind(), FrameKind::Dup);
        assert_eq!(cache.apply_frame(&dup, 0), Some(0x1234));
        let zero = cache.encode_page(0, 3, 0);
        assert_eq!(cache.apply_frame(&zero, 0xffff), Some(0));
        cache.commit_round();
    }

    #[test]
    fn dup_for_unknown_content_is_rejected() {
        let cache = TransferCache::new();
        let frame = WireFrame::Dup {
            digest: digest_words(&[0x5555]),
        };
        assert_eq!(cache.apply_frame(&frame, 0), None);
    }

    #[test]
    fn rollback_restores_committed_state() {
        let cache = TransferCache::new();
        cache.begin_round();
        assert_eq!(cache.encode_page(0, 1, 0xcafe).kind(), FrameKind::Raw);
        cache.commit_round();
        assert_eq!(cache.dedup_len(), 1);

        // A round that never reaches the destination.
        cache.begin_round();
        assert_eq!(cache.encode_page(0, 2, 0xf00d).kind(), FrameKind::Raw);
        assert_eq!(cache.encode_page(0, 1, 0xf00d).kind(), FrameKind::Dup);
        cache.rollback_round();
        assert_eq!(cache.dedup_len(), 1, "0xf00d never arrived");
        assert_eq!(cache.sent_len(), 1, "gfn 2 never arrived");

        // Re-encoding after rollback must not emit a Dup for content the
        // destination lacks, and gfn 1's base must still be 0xcafe.
        cache.begin_round();
        assert_eq!(cache.encode_page(0, 2, 0xf00d).kind(), FrameKind::Raw);
        let f = cache.encode_page(0, 1, 0xcaff);
        assert_eq!(f.kind(), FrameKind::Delta);
        assert_eq!(cache.apply_frame(&f, 0xcafe), Some(0xcaff));
        cache.commit_round();
    }

    #[test]
    fn rollback_restores_oldest_snapshot_of_twice_written_key() {
        let cache = TransferCache::new();
        cache.begin_round();
        cache.encode_page(0, 5, 0x11);
        cache.commit_round();
        cache.begin_round();
        cache.encode_page(0, 5, 0x22);
        cache.encode_page(0, 5, 0x33);
        cache.rollback_round();
        // Delta base for gfn 5 must be back to 0x11: encoding 0x44 as a
        // delta against 0x11 must decode against a dest holding 0x11.
        cache.begin_round();
        let f = cache.encode_page(0, 5, 0x1111_0011);
        if let WireFrame::Delta { .. } = f {
            assert_eq!(cache.apply_frame(&f, 0x11), Some(0x1111_0011));
        }
        cache.commit_round();
    }

    #[test]
    fn forget_vm_drops_its_delta_bases() {
        let cache = TransferCache::new();
        cache.begin_round();
        cache.encode_page(0, 1, 0xaa);
        cache.encode_page(1, 1, 0xbb);
        cache.commit_round();
        cache.forget_vm(0);
        assert_eq!(cache.sent_len(), 1, "vm1's base survives");
        assert_eq!(cache.dedup_len(), 0, "dedup conservatively dropped");
        // vm0's page must ship raw again (no stale delta base).
        cache.begin_round();
        assert_eq!(cache.encode_page(0, 1, 0xab).kind(), FrameKind::Raw);
        cache.commit_round();
    }

    #[test]
    fn capped_cache_evicts_lru_and_downgrades_future_dups() {
        let cache = TransferCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.begin_round();
        cache.encode_page(0, 1, 0x01);
        cache.encode_page(0, 2, 0x02);
        cache.commit_round();
        // Touch 0x01 so 0x02 is the LRU entry.
        cache.begin_round();
        assert_eq!(cache.encode_page(0, 3, 0x01).kind(), FrameKind::Dup);
        cache.commit_round();
        // Inserting 0x03 evicts 0x02 (LRU), not 0x01.
        cache.begin_round();
        assert_eq!(cache.encode_page(0, 4, 0x03).kind(), FrameKind::Raw);
        cache.commit_round();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.occupancy, 2);
        cache.begin_round();
        assert_eq!(
            cache.encode_page(0, 5, 0x01).kind(),
            FrameKind::Dup,
            "recently used entry survives"
        );
        // 0x02's digest was evicted: the future reference downgrades to
        // Raw — never an unreconstructable Dup.
        assert_eq!(cache.encode_page(0, 6, 0x02).kind(), FrameKind::Raw);
        cache.commit_round();
        let s = cache.stats();
        assert!(s.dup_lookups >= 6);
        assert_eq!(s.dup_hits, 2);
    }

    #[test]
    fn entries_touched_this_round_are_pinned_against_eviction() {
        // Capacity 1, but a round that references its own insert must not
        // evict it: the Dup frame already encoded would dangle.
        let cache = TransferCache::with_capacity(1);
        cache.begin_round();
        let raw = cache.encode_page(0, 1, 0xaa);
        assert_eq!(raw.kind(), FrameKind::Raw);
        // Same round: new content wants a slot, but 0xaa is pinned — the
        // soft cap lets occupancy overflow instead.
        let raw2 = cache.encode_page(0, 2, 0xbb);
        assert_eq!(raw2.kind(), FrameKind::Raw);
        let dup = cache.encode_page(0, 3, 0xaa);
        assert_eq!(dup.kind(), FrameKind::Dup);
        assert_eq!(cache.apply_frame(&dup, 0), Some(0xaa), "no dangling dup");
        cache.commit_round();
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().occupancy, 2, "soft cap overflowed by one");
        // Next round the cap is enforced again: inserting 0xcc evicts.
        cache.begin_round();
        cache.encode_page(0, 4, 0xcc);
        cache.commit_round();
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn eviction_after_rollback_keeps_cache_consistent() {
        let cache = TransferCache::with_capacity(2);
        cache.begin_round();
        cache.encode_page(0, 1, 0x11);
        cache.encode_page(0, 2, 0x22);
        cache.commit_round();
        // A round that inserts (evicting 0x11) and then rolls back.
        cache.begin_round();
        assert_eq!(cache.encode_page(0, 3, 0x33).kind(), FrameKind::Raw);
        cache.rollback_round();
        // 0x33 never arrived; re-encoding it must not claim a Dup.
        cache.begin_round();
        assert_eq!(cache.encode_page(0, 3, 0x33).kind(), FrameKind::Raw);
        cache.commit_round();
    }

    #[test]
    fn clear_preserves_capacity_and_resets_counters() {
        let cache = TransferCache::with_capacity(3);
        cache.begin_round();
        cache.encode_page(0, 1, 0x9);
        cache.commit_round();
        cache.clear();
        assert_eq!(cache.capacity(), 3);
        let s = cache.stats();
        assert_eq!(
            (s.occupancy, s.evictions, s.dup_hits, s.dup_lookups),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn clones_share_state_for_cross_vm_dedup() {
        let a = TransferCache::new();
        let b = a.clone();
        a.begin_round();
        assert_eq!(a.encode_page(0, 1, 0x7777).kind(), FrameKind::Raw);
        a.commit_round();
        b.begin_round();
        assert_eq!(
            b.encode_page(5, 99, 0x7777).kind(),
            FrameKind::Dup,
            "clone sees content committed through the original"
        );
        b.commit_round();
    }

    /// Drives the same random multi-round, multi-VM workload (with
    /// rollbacks and a tight eviction cap) through the per-page
    /// `encode_page` path and the batched ring path, asserting
    /// frame-for-frame, byte-for-byte, counter-for-counter equality —
    /// the identity the zero-copy engine path rests on.
    #[test]
    fn batch_encode_matches_per_page_path_exactly() {
        let mut rng = SimRng::new(0xba7c);
        for &cap in &[DEFAULT_CACHE_CAPACITY, 5] {
            let legacy = TransferCache::with_capacity(cap);
            let ring_cache = TransferCache::with_capacity(cap);
            let mut ring = FrameRing::new();
            for round in 0..24u64 {
                let vm = (round % 3) as u32;
                let n = 1 + rng.gen_range(40) as usize;
                let gfns: Vec<Gfn> = (0..n).map(|_| Gfn(rng.gen_range(32))).collect();
                let words: Vec<u64> = (0..n)
                    .map(|_| match rng.gen_range(4) {
                        0 => 0,
                        1 => 0x5a5a, // recurring content → dup hits
                        _ => rng.next_u64() | 1,
                    })
                    .collect();
                let digests: Vec<Digest128> = words.iter().map(|&w| digest_words(&[w])).collect();
                let drop_round = rng.gen_range(5) == 0;

                legacy.begin_round();
                let mut legacy_frames = Vec::new();
                let mut legacy_bytes = 0u64;
                for (&g, &w) in gfns.iter().zip(&words) {
                    let f = legacy.encode_page(vm, g.0, w);
                    legacy_bytes += f.wire_bytes();
                    legacy_frames.push(f);
                }

                ring.restart();
                ring.begin();
                ring_cache.begin_round();
                let ring_bytes =
                    ring_cache.encode_batch_into(vm, &gfns, &words, &digests, &mut ring);

                assert_eq!(ring_bytes, legacy_bytes, "round {round} wire accounting");
                assert_eq!(ring.frame_count() as usize, legacy_frames.len());
                for (i, (view, legacy_frame)) in ring.iter().zip(legacy_frames.iter()).enumerate() {
                    assert_eq!(view.gfn, gfns[i].0);
                    assert_eq!(
                        &view.to_frame().unwrap(),
                        legacy_frame,
                        "round {round} frame {i}"
                    );
                    // Apply parity, including deliberately wrong bases.
                    let dst = words[i] ^ u64::from(i as u32);
                    assert_eq!(
                        ring_cache.apply_view(&view, dst),
                        legacy.apply_frame(legacy_frame, dst),
                        "round {round} frame {i} apply"
                    );
                }

                if drop_round {
                    legacy.rollback_round();
                    ring_cache.rollback_round();
                    ring.rollback();
                    assert_eq!(ring.frame_count(), 0, "round batch fully rolled back");
                } else {
                    legacy.commit_round();
                    ring_cache.commit_round();
                    ring.commit();
                }
                let (a, b) = (legacy.stats(), ring_cache.stats());
                assert_eq!(
                    (a.occupancy, a.evictions, a.dup_hits, a.dup_lookups),
                    (b.occupancy, b.evictions, b.dup_hits, b.dup_lookups),
                    "round {round} cache counters"
                );
                assert_eq!(legacy.sent_len(), ring_cache.sent_len());
            }
        }
    }

    /// In-test model of the eviction rule the LRU list replaces: the
    /// victim is found by a linear scan for the minimum `(touched, digest)`
    /// among entries the in-flight round has not touched.
    struct ScanOracle {
        /// digest → (word, touched).
        dedup: HashMap<u128, (u64, u64)>,
        /// (vm, gfn) → delta base, as a plain map.
        bases: HashMap<(u32, u64), u64>,
        journal_dedup: Vec<u128>,
        journal_bases: Vec<((u32, u64), Option<u64>)>,
        capacity: usize,
        tick: u64,
        round_start_tick: u64,
        evictions: u64,
        dup_hits: u64,
        dup_lookups: u64,
    }

    impl ScanOracle {
        fn new(capacity: usize) -> Self {
            ScanOracle {
                dedup: HashMap::new(),
                bases: HashMap::new(),
                journal_dedup: Vec::new(),
                journal_bases: Vec::new(),
                capacity,
                tick: 0,
                round_start_tick: 0,
                evictions: 0,
                dup_hits: 0,
                dup_lookups: 0,
            }
        }

        fn begin_round(&mut self) {
            self.journal_dedup.clear();
            self.journal_bases.clear();
            self.round_start_tick = self.tick + 1;
        }

        fn commit_round(&mut self) {
            self.journal_dedup.clear();
            self.journal_bases.clear();
        }

        fn rollback_round(&mut self) {
            for d in self.journal_dedup.drain(..) {
                self.dedup.remove(&d);
            }
            for (key, prev) in self.journal_bases.drain(..).rev() {
                match prev {
                    Some(v) => self.bases.insert(key, v),
                    None => self.bases.remove(&key),
                };
            }
        }

        fn forget_vm(&mut self, vm: u32) {
            self.bases.retain(|&(tag, _), _| tag != vm);
            self.dedup.clear();
            self.journal_dedup.clear();
            self.journal_bases.retain(|&((tag, _), _)| tag != vm);
        }

        fn clear(&mut self) {
            *self = ScanOracle::new(self.capacity);
        }

        fn encode(&mut self, vm: u32, gfn: u64, word: u64) -> WireFrame {
            let key = (vm, gfn);
            let prev = self.bases.insert(key, word);
            self.journal_bases.push((key, prev));
            if word == 0 {
                return WireFrame::Zero;
            }
            let digest = digest_words(&[word]);
            let d = digest.as_u128();
            self.dup_lookups += 1;
            self.tick += 1;
            if let Some(e) = self.dedup.get_mut(&d) {
                self.dup_hits += 1;
                e.1 = self.tick;
                return WireFrame::Dup { digest };
            }
            let frame = match prev {
                Some(old) if old != word => {
                    let delta = delta_encode(&expand_word(old), &expand_word(word));
                    if (delta.len() as u64) < PAGE_SIZE {
                        WireFrame::Delta { delta }
                    } else {
                        WireFrame::Raw { word }
                    }
                }
                _ => WireFrame::Raw { word },
            };
            if self.dedup.len() >= self.capacity {
                let victim = self
                    .dedup
                    .iter()
                    .filter(|(_, e)| e.1 < self.round_start_tick)
                    .map(|(&k, e)| (e.1, k))
                    .min();
                if let Some((_, k)) = victim {
                    self.dedup.remove(&k);
                    self.evictions += 1;
                }
            }
            self.dedup.insert(d, (word, self.tick));
            self.journal_dedup.push(d);
            frame
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                occupancy: self.dedup.len() as u64,
                capacity: self.capacity as u64,
                evictions: self.evictions,
                dup_hits: self.dup_hits,
                dup_lookups: self.dup_lookups,
            }
        }
    }

    /// Walks the LRU list head → tail: every held entry is visited once,
    /// links agree in both directions, `touched` strictly increases, and
    /// each entry matches the oracle's word and touch tick.
    fn assert_lru_matches(cache: &TransferCache, oracle: &ScanOracle) {
        let c = cache.lock();
        let mut visited = 0;
        if let Some((head, tail)) = c.lru {
            let (mut digest, mut prev, mut last_touched) = (head, head, 0u64);
            loop {
                let e = c.dedup[&digest];
                assert_eq!(e.prev, prev, "back link");
                assert!(e.touched > last_touched, "touched strictly increases");
                assert_eq!(oracle.dedup.get(&digest), Some(&(e.word, e.touched)));
                last_touched = e.touched;
                visited += 1;
                if e.next == digest {
                    assert_eq!(digest, tail, "the walk ends at the tail");
                    break;
                }
                prev = digest;
                digest = e.next;
            }
        }
        assert_eq!(visited, c.dedup.len(), "walk covers the map");
    }

    /// Gfn span of `vm`'s base table (0 when it has none).
    fn span(cache: &TransferCache, vm: u32) -> usize {
        cache
            .lock()
            .bases
            .by_vm
            .get(&vm)
            .map_or(0, |t| t.words.len())
    }

    /// Situations the dense base table must get right, counted so the
    /// oracle test can require that its random walk reaches them.
    #[derive(Default)]
    struct TableCoverage {
        /// Rollbacks of a round that grew an existing table's span.
        grown_rollbacks: u64,
        /// Rollbacks of a round that created a table.
        fresh_rollbacks: u64,
        /// `forget_vm` calls on a VM whose span reaches the sparse gfns.
        grown_forgets: u64,
        /// Non-zero encodes of a base-less gfn inside the span (must not
        /// be mistaken for a zero base).
        absent_in_span: u64,
        /// Non-zero encodes against a zero base.
        zero_base: u64,
    }

    impl TableCoverage {
        /// Classifies one upcoming encode against the oracle's bases.
        fn note(&mut self, oracle: &ScanOracle, span: usize, vm: u32, gfn: u64, word: u64) {
            if word == 0 {
                return;
            }
            match oracle.bases.get(&(vm, gfn)) {
                None if (gfn as usize) < span => self.absent_in_span += 1,
                Some(0) => self.zero_base += 1,
                _ => {}
            }
        }
    }

    /// Random protocol-respecting sequences over every cache operation,
    /// tiny capacities and several VMs: after each step the O(1) LRU
    /// cache must emit the same frames and bytes and report the same
    /// counters as the linear-scan oracle. A quarter of the gfns are
    /// sparse, up to 2^20, so base tables grow mid-round, roll back grown
    /// and are forgotten grown.
    #[test]
    fn lru_list_matches_linear_scan_oracle() {
        let mut rng = SimRng::new(0x1f0_0c1e);
        let mut ring = FrameRing::new();
        // A small word pool (index 0 = the zero page) so hits, deltas and
        // evictions all recur at capacities 1–8.
        let pick_word = |rng: &mut SimRng| rng.gen_range(13).wrapping_mul(0x0101_0101_0101);
        // Dense low gfns plus 64 sparse ones spread up to 2^20, few enough
        // that they recur within a case.
        let pick_gfn = |rng: &mut SimRng| match rng.gen_range(4) {
            0 => (rng.gen_range(16) << 16) | rng.gen_range(4),
            _ => rng.gen_range(16),
        };
        let (mut evictions, mut hits) = (0, 0);
        let mut cover = TableCoverage::default();
        for case in 0..240 {
            let cap = 1 + rng.gen_range(8) as usize;
            let cache = TransferCache::with_capacity(cap);
            let mut oracle = ScanOracle::new(cap);
            let mut in_round = false;
            let mut spans_at_begin = [0; 3];
            let spans = |cache: &TransferCache| [0, 1, 2].map(|vm| span(cache, vm));
            for step in 0..200 {
                let roll = rng.gen_range(100);
                if !in_round && roll < 80 {
                    cache.begin_round();
                    oracle.begin_round();
                    spans_at_begin = spans(&cache);
                    in_round = true;
                } else if roll >= 98 {
                    cache.clear();
                    oracle.clear();
                } else if roll >= 95 || !in_round {
                    let vm = rng.gen_range(3) as u32;
                    if span(&cache, vm) > 1 << 16 {
                        cover.grown_forgets += 1;
                    }
                    cache.forget_vm(vm);
                    oracle.forget_vm(vm);
                } else if roll < 40 {
                    let (vm, gfn, word) = (
                        rng.gen_range(3) as u32,
                        pick_gfn(&mut rng),
                        pick_word(&mut rng),
                    );
                    cover.note(&oracle, span(&cache, vm), vm, gfn, word);
                    assert_eq!(
                        cache.encode_page(vm, gfn, word),
                        oracle.encode(vm, gfn, word),
                        "case {case} step {step}: encode_page"
                    );
                } else if roll < 65 {
                    let vm = rng.gen_range(3) as u32;
                    let n = 1 + rng.gen_range(12) as usize;
                    let gfns: Vec<Gfn> = (0..n).map(|_| Gfn(pick_gfn(&mut rng))).collect();
                    let words: Vec<u64> = (0..n).map(|_| pick_word(&mut rng)).collect();
                    let digests: Vec<Digest128> =
                        words.iter().map(|&w| digest_words(&[w])).collect();
                    let span_before = span(&cache, vm);
                    ring.restart();
                    ring.begin();
                    let bytes = cache.encode_batch_into(vm, &gfns, &words, &digests, &mut ring);
                    let mut oracle_bytes = 0;
                    for (view, (&g, &w)) in ring.iter().zip(gfns.iter().zip(&words)) {
                        cover.note(&oracle, span_before, vm, g.0, w);
                        let want = oracle.encode(vm, g.0, w);
                        oracle_bytes += want.wire_bytes();
                        assert_eq!(view.gfn, g.0);
                        assert_eq!(
                            view.to_frame().as_ref(),
                            Some(&want),
                            "case {case} step {step}: encode_batch_into"
                        );
                    }
                    assert_eq!(ring.frame_count() as usize, n);
                    assert_eq!(bytes, oracle_bytes, "case {case} step {step}: batch bytes");
                    ring.commit();
                } else if roll < 85 {
                    cache.commit_round();
                    oracle.commit_round();
                    in_round = false;
                    if roll < 70 {
                        // Nothing happened since the commit: undoes nothing.
                        cache.rollback_round();
                        oracle.rollback_round();
                    }
                } else {
                    for (now, then) in spans(&cache).iter().zip(&spans_at_begin) {
                        match (now, then) {
                            (1.., 0) => cover.fresh_rollbacks += 1,
                            _ if now > then => cover.grown_rollbacks += 1,
                            _ => {}
                        }
                    }
                    cache.rollback_round();
                    oracle.rollback_round();
                    in_round = false;
                }
                assert_eq!(cache.stats(), oracle.stats(), "case {case} step {step}");
                assert_eq!(cache.dedup_len(), oracle.dedup.len());
                assert_eq!(cache.sent_len(), oracle.bases.len());
                assert_lru_matches(&cache, &oracle);
            }
            evictions += oracle.evictions;
            hits += oracle.dup_hits;
        }
        assert!(
            evictions > 1000 && hits > 1000,
            "{evictions} evictions, {hits} hits"
        );
        let TableCoverage {
            grown_rollbacks,
            fresh_rollbacks,
            grown_forgets,
            absent_in_span,
            zero_base,
        } = cover;
        assert!(
            grown_rollbacks > 500
                && fresh_rollbacks > 500
                && grown_forgets > 500
                && absent_in_span > 10_000
                && zero_base > 500,
            "{grown_rollbacks} grown rollbacks, {fresh_rollbacks} fresh-table rollbacks, \
             {grown_forgets} grown forgets, {absent_in_span} base-less in-span encodes, \
             {zero_base} zero-base encodes"
        );
    }
}
