//! Storage-engine mechanics: pages, the buffer pool and the query cache.
//!
//! The MySQL tier's disk behaviour in the paper (low, bursty read traffic
//! that decays as the run warms up; write traffic proportional to bid
//! activity) is a direct consequence of InnoDB's buffer pool and MySQL's
//! query cache. Both are modelled here at page granularity.

use cloudchar_simcore::IntMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// InnoDB default page size.
pub const PAGE_BYTES: u64 = 16 * 1024;

/// Offset separating index pages from data pages within a table's page
/// space: data pages are numbered from 0, index pages from here.
pub const INDEX_PAGE_BASE: u64 = 1 << 40;

/// Bound on a page's number within its region (data or index), past
/// which a page number is taken for a sparse one rather than the dense
/// numbering the buffer pool's page table assumes: 2^24 pages is a
/// 256 GiB table, and its cells would take 64 MiB.
const MAX_REGION_PAGES: u64 = 1 << 24;

/// Identifies a table within the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TableId {
    /// `users`
    Users,
    /// `items`
    Items,
    /// `bids`
    Bids,
    /// `comments`
    Comments,
    /// `buy_now`
    BuyNow,
    /// `categories`
    Categories,
    /// `regions`
    Regions,
}

impl TableId {
    /// All tables, for iteration.
    pub const ALL: [TableId; 7] = [
        TableId::Users,
        TableId::Items,
        TableId::Bids,
        TableId::Comments,
        TableId::BuyNow,
        TableId::Categories,
        TableId::Regions,
    ];
}

/// A page address: table + page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageRef {
    /// Owning table.
    pub table: TableId,
    /// Page number within the table.
    pub page: u64,
}

/// Map a row's byte offset to its page.
pub fn page_of(row_index: u64, row_bytes: u64) -> u64 {
    row_index * row_bytes / PAGE_BYTES
}

/// Outcome of a buffer-pool access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Page was resident.
    Hit,
    /// Page had to be read from disk (and possibly evicted a clean page).
    Miss,
    /// Page had to be read from disk and the evicted victim was dirty,
    /// forcing a write-back first.
    MissDirtyEvict,
}

/// One buffer-pool frame: a page and its neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageRef,
    prev: u32,
    next: u32,
    /// The last [`BufferPool::read_all`] batch that moved this frame.
    stamp: u32,
    dirty: bool,
}

// The batch stamp rides in the padding the frame already had.
const _: () = assert!(std::mem::size_of::<Frame>() == 32);

/// List sentinel and fresh-slot placeholder; its page is never looked up.
const SENTINEL: Frame = Frame {
    page: PageRef {
        table: TableId::Users,
        page: 0,
    },
    prev: 0,
    next: 0,
    stamp: 0,
    dirty: false,
};

/// A page-granularity exact-LRU buffer pool with dirty-page tracking.
///
/// Frames live in a slot arena threaded by an intrusive circular
/// recency list whose sentinel is slot 0 (`next` is the LRU frame,
/// `prev` the MRU one), plus a page table from page to slot: every
/// operation is O(1) and the victim is the page least recently touched,
/// hit or miss. A newcomer takes its victim's slot, so no free list is
/// needed.
///
/// Page numbers are dense per region: a table's data pages count up
/// from 0 and its index pages from [`INDEX_PAGE_BASE`], each bounded by
/// the table's size. So the page table is two plain arrays per table,
/// one cell per page touched so far, holding its slot or 0 (the
/// sentinel's slot) when it is not resident. An array grows when a page
/// past its end is first touched; a page number at or past
/// `MAX_REGION_PAGES` within its region panics.
#[derive(Debug)]
pub struct BufferPool {
    capacity_pages: usize,
    frames: Vec<Frame>,
    /// Page table: `page_table[2 * table + region]`, where region 0
    /// holds data pages and region 1 index pages.
    page_table: [Vec<u32>; 2 * TableId::ALL.len()],
    resident: usize,
    /// Stamp of the last all-hit [`BufferPool::read_all`] batch.
    stamp: u32,
    hits: u64,
    misses: u64,
    dirty_evictions: u64,
}

impl BufferPool {
    /// Pool holding `capacity_bytes` of pages (min one page).
    pub fn new(capacity_bytes: u64) -> Self {
        let capacity_pages = (capacity_bytes / PAGE_BYTES).max(1) as usize;
        let mut frames = Vec::with_capacity(capacity_pages + 1);
        frames.push(SENTINEL);
        BufferPool {
            capacity_pages,
            frames,
            page_table: Default::default(),
            resident: 0,
            stamp: 0,
            hits: 0,
            misses: 0,
            dirty_evictions: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> u64 {
        self.resident as u64 * PAGE_BYTES
    }

    /// Access a page; `write` marks it dirty. Returns what happened.
    pub fn access(&mut self, page: PageRef, write: bool) -> Access {
        let slot = *self.cell(page);
        if slot != 0 {
            self.hits += 1;
            self.frames[slot as usize].dirty |= write;
            self.unlink(slot);
            self.push_mru(slot);
            return Access::Hit;
        }
        self.misses += 1;
        let mut access = Access::Miss;
        let slot = if self.resident < self.capacity_pages {
            self.resident += 1;
            self.frames.push(SENTINEL);
            self.frames.len() as u32 - 1
        } else {
            let victim = self.frames[0].next;
            self.unlink(victim);
            let evicted = self.frames[victim as usize];
            *self.cell(evicted.page) = 0;
            if evicted.dirty {
                self.dirty_evictions += 1;
                access = Access::MissDirtyEvict;
            }
            victim
        };
        self.frames[slot as usize].page = page;
        self.frames[slot as usize].dirty = write;
        *self.cell(page) = slot;
        self.push_mru(slot);
        access
    }

    /// Read-touch every page of `pages` in order, exactly as
    /// `access(page, false)` on each one in turn would, and pass each
    /// outcome to `each` in that order.
    ///
    /// When every page is resident, every touch is a hit and nothing is
    /// evicted, so the final recency order is the untouched pages
    /// followed by the touched ones in order of their last touch. That
    /// order is then made directly: `hits` grows by the list's length
    /// and each distinct page moves to the MRU end once, found by one
    /// backward pass that stamps the frames it has moved. Otherwise the
    /// list goes through [`BufferPool::access`] touch by touch.
    pub fn read_all(&mut self, pages: &[PageRef], mut each: impl FnMut(Access)) {
        if !pages.iter().all(|&page| self.slot_of(page) != 0) {
            for &page in pages {
                each(self.access(page, false));
            }
            return;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.restamp();
        }
        self.hits += pages.len() as u64;
        // Each newly met page goes just before the one met before it,
        // so the page touched last ends at the MRU end.
        let mut before = 0;
        for &page in pages.iter().rev() {
            let slot = self.slot_of(page);
            let frame = &mut self.frames[slot as usize];
            if frame.stamp == self.stamp {
                continue;
            }
            frame.stamp = self.stamp;
            self.unlink(slot);
            self.link_before(slot, before);
            before = slot;
        }
        for _ in pages {
            each(Access::Hit);
        }
    }

    /// Clear every frame's stamp once the batch stamp wraps, so no frame
    /// carries a stamp from 2^32 batches ago.
    #[cold]
    fn restamp(&mut self) {
        for frame in &mut self.frames {
            frame.stamp = 0;
        }
        self.stamp = 1;
    }

    /// The slot holding `page`, or 0 when it is not resident. Changes
    /// nothing.
    fn slot_of(&self, page: PageRef) -> u32 {
        let index = page.page >= INDEX_PAGE_BASE;
        let n = page.page - if index { INDEX_PAGE_BASE } else { 0 };
        let cells = &self.page_table[2 * page.table as usize + usize::from(index)];
        usize::try_from(n)
            .ok()
            .and_then(|n| cells.get(n))
            .copied()
            .unwrap_or(0)
    }

    /// `page`'s page-table cell, its array grown to reach it on first
    /// touch.
    fn cell(&mut self, page: PageRef) -> &mut u32 {
        let index = page.page >= INDEX_PAGE_BASE;
        let n = page.page - if index { INDEX_PAGE_BASE } else { 0 };
        assert!(
            n < MAX_REGION_PAGES,
            "page {} of {:?} is not densely numbered",
            page.page,
            page.table
        );
        let cells = &mut self.page_table[2 * page.table as usize + usize::from(index)];
        let n = n as usize;
        if n >= cells.len() {
            grow(cells, n);
        }
        &mut cells[n]
    }

    /// Hit ratio so far (0 when no accesses).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// (hits, misses, dirty evictions)
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.dirty_evictions)
    }

    /// Resident pages from least to most recently used.
    pub fn recency(&self) -> impl Iterator<Item = PageRef> + '_ {
        let mut slot = self.frames[0].next;
        std::iter::from_fn(move || {
            let frame = self.frames.get(slot as usize).filter(|_| slot != 0)?;
            slot = frame.next;
            Some(frame.page)
        })
    }

    fn unlink(&mut self, slot: u32) {
        let Frame { prev, next, .. } = self.frames[slot as usize];
        self.frames[prev as usize].next = next;
        self.frames[next as usize].prev = prev;
    }

    fn push_mru(&mut self, slot: u32) {
        self.link_before(slot, 0);
    }

    /// Link the unlinked `slot` just before `at` in recency order (at
    /// the MRU end when `at` is the sentinel).
    fn link_before(&mut self, slot: u32, at: u32) {
        let prev = self.frames[at as usize].prev;
        self.frames[slot as usize].prev = prev;
        self.frames[slot as usize].next = at;
        self.frames[prev as usize].next = slot;
        self.frames[at as usize].prev = slot;
    }
}

/// Extend a page-table array with empty cells through index `n`.
#[cold]
fn grow(cells: &mut Vec<u32>, n: usize) {
    cells.resize(n + 1, 0);
}

/// A cached SELECT result.
#[derive(Debug)]
struct CachedResult {
    bytes: u64,
    /// Insertion sequence number, the key in `QueryCache::order`.
    seq: u64,
    tables: &'static [TableId],
    /// Sum of `tables`' versions at insert. Versions only grow, so the
    /// sum is unchanged exactly when every one of them is.
    stamp: u64,
}

/// A MySQL-style query cache: SELECT results keyed by query identity,
/// invalidated wholesale per table on any write to that table. When
/// full, it evicts in insertion (FIFO) order.
#[derive(Debug)]
pub struct QueryCache {
    capacity_bytes: u64,
    used_bytes: u64,
    entries: IntMap<u64, CachedResult>,
    /// Insertion sequence number → key, oldest first.
    order: BTreeMap<u64, u64>,
    /// Invalidation count per table, indexed by `TableId as usize`.
    versions: [u64; TableId::ALL.len()],
    hits: u64,
    misses: u64,
}

impl QueryCache {
    /// A cache bounded at `capacity_bytes` of result data.
    pub fn new(capacity_bytes: u64) -> Self {
        QueryCache {
            capacity_bytes,
            used_bytes: 0,
            entries: IntMap::default(),
            order: BTreeMap::new(),
            versions: [0; TableId::ALL.len()],
            hits: 0,
            misses: 0,
        }
    }

    fn stamp(&self, tables: &[TableId]) -> u64 {
        tables.iter().map(|&t| self.versions[t as usize]).sum()
    }

    fn remove(&mut self, key: u64) {
        if let Some(old) = self.entries.remove(&key) {
            self.order.remove(&old.seq);
            self.used_bytes -= old.bytes;
        }
    }

    /// Look up a SELECT by key; returns the cached result size if fresh.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        let fresh = self
            .entries
            .get(&key)
            .filter(|e| self.stamp(e.tables) == e.stamp)
            .map(|e| e.bytes);
        if fresh.is_some() {
            self.hits += 1;
        } else {
            self.remove(key);
            self.misses += 1;
        }
        fresh
    }

    /// Insert a SELECT result of `bytes` depending on `tables`, evicting
    /// the oldest entries until it fits.
    pub fn insert(&mut self, key: u64, bytes: u64, tables: &'static [TableId]) {
        if bytes > self.capacity_bytes {
            return;
        }
        self.remove(key);
        while self.used_bytes + bytes > self.capacity_bytes {
            let Some((_, &oldest)) = self.order.first_key_value() else {
                break;
            };
            self.remove(oldest);
        }
        let seq = self.order.last_key_value().map_or(0, |(&last, _)| last + 1);
        self.order.insert(seq, key);
        self.entries.insert(
            key,
            CachedResult {
                bytes,
                seq,
                tables,
                stamp: self.stamp(tables),
            },
        );
        self.used_bytes += bytes;
    }

    /// Invalidate every cached result that touched `table`.
    pub fn invalidate(&mut self, table: TableId) {
        self.versions[table as usize] += 1;
    }

    /// Bytes of cached results (for memory accounting).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// (hits, misses)
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pref(page: u64) -> PageRef {
        PageRef {
            table: TableId::Items,
            page,
        }
    }

    #[test]
    fn page_math() {
        assert_eq!(page_of(0, 160), 0);
        assert_eq!(page_of(102, 160), 0); // 102*160 = 16320 < 16384
        assert_eq!(page_of(103, 160), 1);
    }

    #[test]
    fn pool_hit_after_miss() {
        let mut bp = BufferPool::new(10 * PAGE_BYTES);
        assert_eq!(bp.access(pref(1), false), Access::Miss);
        assert_eq!(bp.access(pref(1), false), Access::Hit);
        assert_eq!(bp.stats(), (1, 1, 0));
        assert_eq!(bp.resident_pages(), 1);
        assert!((bp.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pool_evicts_lru() {
        let mut bp = BufferPool::new(2 * PAGE_BYTES);
        bp.access(pref(1), false);
        bp.access(pref(2), false);
        bp.access(pref(1), false); // 1 is now MRU
        bp.access(pref(3), false); // evicts 2
        assert_eq!(bp.resident_pages(), 2);
        assert_eq!(bp.access(pref(1), false), Access::Hit);
        assert_eq!(bp.access(pref(2), false), Access::Miss);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut bp = BufferPool::new(PAGE_BYTES); // 1 page
        bp.access(pref(1), true); // dirty
        let a = bp.access(pref(2), false); // evicts dirty 1
        assert_eq!(a, Access::MissDirtyEvict);
        assert_eq!(bp.stats().2, 1);
    }

    #[test]
    fn dirty_evicted_page_misses_again_with_its_cell_cleared() {
        let mut bp = BufferPool::new(PAGE_BYTES); // 1 page
        let index = PageRef {
            table: TableId::Bids,
            page: INDEX_PAGE_BASE + 7,
        };
        bp.access(index, true); // dirty
        assert_eq!(bp.page_table[2 * TableId::Bids as usize + 1][7], 1);
        assert_eq!(bp.access(pref(2), false), Access::MissDirtyEvict);
        assert_eq!(bp.page_table[2 * TableId::Bids as usize + 1][7], 0);
        assert_eq!(bp.page_table[2 * TableId::Items as usize][2], 1);
        // Back again: a miss, and the clean page it evicts costs no write.
        assert_eq!(bp.access(index, false), Access::Miss);
        assert_eq!(bp.page_table[2 * TableId::Items as usize][2], 0);
        assert_eq!(bp.access(index, false), Access::Hit);
        assert_eq!(bp.stats(), (1, 3, 1));
        assert_eq!(bp.resident_pages(), 1);
    }

    /// `pages` read-touched once by `read_all` and once touch by touch
    /// on a pool of `pages`' own history: the outcomes, counters and
    /// recency orders must agree.
    fn assert_batch_matches_touches(
        batched: &mut BufferPool,
        touched: &mut BufferPool,
        pages: &[u64],
    ) {
        let pages: Vec<PageRef> = pages.iter().map(|&p| pref(p)).collect();
        let mut got = Vec::new();
        batched.read_all(&pages, |a| got.push(a));
        let want: Vec<Access> = pages.iter().map(|&p| touched.access(p, false)).collect();
        assert_eq!(got, want);
        assert_eq!(batched.stats(), touched.stats());
        assert!(batched.recency().eq(touched.recency()));
    }

    #[test]
    fn batch_moves_pages_in_last_touch_order() {
        let mut batched = BufferPool::new(8 * PAGE_BYTES);
        let mut touched = BufferPool::new(8 * PAGE_BYTES);
        // Cold: the first list misses and goes touch by touch.
        assert_batch_matches_touches(&mut batched, &mut touched, &[1, 2, 3, 4, 5]);
        // Warm: all hits, so 3 then 1 then 2 end at the MRU end.
        assert_batch_matches_touches(&mut batched, &mut touched, &[2, 1, 2, 3, 1, 2]);
        let order: Vec<u64> = batched.recency().map(|p| p.page).collect();
        assert_eq!(order, [4, 5, 3, 1, 2]);
        assert_eq!(batched.stats(), (6, 5, 0));
    }

    #[test]
    fn batch_stamp_wraps_without_stale_matches() {
        let mut batched = BufferPool::new(8 * PAGE_BYTES);
        let mut touched = BufferPool::new(8 * PAGE_BYTES);
        assert_batch_matches_touches(&mut batched, &mut touched, &[1, 2, 3]);
        // Page 1 carries stamp 1 from this batch ...
        batched.stamp = 0;
        assert_batch_matches_touches(&mut batched, &mut touched, &[1]);
        assert_eq!(batched.frames[batched.slot_of(pref(1)) as usize].stamp, 1);
        // ... and the stamp then wraps to 1 again: page 1 must still move
        // (as must fresh pages, stamped 0, had the stamp wrapped to 0).
        batched.stamp = u32::MAX;
        assert_batch_matches_touches(&mut batched, &mut touched, &[2, 1, 3]);
        assert_eq!(batched.stamp, 1);
        let order: Vec<u64> = batched.recency().map(|p| p.page).collect();
        assert_eq!(order, [2, 1, 3]);
        assert_batch_matches_touches(&mut batched, &mut touched, &[3, 2]);
        assert_eq!(batched.stamp, 2);
    }

    #[test]
    #[should_panic(expected = "not densely numbered")]
    fn sparse_page_number_is_refused() {
        BufferPool::new(PAGE_BYTES).access(pref(MAX_REGION_PAGES), false);
    }

    #[test]
    fn pool_capacity_respected_under_churn() {
        let mut bp = BufferPool::new(8 * PAGE_BYTES);
        for i in 0..10_000u64 {
            // Hot set of 4 pages interleaved with a cold scan of 50.
            let page = if i % 2 == 0 { i % 4 } else { 100 + i % 50 };
            bp.access(pref(page), i % 3 == 0);
            assert!(bp.resident_pages() <= 8);
        }
        let (h, m, _) = bp.stats();
        assert_eq!(h + m, 10_000);
        assert!(h > 0 && m > 0, "hits {h} misses {m}");
    }

    #[test]
    fn query_cache_roundtrip_and_invalidation() {
        let mut qc = QueryCache::new(1 << 20);
        assert_eq!(qc.lookup(42), None);
        qc.insert(42, 1000, &[TableId::Items]);
        assert_eq!(qc.lookup(42), Some(1000));
        qc.invalidate(TableId::Items);
        assert_eq!(qc.lookup(42), None);
        assert_eq!(qc.stats(), (1, 2));
    }

    #[test]
    fn query_cache_invalidation_is_per_table() {
        let mut qc = QueryCache::new(1 << 20);
        qc.insert(1, 100, &[TableId::Items]);
        qc.insert(2, 200, &[TableId::Users]);
        qc.invalidate(TableId::Items);
        assert_eq!(qc.lookup(1), None);
        assert_eq!(qc.lookup(2), Some(200));
    }

    #[test]
    fn query_cache_respects_capacity() {
        let items = &[TableId::Items];
        let mut qc = QueryCache::new(1000);
        for key in 1..=3 {
            qc.insert(key, 300, items);
        }
        // A hit does not refresh an entry's place in the FIFO queue.
        assert_eq!(qc.lookup(1), Some(300));
        qc.insert(4, 300, items); // evicts 1, the oldest
        assert_eq!(qc.lookup(1), None);
        assert_eq!(qc.lookup(2), Some(300));
        qc.insert(5, 600, items); // evicts 2 and 3
        assert_eq!(qc.lookup(2), None);
        assert_eq!(qc.lookup(3), None);
        assert_eq!(qc.lookup(4), Some(300));
        assert_eq!(qc.lookup(5), Some(600));
        assert_eq!(qc.used_bytes(), 900);
        // Oversized entries are refused outright.
        qc.insert(6, 5000, items);
        assert_eq!(qc.used_bytes(), 900);
        assert_eq!(qc.lookup(6), None);
    }

    #[test]
    fn stale_entry_cleanup_on_lookup() {
        let mut qc = QueryCache::new(1 << 20);
        qc.insert(9, 300, &[TableId::Bids]);
        qc.invalidate(TableId::Bids);
        assert_eq!(qc.lookup(9), None);
        // The stale bytes were reclaimed.
        assert_eq!(qc.used_bytes(), 0);
    }
}
