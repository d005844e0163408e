//! Property-based tests for the RUBiS application model.

use cloudchar_rubis::db::{Database, MySqlConfig, MySqlServer, Query};
use cloudchar_rubis::schema::{DbScale, ItemId, RegionId, UserId};
use cloudchar_rubis::storage::{
    Access, BufferPool, PageRef, QueryCache, TableId, INDEX_PAGE_BASE, PAGE_BYTES,
};
use cloudchar_rubis::transition::{Mix, NextAction, TransitionTable};
use cloudchar_rubis::ClientPopulation;
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::SimRng;
use proptest::prelude::*;

fn arbitrary_query(seed: (u8, u32, u32, u16)) -> Query {
    let (kind, a, b, c) = seed;
    match kind % 14 {
        0 => Query::SelectCategories,
        1 => Query::SelectRegions,
        2 => Query::SearchItemsByCategory {
            category: cloudchar_rubis::schema::CategoryId(c % 5),
            page: b % 6,
        },
        3 => Query::SearchItemsByRegion {
            category: cloudchar_rubis::schema::CategoryId(c % 5),
            region: RegionId(c % 4),
            page: b % 4,
        },
        4 => Query::GetItem { item: ItemId(a) },
        5 => Query::GetUserInfo { user: UserId(a) },
        6 => Query::GetBidHistory { item: ItemId(a) },
        7 => Query::GetMaxBid { item: ItemId(a) },
        8 => Query::AuthUser { user: UserId(a) },
        9 => Query::AboutMe { user: UserId(a) },
        10 => Query::RegisterUser {
            region: RegionId(c % 4),
        },
        11 => Query::StoreBid {
            user: UserId(a),
            item: ItemId(b),
            increment: i64::from(c % 500) + 1,
        },
        12 => Query::StoreComment {
            from: UserId(a),
            to: UserId(b),
            item: ItemId(a ^ b),
        },
        _ => Query::StoreBuyNow {
            buyer: UserId(a),
            item: ItemId(b),
        },
    }
}

/// Reference exact LRU: a vector ordered least to most recently
/// touched, with linear search. Slow and obviously right.
struct ReferenceLru {
    capacity: usize,
    pages: Vec<(PageRef, bool)>,
    stats: (u64, u64, u64),
}

impl ReferenceLru {
    fn new(capacity: usize) -> Self {
        ReferenceLru {
            capacity,
            pages: Vec::new(),
            stats: (0, 0, 0),
        }
    }

    fn access(&mut self, page: PageRef, write: bool) -> Access {
        if let Some(i) = self.pages.iter().position(|&(p, _)| p == page) {
            let (_, dirty) = self.pages.remove(i);
            self.pages.push((page, dirty || write));
            self.stats.0 += 1;
            return Access::Hit;
        }
        self.stats.1 += 1;
        self.pages.push((page, write));
        if self.pages.len() > self.capacity && self.pages.remove(0).1 {
            self.stats.2 += 1;
            return Access::MissDirtyEvict;
        }
        Access::Miss
    }
}

/// One query's read touches shaped like a region search: the items
/// index root and one of three index leaves, then an item page and its
/// seller's user page per row examined, drawn from `universe` hot pages
/// so a list of up to 900 touches repeats most of them. Every list
/// draws from the bottom of the same page ranges, so later lists find
/// earlier pages resident and take the all-hit path.
fn region_search_touches(len: usize, universe: u64, seed: u64) -> Vec<PageRef> {
    let mut rng = SimRng::new(seed);
    let index = |page| PageRef {
        table: TableId::Items,
        page: INDEX_PAGE_BASE + page,
    };
    let mut pages = vec![index(0), index(1 + seed % 3)];
    while pages.len() < len {
        pages.push(PageRef {
            table: TableId::Items,
            page: rng.below(universe),
        });
        pages.push(PageRef {
            table: TableId::Users,
            page: rng.below(universe / 2 + 1),
        });
    }
    pages.truncate(len);
    pages
}

proptest! {
    /// A query's whole read-touch list through `read_all` does exactly
    /// what the reference LRU does touch by touch: the same `Access` on
    /// every touch in order (and so the same I/O), the same counters
    /// and the same recency order after every query. Capacities of
    /// 1–64 pages let lists with misses take the per-touch fallback,
    /// and dirty writes between queries make some of those misses
    /// write a victim back.
    #[test]
    fn buffer_pool_batches_match_reference_lru(
        queries in proptest::collection::vec((1usize..901, 1u64..41, any::<u64>(), 0u64..4), 1..9),
        cap_pages in 1u64..65,
    ) {
        let mut bp = BufferPool::new(cap_pages * PAGE_BYTES);
        let mut reference = ReferenceLru::new(cap_pages as usize);
        for &(len, universe, seed, writes) in &queries {
            let pages = region_search_touches(len, universe, seed);
            let mut got = Vec::with_capacity(len);
            bp.read_all(&pages, |access| got.push(access));
            let want: Vec<Access> = pages.iter().map(|&p| reference.access(p, false)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(bp.stats(), reference.stats);
            prop_assert!(bp.recency().eq(reference.pages.iter().map(|&(p, _)| p)));
            for &page in pages.iter().take(writes as usize) {
                prop_assert_eq!(bp.access(page, true), reference.access(page, true));
            }
        }
    }

    /// The O(1) pool evicts exactly as the reference LRU does: the same
    /// outcome on every access, the same counters and residency. Pages
    /// come from all seven tables: data pages hot below 32 or sparse up
    /// to 4,000, so the page table grows mid-run, and index pages across
    /// `INDEX_PAGE_BASE..=INDEX_PAGE_BASE + 512`, the range a B-tree
    /// descent touches.
    #[test]
    fn buffer_pool_matches_reference_lru(
        accesses in proptest::collection::vec((0usize..7, 0u8..3, 0u64..4_000, any::<bool>()), 1..600),
        cap_pages in 1u64..65,
    ) {
        let mut bp = BufferPool::new(cap_pages * PAGE_BYTES);
        let mut reference = ReferenceLru::new(cap_pages as usize);
        for &(t, kind, page, write) in &accesses {
            let page = PageRef {
                table: TableId::ALL[t],
                page: match kind {
                    0 => page % 32,
                    1 => page,
                    _ => INDEX_PAGE_BASE + page % 513,
                },
            };
            prop_assert_eq!(bp.access(page, write), reference.access(page, write));
            prop_assert_eq!(bp.stats(), reference.stats);
            prop_assert_eq!(bp.resident_pages(), reference.pages.len());
        }
    }

    /// Buffer pool never exceeds capacity and accounts every access.
    #[test]
    fn buffer_pool_invariants(
        accesses in proptest::collection::vec((0u64..64, any::<bool>()), 1..500),
        cap_pages in 1u64..16,
    ) {
        let mut bp = BufferPool::new(cap_pages * PAGE_BYTES);
        for &(page, write) in &accesses {
            bp.access(PageRef { table: TableId::Items, page }, write);
            prop_assert!(bp.resident_pages() <= cap_pages as usize);
        }
        let (h, m, d) = bp.stats();
        prop_assert_eq!(h + m, accesses.len() as u64);
        prop_assert!(d <= m);
        prop_assert!(bp.hit_ratio() >= 0.0 && bp.hit_ratio() <= 1.0);
        prop_assert_eq!(bp.resident_bytes(), bp.resident_pages() as u64 * PAGE_BYTES);
    }

    /// A resident page must hit on an immediate re-access.
    #[test]
    fn buffer_pool_immediate_reaccess_hits(
        pages in proptest::collection::vec(0u64..32, 1..100),
    ) {
        let mut bp = BufferPool::new(8 * PAGE_BYTES);
        for &page in &pages {
            let p = PageRef { table: TableId::Bids, page };
            bp.access(p, false);
            let second = bp.access(p, false);
            prop_assert_eq!(second, Access::Hit);
        }
    }

    /// Query-cache bytes never exceed capacity; invalidation always
    /// clears affected entries.
    #[test]
    fn query_cache_invariants(
        ops in proptest::collection::vec((0u64..40, 1u64..5_000, any::<bool>()), 1..300),
        cap in 1_000u64..100_000,
    ) {
        let mut qc = QueryCache::new(cap);
        for &(key, bytes, invalidate) in &ops {
            if invalidate {
                qc.invalidate(TableId::Items);
                prop_assert_eq!(qc.lookup(key), None);
            } else {
                qc.insert(key, bytes, &[TableId::Items]);
                if bytes <= cap {
                    prop_assert_eq!(qc.lookup(key), Some(bytes));
                }
            }
            prop_assert!(qc.used_bytes() <= cap);
        }
    }

    /// Database invariants hold under arbitrary query sequences: bid
    /// counters match, quantities never underflow, cardinalities only
    /// grow.
    #[test]
    fn database_invariants_under_query_storm(
        queries in proptest::collection::vec(any::<(u8, u32, u32, u16)>(), 1..150),
    ) {
        let mut rng = SimRng::new(9);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut server = MySqlServer::new(db, MySqlConfig::default());
        let before = server.db.cardinalities();
        let mut writes = 0u64;
        for (i, seed) in queries.iter().enumerate() {
            let q = arbitrary_query(*seed);
            if q.is_write() {
                writes += 1;
            }
            let work = server.execute(q, i as u32);
            prop_assert!(work.cpu_cycles > 0.0);
            prop_assert!(work.response_bytes > 0 || q.is_write());
        }
        let after = server.db.cardinalities();
        for (b, a) in before.iter().zip(after.iter()) {
            prop_assert!(a >= b, "cardinality shrank: {b} -> {a}");
        }
        prop_assert_eq!(server.queries_executed(), queries.len() as u64);
        // Bid-count consistency: nb_bids sums to the bids table size.
        let total_rows_grown: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
        prop_assert!(total_rows_grown <= 2 * writes, "rows {total_rows_grown} writes {writes}");
    }

    /// The browsing table cannot reach a write state from any state in
    /// any number of steps.
    #[test]
    fn browsing_never_writes(seed in any::<u64>(), steps in 1usize..2_000) {
        let table = TransitionTable::browsing();
        let mut rng = SimRng::new(seed);
        let mut current = TransitionTable::entry();
        let mut history = vec![current];
        for _ in 0..steps {
            prop_assert!(!current.is_write(), "write state {current:?} reached");
            match table.next(current, &mut rng) {
                NextAction::Goto(next) => {
                    history.push(next);
                    current = next;
                }
                NextAction::Back => {
                    history.pop();
                    current = *history.last().unwrap_or(&TransitionTable::entry());
                }
                NextAction::End => {
                    current = TransitionTable::entry();
                    history = vec![current];
                }
            }
        }
    }

    /// Client populations keep sessions valid under arbitrary advance
    /// sequences, and think times stay positive and bounded.
    #[test]
    fn client_population_robust(
        seed in any::<u64>(),
        n in 1u32..50,
        advances in proptest::collection::vec(any::<u32>(), 1..300),
    ) {
        let mut rng = SimRng::new(seed);
        let mut pop = ClientPopulation::new(n, WorkloadMix::percent_browsing(50), &mut rng);
        for &a in &advances {
            let id = a % n;
            let next = pop.advance(id, &mut rng);
            prop_assert!(cloudchar_rubis::Interaction::ALL.contains(&next));
            let think = pop.think_time(id, &mut rng).as_secs_f64();
            prop_assert!((0.0..=120.0).contains(&think));
        }
    }

    /// Both mixes' transition rows stay valid distributions — guards
    /// against future matrix edits breaking normalization.
    #[test]
    fn transition_tables_always_validate(_x in 0u8..1) {
        for mix in [Mix::Browsing, Mix::Bidding] {
            prop_assert!(TransitionTable::for_mix(mix).validate().is_ok());
        }
    }
}
