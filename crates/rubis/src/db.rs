//! The embedded relational engine behind the MySQL tier.
//!
//! [`Database`] stores the RUBiS tables with secondary indexes and
//! executes the structured query set the benchmark's PHP scripts issue.
//! Execution returns the *physical footprint* of the query — pages read
//! and written, CPU cycles, result bytes — which [`MySqlServer`] passes
//! through the buffer pool and query cache to produce actual disk I/O,
//! exactly the causal chain that shapes the paper's MySQL-tier panels.

use crate::schema::{
    generate, Bid, BuyNow, CategoryId, Comment, DbScale, Item, ItemId, RegionId, User, UserId,
};
use crate::storage::{
    page_of, Access, BufferPool, PageRef, QueryCache, TableId, INDEX_PAGE_BASE, PAGE_BYTES,
};
use cloudchar_hw::{IoKind, IoRequest};
use cloudchar_simcore::{IntMap, SimRng};
use serde::{Deserialize, Serialize};

/// Items shown per search result page (RUBiS default).
pub const ITEMS_PER_PAGE: usize = 20;

/// The structured query set issued by the RUBiS PHP scripts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// `SELECT * FROM categories`
    SelectCategories,
    /// `SELECT * FROM regions`
    SelectRegions,
    /// Items in a category, paginated.
    SearchItemsByCategory {
        /// Category browsed.
        category: CategoryId,
        /// Result page number.
        page: u32,
    },
    /// Items in a category restricted to sellers of a region.
    SearchItemsByRegion {
        /// Category browsed.
        category: CategoryId,
        /// Sellers' region.
        region: RegionId,
        /// Result page number.
        page: u32,
    },
    /// One item plus its seller's summary.
    GetItem {
        /// Item viewed.
        item: ItemId,
    },
    /// A user's profile plus the comments about them.
    GetUserInfo {
        /// Profile owner.
        user: UserId,
    },
    /// Full bid history of an item with bidder names.
    GetBidHistory {
        /// Item.
        item: ItemId,
    },
    /// Current max bid of an item (PutBid form).
    GetMaxBid {
        /// Item.
        item: ItemId,
    },
    /// Login check.
    AuthUser {
        /// User logging in.
        user: UserId,
    },
    /// Everything about me: my bids, items, buy-nows, comments.
    AboutMe {
        /// The authenticated user.
        user: UserId,
    },
    /// Register a new user in a region.
    RegisterUser {
        /// Home region.
        region: RegionId,
    },
    /// Record a bid (reads item, inserts bid, updates item counters).
    StoreBid {
        /// Bidder.
        user: UserId,
        /// Item.
        item: ItemId,
        /// Increment over current max, cents.
        increment: i64,
    },
    /// Record a comment and update the recipient's rating.
    StoreComment {
        /// Author.
        from: UserId,
        /// Recipient.
        to: UserId,
        /// Item concerned.
        item: ItemId,
    },
    /// Record a buy-now purchase (updates item quantity).
    StoreBuyNow {
        /// Buyer.
        buyer: UserId,
        /// Item.
        item: ItemId,
    },
}

impl Query {
    /// Whether the query modifies data.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Query::RegisterUser { .. }
                | Query::StoreBid { .. }
                | Query::StoreComment { .. }
                | Query::StoreBuyNow { .. }
        )
    }

    /// A stable cache key for SELECTs (writes return `None`).
    ///
    /// Search pages and AboutMe are **not cacheable**: the real RUBiS
    /// SQL filters on `end_date > NOW()`, and MySQL's query cache
    /// refuses statements with non-deterministic functions.
    pub fn cache_key(&self) -> Option<u64> {
        if self.is_write() {
            return None;
        }
        if matches!(
            self,
            Query::SearchItemsByCategory { .. }
                | Query::SearchItemsByRegion { .. }
                | Query::AboutMe { .. }
        ) {
            return None;
        }
        // Cheap structural hash; collision risk is irrelevant for a
        // cache model.
        let (tag, a, b, c): (u64, u64, u64, u64) = match *self {
            Query::SelectCategories => (1, 0, 0, 0),
            Query::SelectRegions => (2, 0, 0, 0),
            Query::SearchItemsByCategory { category, page } => {
                (3, u64::from(category.0), u64::from(page), 0)
            }
            Query::SearchItemsByRegion {
                category,
                region,
                page,
            } => (
                4,
                u64::from(category.0),
                u64::from(region.0),
                u64::from(page),
            ),
            Query::GetItem { item } => (5, u64::from(item.0), 0, 0),
            Query::GetUserInfo { user } => (6, u64::from(user.0), 0, 0),
            Query::GetBidHistory { item } => (7, u64::from(item.0), 0, 0),
            Query::GetMaxBid { item } => (8, u64::from(item.0), 0, 0),
            Query::AuthUser { user } => (9, u64::from(user.0), 0, 0),
            Query::AboutMe { user } => (10, u64::from(user.0), 0, 0),
            _ => unreachable!("writes handled above"),
        };
        let mut h = tag;
        for v in [a, b, c] {
            h = h
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(13)
                .wrapping_add(v);
        }
        Some(h)
    }
}

/// Physical footprint of one executed query.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Rows produced/affected.
    pub rows: u64,
    /// Result set size in bytes (wire format).
    pub result_bytes: u64,
    /// CPU cycles of executor work.
    pub cpu_cycles: f64,
    /// Data/index pages read (logical; buffer pool decides disk I/O).
    pub pages: Vec<PageRef>,
    /// Pages dirtied by the query.
    pub dirty_pages: Vec<PageRef>,
    /// Tables the query depends on (for query-cache invalidation).
    pub tables: &'static [TableId],
}

/// Average row footprints used for page math (bytes).
fn row_bytes(table: TableId) -> u64 {
    match table {
        TableId::Users => User::ROW_BYTES,
        TableId::Items => 480,
        TableId::Bids => Bid::ROW_BYTES,
        TableId::Comments => 360,
        TableId::BuyNow => BuyNow::ROW_BYTES,
        TableId::Categories | TableId::Regions => 64,
    }
}

/// Cost-model constants (cycles). Derived so the MySQL tier lands in the
/// paper's reported range at 1000 clients.
mod cost {
    /// Parse + plan + protocol per query.
    pub const BASE: f64 = 65_000.0;
    /// Per row examined.
    pub const PER_ROW: f64 = 2_200.0;
    /// Per logical page touched.
    pub const PER_PAGE: f64 = 1_100.0;
    /// Extra for writes (row locking, undo, change buffering).
    pub const WRITE_EXTRA: f64 = 50_000.0;
}

/// The in-memory RUBiS database with secondary indexes.
pub struct Database {
    scale: DbScale,
    users: Vec<User>,
    items: Vec<Item>,
    bids: Vec<Bid>,
    comments: Vec<Comment>,
    buy_nows: Vec<BuyNow>,
    items_by_category: Vec<Vec<ItemId>>,
    bids_by_item: IntMap<ItemId, Vec<u32>>,
    comments_by_to: IntMap<UserId, Vec<u32>>,
    items_by_seller: IntMap<UserId, Vec<ItemId>>,
    bids_by_user: IntMap<UserId, Vec<u32>>,
    buy_nows_by_buyer: IntMap<UserId, Vec<u32>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("users", &self.users.len())
            .field("items", &self.items.len())
            .field("bids", &self.bids.len())
            .field("comments", &self.comments.len())
            .field("buy_nows", &self.buy_nows.len())
            .finish()
    }
}

impl Database {
    /// Generate and index a population.
    pub fn generate(scale: DbScale, rng: &mut SimRng) -> Self {
        let (users, items, bids, comments) = generate(scale, rng);
        let mut db = Database {
            scale,
            users,
            items,
            bids: Vec::new(),
            comments: Vec::new(),
            buy_nows: Vec::new(),
            items_by_category: vec![Vec::new(); usize::from(scale.categories)],
            bids_by_item: IntMap::default(),
            comments_by_to: IntMap::default(),
            items_by_seller: IntMap::default(),
            bids_by_user: IntMap::default(),
            buy_nows_by_buyer: IntMap::default(),
        };
        for item in &db.items {
            db.items_by_category[usize::from(item.category.0)].push(item.id);
            db.items_by_seller
                .entry(item.seller)
                .or_default()
                .push(item.id);
        }
        for bid in bids {
            db.index_bid(bid);
        }
        for comment in comments {
            db.index_comment(comment);
        }
        db
    }

    fn index_bid(&mut self, bid: Bid) {
        let idx = self.bids.len() as u32;
        self.bids_by_item.entry(bid.item).or_default().push(idx);
        self.bids_by_user.entry(bid.user).or_default().push(idx);
        self.bids.push(bid);
    }

    fn index_comment(&mut self, comment: Comment) {
        let idx = self.comments.len() as u32;
        self.comments_by_to.entry(comment.to).or_default().push(idx);
        self.comments.push(comment);
    }

    /// Population scale.
    pub fn scale(&self) -> DbScale {
        self.scale
    }

    /// Current table cardinalities, in [`TableId::ALL`] order.
    pub fn cardinalities(&self) -> [u64; 7] {
        [
            self.users.len() as u64,
            self.items.len() as u64,
            self.bids.len() as u64,
            self.comments.len() as u64,
            self.buy_nows.len() as u64,
            u64::from(self.scale.categories),
            u64::from(self.scale.regions),
        ]
    }

    /// A uniformly random existing item id.
    pub fn random_item(&self, rng: &mut SimRng) -> ItemId {
        ItemId(rng.below(self.items.len() as u64) as u32)
    }

    /// A uniformly random existing user id.
    pub fn random_user(&self, rng: &mut SimRng) -> UserId {
        UserId(rng.below(self.users.len() as u64) as u32)
    }

    /// A random category, skewed toward the hot low-numbered ones.
    pub fn random_category(&self, rng: &mut SimRng) -> CategoryId {
        let z = rng.f64_open();
        CategoryId(((z * z) * f64::from(self.scale.categories)) as u16)
    }

    /// A random region.
    pub fn random_region(&self, rng: &mut SimRng) -> RegionId {
        RegionId(rng.below(u64::from(self.scale.regions)) as u16)
    }

    fn data_page(table: TableId, row: u64) -> PageRef {
        PageRef {
            table,
            page: page_of(row, row_bytes(table)),
        }
    }

    /// B-tree descent pages for an index lookup: a hot root and a
    /// key-dependent leaf.
    fn index_pages(table: TableId, key: u64, out: &mut Vec<PageRef>) {
        out.push(PageRef {
            table,
            page: INDEX_PAGE_BASE,
        });
        out.push(PageRef {
            table,
            page: INDEX_PAGE_BASE + 1 + key % 512,
        });
    }

    /// Execute a query into `r`, overwriting it. `now_s` stamps
    /// inserted rows.
    pub fn execute(&mut self, q: Query, now_s: u32, r: &mut QueryResult) {
        r.rows = 0;
        r.result_bytes = 0;
        r.cpu_cycles = 0.0;
        r.pages.clear();
        r.dirty_pages.clear();
        match q {
            Query::SelectCategories => {
                r.tables = &[TableId::Categories];
                r.rows = u64::from(self.scale.categories);
                r.result_bytes = r.rows * 40;
                r.pages.push(PageRef {
                    table: TableId::Categories,
                    page: 0,
                });
            }
            Query::SelectRegions => {
                r.tables = &[TableId::Regions];
                r.rows = u64::from(self.scale.regions);
                r.result_bytes = r.rows * 30;
                r.pages.push(PageRef {
                    table: TableId::Regions,
                    page: 0,
                });
            }
            Query::SearchItemsByCategory { category, page } => {
                r.tables = &[TableId::Items];
                let cat = usize::from(category.0).min(self.items_by_category.len() - 1);
                let ids = &self.items_by_category[cat];
                let start = page as usize * ITEMS_PER_PAGE;
                let slice = ids.get(start..).unwrap_or_default();
                let slice = &slice[..slice.len().min(ITEMS_PER_PAGE)];
                Self::index_pages(TableId::Items, u64::from(category.0), &mut r.pages);
                for id in slice {
                    r.pages
                        .push(Self::data_page(TableId::Items, u64::from(id.0)));
                }
                r.rows = slice.len() as u64;
                r.result_bytes = 120 + r.rows * 32;
            }
            Query::SearchItemsByRegion {
                category,
                region,
                page,
            } => {
                r.tables = &[TableId::Items, TableId::Users];
                let cat = usize::from(category.0).min(self.items_by_category.len() - 1);
                let ids = &self.items_by_category[cat];
                // Join through sellers' region: scan the category slice,
                // probing each seller row.
                let mut matched = 0u64;
                let mut examined = 0u64;
                Self::index_pages(TableId::Items, u64::from(category.0), &mut r.pages);
                let skip = page as usize * ITEMS_PER_PAGE;
                for id in ids.iter() {
                    let item = &self.items[id.0 as usize];
                    examined += 1;
                    r.pages
                        .push(Self::data_page(TableId::Items, u64::from(id.0)));
                    r.pages
                        .push(Self::data_page(TableId::Users, u64::from(item.seller.0)));
                    if self.users[item.seller.0 as usize].region == region {
                        matched += 1;
                        if matched as usize >= skip + ITEMS_PER_PAGE {
                            break;
                        }
                    }
                    if examined >= 400 {
                        break; // LIMIT-bounded scan
                    }
                }
                r.rows = matched.min(ITEMS_PER_PAGE as u64);
                r.result_bytes = 120 + r.rows * 32;
                r.cpu_cycles += examined as f64 * cost::PER_ROW * 0.4;
            }
            Query::GetItem { item } => {
                r.tables = &[TableId::Items, TableId::Users];
                let it = &self.items[item.0 as usize % self.items.len()];
                r.pages
                    .push(Self::data_page(TableId::Items, u64::from(it.id.0)));
                r.pages
                    .push(Self::data_page(TableId::Users, u64::from(it.seller.0)));
                r.rows = 2;
                r.result_bytes = 110 + u64::from(it.description_len) / 6;
            }
            Query::GetUserInfo { user } => {
                r.tables = &[TableId::Users, TableId::Comments];
                let uid = user.0 as usize % self.users.len();
                r.pages.push(Self::data_page(TableId::Users, uid as u64));
                Self::index_pages(TableId::Comments, uid as u64, &mut r.pages);
                let n = self
                    .comments_by_to
                    .get(&UserId(uid as u32))
                    .map_or(0, |v| v.len());
                for &ci in self
                    .comments_by_to
                    .get(&UserId(uid as u32))
                    .into_iter()
                    .flatten()
                    .take(25)
                {
                    r.pages
                        .push(Self::data_page(TableId::Comments, u64::from(ci)));
                }
                r.rows = 1 + n.min(25) as u64;
                r.result_bytes = 80 + r.rows * 40;
            }
            Query::GetBidHistory { item } => {
                r.tables = &[TableId::Bids, TableId::Users];
                let iid = ItemId(item.0 % self.items.len() as u32);
                Self::index_pages(TableId::Bids, u64::from(iid.0), &mut r.pages);
                let idxs = self.bids_by_item.get(&iid).map_or(&[][..], Vec::as_slice);
                for &bi in idxs {
                    r.pages.push(Self::data_page(TableId::Bids, u64::from(bi)));
                    let bidder = self.bids[bi as usize].user;
                    r.pages
                        .push(Self::data_page(TableId::Users, u64::from(bidder.0)));
                }
                r.rows = idxs.len() as u64;
                r.result_bytes = 70 + r.rows * 28;
            }
            Query::GetMaxBid { item } => {
                r.tables = &[TableId::Items];
                let iid = item.0 as usize % self.items.len();
                r.pages.push(Self::data_page(TableId::Items, iid as u64));
                r.rows = 1;
                r.result_bytes = 40;
            }
            Query::AuthUser { user } => {
                r.tables = &[TableId::Users];
                let uid = user.0 as usize % self.users.len();
                Self::index_pages(TableId::Users, uid as u64, &mut r.pages);
                r.pages.push(Self::data_page(TableId::Users, uid as u64));
                r.rows = 1;
                r.result_bytes = 50;
            }
            Query::AboutMe { user } => {
                r.tables = &[
                    TableId::Users,
                    TableId::Bids,
                    TableId::Items,
                    TableId::BuyNow,
                    TableId::Comments,
                ];
                let uid = UserId(user.0 % self.users.len() as u32);
                r.pages
                    .push(Self::data_page(TableId::Users, u64::from(uid.0)));
                let mut rows = 1u64;
                for &bi in self.bids_by_user.get(&uid).into_iter().flatten().take(20) {
                    r.pages.push(Self::data_page(TableId::Bids, u64::from(bi)));
                    rows += 1;
                }
                for id in self
                    .items_by_seller
                    .get(&uid)
                    .into_iter()
                    .flatten()
                    .take(20)
                {
                    r.pages
                        .push(Self::data_page(TableId::Items, u64::from(id.0)));
                    rows += 1;
                }
                for &bn in self
                    .buy_nows_by_buyer
                    .get(&uid)
                    .into_iter()
                    .flatten()
                    .take(20)
                {
                    r.pages
                        .push(Self::data_page(TableId::BuyNow, u64::from(bn)));
                    rows += 1;
                }
                for &ci in self.comments_by_to.get(&uid).into_iter().flatten().take(20) {
                    r.pages
                        .push(Self::data_page(TableId::Comments, u64::from(ci)));
                    rows += 1;
                }
                r.rows = rows;
                r.result_bytes = 120 + rows * 35;
            }
            Query::RegisterUser { region } => {
                r.tables = &[TableId::Users];
                let id = UserId(self.users.len() as u32);
                self.users.push(User {
                    id,
                    rating: 0,
                    balance: 0,
                    region,
                    items_sold: 0,
                });
                let page = Self::data_page(TableId::Users, u64::from(id.0));
                Self::index_pages(TableId::Users, u64::from(id.0), &mut r.pages);
                r.dirty_pages.push(page);
                r.rows = 1;
                r.result_bytes = 60;
            }
            Query::StoreBid {
                user,
                item,
                increment,
            } => {
                r.tables = &[TableId::Bids, TableId::Items];
                let iid = (item.0 as usize) % self.items.len();
                let item_page = Self::data_page(TableId::Items, iid as u64);
                r.pages.push(item_page);
                let new_amount = {
                    let it = &mut self.items[iid];
                    let amount = it.max_bid.max(it.initial_price) + increment.max(1);
                    it.max_bid = amount;
                    it.nb_bids += 1;
                    amount
                };
                let bid = Bid {
                    user: UserId(user.0 % self.users.len() as u32),
                    item: ItemId(iid as u32),
                    qty: 1,
                    amount: new_amount,
                    date_s: now_s,
                };
                let bid_row = self.bids.len() as u64;
                self.index_bid(bid);
                Self::index_pages(TableId::Bids, iid as u64, &mut r.pages);
                r.dirty_pages.push(Self::data_page(TableId::Bids, bid_row));
                r.dirty_pages.push(item_page);
                r.rows = 2;
                r.result_bytes = 50;
            }
            Query::StoreComment { from, to, item } => {
                r.tables = &[TableId::Comments, TableId::Users];
                let to = UserId(to.0 % self.users.len() as u32);
                let user_page = Self::data_page(TableId::Users, u64::from(to.0));
                r.pages.push(user_page);
                self.users[to.0 as usize].rating += 1;
                let comment = Comment {
                    from: UserId(from.0 % self.users.len() as u32),
                    to,
                    item: ItemId(item.0 % self.items.len() as u32),
                    rating: 1,
                    text_len: 200,
                };
                let row = self.comments.len() as u64;
                self.index_comment(comment);
                r.dirty_pages.push(Self::data_page(TableId::Comments, row));
                r.dirty_pages.push(user_page);
                r.rows = 2;
                r.result_bytes = 50;
            }
            Query::StoreBuyNow { buyer, item } => {
                r.tables = &[TableId::BuyNow, TableId::Items];
                let iid = (item.0 as usize) % self.items.len();
                let item_page = Self::data_page(TableId::Items, iid as u64);
                r.pages.push(item_page);
                self.items[iid].quantity = self.items[iid].quantity.saturating_sub(1);
                let row = self.buy_nows.len() as u64;
                let buyer = UserId(buyer.0 % self.users.len() as u32);
                self.buy_nows.push(BuyNow {
                    buyer,
                    item: ItemId(iid as u32),
                    qty: 1,
                    date_s: now_s,
                });
                self.buy_nows_by_buyer
                    .entry(buyer)
                    .or_default()
                    .push(row as u32);
                r.dirty_pages.push(Self::data_page(TableId::BuyNow, row));
                r.dirty_pages.push(item_page);
                r.rows = 2;
                r.result_bytes = 50;
            }
        }
        r.cpu_cycles += cost::BASE
            + r.rows as f64 * cost::PER_ROW
            + (r.pages.len() + r.dirty_pages.len()) as f64 * cost::PER_PAGE
            + if q.is_write() { cost::WRITE_EXTRA } else { 0.0 };
    }
}

/// Disk and CPU work produced by one query at the mysqld level.
#[derive(Debug, Clone, Default)]
pub struct DbWork<'a> {
    /// Executor + protocol CPU cycles.
    pub cpu_cycles: f64,
    /// Disk operations to issue (buffer-pool misses, write-back,
    /// transaction log), in a buffer the server reuses per query.
    pub ios: &'a [IoRequest],
    /// Result bytes returned to the application tier.
    pub response_bytes: u64,
    /// Rows produced/affected.
    pub rows: u64,
    /// Whether the query-cache satisfied the query outright.
    pub query_cache_hit: bool,
}

/// Configuration of the MySQL server model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MySqlConfig {
    /// InnoDB buffer pool size in bytes.
    pub buffer_pool_bytes: u64,
    /// Query cache size in bytes (0 disables it).
    pub query_cache_bytes: u64,
    /// Base resident set of mysqld (code, heap, connection buffers).
    pub base_memory_bytes: u64,
    /// Per-connection memory.
    pub per_connection_bytes: u64,
}

impl Default for MySqlConfig {
    fn default() -> Self {
        MySqlConfig {
            // Modest 2005-era defaults, as a stock RUBiS install would use
            // inside a 2 GB VM.
            buffer_pool_bytes: 72 * 1024 * 1024,
            query_cache_bytes: 16 * 1024 * 1024,
            base_memory_bytes: 65 * 1024 * 1024,
            per_connection_bytes: 192 * 1024,
        }
    }
}

/// The mysqld process model: database + buffer pool + query cache +
/// transaction log.
#[derive(Debug)]
pub struct MySqlServer {
    /// The relational engine.
    pub db: Database,
    config: MySqlConfig,
    pool: BufferPool,
    cache: QueryCache,
    /// Per-query scratch, reused so execution does not allocate.
    result: QueryResult,
    ios: Vec<IoRequest>,
    /// Currently open client connections (drives memory accounting).
    pub connections: u32,
    queries_executed: u64,
    log_bytes_pending: u64,
}

impl MySqlServer {
    /// Build the server around a generated database.
    pub fn new(db: Database, config: MySqlConfig) -> Self {
        MySqlServer {
            db,
            pool: BufferPool::new(config.buffer_pool_bytes),
            cache: QueryCache::new(config.query_cache_bytes),
            result: QueryResult::default(),
            ios: Vec::new(),
            config,
            connections: 0,
            queries_executed: 0,
            log_bytes_pending: 0,
        }
    }

    /// Pre-warm the buffer pool to `fraction` of its capacity by
    /// touching the hottest data pages of each table round-robin — the
    /// state a long-lived mysqld reaches before measurement starts (the
    /// paper's database had served traffic before its runs).
    pub fn prewarm(&mut self, fraction: f64) {
        let fraction = fraction.clamp(0.0, 1.0);
        let target = (self.pool.capacity_pages() as f64 * fraction) as usize;
        if target == 0 {
            return;
        }
        let cards = self.db.cardinalities();
        let mut round: u64 = 0;
        loop {
            let mut touched_any = false;
            for (i, table) in TableId::ALL.iter().enumerate() {
                let total_pages = (cards[i] * row_bytes(*table)).div_ceil(PAGE_BYTES);
                if round < total_pages {
                    self.pool.access(
                        PageRef {
                            table: *table,
                            page: round,
                        },
                        false,
                    );
                    touched_any = true;
                    if self.pool.resident_pages() >= target {
                        return;
                    }
                }
            }
            if !touched_any {
                return;
            }
            round += 1;
        }
    }

    /// Execute a query through caches, producing CPU and disk work.
    pub fn execute(&mut self, q: Query, now_s: u32) -> DbWork<'_> {
        self.queries_executed += 1;
        self.ios.clear();
        // Query cache lookup for SELECTs.
        if self.config.query_cache_bytes > 0 {
            if let Some(key) = q.cache_key() {
                if let Some(bytes) = self.cache.lookup(key) {
                    return DbWork {
                        cpu_cycles: 25_000.0, // hash + protocol only
                        ios: &[],
                        response_bytes: bytes,
                        rows: 0,
                        query_cache_hit: true,
                    };
                }
            }
        }

        let result = &mut self.result;
        self.db.execute(q, now_s, result);
        let page_io = |kind| IoRequest {
            kind,
            bytes: PAGE_BYTES,
            sequential: false,
        };
        let ios = &mut self.ios;
        self.pool.read_all(&result.pages, |access| match access {
            Access::Hit => {}
            Access::Miss => ios.push(page_io(IoKind::Read)),
            Access::MissDirtyEvict => {
                ios.push(page_io(IoKind::Write));
                ios.push(page_io(IoKind::Read));
            }
        });
        for page in &result.dirty_pages {
            match self.pool.access(*page, true) {
                Access::Hit | Access::Miss => {}
                Access::MissDirtyEvict => self.ios.push(page_io(IoKind::Write)),
            }
        }
        if q.is_write() {
            for &t in result.tables {
                self.cache.invalidate(t);
            }
            // Redo/binlog: group-committed; accumulate and flush in
            // `log_flush`, but small synchronous record now.
            self.log_bytes_pending += 300 + result.result_bytes;
            // Synchronous redo + binlog records (fsync'd per commit).
            for _ in 0..2 {
                self.ios.push(IoRequest {
                    kind: IoKind::Write,
                    bytes: 512,
                    sequential: true,
                });
            }
        } else if self.config.query_cache_bytes > 0 {
            if let Some(key) = q.cache_key() {
                self.cache.insert(key, result.result_bytes, result.tables);
            }
        }

        DbWork {
            cpu_cycles: result.cpu_cycles,
            ios: &self.ios,
            response_bytes: result.result_bytes,
            rows: result.rows,
            query_cache_hit: false,
        }
    }

    /// Periodic group-commit / binlog flush; returns the write to issue,
    /// if any. Call every few hundred milliseconds.
    pub fn log_flush(&mut self) -> Option<IoRequest> {
        if self.log_bytes_pending == 0 {
            return None;
        }
        let bytes = self.log_bytes_pending;
        self.log_bytes_pending = 0;
        Some(IoRequest {
            kind: IoKind::Write,
            bytes,
            sequential: true,
        })
    }

    /// Resident memory of the mysqld process.
    pub fn memory_bytes(&self) -> u64 {
        self.config.base_memory_bytes
            + self.pool.resident_bytes()
            + self.cache.used_bytes()
            + u64::from(self.connections) * self.config.per_connection_bytes
    }

    /// Buffer-pool statistics: (hits, misses, dirty evictions).
    pub fn pool_stats(&self) -> (u64, u64, u64) {
        self.pool.stats()
    }

    /// Query-cache statistics: (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Total queries executed.
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> MySqlServer {
        let mut rng = SimRng::new(5);
        let db = Database::generate(DbScale::small(), &mut rng);
        MySqlServer::new(db, MySqlConfig::default())
    }

    #[test]
    fn select_categories_is_cheap() {
        let mut s = server();
        let w = s.execute(Query::SelectCategories, 0);
        assert!(!w.query_cache_hit);
        assert_eq!(w.rows, 5);
        assert!(w.cpu_cycles > 0.0);
        let bytes = w.response_bytes;
        // Second time: query cache.
        let w2 = s.execute(Query::SelectCategories, 0);
        assert!(w2.query_cache_hit);
        assert!(w2.ios.is_empty());
        assert_eq!(w2.response_bytes, bytes);
    }

    #[test]
    fn cold_reads_produce_disk_io_warm_reads_do_not() {
        let mut rng = SimRng::new(5);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut s = MySqlServer::new(
            db,
            MySqlConfig {
                query_cache_bytes: 0, // isolate the buffer pool
                ..MySqlConfig::default()
            },
        );
        let q = Query::GetItem { item: ItemId(10) };
        let cold = s.execute(q, 0);
        assert!(!cold.ios.is_empty(), "cold read should miss");
        let warm = s.execute(q, 0);
        assert!(warm.ios.is_empty(), "warm read should hit pool");
        let (h, m, _) = s.pool_stats();
        assert!(h > 0 && m > 0);
    }

    #[test]
    fn store_bid_mutates_and_invalidates() {
        let mut s = server();
        let q_hist = Query::GetBidHistory { item: ItemId(3) };
        let before = s.execute(q_hist, 0).rows;
        let cached = s.execute(q_hist, 0);
        assert!(cached.query_cache_hit);
        let w = s.execute(
            Query::StoreBid {
                user: UserId(1),
                item: ItemId(3),
                increment: 100,
            },
            5,
        );
        assert!(w.ios.iter().any(|io| io.kind == IoKind::Write));
        let after = s.execute(q_hist, 0);
        assert!(!after.query_cache_hit, "cache must be invalidated");
        assert_eq!(after.rows, before + 1, "one more bid in history");
    }

    #[test]
    fn register_user_grows_users() {
        let mut s = server();
        let before = s.db.cardinalities()[0];
        s.execute(
            Query::RegisterUser {
                region: RegionId(0),
            },
            0,
        );
        assert_eq!(s.db.cardinalities()[0], before + 1);
    }

    #[test]
    fn buy_now_decrements_quantity() {
        let mut s = server();
        let q0 = s.db.items[7].quantity;
        s.execute(
            Query::StoreBuyNow {
                buyer: UserId(0),
                item: ItemId(7),
            },
            0,
        );
        assert_eq!(s.db.items[7].quantity, q0 - 1);
        assert_eq!(s.db.cardinalities()[4], 1);
    }

    #[test]
    fn comment_bumps_rating() {
        let mut s = server();
        let r0 = s.db.users[9].rating;
        s.execute(
            Query::StoreComment {
                from: UserId(1),
                to: UserId(9),
                item: ItemId(0),
            },
            0,
        );
        assert_eq!(s.db.users[9].rating, r0 + 1);
    }

    #[test]
    fn log_flush_batches_writes() {
        let mut s = server();
        assert!(s.log_flush().is_none());
        s.execute(
            Query::StoreBid {
                user: UserId(0),
                item: ItemId(0),
                increment: 10,
            },
            0,
        );
        s.execute(
            Query::StoreBid {
                user: UserId(1),
                item: ItemId(1),
                increment: 10,
            },
            0,
        );
        let flush = s.log_flush().expect("pending log bytes");
        assert_eq!(flush.kind, IoKind::Write);
        assert!(flush.sequential);
        assert!(flush.bytes >= 600);
        assert!(s.log_flush().is_none());
    }

    #[test]
    fn memory_grows_with_pool_warmup() {
        let mut s = server();
        let m0 = s.memory_bytes();
        for i in 0..200 {
            s.execute(Query::GetItem { item: ItemId(i) }, 0);
        }
        assert!(s.memory_bytes() > m0, "buffer pool residency should grow");
        s.connections = 50;
        let with_conns = s.memory_bytes();
        assert_eq!(
            with_conns,
            s.memory_bytes().min(with_conns) // stable
        );
        assert!(with_conns > m0);
    }

    #[test]
    fn cache_keys_distinguish_queries() {
        let a = Query::GetItem { item: ItemId(1) }.cache_key().unwrap();
        let b = Query::GetItem { item: ItemId(2) }.cache_key().unwrap();
        let c = Query::GetUserInfo { user: UserId(1) }.cache_key().unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(Query::StoreBid {
            user: UserId(0),
            item: ItemId(0),
            increment: 1
        }
        .cache_key()
        .is_none());
    }

    #[test]
    fn about_me_touches_many_tables() {
        let mut s = server();
        let w = s.execute(Query::AboutMe { user: UserId(3) }, 0);
        assert!(w.rows >= 1);
        assert!(w.response_bytes >= 120);
    }

    #[test]
    fn select_regions_and_max_bid() {
        let mut s = server();
        let w = s.execute(Query::SelectRegions, 0);
        assert_eq!(w.rows, 4);
        let w2 = s.execute(Query::GetMaxBid { item: ItemId(3) }, 0);
        assert_eq!(w2.rows, 1);
        assert!(w2.response_bytes > 0);
    }

    #[test]
    fn auth_user_touches_index_and_row() {
        let mut rng = SimRng::new(5);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut s = MySqlServer::new(
            db,
            MySqlConfig {
                query_cache_bytes: 0,
                ..MySqlConfig::default()
            },
        );
        let cold = s.execute(Query::AuthUser { user: UserId(42) }, 0);
        assert!(!cold.ios.is_empty());
        let warm = s.execute(Query::AuthUser { user: UserId(42) }, 0);
        assert!(warm.ios.is_empty());
    }

    #[test]
    fn search_by_region_joins_users() {
        let mut s = server();
        let w = s.execute(
            Query::SearchItemsByRegion {
                category: CategoryId(0),
                region: RegionId(1),
                page: 0,
            },
            0,
        );
        assert!(w.rows <= ITEMS_PER_PAGE as u64);
        assert!(w.cpu_cycles > 0.0);
    }

    #[test]
    fn searches_are_not_query_cacheable() {
        // NOW()-dependent SQL: MySQL's query cache refuses them.
        assert!(Query::SearchItemsByCategory {
            category: CategoryId(0),
            page: 0
        }
        .cache_key()
        .is_none());
        assert!(Query::SearchItemsByRegion {
            category: CategoryId(0),
            region: RegionId(0),
            page: 0
        }
        .cache_key()
        .is_none());
        assert!(Query::AboutMe { user: UserId(0) }.cache_key().is_none());
        // Point lookups remain cacheable.
        assert!(Query::GetItem { item: ItemId(0) }.cache_key().is_some());
    }

    #[test]
    fn prewarm_fills_requested_fraction() {
        let mut rng = SimRng::new(6);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut s = MySqlServer::new(db, MySqlConfig::default());
        let cap = 72 * 1024 * 1024 / 16384; // pool pages
        s.prewarm(0.5);
        let resident_mid = s.memory_bytes();
        s.prewarm(1.0);
        let resident_full = s.memory_bytes();
        assert!(resident_full >= resident_mid);
        // The small DB has fewer pages than half the pool, so prewarm
        // stops when the tables are exhausted.
        let _ = cap;
    }

    #[test]
    fn prewarm_zero_is_noop() {
        let mut rng = SimRng::new(7);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut s = MySqlServer::new(db, MySqlConfig::default());
        let before = s.memory_bytes();
        s.prewarm(0.0);
        assert_eq!(s.memory_bytes(), before);
    }

    #[test]
    fn get_user_info_reads_comments() {
        let mut s = server();
        let w = s.execute(Query::GetUserInfo { user: UserId(5) }, 0);
        assert!(w.rows >= 1);
        assert!(w.response_bytes >= 80);
    }

    #[test]
    fn search_pagination_bounds() {
        let mut s = server();
        let w0 = s.execute(
            Query::SearchItemsByCategory {
                category: CategoryId(0),
                page: 0,
            },
            0,
        );
        assert!(w0.rows <= ITEMS_PER_PAGE as u64);
        let w_far = s.execute(
            Query::SearchItemsByCategory {
                category: CategoryId(0),
                page: 10_000,
            },
            0,
        );
        assert_eq!(w_far.rows, 0);
    }
}
