//! The RUBiS interaction set (PHP version).
//!
//! Each interaction is one HTTP transaction against the web/application
//! tier: a request, PHP script execution, zero or more database queries,
//! and an HTML response. The per-interaction resource profile (script
//! cycles, payload sizes, query plan) is the workload's DNA — tier-level
//! demand ratios in the paper emerge from these profiles combined with
//! the transition tables in [`crate::transition`].

use crate::db::Query;
use crate::schema::{ItemId, UserId};
use cloudchar_simcore::{Dist, Sample, SimRng};
use serde::{Deserialize, Serialize};

/// The 23 RUBiS page interactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Interaction {
    Home,
    Register,
    RegisterUser,
    Browse,
    BrowseCategories,
    SearchItemsInCategory,
    BrowseRegions,
    BrowseCategoriesInRegion,
    SearchItemsInRegion,
    ViewItem,
    ViewUserInfo,
    ViewBidHistory,
    BuyNowAuth,
    BuyNow,
    StoreBuyNow,
    PutBidAuth,
    PutBid,
    StoreBid,
    PutCommentAuth,
    PutComment,
    StoreComment,
    AboutMeAuth,
    AboutMe,
}

impl Interaction {
    /// All interactions, in enum order.
    pub const ALL: [Interaction; 23] = [
        Interaction::Home,
        Interaction::Register,
        Interaction::RegisterUser,
        Interaction::Browse,
        Interaction::BrowseCategories,
        Interaction::SearchItemsInCategory,
        Interaction::BrowseRegions,
        Interaction::BrowseCategoriesInRegion,
        Interaction::SearchItemsInRegion,
        Interaction::ViewItem,
        Interaction::ViewUserInfo,
        Interaction::ViewBidHistory,
        Interaction::BuyNowAuth,
        Interaction::BuyNow,
        Interaction::StoreBuyNow,
        Interaction::PutBidAuth,
        Interaction::PutBid,
        Interaction::StoreBid,
        Interaction::PutCommentAuth,
        Interaction::PutComment,
        Interaction::StoreComment,
        Interaction::AboutMeAuth,
        Interaction::AboutMe,
    ];

    /// Dense index of the interaction: its place in [`Interaction::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the interaction writes to the database.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Interaction::RegisterUser
                | Interaction::StoreBuyNow
                | Interaction::StoreBid
                | Interaction::StoreComment
        )
    }

    /// Script name as served by the PHP implementation.
    pub fn script_name(self) -> &'static str {
        match self {
            Interaction::Home => "index.html",
            Interaction::Register => "register.html",
            Interaction::RegisterUser => "RegisterUser.php",
            Interaction::Browse => "browse.html",
            Interaction::BrowseCategories => "BrowseCategories.php",
            Interaction::SearchItemsInCategory => "SearchItemsByCategory.php",
            Interaction::BrowseRegions => "BrowseRegions.php",
            Interaction::BrowseCategoriesInRegion => "BrowseCategories.php?region",
            Interaction::SearchItemsInRegion => "SearchItemsByRegion.php",
            Interaction::ViewItem => "ViewItem.php",
            Interaction::ViewUserInfo => "ViewUserInfo.php",
            Interaction::ViewBidHistory => "ViewBidHistory.php",
            Interaction::BuyNowAuth => "BuyNowAuth.php",
            Interaction::BuyNow => "BuyNow.php",
            Interaction::StoreBuyNow => "StoreBuyNow.php",
            Interaction::PutBidAuth => "PutBidAuth.php",
            Interaction::PutBid => "PutBid.php",
            Interaction::StoreBid => "StoreBid.php",
            Interaction::PutCommentAuth => "PutCommentAuth.php",
            Interaction::PutComment => "PutComment.php",
            Interaction::StoreComment => "StoreComment.php",
            Interaction::AboutMeAuth => "AboutMe.html",
            Interaction::AboutMe => "AboutMe.php",
        }
    }
}

/// Resource profile of one interaction class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InteractionProfile {
    /// HTTP request size distribution (bytes).
    pub request_bytes: Dist,
    /// PHP script CPU demand distribution (cycles), excluding per-query
    /// marshalling (added per query executed).
    pub script_cycles: Dist,
    /// Static HTML skeleton bytes of the response; dynamic content from
    /// query results is added on top.
    pub static_html_bytes: u64,
    /// HTML expansion factor applied to DB result bytes (markup around
    /// each row).
    pub html_expansion: f64,
}

/// An interaction's calibrated profile from its mean script cycles,
/// static HTML bytes and HTML expansion; every interaction shares the
/// request-size distribution.
const fn calibrated(
    script_cycles_mean: f64,
    static_html_bytes: u64,
    html_expansion: f64,
) -> InteractionProfile {
    InteractionProfile {
        request_bytes: Dist::Uniform {
            lo: 280.0,
            hi: 700.0,
        },
        script_cycles: Dist::Erlang {
            k: 3,
            mean: script_cycles_mean,
        },
        static_html_bytes,
        html_expansion,
    }
}

/// Every interaction's profile, in [`Interaction::ALL`] order. Script
/// cycle means are tuned so that 1000 clients at a 7 s think time land
/// the web tier in the paper's Figure 1 range.
static PROFILES: [InteractionProfile; Interaction::ALL.len()] = [
    calibrated(120e3, 5_000, 0.0),  // Home
    calibrated(90e3, 2_600, 0.0),   // Register
    calibrated(300e3, 2_400, 1.0),  // RegisterUser
    calibrated(100e3, 3_400, 0.0),  // Browse
    calibrated(280e3, 10_500, 1.0), // BrowseCategories
    calibrated(700e3, 26_000, 1.0), // SearchItemsInCategory
    calibrated(240e3, 8_800, 1.0),  // BrowseRegions
    calibrated(300e3, 10_500, 1.0), // BrowseCategoriesInRegion
    calibrated(780e3, 25_000, 1.0), // SearchItemsInRegion
    calibrated(480e3, 17_500, 1.0), // ViewItem
    calibrated(380e3, 11_500, 1.0), // ViewUserInfo
    calibrated(430e3, 13_500, 1.0), // ViewBidHistory
    calibrated(140e3, 3_600, 0.0),  // BuyNowAuth
    calibrated(380e3, 14_000, 1.0), // BuyNow
    calibrated(430e3, 3_000, 1.0),  // StoreBuyNow
    calibrated(140e3, 3_600, 0.0),  // PutBidAuth
    calibrated(430e3, 15_500, 1.0), // PutBid
    calibrated(480e3, 3_000, 1.0),  // StoreBid
    calibrated(140e3, 3_600, 0.0),  // PutCommentAuth
    calibrated(290e3, 12_000, 1.0), // PutComment
    calibrated(380e3, 3_000, 1.0),  // StoreComment
    calibrated(120e3, 3_400, 0.0),  // AboutMeAuth
    calibrated(760e3, 22_500, 1.0), // AboutMe
];

impl InteractionProfile {
    /// The calibrated default profile for an interaction: one index
    /// into a static table, so the request path looks it up per use
    /// rather than carrying a copy.
    #[inline]
    pub fn of(i: Interaction) -> &'static InteractionProfile {
        &PROFILES[i.index()]
    }

    /// Sample a request size.
    #[inline]
    pub fn sample_request_bytes(&self, rng: &mut SimRng) -> u64 {
        self.request_bytes.sample(rng) as u64
    }

    /// Sample script cycles.
    #[inline]
    pub fn sample_script_cycles(&self, rng: &mut SimRng) -> f64 {
        self.script_cycles.sample(rng)
    }

    /// HTML response size given total DB result bytes.
    #[inline]
    pub fn response_bytes(&self, db_result_bytes: u64) -> u64 {
        self.static_html_bytes + (db_result_bytes as f64 * self.html_expansion) as u64
    }
}

/// Context needed to instantiate concrete queries: the live entity
/// ranges of the database.
#[derive(Debug, Clone, Copy)]
pub struct EntityRanges {
    /// Number of users currently registered.
    pub users: u32,
    /// Number of items.
    pub items: u32,
    /// Number of categories.
    pub categories: u16,
    /// Number of regions.
    pub regions: u16,
}

impl EntityRanges {
    fn item(&self, rng: &mut SimRng) -> ItemId {
        // Zipf-ish skew: popular items attract most views and bids.
        let z = rng.f64_open();
        ItemId(((z * z) * f64::from(self.items)) as u32 % self.items.max(1))
    }

    fn user(&self, rng: &mut SimRng) -> UserId {
        UserId(rng.below(u64::from(self.users.max(1))) as u32)
    }

    fn category(&self, rng: &mut SimRng) -> crate::schema::CategoryId {
        let z = rng.f64_open();
        crate::schema::CategoryId(
            ((z * z) * f64::from(self.categories)) as u16 % self.categories.max(1),
        )
    }

    fn region(&self, rng: &mut SimRng) -> crate::schema::RegionId {
        crate::schema::RegionId(rng.below(u64::from(self.regions.max(1))) as u16)
    }
}

/// The database queries one execution of an interaction issues, held
/// inline (no interaction issues more than [`QueryList::CAPACITY`]) and
/// handed out front first.
#[derive(Debug, Clone, Copy)]
pub struct QueryList {
    queries: [Query; QueryList::CAPACITY],
    /// Index of the next query to hand out.
    next: u8,
    len: u8,
}

impl QueryList {
    /// The most queries one interaction issues (`PutBid`).
    pub const CAPACITY: usize = 3;

    /// Draw the queries one execution of `i` issues, in the order it
    /// issues them; their parameters are drawn from `rng` in that same
    /// order.
    pub fn draw(i: Interaction, ranges: EntityRanges, rng: &mut SimRng) -> QueryList {
        use Interaction::*;
        let mut list = QueryList {
            queries: [Query::SelectCategories; QueryList::CAPACITY],
            next: 0,
            len: 0,
        };
        let mut push = |q: Query| {
            list.queries[usize::from(list.len)] = q;
            list.len += 1;
        };
        match i {
            Home | Register | Browse | BuyNowAuth | PutBidAuth | PutCommentAuth | AboutMeAuth => {
                // static pages / auth forms
            }
            RegisterUser => push(Query::RegisterUser {
                region: ranges.region(rng),
            }),
            BrowseCategories | BrowseCategoriesInRegion => push(Query::SelectCategories),
            SearchItemsInCategory => push(Query::SearchItemsByCategory {
                category: ranges.category(rng),
                page: (rng.f64() * rng.f64() * 5.0) as u32,
            }),
            BrowseRegions => push(Query::SelectRegions),
            SearchItemsInRegion => push(Query::SearchItemsByRegion {
                category: ranges.category(rng),
                region: ranges.region(rng),
                page: (rng.f64() * rng.f64() * 3.0) as u32,
            }),
            ViewItem => push(Query::GetItem {
                item: ranges.item(rng),
            }),
            ViewUserInfo => push(Query::GetUserInfo {
                user: ranges.user(rng),
            }),
            ViewBidHistory => push(Query::GetBidHistory {
                item: ranges.item(rng),
            }),
            BuyNow | PutComment => {
                push(Query::AuthUser {
                    user: ranges.user(rng),
                });
                push(Query::GetItem {
                    item: ranges.item(rng),
                });
            }
            StoreBuyNow => push(Query::StoreBuyNow {
                buyer: ranges.user(rng),
                item: ranges.item(rng),
            }),
            PutBid => {
                push(Query::AuthUser {
                    user: ranges.user(rng),
                });
                push(Query::GetItem {
                    item: ranges.item(rng),
                });
                push(Query::GetMaxBid {
                    item: ranges.item(rng),
                });
            }
            StoreBid => push(Query::StoreBid {
                user: ranges.user(rng),
                item: ranges.item(rng),
                increment: rng.range_inclusive(50, 500) as i64,
            }),
            StoreComment => push(Query::StoreComment {
                from: ranges.user(rng),
                to: ranges.user(rng),
                item: ranges.item(rng),
            }),
            AboutMe => {
                push(Query::AuthUser {
                    user: ranges.user(rng),
                });
                push(Query::AboutMe {
                    user: ranges.user(rng),
                });
            }
        }
        list
    }

    /// The queries not yet handed out, in order.
    pub fn as_slice(&self) -> &[Query] {
        &self.queries[usize::from(self.next)..usize::from(self.len)]
    }

    /// Whether every query has been handed out.
    pub fn is_empty(&self) -> bool {
        self.next == self.len
    }

    /// Hand out the next query.
    pub fn pop_front(&mut self) -> Option<Query> {
        let q = self.as_slice().first().copied()?;
        self.next += 1;
        Some(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges() -> EntityRanges {
        EntityRanges {
            users: 1000,
            items: 500,
            categories: 10,
            regions: 5,
        }
    }

    #[test]
    fn all_is_dense_and_complete() {
        assert_eq!(Interaction::ALL.len(), 23);
        for (idx, &i) in Interaction::ALL.iter().enumerate() {
            assert_eq!(i.index(), idx);
        }
    }

    #[test]
    fn writes_flagged() {
        let writes: Vec<_> = Interaction::ALL.iter().filter(|i| i.is_write()).collect();
        assert_eq!(writes.len(), 4);
    }

    #[test]
    fn write_interactions_issue_write_queries() {
        let mut rng = SimRng::new(1);
        for &i in &Interaction::ALL {
            let qs = QueryList::draw(i, ranges(), &mut rng);
            let any_write = qs.as_slice().iter().any(|q| q.is_write());
            assert_eq!(
                any_write,
                i.is_write(),
                "{i:?} write flag vs queries mismatch"
            );
        }
    }

    #[test]
    fn query_lists_hand_out_queries_front_first() {
        let mut rng = SimRng::new(4);
        let mut list = QueryList::draw(Interaction::PutBid, ranges(), &mut rng);
        assert_eq!(list.as_slice().len(), QueryList::CAPACITY);
        let first = list.as_slice()[0];
        assert!(matches!(first, Query::AuthUser { .. }));
        assert_eq!(list.pop_front(), Some(first));
        assert!(matches!(list.pop_front(), Some(Query::GetItem { .. })));
        assert!(matches!(list.pop_front(), Some(Query::GetMaxBid { .. })));
        assert!(list.is_empty());
        assert_eq!(list.pop_front(), None);
        let home = QueryList::draw(Interaction::Home, ranges(), &mut rng);
        assert!(home.is_empty());
    }

    #[test]
    fn profiles_have_positive_costs() {
        let mut rng = SimRng::new(2);
        for &i in &Interaction::ALL {
            let p = InteractionProfile::of(i);
            assert!(p.script_cycles.validate().is_ok());
            let c = p.sample_script_cycles(&mut rng);
            assert!(c > 0.0, "{i:?} cycles {c}");
            let req = p.sample_request_bytes(&mut rng);
            assert!((280..700).contains(&(req as u32)), "{i:?} req {req}");
            assert!(p.response_bytes(0) >= 1_000);
        }
    }

    #[test]
    fn search_pages_are_heavier_than_forms() {
        let search = InteractionProfile::of(Interaction::SearchItemsInCategory);
        let form = InteractionProfile::of(Interaction::PutBidAuth);
        assert!(search.script_cycles.mean().unwrap() > 3.0 * form.script_cycles.mean().unwrap());
    }

    #[test]
    fn queries_reference_valid_entities() {
        let mut rng = SimRng::new(3);
        let r = ranges();
        for _ in 0..500 {
            for &i in &Interaction::ALL {
                for &q in QueryList::draw(i, r, &mut rng).as_slice() {
                    match q {
                        Query::GetItem { item }
                        | Query::GetBidHistory { item }
                        | Query::GetMaxBid { item } => {
                            assert!(item.0 < r.items)
                        }
                        Query::GetUserInfo { user }
                        | Query::AuthUser { user }
                        | Query::AboutMe { user } => {
                            assert!(user.0 < r.users)
                        }
                        Query::SearchItemsByCategory { category, .. } => {
                            assert!(category.0 < r.categories)
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn response_scales_with_db_bytes() {
        let p = InteractionProfile::of(Interaction::SearchItemsInCategory);
        assert!(p.response_bytes(4_000) > p.response_bytes(100));
        let form = InteractionProfile::of(Interaction::Home);
        assert_eq!(form.response_bytes(1_000), form.static_html_bytes);
    }

    #[test]
    fn script_names_unique_enough() {
        use std::collections::HashSet;
        let names: HashSet<_> = Interaction::ALL.iter().map(|i| i.script_name()).collect();
        assert!(names.len() >= 22); // BrowseCategories shares a script with ?region
    }
}
