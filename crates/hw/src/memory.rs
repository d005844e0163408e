//! Memory modelling.
//!
//! The paper plots *used memory in MB* per host (VM or physical). Used
//! memory in a Linux guest decomposes into the kernel/base footprint,
//! per-process resident sets (Apache workers, PHP, mysqld), anonymous
//! working memory that scales with in-flight work, and the page cache.
//!
//! [`MemoryPool`] tracks those components explicitly so higher layers can
//! drive them from application state (worker counts, backlog, DB buffer
//! pool) and the monitor can sample a single "used" figure, reproducing
//! the RAM dynamics of Figures 2 and 6 — including the browse-mix
//! allocation jumps, which emerge from backlog-driven component growth.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bytes, as a convenience alias for readability.
pub type Bytes = u64;

/// One mebibyte.
pub const MIB: Bytes = 1024 * 1024;
/// One gibibyte.
pub const GIB: Bytes = 1024 * MIB;

/// Static description of a host's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// Total installed (or VM-allocated) RAM in bytes.
    pub total: Bytes,
}

impl MemorySpec {
    /// The paper's physical servers: 32 GB.
    pub fn physical_32gb() -> Self {
        MemorySpec { total: 32 * GIB }
    }

    /// The paper's VMs: 2 GB.
    pub fn vm_2gb() -> Self {
        MemorySpec { total: 2 * GIB }
    }
}

/// Tracked memory of one host, decomposed into named components plus an
/// elastic page cache.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    spec: MemorySpec,
    /// Named anonymous/resident components (base OS, per-worker, sessions,
    /// DB buffer pool, …). Values are absolute bytes.
    components: BTreeMap<&'static str, Bytes>,
    /// Page cache bytes; grows with file I/O, shrinks under pressure.
    page_cache: Bytes,
    /// High-water mark of used bytes.
    peak_used: Bytes,
}

impl MemoryPool {
    /// A pool for the given spec with no components.
    pub fn new(spec: MemorySpec) -> Self {
        MemoryPool {
            spec,
            components: BTreeMap::new(),
            page_cache: 0,
            peak_used: 0,
        }
    }

    /// Host spec.
    pub fn spec(&self) -> MemorySpec {
        self.spec
    }

    /// Set the absolute size of a named component. Setting 0 removes it.
    pub fn set_component(&mut self, name: &'static str, bytes: Bytes) {
        if bytes == 0 {
            self.components.remove(name);
        } else {
            self.components.insert(name, bytes);
        }
        self.reclaim_if_needed();
        self.peak_used = self.peak_used.max(self.used());
    }

    /// Current size of a named component (0 if absent).
    pub fn component(&self, name: &str) -> Bytes {
        self.components.get(name).copied().unwrap_or(0)
    }

    /// Grow the page cache by `bytes` (typically after disk reads/writes),
    /// evicting as needed so used memory never exceeds the spec.
    #[inline]
    pub fn grow_page_cache(&mut self, bytes: Bytes) {
        self.page_cache = self.page_cache.saturating_add(bytes);
        self.reclaim_if_needed();
        self.peak_used = self.peak_used.max(self.used());
    }

    /// Drop `bytes` of page cache (e.g. explicit eviction).
    pub fn shrink_page_cache(&mut self, bytes: Bytes) {
        self.page_cache = self.page_cache.saturating_sub(bytes);
    }

    /// Anonymous (component) bytes.
    pub fn anonymous(&self) -> Bytes {
        self.components.values().sum()
    }

    /// Page cache bytes.
    pub fn page_cache(&self) -> Bytes {
        self.page_cache
    }

    /// Used memory as a Linux `free` would report it (anonymous + cache).
    pub fn used(&self) -> Bytes {
        self.anonymous().saturating_add(self.page_cache)
    }

    /// Used memory in MiB, the unit of Figures 2 and 6.
    pub fn used_mib(&self) -> f64 {
        self.used() as f64 / MIB as f64
    }

    /// Free memory.
    pub fn free(&self) -> Bytes {
        self.spec.total.saturating_sub(self.used())
    }

    /// Peak used bytes observed.
    pub fn peak_used(&self) -> Bytes {
        self.peak_used
    }

    /// Fraction of total memory in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let util = self.used() as f64 / self.spec.total as f64;
        cloudchar_simcore::audit::check(
            "hw.memory.utilization_range",
            0,
            (0.0..=1.0).contains(&util),
            || {
                format!(
                    "memory utilization {util} outside [0, 1] ({} of {} bytes)",
                    self.used(),
                    self.spec.total
                )
            },
        );
        util
    }

    /// Resize the pool (memory ballooning): the balloon driver inflates
    /// or deflates the guest's visible memory. Shrinking evicts page
    /// cache as needed; anonymous memory is never ballooned away.
    ///
    /// Returns the new total actually applied (never below anonymous).
    pub fn balloon_to(&mut self, new_total: Bytes) -> Bytes {
        let floor = self.anonymous();
        self.spec.total = new_total.max(floor);
        self.reclaim_if_needed();
        self.spec.total
    }

    /// If anonymous + cache exceed total, evict page cache first (the
    /// kernel's reclaim order for clean cache pages).
    fn reclaim_if_needed(&mut self) {
        let anon = self.anonymous();
        if anon.saturating_add(self.page_cache) > self.spec.total {
            self.page_cache = self.spec.total.saturating_sub(anon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs() {
        assert_eq!(MemorySpec::physical_32gb().total, 32 * GIB);
        assert_eq!(MemorySpec::vm_2gb().total, 2 * GIB);
    }

    #[test]
    fn components_sum_into_used() {
        let mut m = MemoryPool::new(MemorySpec::vm_2gb());
        m.set_component("base", 200 * MIB);
        m.set_component("workers", 150 * MIB);
        assert_eq!(m.anonymous(), 350 * MIB);
        assert_eq!(m.used(), 350 * MIB);
        assert!((m.used_mib() - 350.0).abs() < 1e-9);
        m.set_component("workers", 0);
        assert_eq!(m.used(), 200 * MIB);
    }

    #[test]
    fn page_cache_grows_and_evicts_under_pressure() {
        let mut m = MemoryPool::new(MemoryPool::new(MemorySpec::vm_2gb()).spec());
        m.set_component("base", GIB);
        m.grow_page_cache(3 * GIB); // more than fits
        assert_eq!(m.used(), 2 * GIB); // clamped to total
        assert_eq!(m.page_cache(), GIB);
        assert_eq!(m.free(), 0);
        // Growing anonymous memory evicts cache.
        m.set_component("burst", 512 * MIB);
        assert_eq!(m.page_cache(), 512 * MIB);
        assert_eq!(m.used(), 2 * GIB);
    }

    #[test]
    fn shrink_page_cache_saturates() {
        let mut m = MemoryPool::new(MemorySpec::vm_2gb());
        m.grow_page_cache(10 * MIB);
        m.shrink_page_cache(100 * MIB);
        assert_eq!(m.page_cache(), 0);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut m = MemoryPool::new(MemorySpec::vm_2gb());
        m.set_component("a", 500 * MIB);
        m.set_component("a", 100 * MIB);
        assert_eq!(m.peak_used(), 500 * MIB);
        assert_eq!(m.used(), 100 * MIB);
    }

    #[test]
    fn balloon_shrinks_cache_but_not_anonymous() {
        let mut m = MemoryPool::new(MemorySpec::vm_2gb());
        m.set_component("app", GIB);
        m.grow_page_cache(GIB);
        assert_eq!(m.used(), 2 * GIB);
        // Deflate to 1.5 GB: cache shrinks to fit.
        let applied = m.balloon_to(GIB + GIB / 2);
        assert_eq!(applied, GIB + GIB / 2);
        assert_eq!(m.anonymous(), GIB);
        assert_eq!(m.page_cache(), GIB / 2);
        // Ballooning below anonymous clamps at anonymous.
        let applied = m.balloon_to(100 * MIB);
        assert_eq!(applied, GIB);
        assert_eq!(m.page_cache(), 0);
        // Inflate back.
        assert_eq!(m.balloon_to(2 * GIB), 2 * GIB);
        assert_eq!(m.free(), GIB);
    }

    #[test]
    fn utilization_fraction() {
        let mut m = MemoryPool::new(MemorySpec::vm_2gb());
        m.set_component("half", GIB);
        assert!((m.utilization() - 0.5).abs() < 1e-9);
    }
}
