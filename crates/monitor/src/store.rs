//! Time-series storage for sampled metrics.
//!
//! The paper samples every 2 seconds for ~20 minutes, giving ~600 points
//! per metric per host. [`SeriesStore`] holds one [`TimeSeries`] per
//! `(host, metric)` pair and can export figure-ready columns.
//!
//! Layout: the store is *columnar*. Hosts are interned once into small
//! dense [`HostId`]s, and each host owns a block of columns indexed
//! directly by [`MetricId`] (the catalog is a fixed dense table, so
//! `metric.0` *is* the column index). The hot path commits one whole
//! [`SampleRow`] per host per tick through [`SeriesStore::record_row`]
//! without touching a `String` key or a map probe; the keyed
//! `(host, metric) → TimeSeries` view survives as the compatibility API
//! ([`SeriesStore::get`] and friends) for analysis and reporting.
//! Serialization still emits the flat `(host, metric, series)` entry
//! list in `(host, metric)` order, byte-identical to the previous
//! map-backed format.

use crate::metric::MetricId;
use cloudchar_simcore::stats::Moments;
use cloudchar_simcore::{audit, SimDuration, SimTime};
use serde::{Deserialize, Error, Serialize, Value};

/// A regularly sampled series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Time of the first sample.
    pub start: SimTime,
    /// Sampling interval.
    pub interval: SimDuration,
    /// Sample values.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series with the given timing.
    pub fn new(start: SimTime, interval: SimDuration) -> Self {
        TimeSeries {
            start,
            interval,
            values: Vec::new(),
        }
    }

    /// An empty series preallocated for `capacity` samples.
    pub fn with_capacity(start: SimTime, interval: SimDuration, capacity: usize) -> Self {
        TimeSeries {
            start,
            interval,
            values: Vec::with_capacity(capacity),
        }
    }

    /// Append one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Timestamp of sample `i`.
    pub fn time_of(&self, i: usize) -> SimTime {
        self.start + SimDuration::from_nanos(self.interval.as_nanos().saturating_mul(i as u64))
    }

    /// One-pass summary moments (count, mean, M2, sum, min, max).
    pub fn moments(&self) -> Moments {
        Moments::of(&self.values)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        let m = self.moments();
        if m.count == 0 {
            0.0
        } else {
            m.sum / m.count as f64
        }
    }

    /// Population variance (0 when < 2 samples).
    pub fn variance(&self) -> f64 {
        self.moments().variance()
    }

    /// Sum of all samples (aggregate demand over the run).
    pub fn total(&self) -> f64 {
        self.moments().sum
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.moments().max_opt()
    }
}

/// Label identifying a monitored host (e.g. `"web-vm"`, `"dom0"`).
pub type HostLabel = String;

/// Dense interned host handle, valid for the [`SeriesStore`] that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostId(pub u32);

/// One host's metric row for a single sampling tick: `(metric, value)`
/// pairs in synthesis order. Reused across ticks so steady-state
/// sampling allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SampleRow {
    entries: Vec<(MetricId, f64)>,
}

impl SampleRow {
    /// Empty row.
    pub fn new() -> Self {
        SampleRow::default()
    }

    /// Empty row preallocated for `capacity` metrics.
    pub fn with_capacity(capacity: usize) -> Self {
        SampleRow {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Drop all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Append one `(metric, value)` pair.
    pub fn push(&mut self, metric: MetricId, value: f64) {
        self.entries.push((metric, value));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the row has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(metric, value)` pairs in insertion order.
    pub fn entries(&self) -> &[(MetricId, f64)] {
        &self.entries
    }
}

/// Store of all sampled series: per-host column blocks indexed by
/// [`MetricId`], with a `(host, metric)` keyed compatibility view.
#[derive(Debug, Default, Clone)]
pub struct SeriesStore {
    /// Interned host labels, in first-touch order (`HostId.0` indexes
    /// this and `blocks`).
    hosts: Vec<HostLabel>,
    /// Per-host columns; `metric.0 as usize` is the column index.
    blocks: Vec<Vec<Option<TimeSeries>>>,
    /// Preallocation hint: expected samples per series (0 = unknown).
    expected_samples: usize,
}

impl Serialize for SeriesStore {
    fn to_value(&self) -> Value {
        // Emit the flat entry list sorted by (host label, metric id) —
        // exactly the order the previous BTreeMap-backed store produced,
        // so serialized traces stay byte-identical.
        let mut order: Vec<usize> = (0..self.hosts.len()).collect();
        order.sort_by(|&a, &b| self.hosts[a].cmp(&self.hosts[b]));
        let mut entries = Vec::new();
        for hi in order {
            for (ci, col) in self.blocks[hi].iter().enumerate() {
                if let Some(series) = col {
                    entries.push(Value::Seq(vec![
                        self.hosts[hi].to_value(),
                        MetricId(ci as u16).to_value(),
                        series.to_value(),
                    ]));
                }
            }
        }
        Value::Map(vec![("series".to_string(), Value::Seq(entries))])
    }
}

impl Deserialize for SeriesStore {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries: Vec<(HostLabel, MetricId, TimeSeries)> =
            Deserialize::from_value(v.field("series"))?;
        let mut store = SeriesStore::new();
        for (host, metric, series) in entries {
            let id = store.host_id(&host);
            store.put_series(id, metric, series);
        }
        Ok(store)
    }
}

impl SeriesStore {
    /// Empty store.
    pub fn new() -> Self {
        SeriesStore::default()
    }

    /// Empty store that preallocates every new series for
    /// `expected_samples` points (`duration / interval` of the run).
    pub fn with_expected_samples(expected_samples: usize) -> Self {
        SeriesStore {
            expected_samples,
            ..SeriesStore::default()
        }
    }

    /// Intern a host label, returning its dense id. The first call for a
    /// label allocates its column block; subsequent calls are a short
    /// scan over the (few) known hosts.
    pub fn host_id(&mut self, host: &str) -> HostId {
        if let Some(i) = self.hosts.iter().position(|h| h == host) {
            return HostId(i as u32);
        }
        self.hosts.push(host.to_string());
        self.blocks
            .push(Vec::with_capacity(crate::catalog::TOTAL_METRICS));
        HostId((self.hosts.len() - 1) as u32)
    }

    /// Interned host labels in first-touch order (the sampling order of
    /// the platform that filled the store).
    pub fn host_labels(&self) -> &[HostLabel] {
        &self.hosts
    }

    /// Label of an interned host.
    pub fn host_label(&self, id: HostId) -> &str {
        &self.hosts[id.0 as usize]
    }

    fn find_host(&self, host: &str) -> Option<usize> {
        self.hosts.iter().position(|h| h == host)
    }

    /// Column slot for `(host, metric)`, growing the block on demand.
    fn column_mut(&mut self, id: HostId, metric: MetricId) -> &mut Option<TimeSeries> {
        let block = &mut self.blocks[id.0 as usize];
        let idx = metric.0 as usize;
        if idx >= block.len() {
            block.resize_with(idx + 1, || None);
        }
        &mut block[idx]
    }

    fn put_series(&mut self, id: HostId, metric: MetricId, series: TimeSeries) {
        *self.column_mut(id, metric) = Some(series);
    }

    /// Append a sample, creating the series on first touch.
    pub fn record(
        &mut self,
        host: &str,
        metric: MetricId,
        start: SimTime,
        interval: SimDuration,
        value: f64,
    ) {
        let id = self.host_id(host);
        self.record_by_id(id, metric, start, interval, value);
    }

    /// Append a sample under an interned host id.
    pub fn record_by_id(
        &mut self,
        id: HostId,
        metric: MetricId,
        start: SimTime,
        interval: SimDuration,
        value: f64,
    ) {
        let expected = self.expected_samples;
        let block = &mut self.blocks[id.0 as usize];
        let idx = metric.0 as usize;
        if idx >= block.len() {
            block.resize_with(idx + 1, || None);
        }
        let series =
            block[idx].get_or_insert_with(|| TimeSeries::with_capacity(start, interval, expected));
        if audit::is_enabled() {
            let host = &self.hosts[id.0 as usize];
            audit::check(
                "monitor.sample_finite",
                series.time_of(series.len()).as_nanos(),
                value.is_finite(),
                || format!("{host}/{metric:?} sample {} is {value}", series.len()),
            );
        }
        series.push(value);
    }

    /// Commit one host's whole sampling row: every `(metric, value)`
    /// pair is appended to its column, creating columns on first touch.
    pub fn record_row(
        &mut self,
        id: HostId,
        start: SimTime,
        interval: SimDuration,
        row: &SampleRow,
    ) {
        let audit_on = audit::is_enabled();
        let expected = self.expected_samples;
        let block = &mut self.blocks[id.0 as usize];
        for &(metric, value) in &row.entries {
            let idx = metric.0 as usize;
            if idx >= block.len() {
                block.resize_with(idx + 1, || None);
            }
            let series = block[idx]
                .get_or_insert_with(|| TimeSeries::with_capacity(start, interval, expected));
            if audit_on {
                let host = &self.hosts[id.0 as usize];
                audit::check(
                    "monitor.sample_finite",
                    series.time_of(series.len()).as_nanos(),
                    value.is_finite(),
                    || format!("{host}/{metric:?} sample {} is {value}", series.len()),
                );
            }
            series.push(value);
        }
    }

    /// Fetch a series.
    pub fn get(&self, host: &str, metric: MetricId) -> Option<&TimeSeries> {
        let hi = self.find_host(host)?;
        self.blocks[hi].get(metric.0 as usize)?.as_ref()
    }

    /// Every series of `host`, by metric id; none when the host is
    /// unknown.
    pub fn host_series(&self, host: &str) -> impl Iterator<Item = (MetricId, &TimeSeries)> {
        let block = self
            .find_host(host)
            .map_or(&[][..], |hi| &self.blocks[hi][..]);
        block
            .iter()
            .enumerate()
            .filter_map(|(ci, col)| col.as_ref().map(|s| (MetricId(ci as u16), s)))
    }

    /// Iterate every `(host, metric, series)` entry, sorted by
    /// `(host label, metric id)` — the order the keyed store yielded.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricId, &TimeSeries)> {
        let mut order: Vec<usize> = (0..self.hosts.len()).collect();
        order.sort_by(|&a, &b| self.hosts[a].cmp(&self.hosts[b]));
        order.into_iter().flat_map(move |hi| {
            self.blocks[hi]
                .iter()
                .enumerate()
                .filter_map(move |(ci, col)| {
                    col.as_ref()
                        .map(|s| (self.hosts[hi].as_str(), MetricId(ci as u16), s))
                })
        })
    }

    /// All hosts present, sorted by label.
    pub fn hosts(&self) -> Vec<&str> {
        let mut hosts: Vec<&str> = self
            .hosts
            .iter()
            .enumerate()
            .filter(|(hi, _)| self.blocks[*hi].iter().any(Option::is_some))
            .map(|(_, h)| h.as_str())
            .collect();
        hosts.sort_unstable();
        hosts
    }

    /// Number of `(host, metric)` series.
    pub fn len(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.iter().filter(|c| c.is_some()).count())
            .sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absorb every series of `other`, prefixing each of its host
    /// labels with `prefix` — how the fleet runner folds per-pod stores
    /// into one sweep-wide store without label collisions. Panics if a
    /// renamed `(host, metric)` series already exists here: pods own
    /// disjoint hosts by construction, and a collision means two shards
    /// sampled the same host. Consumes `other` and *moves* every series
    /// across (no clone), so folding N pod stores does not double peak
    /// memory at finalize.
    pub fn merge_renamed(&mut self, other: SeriesStore, prefix: &str) {
        for (host, block) in other.hosts.into_iter().zip(other.blocks) {
            let renamed = format!("{prefix}{host}");
            let id = self.host_id(&renamed);
            for (ci, col) in block.into_iter().enumerate() {
                let Some(series) = col else { continue };
                let slot = self.column_mut(id, MetricId(ci as u16));
                assert!(
                    slot.is_none(),
                    "merge_renamed: series {renamed}/{ci} already present"
                );
                *slot = Some(series);
            }
        }
    }

    /// Export one series as `(seconds, value)` rows.
    pub fn to_rows(&self, host: &str, metric: MetricId) -> Vec<(f64, f64)> {
        match self.get(host, metric) {
            None => Vec::new(),
            Some(s) => s
                .values
                .iter()
                .enumerate()
                .map(|(i, &v)| (s.time_of(i).as_secs_f64(), v))
                .collect(),
        }
    }

    /// Export several series on a shared time axis as CSV with a header.
    pub fn to_csv(&self, columns: &[(&str, MetricId, &str)]) -> String {
        let mut out = String::from("t_s");
        for (_, _, label) in columns {
            out.push(',');
            out.push_str(label);
        }
        out.push('\n');
        let n = columns
            .iter()
            .filter_map(|(h, m, _)| self.get(h, *m).map(|s| s.len()))
            .max()
            .unwrap_or(0);
        let timing = columns
            .iter()
            .find_map(|(h, m, _)| self.get(h, *m))
            .map(|s| (s.start, s.interval))
            .unwrap_or((SimTime::ZERO, SimDuration::from_secs(2)));
        for i in 0..n {
            let t =
                timing.0 + SimDuration::from_nanos(timing.1.as_nanos().saturating_mul(i as u64));
            out.push_str(&format!("{:.1}", t.as_secs_f64()));
            for (h, m, _) in columns {
                let v = self
                    .get(h, *m)
                    .and_then(|s| s.values.get(i))
                    .copied()
                    .unwrap_or(f64::NAN);
                out.push_str(&format!(",{v:.3}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(n: u16) -> MetricId {
        MetricId(n)
    }

    #[test]
    fn series_timing_and_stats() {
        let mut s = TimeSeries::new(SimTime::from_secs(10), SimDuration::from_secs(2));
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.time_of(0), SimTime::from_secs(10));
        assert_eq!(s.time_of(3), SimTime::from_secs(16));
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.total(), 10.0);
        assert_eq!(s.max(), Some(4.0));
        assert!((s.variance() - 1.25).abs() < 1e-12);
        let m = s.moments();
        assert_eq!(m.count, 4);
        assert_eq!(m.min_opt(), Some(1.0));
        assert!(m.all_finite);
    }

    #[test]
    fn empty_series_stats() {
        let s = TimeSeries::new(SimTime::ZERO, SimDuration::from_secs(2));
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn store_records_and_retrieves() {
        let mut st = SeriesStore::new();
        for i in 0..5 {
            st.record(
                "web-vm",
                mid(3),
                SimTime::ZERO,
                SimDuration::from_secs(2),
                i as f64,
            );
        }
        let s = st.get("web-vm", mid(3)).unwrap();
        assert_eq!(s.len(), 5);
        assert!(st.get("web-vm", mid(4)).is_none());
        assert!(st.get("db-vm", mid(3)).is_none());
        assert_eq!(st.len(), 1);
        assert_eq!(st.hosts(), vec!["web-vm"]);
    }

    #[test]
    fn host_interning_is_stable() {
        let mut st = SeriesStore::new();
        let a = st.host_id("web-vm");
        let b = st.host_id("mysql-vm");
        assert_ne!(a, b);
        assert_eq!(st.host_id("web-vm"), a);
        assert_eq!(st.host_label(a), "web-vm");
        assert_eq!(st.host_label(b), "mysql-vm");
    }

    #[test]
    fn record_row_matches_per_metric_record() {
        let start = SimTime::from_secs(2);
        let dt = SimDuration::from_secs(2);
        let mut row = SampleRow::new();
        row.push(mid(1), 10.0);
        row.push(mid(4), 40.0);

        let mut columnar = SeriesStore::new();
        let id = columnar.host_id("h");
        columnar.record_row(id, start, dt, &row);
        columnar.record_row(id, start, dt, &row);

        let mut keyed = SeriesStore::new();
        for _ in 0..2 {
            for &(m, v) in row.entries() {
                keyed.record("h", m, start, dt, v);
            }
        }
        for m in [mid(1), mid(4)] {
            assert_eq!(columnar.get("h", m), keyed.get("h", m));
        }
        assert_eq!(columnar.len(), keyed.len());
    }

    #[test]
    fn sample_row_reuse_clears_entries() {
        let mut row = SampleRow::with_capacity(8);
        row.push(mid(0), 1.0);
        assert_eq!(row.len(), 1);
        row.clear();
        assert!(row.is_empty());
        assert!(row.entries().is_empty());
    }

    #[test]
    fn hosts_and_iter_are_label_sorted() {
        let mut st = SeriesStore::new();
        // First-touch order is deliberately not sorted.
        for h in ["web-vm", "mysql-vm", "dom0"] {
            st.record(h, mid(2), SimTime::ZERO, SimDuration::from_secs(2), 1.0);
            st.record(h, mid(0), SimTime::ZERO, SimDuration::from_secs(2), 2.0);
        }
        assert_eq!(st.hosts(), vec!["dom0", "mysql-vm", "web-vm"]);
        let keys: Vec<(String, u16)> = st.iter().map(|(h, m, _)| (h.to_string(), m.0)).collect();
        assert_eq!(
            keys,
            vec![
                ("dom0".to_string(), 0),
                ("dom0".to_string(), 2),
                ("mysql-vm".to_string(), 0),
                ("mysql-vm".to_string(), 2),
                ("web-vm".to_string(), 0),
                ("web-vm".to_string(), 2),
            ]
        );
    }

    #[test]
    fn merge_renamed_prefixes_and_keeps_series() {
        let start = SimTime::ZERO;
        let dt = SimDuration::from_secs(2);
        let mut pod = SeriesStore::new();
        pod.record("web-vm", mid(1), start, dt, 3.0);
        pod.record("dom0", mid(0), start, dt, 5.0);
        let mut fleet = SeriesStore::new();
        fleet.record("gen", mid(0), start, dt, 1.0);
        fleet.merge_renamed(pod, "pod00/");
        assert_eq!(fleet.get("pod00/web-vm", mid(1)).unwrap().values, vec![3.0]);
        assert_eq!(fleet.get("pod00/dom0", mid(0)).unwrap().values, vec![5.0]);
        assert_eq!(fleet.get("gen", mid(0)).unwrap().values, vec![1.0]);
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.hosts(), vec!["gen", "pod00/dom0", "pod00/web-vm"]);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn merge_renamed_rejects_collisions() {
        let start = SimTime::ZERO;
        let dt = SimDuration::from_secs(2);
        let mut a = SeriesStore::new();
        a.record("p/web-vm", mid(1), start, dt, 1.0);
        let mut b = SeriesStore::new();
        b.record("web-vm", mid(1), start, dt, 2.0);
        a.merge_renamed(b, "p/");
    }

    #[test]
    fn rows_use_timestamps() {
        let mut st = SeriesStore::new();
        st.record(
            "h",
            mid(0),
            SimTime::from_secs(4),
            SimDuration::from_secs(2),
            7.0,
        );
        st.record(
            "h",
            mid(0),
            SimTime::from_secs(4),
            SimDuration::from_secs(2),
            9.0,
        );
        let rows = st.to_rows("h", mid(0));
        assert_eq!(rows, vec![(4.0, 7.0), (6.0, 9.0)]);
        assert!(st.to_rows("h", mid(9)).is_empty());
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut st = SeriesStore::new();
        for v in [1.0, 2.0] {
            st.record("a", mid(0), SimTime::ZERO, SimDuration::from_secs(2), v);
            st.record(
                "b",
                mid(0),
                SimTime::ZERO,
                SimDuration::from_secs(2),
                v * 10.0,
            );
        }
        let csv = st.to_csv(&[("a", mid(0), "alpha"), ("b", mid(0), "beta")]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_s,alpha,beta");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0.0,1.000,10.000"));
    }

    #[test]
    fn serde_round_trip() {
        let mut st = SeriesStore::new();
        st.record("h", mid(1), SimTime::ZERO, SimDuration::from_secs(2), 3.5);
        let json = serde_json::to_string(&st).unwrap();
        let back: SeriesStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("h", mid(1)).unwrap().values, vec![3.5]);
    }

    #[test]
    fn serde_bytes_are_host_sorted_regardless_of_touch_order() {
        let start = SimTime::ZERO;
        let dt = SimDuration::from_secs(2);
        let mut a = SeriesStore::new();
        for h in ["web-vm", "mysql-vm", "dom0"] {
            a.record(h, mid(1), start, dt, 1.5);
        }
        let mut b = SeriesStore::new();
        for h in ["dom0", "mysql-vm", "web-vm"] {
            b.record(h, mid(1), start, dt, 1.5);
        }
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
