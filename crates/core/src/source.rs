//! One view of a run's sampled series, wherever they are stored.
//!
//! A run's series live either in a resident [`SeriesStore`] (inside an
//! [`ExperimentResult`] or a fleet's merged store) or in an on-disk
//! `.cctr` trace ([`crate::trace::TraceDir`]). [`SeriesSource`] hides
//! which: it gives the host presentation order, the sampling interval,
//! whether a `(host, metric)` series is present, and loads one series
//! at a time. Everything that reads series is written once over it:
//!
//! * [`crate::characterize::full_characterize_source`] — the catalog
//!   characterization;
//! * [`resource_series`] — the figures' Cpu/Ram/Disk/Net units;
//! * [`fold_series`] — the replay fingerprint's series fold.
//!
//! A consumer holds at most one series per worker or per output
//! column, never the whole store.

use crate::experiment::ExperimentResult;
use cloudchar_analysis::{Resource, SeriesScratch};
use cloudchar_monitor::{catalog, MetricId, SeriesStore, Source};
use cloudchar_simcore::SimDuration;
use std::io;

/// Where a run's sampled series can be read from.
pub trait SeriesSource: Sync {
    /// Host labels in presentation order.
    fn hosts(&self) -> Vec<String>;

    /// The sampling interval; `None` when the source holds no series.
    fn interval(&self) -> Option<SimDuration>;

    /// Whether `(host, metric)` holds samples.
    fn has_series(&self, host: &str, metric: MetricId) -> bool;

    /// Feed the samples of `(host, metric)` to `sink` in order, one
    /// chunk per call. An absent series feeds nothing.
    fn read_chunks(
        &self,
        host: &str,
        metric: MetricId,
        sink: &mut dyn FnMut(&[f64]),
    ) -> io::Result<()>;

    /// The samples of `(host, metric)` when they are already in memory,
    /// so a caller may read them in place.
    fn resident(&self, _host: &str, _metric: MetricId) -> Option<&[f64]> {
        None
    }

    /// Load one series into `buf`, replacing its contents (empty when
    /// the series is absent).
    fn load(&self, host: &str, metric: MetricId, buf: &mut Vec<f64>) -> io::Result<()> {
        buf.clear();
        self.read_chunks(host, metric, &mut |chunk| buf.extend_from_slice(chunk))
    }

    /// Load one series into a profiling workspace.
    fn load_scratch(
        &self,
        host: &str,
        metric: MetricId,
        scratch: &mut SeriesScratch,
    ) -> io::Result<()> {
        scratch.begin_load();
        self.read_chunks(host, metric, &mut |chunk| scratch.extend_load(chunk))?;
        scratch.finish_load();
        Ok(())
    }
}

impl SeriesSource for SeriesStore {
    /// Hosts in first-touch order, the order a trace of the same run
    /// lists them in.
    fn hosts(&self) -> Vec<String> {
        self.host_labels().to_vec()
    }

    fn interval(&self) -> Option<SimDuration> {
        self.iter().next().map(|(_, _, series)| series.interval)
    }

    fn has_series(&self, host: &str, metric: MetricId) -> bool {
        self.get(host, metric).is_some()
    }

    fn read_chunks(
        &self,
        host: &str,
        metric: MetricId,
        sink: &mut dyn FnMut(&[f64]),
    ) -> io::Result<()> {
        if let Some(xs) = self.resident(host, metric) {
            sink(xs);
        }
        Ok(())
    }

    fn resident(&self, host: &str, metric: MetricId) -> Option<&[f64]> {
        self.get(host, metric)
            .map(|series| series.values.as_slice())
    }
}

impl SeriesSource for ExperimentResult {
    fn hosts(&self) -> Vec<String> {
        self.hosts.clone()
    }

    fn interval(&self) -> Option<SimDuration> {
        Some(self.config.sample_interval)
    }

    fn has_series(&self, host: &str, metric: MetricId) -> bool {
        self.store.has_series(host, metric)
    }

    fn read_chunks(
        &self,
        host: &str,
        metric: MetricId,
        sink: &mut dyn FnMut(&[f64]),
    ) -> io::Result<()> {
        self.store.read_chunks(host, metric, sink)
    }

    fn resident(&self, host: &str, metric: MetricId) -> Option<&[f64]> {
        self.store.resident(host, metric)
    }
}

/// The value of a read from a resident source, whose store performs no
/// I/O and so cannot fail.
pub(crate) fn resident_read<T>(read: io::Result<T>) -> T {
    read.expect("a resident store reads without I/O")
}

/// Demand series of one resource on one host, in the figures' units:
/// CPU cycles per sample (`cycles`), used memory in MB
/// (`kbmemused / 1024`), disk read+write KB per sample
/// (`(bread/s + bwrtn/s) · 512 · dt / 1024`) and network rx+tx KB per
/// sample (`(rx + tx) · dt`). A missing input metric gives an empty
/// series; a paired derivation is as long as its shorter input.
pub fn resource_series<S: SeriesSource + ?Sized>(
    src: &S,
    resource: Resource,
    host: &str,
) -> io::Result<Vec<f64>> {
    let c = catalog();
    let id = |name: &str, source: Source| {
        c.find(name, source)
            .unwrap_or_else(|| panic!("metric {name} not in catalog"))
    };
    // Guest hosts (`web-vm`, `podNN/mysql-vm`) report through the VM
    // sysstat plane, every other host through the hypervisor's.
    let sys = if host.ends_with("-vm") {
        Source::VmSysstat
    } else {
        Source::HypervisorSysstat
    };
    let dt = src.interval().map_or(0.0, |d| d.as_secs_f64());
    let mut out = Vec::new();
    match resource {
        Resource::Cpu => src.load(host, id("cycles", Source::PerfCounter), &mut out)?,
        Resource::Ram => {
            src.load(host, id("kbmemused", sys), &mut out)?;
            for x in &mut out {
                *x /= 1024.0;
            }
        }
        Resource::Disk => zip_into(
            src,
            host,
            [id("bread/s", sys), id("bwrtn/s", sys)],
            &mut out,
            |r, w| (r + w) * 512.0 * dt / 1024.0,
        )?,
        Resource::Net => zip_into(
            src,
            host,
            [id("eth0-rxkB/s", sys), id("eth0-txkB/s", sys)],
            &mut out,
            |r, t| (r + t) * dt,
        )?,
    }
    Ok(out)
}

/// Combine two series of `host` pointwise into `out` with `f`, cut to
/// the shorter one. The second series is read chunk by chunk straight
/// into the first, so only one series is held.
fn zip_into<S: SeriesSource + ?Sized>(
    src: &S,
    host: &str,
    [a, b]: [MetricId; 2],
    out: &mut Vec<f64>,
    f: impl Fn(f64, f64) -> f64,
) -> io::Result<()> {
    src.load(host, a, out)?;
    let mut n = 0;
    src.read_chunks(host, b, &mut |chunk| {
        for &y in chunk {
            if let Some(x) = out.get_mut(n) {
                *x = f(*x, y);
            }
            n += 1;
        }
    })?;
    out.truncate(n);
    Ok(())
}

/// FNV-1a fold of every series' value bits, continuing from `h`, in
/// [`SeriesStore::iter`] order (hosts by label, metrics by id) — the
/// series half of a fleet's replay fingerprint, equal whether the
/// series are resident or on disk.
pub fn fold_series<S: SeriesSource + ?Sized>(src: &S, mut h: u64) -> io::Result<u64> {
    let mut hosts = src.hosts();
    hosts.sort();
    for host in &hosts {
        for id in catalog().ids() {
            src.read_chunks(host, id, &mut |chunk| {
                for &v in chunk {
                    h = (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3);
                }
            })?;
        }
    }
    Ok(h)
}
