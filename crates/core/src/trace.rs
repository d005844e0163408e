//! Out-of-core streaming analysis over on-disk chunked trace stores.
//!
//! The in-memory path keeps every sampled series in a [`SeriesStore`]
//! and analyzes it after the run; resident memory grows with the run
//! length. The streaming path persists samples during the run through
//! [`cloudchar_monitor::ChunkWriter`] (see
//! [`crate::experiment::RunOptions::trace_out`]) and analyzes the
//! on-disk store afterwards, one decoded chunk at a time:
//!
//! * [`TraceDir`] — a run's trace: one `.cctr` file, or a directory of
//!   them (a fleet writes one file per pod, host labels pre-prefixed
//!   `podNN/` so no renaming is needed on read);
//! * [`full_characterize_trace`] — the out-of-core counterpart of
//!   [`crate::characterize::full_characterize`]: the same catalog loop,
//!   the same worker pool, but each worker holds *one* series (fed
//!   chunk-by-chunk into its [`SeriesScratch`]) instead of the whole
//!   store being resident;
//! * [`ResourceCursor`] + [`write_csv_streaming`] — the figure
//!   exporters' units (`cycles`, MB, KB per sample) derived pointwise
//!   from decoded chunks, rendered to CSV rows byte-identical to the
//!   in-memory exporter;
//! * [`TraceDir::fold_values`] — the replay fingerprint's series fold,
//!   chunk-streamed in [`SeriesStore::iter`] order;
//! * [`TraceDir::read_store`] — the equivalence oracle: materialize the
//!   whole trace back into a [`SeriesStore`] (memory O(run length); the
//!   differential tests use it to pin both paths byte-identical).

use crate::characterize::{profile_loaded, FullCharacterization, MetricProfile};
use crate::sweep::par_map_ordered_with;
use cloudchar_analysis::{Resource, SeriesScratch};
use cloudchar_monitor::{catalog, ChunkReader, MetricId, SeriesCursor, SeriesStore, Source};
use cloudchar_simcore::{SimDuration, SimTime};
use std::io;
use std::path::{Path, PathBuf};

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A run's on-disk trace: one `.cctr` chunk file or a directory of them.
///
/// Only the footer indexes are resident (hosts + per-chunk entries);
/// sample payloads stay on disk until a [`SeriesCursor`] decodes them.
#[derive(Debug)]
pub struct TraceDir {
    readers: Vec<ChunkReader>,
}

impl TraceDir {
    /// Open a trace: a single `.cctr` file, or a directory whose
    /// `*.cctr` members (sorted by file name, so `pod00.cctr` before
    /// `pod01.cctr`) form one logical store.
    pub fn open(path: &Path) -> io::Result<TraceDir> {
        if path.is_file() {
            return Ok(TraceDir {
                readers: vec![ChunkReader::open(path)?],
            });
        }
        let mut files: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "cctr") {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(bad(format!(
                "{}: no .cctr trace files found",
                path.display()
            )));
        }
        let mut readers = Vec::with_capacity(files.len());
        for f in &files {
            readers.push(ChunkReader::open(f)?);
        }
        Ok(TraceDir { readers })
    }

    /// Host labels in presentation order: each file's footer order
    /// (which is the writer's first-touch order, i.e. the platform's
    /// sampling order), files in name order.
    pub fn hosts(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.readers {
            for h in r.hosts() {
                if !out.iter().any(|x| x == h) {
                    out.push(h.clone());
                }
            }
        }
        out
    }

    fn reader_for(&self, host: &str) -> Option<&ChunkReader> {
        self.readers
            .iter()
            .find(|r| r.hosts().iter().any(|h| h == host))
    }

    /// Does the trace hold any samples for `(host, metric)`?
    pub fn has_series(&self, host: &str, metric: MetricId) -> bool {
        self.reader_for(host)
            .is_some_and(|r| r.has_series(host, metric))
    }

    /// Start time and sampling interval of one series.
    pub fn timing(&self, host: &str, metric: MetricId) -> Option<(SimTime, SimDuration)> {
        self.reader_for(host).and_then(|r| r.timing(host, metric))
    }

    /// Open a decoding cursor over one series.
    pub fn cursor(&self, host: &str, metric: MetricId) -> io::Result<SeriesCursor> {
        let r = self
            .reader_for(host)
            .ok_or_else(|| bad(format!("host {host:?} not present in trace")))?;
        r.cursor(host, metric)
    }

    /// Every `(host, metric)` series present, sorted by
    /// `(host label, metric id)` — the same order [`SeriesStore::iter`]
    /// yields.
    pub fn series_ids(&self) -> Vec<(String, MetricId)> {
        let mut ids: Vec<(String, MetricId)> =
            self.readers.iter().flat_map(|r| r.series_ids()).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// FNV-1a fold of every series' value bits in [`SeriesStore::iter`]
    /// order, continuing from `h` — the chunk-streamed counterpart of
    /// hashing the in-memory store's series, byte-identical to it.
    pub fn fold_values(&self, mut h: u64) -> io::Result<u64> {
        for (host, metric) in self.series_ids() {
            let mut cur = self.cursor(&host, metric)?;
            while let Some(chunk) = cur.next_chunk()? {
                for &v in chunk {
                    h ^= v.to_bits();
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        Ok(h)
    }

    /// Materialize the whole trace as an in-memory [`SeriesStore`] —
    /// the equivalence oracle. Resident memory is O(run length); the
    /// streaming analyses above exist so normal use never needs this.
    pub fn read_store(&self) -> io::Result<SeriesStore> {
        let mut store = SeriesStore::new();
        for (host, metric) in self.series_ids() {
            let mut cur = self.cursor(&host, metric)?;
            let Some((start, interval)) = cur.timing() else {
                continue;
            };
            let id = store.host_id(&host);
            while let Some(chunk) = cur.next_chunk()? {
                for &v in chunk {
                    store.record_by_id(id, metric, start, interval, v);
                }
            }
        }
        Ok(store)
    }
}

/// Profile the entire metric catalog straight off the on-disk trace —
/// the out-of-core counterpart of [`crate::characterize::full_characterize`].
///
/// Task enumeration (host presentation order × catalog order), the
/// bounded worker pool, and every per-series analysis are identical to
/// the in-memory path; the difference is residency: each pooled worker
/// holds exactly one decoded series in its [`SeriesScratch`] (fed
/// chunk-by-chunk from a [`SeriesCursor`]) instead of requiring the
/// whole run's store in memory.
pub fn full_characterize_trace(trace: &TraceDir, jobs: usize) -> io::Result<FullCharacterization> {
    let c = catalog();
    let hosts = trace.hosts();
    let mut tasks: Vec<(&str, MetricId)> = Vec::new();
    let mut metrics_per_host = Vec::with_capacity(hosts.len());
    for host in &hosts {
        let before = tasks.len();
        for id in c.ids() {
            if trace.has_series(host, id) {
                tasks.push((host.as_str(), id));
            }
        }
        metrics_per_host.push((host.clone(), tasks.len() - before));
    }
    let dt_s = match tasks.first() {
        Some(&(host, id)) => match trace.timing(host, id) {
            Some((_, interval)) => interval.as_secs_f64(),
            None => return Err(bad("trace index holds a series with no chunks".to_string())),
        },
        None => return Err(bad("trace holds no series to characterize".to_string())),
    };
    let outcomes = par_map_ordered_with(
        &tasks,
        jobs,
        SeriesScratch::new,
        |scratch, &(host, id)| -> io::Result<Option<MetricProfile>> {
            let mut cur = trace.cursor(host, id)?;
            scratch.begin_load();
            while let Some(chunk) = cur.next_chunk()? {
                scratch.extend_load(chunk);
            }
            scratch.finish_load();
            let Some((summary, fit, autocorr1, jumps, period)) = profile_loaded(scratch, dt_s)
            else {
                return Ok(None);
            };
            let def = c.def(id);
            Ok(Some(MetricProfile {
                host: host.to_string(),
                metric: def.name.clone(),
                source: def.source,
                summary,
                fit,
                autocorr1,
                jumps,
                period,
            }))
        },
    );
    let mut profiles = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        if let Some(p) = outcome? {
            profiles.push(p);
        }
    }
    Ok(FullCharacterization {
        hosts,
        metrics_per_host,
        profiles,
    })
}

/// Pointwise derivation applied to decoded chunks, mirroring
/// [`crate::experiment::ExperimentResult::resource_series`] exactly.
#[derive(Debug, Clone, Copy)]
enum DerivKind {
    /// CPU cycles per sample: the raw `cycles` perf counter.
    Identity,
    /// Used memory in MB: `kbmemused / 1024`.
    RamMb,
    /// Disk read+write KB per sample: `(bread/s + bwrtn/s) · 512 · dt / 1024`.
    DiskKb,
    /// Network rx+tx KB per sample: `(rx + tx) · dt`.
    NetKb,
}

/// Streaming derived-resource series: decodes one chunk at a time from
/// the underlying series cursor(s) and applies the figure exporters'
/// unit derivation pointwise, producing values bit-identical to
/// [`crate::experiment::ExperimentResult::resource_series`].
///
/// A missing underlying metric yields an immediately-exhausted cursor —
/// the same empty series the in-memory derivation produces. Paired
/// derivations (disk, net) zip both series to the shorter chunk; the
/// writer seals both on the same tick cadence, so the chunks align.
#[derive(Debug)]
pub struct ResourceCursor {
    kind: DerivKind,
    dt_s: f64,
    a: Option<SeriesCursor>,
    b: Option<SeriesCursor>,
    buf: Vec<f64>,
    idx: usize,
    exhausted: bool,
}

impl ResourceCursor {
    /// Open a derived-resource stream for one host, in the figures'
    /// units; `dt_s` is the sampling interval in seconds.
    pub fn new(
        trace: &TraceDir,
        resource: Resource,
        host: &str,
        dt_s: f64,
    ) -> io::Result<ResourceCursor> {
        let c = catalog();
        // Same plane selection as `ExperimentResult::sysstat_source`:
        // guest-suffixed hosts (including `podNN/web-vm`) report through
        // the VM sysstat plane, everything else through the hypervisor's.
        let sys = if host.ends_with("-vm") {
            Source::VmSysstat
        } else {
            Source::HypervisorSysstat
        };
        let open = |name: &str, source: Source| -> io::Result<Option<SeriesCursor>> {
            let Some(id) = c.find(name, source) else {
                return Err(bad(format!("metric {name} not in catalog")));
            };
            if trace.has_series(host, id) {
                Ok(Some(trace.cursor(host, id)?))
            } else {
                Ok(None)
            }
        };
        let (kind, a, b) = match resource {
            Resource::Cpu => (
                DerivKind::Identity,
                open("cycles", Source::PerfCounter)?,
                None,
            ),
            Resource::Ram => (DerivKind::RamMb, open("kbmemused", sys)?, None),
            Resource::Disk => (
                DerivKind::DiskKb,
                open("bread/s", sys)?,
                open("bwrtn/s", sys)?,
            ),
            Resource::Net => (
                DerivKind::NetKb,
                open("eth0-rxkB/s", sys)?,
                open("eth0-txkB/s", sys)?,
            ),
        };
        Ok(ResourceCursor {
            kind,
            dt_s,
            a,
            b,
            buf: Vec::new(),
            idx: 0,
            exhausted: false,
        })
    }

    /// Decode and derive the next chunk into the reused buffer; `false`
    /// when the underlying series is exhausted (or absent).
    fn refill(&mut self) -> io::Result<bool> {
        self.buf.clear();
        self.idx = 0;
        if self.exhausted {
            return Ok(false);
        }
        let dt = self.dt_s;
        match self.kind {
            DerivKind::Identity | DerivKind::RamMb => {
                let Some(cur) = self.a.as_mut() else {
                    self.exhausted = true;
                    return Ok(false);
                };
                let Some(chunk) = cur.next_chunk()? else {
                    self.exhausted = true;
                    return Ok(false);
                };
                match self.kind {
                    DerivKind::Identity => self.buf.extend_from_slice(chunk),
                    _ => self.buf.extend(chunk.iter().map(|kb| kb / 1024.0)),
                }
            }
            DerivKind::DiskKb | DerivKind::NetKb => {
                let (Some(ca), Some(cb)) = (self.a.as_mut(), self.b.as_mut()) else {
                    self.exhausted = true;
                    return Ok(false);
                };
                let Some(av) = ca.next_chunk()? else {
                    self.exhausted = true;
                    return Ok(false);
                };
                let Some(bv) = cb.next_chunk()? else {
                    self.exhausted = true;
                    return Ok(false);
                };
                let n = av.len().min(bv.len());
                match self.kind {
                    DerivKind::DiskKb => self.buf.extend(
                        av[..n]
                            .iter()
                            .zip(&bv[..n])
                            .map(|(r, w)| (r + w) * 512.0 * dt / 1024.0),
                    ),
                    _ => self
                        .buf
                        .extend(av[..n].iter().zip(&bv[..n]).map(|(r, t)| (r + t) * dt)),
                }
            }
        }
        Ok(!self.buf.is_empty())
    }

    /// The next derived sample; `None` once the series is exhausted.
    pub fn next_value(&mut self) -> io::Result<Option<f64>> {
        if self.idx >= self.buf.len() && !self.refill()? {
            return Ok(None);
        }
        let v = self.buf.get(self.idx).copied();
        self.idx += 1;
        Ok(v)
    }
}

/// Stream figure-CSV rows from derived-resource columns, byte-identical
/// to the in-memory exporter: a header line, then one row per sample
/// index with the time column `{:.1}` at `(i + 1) · dt_s` and `,{:.3}`
/// per column, exhausted columns padded with `NaN` until the longest
/// column ends. Only one decoded chunk per column is resident.
pub fn write_csv_streaming(
    path: &Path,
    header: &str,
    cols: &mut [ResourceCursor],
    dt_s: f64,
) -> io::Result<()> {
    use std::io::Write as _;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{header}")?;
    let mut row = String::new();
    let mut i: usize = 0;
    loop {
        row.clear();
        let mut live = false;
        for col in cols.iter_mut() {
            let v = match col.next_value()? {
                Some(v) => {
                    live = true;
                    v
                }
                None => f64::NAN,
            };
            row.push_str(&format!(",{v:.3}"));
        }
        if !live {
            break;
        }
        write!(f, "{:.1}", (i + 1) as f64 * dt_s)?;
        f.write_all(row.as_bytes())?;
        writeln!(f)?;
        i += 1;
    }
    f.flush()
}
