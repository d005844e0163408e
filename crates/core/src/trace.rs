//! A run's on-disk trace as a [`SeriesSource`].
//!
//! The resident path keeps every sampled series in a
//! [`SeriesStore`](cloudchar_monitor::SeriesStore)
//! and analyzes it after the run; resident memory grows with the run
//! length. A traced run persists samples during the run through
//! [`cloudchar_monitor::ChunkWriter`] (see
//! [`crate::experiment::RunOptions::trace_out`]), and [`TraceDir`]
//! serves the on-disk store through the same [`SeriesSource`] the
//! resident store implements. Characterization, figure units and the
//! fingerprint fold are written once over that trait
//! ([`crate::source`]), so a traced run's outputs are the resident
//! run's by construction.
//!
//! Only the footer indexes are resident. A series is decoded one chunk
//! at a time into its consumer's buffer, so a consumer holds at most
//! the one series it is working on. To materialize a whole trace (the
//! equivalence oracle of the tests), read each file with
//! [`cloudchar_monitor::chunk::read_store`].

use crate::characterize::{full_characterize_source, FullCharacterization};
use crate::source::SeriesSource;
use cloudchar_monitor::{catalog, ChunkReader, MetricId};
use cloudchar_simcore::SimDuration;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A run's on-disk trace: one `.cctr` chunk file or a directory of them
/// (a fleet writes one file per pod, host labels pre-prefixed `podNN/`
/// so no renaming is needed on read).
#[derive(Debug)]
pub struct TraceDir {
    readers: Vec<ChunkReader>,
    /// Host labels in presentation order: each file's footer order
    /// (the writer's first-touch order, i.e. the platform's sampling
    /// order), files in name order.
    hosts: Vec<String>,
    /// The reader holding each host (the first file that names it).
    reader_of: HashMap<String, usize>,
}

impl TraceDir {
    /// Open a trace: a single `.cctr` file, or a directory whose
    /// `*.cctr` members (sorted by file name, so `pod00.cctr` before
    /// `pod01.cctr`) form one logical store.
    pub fn open(path: &Path) -> io::Result<TraceDir> {
        let mut files: Vec<PathBuf> = Vec::new();
        if path.is_file() {
            files.push(path.to_path_buf());
        } else {
            for entry in std::fs::read_dir(path)? {
                let p = entry?.path();
                if p.extension().is_some_and(|e| e == "cctr") {
                    files.push(p);
                }
            }
            files.sort();
        }
        if files.is_empty() {
            return Err(bad(format!(
                "{}: no .cctr trace files found",
                path.display()
            )));
        }
        let readers = files
            .iter()
            .map(|f| ChunkReader::open(f))
            .collect::<io::Result<Vec<_>>>()?;
        let mut hosts = Vec::new();
        let mut reader_of = HashMap::new();
        for (i, r) in readers.iter().enumerate() {
            for h in r.hosts() {
                if !reader_of.contains_key(h) {
                    reader_of.insert(h.clone(), i);
                    hosts.push(h.clone());
                }
            }
        }
        Ok(TraceDir {
            readers,
            hosts,
            reader_of,
        })
    }

    fn reader_for(&self, host: &str) -> Option<&ChunkReader> {
        self.reader_of.get(host).map(|&i| &self.readers[i])
    }
}

impl SeriesSource for TraceDir {
    fn hosts(&self) -> Vec<String> {
        self.hosts.clone()
    }

    /// The interval of the first series in host and catalog order.
    fn interval(&self) -> Option<SimDuration> {
        let c = catalog();
        self.hosts
            .iter()
            .find_map(|host| {
                let r = self.reader_for(host)?;
                c.ids().find_map(|metric| r.timing(host, metric))
            })
            .map(|(_, interval)| interval)
    }

    fn has_series(&self, host: &str, metric: MetricId) -> bool {
        self.reader_for(host)
            .is_some_and(|r| r.has_series(host, metric))
    }

    fn read_chunks(
        &self,
        host: &str,
        metric: MetricId,
        sink: &mut dyn FnMut(&[f64]),
    ) -> io::Result<()> {
        let Some(r) = self.reader_for(host).filter(|r| r.has_series(host, metric)) else {
            return Ok(());
        };
        let mut cur = r.cursor(host, metric)?;
        while let Some(chunk) = cur.next_chunk()? {
            sink(chunk);
        }
        Ok(())
    }
}

/// Profile the entire metric catalog straight off the on-disk trace:
/// [`full_characterize_source`] over a [`TraceDir`], with the output of
/// [`crate::characterize::full_characterize`] on the same run.
pub fn full_characterize_trace(trace: &TraceDir, jobs: usize) -> io::Result<FullCharacterization> {
    full_characterize_source(trace, jobs)
}
