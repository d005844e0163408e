//! Chunked, compressed, persistent time-series trace store.
//!
//! At fleet scale (518 metrics × 100+ hosts × long runs) the in-memory
//! [`SeriesStore`](crate::store::SeriesStore) stops fitting: every
//! sample of every series stays resident until analysis runs. This
//! module spills the trace to disk as it is produced, so resident
//! memory is `O(hosts × metrics × chunk_size)` instead of
//! `O(run length)`:
//!
//! * samples accumulate per `(host, metric)` in a fixed-capacity
//!   open chunk using **delta-of-delta timestamp encoding** and
//!   **Gorilla-style XOR float compression** (regular 2 s cadence costs
//!   1 timestamp bit per sample; repeated/slow-moving values cost 1–2
//!   control bits plus a narrow mantissa window);
//! * a full chunk is **sealed**: its bit stream is length- and
//!   checksum-framed and appended to the run file, and the encoder
//!   state is reset in place (the bit buffer keeps its allocation, so
//!   the steady-state sampling tick performs zero heap allocation);
//! * [`ChunkWriter::finish`] writes a footer index (interned host
//!   labels + one entry per sealed chunk) and a fixed-size trailer, so
//!   a reader can locate any series' chunks without scanning the file;
//! * [`ChunkReader`] memory-maps nothing and materializes nothing: a
//!   [`SeriesCursor`] streams one decoded chunk at a time through a
//!   reused buffer, which is what bounded-memory (out-of-core)
//!   analysis consumes.
//!
//! A file without a valid trailer (e.g. a run that crashed before
//! `finish`, or a truncated copy) is rejected at open; a chunk whose
//! payload bytes do not match the framed checksum is rejected at read.
//! The in-memory store remains the equivalence oracle:
//! [`write_store`]/[`read_store`] convert losslessly in both
//! directions, and the codec is bit-exact for every finite `f64`.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! "CCTRACE1"                                      file header magic
//! repeat per sealed chunk:
//!   u32 payload_len | u64 fnv64(payload) | payload
//!   payload = u32 host | u16 metric | u32 seq | u32 count | bitstream
//! footer:
//!   u32 n_hosts | per host: u16 len, label bytes
//!   u32 n_chunks | per chunk: u32 host | u16 metric | u32 seq |
//!     u32 count | u64 first_t | u64 interval | u64 offset |
//!     u32 payload_len | u64 checksum
//! trailer: u64 footer_offset | u64 fnv64(footer) | "CCTRIDX1"
//! ```

use crate::metric::MetricId;
use crate::store::{HostLabel, SampleRow, SeriesStore};
use cloudchar_simcore::bits::{unzigzag, zigzag, BitReader, BitWriter};
use cloudchar_simcore::{SimDuration, SimTime};
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Default samples per chunk: the paper's 20-minute runs (600 samples)
/// seal 2–3 chunks per series; week-long runs stay bounded.
pub const CHUNK_SAMPLES: usize = 256;

const MAGIC_HEADER: &[u8; 8] = b"CCTRACE1";
const MAGIC_TRAILER: &[u8; 8] = b"CCTRIDX1";
const TRAILER_LEN: u64 = 24;
const PAYLOAD_HEADER_LEN: usize = 14;

/// FNV-1a over a byte slice — the framing checksum for chunk payloads
/// and the footer.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Per-series encoder state. Lives for the whole run and is reset in
/// place at each seal, so steady-state appends never allocate.
#[derive(Debug, Default)]
struct OpenChunk {
    /// Sequence number of the chunk currently being filled.
    seq: u32,
    /// Samples in the open chunk.
    count: u32,
    /// Timestamp (ns) of the open chunk's first sample.
    first_t: u64,
    /// Sampling interval (ns), fixed at series creation.
    interval: u64,
    /// Timestamp (ns) the next appended sample will carry.
    t: u64,
    /// Timestamp of the last appended sample.
    prev_t: u64,
    /// Last timestamp delta (delta-of-delta chain).
    prev_delta: i64,
    /// Bits of the last value (XOR chain).
    prev_bits: u64,
    /// Current XOR window: leading zero count.
    prev_lead: u32,
    /// Current XOR window: trailing zero count.
    prev_trail: u32,
    /// Whether an XOR window has been established in this chunk.
    window_valid: bool,
    /// The chunk's encoded bit stream.
    bits: BitWriter,
}

impl OpenChunk {
    fn append(&mut self, value: f64) {
        let t = self.t;
        let vbits = value.to_bits();
        if self.count == 0 {
            self.first_t = t;
            self.prev_delta = 0;
            self.window_valid = false;
            self.bits.write_bits(t, 64);
            self.bits.write_bits(vbits, 64);
        } else {
            let delta = t.wrapping_sub(self.prev_t) as i64;
            let dod = delta.wrapping_sub(self.prev_delta);
            if dod == 0 {
                self.bits.write_bit(false);
            } else {
                let z = zigzag(dod);
                if z < (1 << 7) {
                    self.bits.write_bits(0b10, 2);
                    self.bits.write_bits(z, 7);
                } else if z < (1 << 9) {
                    self.bits.write_bits(0b110, 3);
                    self.bits.write_bits(z, 9);
                } else if z < (1 << 12) {
                    self.bits.write_bits(0b1110, 4);
                    self.bits.write_bits(z, 12);
                } else {
                    self.bits.write_bits(0b1111, 4);
                    self.bits.write_bits(z, 64);
                }
            }
            self.prev_delta = delta;
            let x = vbits ^ self.prev_bits;
            if x == 0 {
                self.bits.write_bit(false);
            } else {
                let lead = x.leading_zeros().min(31);
                let trail = x.trailing_zeros();
                if self.window_valid && lead >= self.prev_lead && trail >= self.prev_trail {
                    let meaningful = 64 - self.prev_lead - self.prev_trail;
                    self.bits.write_bits(0b10, 2);
                    self.bits.write_bits(x >> self.prev_trail, meaningful);
                } else {
                    let meaningful = 64 - lead - trail;
                    self.bits.write_bits(0b11, 2);
                    self.bits.write_bits(lead as u64, 5);
                    self.bits.write_bits((meaningful - 1) as u64, 6);
                    self.bits.write_bits(x >> trail, meaningful);
                    self.prev_lead = lead;
                    self.prev_trail = trail;
                    self.window_valid = true;
                }
            }
        }
        self.prev_bits = vbits;
        self.prev_t = t;
        self.t = t.saturating_add(self.interval);
        self.count = self.count.saturating_add(1);
    }

    /// Reset for the next chunk, keeping allocations and the timestamp
    /// chain (`t` already points at the next sample).
    fn reset_sealed(&mut self) {
        self.seq = self.seq.saturating_add(1);
        self.count = 0;
        self.bits.clear();
    }
}

/// Bytes of one footer index entry.
const INDEX_ENTRY_LEN: usize = 50;

/// One sealed chunk's entry in the footer index.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexEntry {
    host: u32,
    metric: u16,
    seq: u32,
    count: u32,
    first_t: u64,
    interval: u64,
    offset: u64,
    payload_len: u32,
    checksum: u64,
}

impl IndexEntry {
    fn timing(&self) -> (SimTime, SimDuration) {
        (
            SimTime::from_nanos(self.first_t),
            SimDuration::from_nanos(self.interval),
        )
    }
}

/// Streaming writer: appends samples on the sampling tick, spills
/// sealed chunks to disk, and writes the footer index on
/// [`finish`](ChunkWriter::finish).
#[derive(Debug)]
pub struct ChunkWriter {
    file: BufWriter<File>,
    /// Bytes written so far (next chunk's offset).
    pos: u64,
    /// Labels are stored with this prefix applied (fleet pods write
    /// `"podNN/"`-prefixed hosts so merged reads need no renaming).
    prefix: String,
    hosts: Vec<HostLabel>,
    open: Vec<Vec<Option<OpenChunk>>>,
    index: Vec<IndexEntry>,
    chunk_samples: usize,
    scratch: Vec<u8>,
    finished: bool,
}

impl ChunkWriter {
    /// Create a trace file at `path` (truncating any existing file).
    /// Host labels recorded through this writer get `label_prefix`
    /// prepended; chunks seal every `chunk_samples` samples.
    pub fn create(path: &Path, label_prefix: &str, chunk_samples: usize) -> io::Result<Self> {
        assert!(chunk_samples >= 2, "chunk_samples must be at least 2");
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(MAGIC_HEADER)?;
        Ok(ChunkWriter {
            file,
            pos: MAGIC_HEADER.len() as u64,
            prefix: label_prefix.to_string(),
            hosts: Vec::new(),
            open: Vec::new(),
            index: Vec::new(),
            chunk_samples,
            scratch: Vec::new(),
            finished: false,
        })
    }

    /// Create with the default [`CHUNK_SAMPLES`] capacity and no prefix.
    pub fn create_default(path: &Path) -> io::Result<Self> {
        ChunkWriter::create(path, "", CHUNK_SAMPLES)
    }

    /// Intern a host label (prefix applied), returning its dense id.
    /// The scan compares against `prefix + host` without allocating.
    pub fn host_id(&mut self, host: &str) -> u32 {
        let total = self.prefix.len().saturating_add(host.len());
        if let Some(i) = self.hosts.iter().position(|h| {
            h.len() == total && h.starts_with(self.prefix.as_str()) && h.ends_with(host)
        }) {
            return i as u32;
        }
        self.hosts.push(format!("{}{host}", self.prefix));
        self.open
            .push(Vec::with_capacity(crate::catalog::TOTAL_METRICS));
        (self.hosts.len() - 1) as u32
    }

    /// Sum of encoder-buffer capacities: the writer's resident series
    /// memory (the on-disk spill is what keeps this bounded).
    pub fn resident_bytes(&self) -> usize {
        let open: usize = self
            .open
            .iter()
            .flatten()
            .flatten()
            .map(|c| c.bits.capacity_bytes())
            .sum();
        open + self.scratch.capacity()
    }

    /// Append one sample to `(host, metric)`, sealing the chunk to disk
    /// when it reaches capacity. `start`/`interval` time the series on
    /// first touch; later samples advance by `interval`.
    pub fn record_value(
        &mut self,
        host: u32,
        metric: MetricId,
        start: SimTime,
        interval: SimDuration,
        value: f64,
    ) -> io::Result<()> {
        let block = &mut self.open[host as usize];
        let idx = metric.0 as usize;
        if idx >= block.len() {
            block.resize_with(idx + 1, || None);
        }
        if block[idx].is_none() {
            let mut c = OpenChunk::default();
            c.t = start.as_nanos();
            c.interval = interval.as_nanos();
            block[idx] = Some(c);
        }
        let full = {
            let Some(chunk) = block[idx].as_mut() else {
                return Err(bad("open chunk vanished".to_string()));
            };
            chunk.append(value);
            chunk.count as usize >= self.chunk_samples
        };
        if full {
            self.seal(host, metric)?;
        }
        Ok(())
    }

    /// Commit one host's whole sampling row — the tick-path mirror of
    /// [`SeriesStore::record_row`].
    pub fn record_row(
        &mut self,
        host: u32,
        start: SimTime,
        interval: SimDuration,
        row: &SampleRow,
    ) -> io::Result<()> {
        for &(metric, value) in row.entries() {
            self.record_value(host, metric, start, interval, value)?;
        }
        Ok(())
    }

    fn seal(&mut self, host: u32, metric: MetricId) -> io::Result<()> {
        let Some(chunk) = self.open[host as usize]
            .get_mut(metric.0 as usize)
            .and_then(Option::as_mut)
        else {
            return Ok(());
        };
        if chunk.count == 0 {
            return Ok(());
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&host.to_le_bytes());
        self.scratch.extend_from_slice(&metric.0.to_le_bytes());
        self.scratch.extend_from_slice(&chunk.seq.to_le_bytes());
        self.scratch.extend_from_slice(&chunk.count.to_le_bytes());
        self.scratch.extend_from_slice(chunk.bits.as_bytes());
        let checksum = fnv64(&self.scratch);
        let payload_len = self.scratch.len() as u32;
        self.file.write_all(&payload_len.to_le_bytes())?;
        self.file.write_all(&checksum.to_le_bytes())?;
        self.file.write_all(&self.scratch)?;
        self.index.push(IndexEntry {
            host,
            metric: metric.0,
            seq: chunk.seq,
            count: chunk.count,
            first_t: chunk.first_t,
            interval: chunk.interval,
            offset: self.pos,
            payload_len,
            checksum,
        });
        self.pos = self
            .pos
            .saturating_add(12)
            .saturating_add(payload_len as u64);
        chunk.reset_sealed();
        Ok(())
    }

    /// Seal every open chunk, write the footer index and trailer, and
    /// flush. Returns the final file size in bytes. The writer is
    /// unusable afterwards.
    pub fn finish(&mut self) -> io::Result<u64> {
        if self.finished {
            return Err(bad("ChunkWriter::finish called twice".to_string()));
        }
        for hi in 0..self.open.len() {
            for mi in 0..self.open[hi].len() {
                if self.open[hi][mi].as_ref().is_some_and(|c| c.count > 0) {
                    self.seal(hi as u32, MetricId(mi as u16))?;
                }
            }
        }
        self.finished = true;
        let mut footer = Vec::new();
        footer.extend_from_slice(&(self.hosts.len() as u32).to_le_bytes());
        for h in &self.hosts {
            footer.extend_from_slice(&(h.len() as u16).to_le_bytes());
            footer.extend_from_slice(h.as_bytes());
        }
        footer.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for e in &self.index {
            footer.extend_from_slice(&e.host.to_le_bytes());
            footer.extend_from_slice(&e.metric.to_le_bytes());
            footer.extend_from_slice(&e.seq.to_le_bytes());
            footer.extend_from_slice(&e.count.to_le_bytes());
            footer.extend_from_slice(&e.first_t.to_le_bytes());
            footer.extend_from_slice(&e.interval.to_le_bytes());
            footer.extend_from_slice(&e.offset.to_le_bytes());
            footer.extend_from_slice(&e.payload_len.to_le_bytes());
            footer.extend_from_slice(&e.checksum.to_le_bytes());
        }
        let footer_offset = self.pos;
        self.file.write_all(&footer)?;
        self.file.write_all(&footer_offset.to_le_bytes())?;
        self.file.write_all(&fnv64(&footer).to_le_bytes())?;
        self.file.write_all(MAGIC_TRAILER)?;
        self.file.flush()?;
        Ok(footer_offset
            .saturating_add(footer.len() as u64)
            .saturating_add(TRAILER_LEN))
    }
}

struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("trace footer truncated".to_string()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u16(&mut self) -> io::Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Bounded-memory reader over a finished trace file: the footer index
/// lives in memory, sample data stays on disk until a [`SeriesCursor`]
/// streams it chunk by chunk.
///
/// The reader keeps the one file handle it validated the file through,
/// and every cursor reads its frames from that handle by position, so
/// cursors on several threads share it without seeking. Cursors hand
/// their decode buffers back to the reader when dropped and the next
/// cursor reuses them.
#[derive(Debug)]
pub struct ChunkReader {
    path: PathBuf,
    file: File,
    hosts: Vec<HostLabel>,
    index: Vec<IndexEntry>,
    /// Payload and value buffers of dropped cursors. Each push and pop
    /// leaves the list valid, so a poisoned lock is recovered.
    spare: Mutex<Vec<(Vec<u8>, Vec<f64>)>>,
}

/// Fill `buf` from `file` at byte `offset`, leaving the handle's own
/// position alone.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fill `buf` from `file` at byte `offset`, through a cloned handle.
#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

impl ChunkReader {
    /// Open and validate a trace file: header magic, trailer magic, and
    /// footer checksum must all hold — a truncated or unfinished file
    /// is rejected here rather than silently decoded.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < MAGIC_HEADER.len() as u64 + TRAILER_LEN {
            return Err(bad(format!(
                "{}: too short to be a trace file ({len} bytes)",
                path.display()
            )));
        }
        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if &head != MAGIC_HEADER {
            return Err(bad(format!("{}: not a trace file", path.display())));
        }
        file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact(&mut trailer)?;
        if &trailer[16..24] != MAGIC_TRAILER {
            return Err(bad(format!(
                "{}: missing trailer magic — file is truncated or the run never finished",
                path.display()
            )));
        }
        let mut c = ByteCursor {
            buf: &trailer,
            pos: 0,
        };
        let footer_offset = c.u64()?;
        let footer_checksum = c.u64()?;
        let footer_end = len.saturating_sub(TRAILER_LEN);
        if footer_offset >= footer_end {
            return Err(bad(format!(
                "{}: footer offset {footer_offset} out of bounds",
                path.display()
            )));
        }
        file.seek(SeekFrom::Start(footer_offset))?;
        let mut footer = vec![0u8; (footer_end - footer_offset) as usize];
        file.read_exact(&mut footer)?;
        if fnv64(&footer) != footer_checksum {
            return Err(bad(format!(
                "{}: footer checksum mismatch — file is corrupt or truncated",
                path.display()
            )));
        }
        let mut c = ByteCursor {
            buf: &footer,
            pos: 0,
        };
        // Counts come from the file, so each capacity is capped at what
        // the remaining footer bytes can hold: a crafted count asks for
        // no more memory than the footer itself occupies.
        let n_hosts = c.u32()? as usize;
        let mut hosts = Vec::with_capacity(n_hosts.min(c.remaining() / 2));
        for _ in 0..n_hosts {
            let n = c.u16()? as usize;
            let raw = c.take(n)?;
            let label = std::str::from_utf8(raw)
                .map_err(|_| bad("non-UTF-8 host label in footer".to_string()))?;
            hosts.push(label.to_string());
        }
        let n_chunks = c.u32()? as usize;
        let mut index = Vec::with_capacity(n_chunks.min(c.remaining() / INDEX_ENTRY_LEN));
        for _ in 0..n_chunks {
            index.push(IndexEntry {
                host: c.u32()?,
                metric: c.u16()?,
                seq: c.u32()?,
                count: c.u32()?,
                first_t: c.u64()?,
                interval: c.u64()?,
                offset: c.u64()?,
                payload_len: c.u32()?,
                checksum: c.u64()?,
            });
        }
        for e in &index {
            if e.host as usize >= hosts.len() {
                return Err(bad(format!(
                    "{}: index entry references unknown host {}",
                    path.display(),
                    e.host
                )));
            }
            let frame_end = e.offset.checked_add(12 + e.payload_len as u64);
            if e.offset < MAGIC_HEADER.len() as u64
                || frame_end.map_or(true, |end| end > footer_offset)
            {
                return Err(bad(format!(
                    "{}: chunk frame at offset {} ({} payload bytes) lies outside the chunk region",
                    path.display(),
                    e.offset,
                    e.payload_len
                )));
            }
        }
        // One sort serves every lookup: a series is a contiguous run of
        // entries, in sequence order, found by binary search.
        index.sort_unstable_by_key(|e| (e.host, e.metric, e.seq));
        let mut expected = 0u32;
        for (i, e) in index.iter().enumerate() {
            if i > 0 && (e.host, e.metric) != (index[i - 1].host, index[i - 1].metric) {
                expected = 0;
            }
            if e.seq != expected {
                return Err(bad(format!(
                    "{}: {}/{} chunk sequence has a gap at {expected}",
                    path.display(),
                    hosts[e.host as usize],
                    e.metric
                )));
            }
            expected += 1;
        }
        Ok(ChunkReader {
            path: path.to_path_buf(),
            file,
            hosts,
            index,
            spare: Mutex::new(Vec::new()),
        })
    }

    /// Interned host labels, in first-touch order.
    pub fn hosts(&self) -> &[HostLabel] {
        &self.hosts
    }

    fn find_host(&self, host: &str) -> Option<u32> {
        self.hosts.iter().position(|h| h == host).map(|i| i as u32)
    }

    /// The index entries of `(host, metric)`, in sequence order; empty
    /// when the series is absent.
    fn entries(&self, host: &str, metric: MetricId) -> &[IndexEntry] {
        let Some(h) = self.find_host(host) else {
            return &[];
        };
        let key = (h, metric.0);
        let lo = self.index.partition_point(|e| (e.host, e.metric) < key);
        let hi = lo + self.index[lo..].partition_point(|e| (e.host, e.metric) == key);
        &self.index[lo..hi]
    }

    /// Whether any chunk exists for `(host, metric)`.
    pub fn has_series(&self, host: &str, metric: MetricId) -> bool {
        !self.entries(host, metric).is_empty()
    }

    /// Total samples stored for `(host, metric)`.
    pub fn sample_count(&self, host: &str, metric: MetricId) -> u64 {
        self.entries(host, metric)
            .iter()
            .map(|e| e.count as u64)
            .sum()
    }

    /// Start time and sampling interval of `(host, metric)`, from its
    /// first chunk.
    pub fn timing(&self, host: &str, metric: MetricId) -> Option<(SimTime, SimDuration)> {
        self.entries(host, metric).first().map(IndexEntry::timing)
    }

    /// Every `(host, metric)` series present, sorted by
    /// `(host label, metric id)` — the iteration order of
    /// [`SeriesStore::iter`].
    pub fn series_ids(&self) -> Vec<(HostLabel, MetricId)> {
        let mut ids: Vec<(HostLabel, MetricId)> = self
            .index
            .iter()
            .filter(|e| e.seq == 0)
            .map(|e| (self.hosts[e.host as usize].clone(), MetricId(e.metric)))
            .collect();
        ids.sort();
        ids
    }

    /// Open a streaming cursor over one series; an absent metric yields
    /// no chunks. Cursors read through the reader's shared handle by
    /// position, so they can run in parallel pool workers.
    pub fn cursor(&self, host: &str, metric: MetricId) -> io::Result<SeriesCursor<'_>> {
        if self.find_host(host).is_none() {
            return Err(bad(format!("host {host:?} not present in trace")));
        }
        let (payload, values) = self
            .spare
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        Ok(SeriesCursor {
            reader: self,
            entries: self.entries(host, metric),
            next: 0,
            payload,
            values,
        })
    }
}

/// Streaming cursor over one series' chunks: each call to
/// [`next_chunk`](SeriesCursor::next_chunk) decodes one chunk into a
/// reused buffer, so peak resident series memory is one chunk.
#[derive(Debug)]
pub struct SeriesCursor<'a> {
    reader: &'a ChunkReader,
    entries: &'a [IndexEntry],
    next: usize,
    payload: Vec<u8>,
    values: Vec<f64>,
}

impl Drop for SeriesCursor<'_> {
    fn drop(&mut self) {
        let buffers = (
            std::mem::take(&mut self.payload),
            std::mem::take(&mut self.values),
        );
        self.reader
            .spare
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(buffers);
    }
}

impl SeriesCursor<'_> {
    /// Start time and sampling interval (from the first chunk).
    pub fn timing(&self) -> Option<(SimTime, SimDuration)> {
        self.entries.first().map(IndexEntry::timing)
    }

    /// Decode the next chunk, verifying its framed checksum. Returns
    /// `None` after the last chunk. The returned slice is valid until
    /// the next call.
    pub fn next_chunk(&mut self) -> io::Result<Option<&[f64]>> {
        let Some(e) = self.entries.get(self.next) else {
            return Ok(None);
        };
        self.next += 1;
        let path = &self.reader.path;
        let mut frame = [0u8; 12];
        read_exact_at(&self.reader.file, &mut frame, e.offset)?;
        let payload_len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let checksum = u64::from_le_bytes([
            frame[4], frame[5], frame[6], frame[7], frame[8], frame[9], frame[10], frame[11],
        ]);
        if payload_len != e.payload_len || checksum != e.checksum {
            return Err(bad(format!(
                "{}: chunk frame at offset {} disagrees with the footer index",
                path.display(),
                e.offset
            )));
        }
        self.payload.resize(payload_len as usize, 0);
        read_exact_at(&self.reader.file, &mut self.payload, e.offset + 12)?;
        if fnv64(&self.payload) != checksum {
            return Err(bad(format!(
                "{}: chunk checksum mismatch at offset {} — payload is corrupt",
                path.display(),
                e.offset
            )));
        }
        if self.payload.len() < PAYLOAD_HEADER_LEN {
            return Err(bad("chunk payload shorter than its header".to_string()));
        }
        let mut c = ByteCursor {
            buf: &self.payload,
            pos: 0,
        };
        let (host, metric, seq, count) = (c.u32()?, c.u16()?, c.u32()?, c.u32()?);
        if host != e.host || metric != e.metric || seq != e.seq || count != e.count {
            return Err(bad(format!(
                "{}: chunk payload header disagrees with the footer index at offset {}",
                path.display(),
                e.offset
            )));
        }
        decode_bitstream(&self.payload[PAYLOAD_HEADER_LEN..], count, &mut self.values)?;
        Ok(Some(&self.values))
    }
}

/// Decode `count` samples from a chunk bit stream into `out` (cleared
/// first; allocation reused across chunks).
fn decode_bitstream(stream: &[u8], count: u32, out: &mut Vec<f64>) -> io::Result<()> {
    out.clear();
    let mut r = BitReader::new(stream);
    let short = || bad("chunk bit stream truncated".to_string());
    if count == 0 {
        return Ok(());
    }
    let mut prev_t = r.read_bits(64).ok_or_else(short)?;
    let mut prev_bits = r.read_bits(64).ok_or_else(short)?;
    out.push(f64::from_bits(prev_bits));
    let mut prev_delta = 0i64;
    let mut lead = 0u32;
    let mut trail = 0u32;
    let mut window_valid = false;
    for _ in 1..count {
        // Timestamp: delta-of-delta buckets.
        let dod = if !r.read_bit().ok_or_else(short)? {
            0
        } else if !r.read_bit().ok_or_else(short)? {
            unzigzag(r.read_bits(7).ok_or_else(short)?)
        } else if !r.read_bit().ok_or_else(short)? {
            unzigzag(r.read_bits(9).ok_or_else(short)?)
        } else if !r.read_bit().ok_or_else(short)? {
            unzigzag(r.read_bits(12).ok_or_else(short)?)
        } else {
            unzigzag(r.read_bits(64).ok_or_else(short)?)
        };
        prev_delta = prev_delta.wrapping_add(dod);
        prev_t = prev_t.wrapping_add(prev_delta as u64);
        // Value: XOR against the previous value's bits.
        if !r.read_bit().ok_or_else(short)? {
            out.push(f64::from_bits(prev_bits));
            continue;
        }
        let x = if !r.read_bit().ok_or_else(short)? {
            if !window_valid {
                return Err(bad(
                    "chunk reuses an XOR window before establishing one".to_string()
                ));
            }
            let meaningful = 64 - lead - trail;
            r.read_bits(meaningful).ok_or_else(short)? << trail
        } else {
            lead = r.read_bits(5).ok_or_else(short)? as u32;
            let meaningful = r.read_bits(6).ok_or_else(short)? as u32 + 1;
            if lead + meaningful > 64 {
                return Err(bad("chunk XOR window exceeds 64 bits".to_string()));
            }
            trail = 64 - lead - meaningful;
            window_valid = true;
            r.read_bits(meaningful).ok_or_else(short)? << trail
        };
        prev_bits ^= x;
        out.push(f64::from_bits(prev_bits));
    }
    let _ = prev_t;
    Ok(())
}

/// Oracle conversion: spill an in-memory store to a trace file.
/// Returns the file size in bytes.
pub fn write_store(store: &SeriesStore, path: &Path, chunk_samples: usize) -> io::Result<u64> {
    let mut w = ChunkWriter::create(path, "", chunk_samples)?;
    for (host, metric, series) in store.iter() {
        let h = w.host_id(host);
        for &v in &series.values {
            w.record_value(h, metric, series.start, series.interval, v)?;
        }
    }
    w.finish()
}

/// Oracle conversion: materialize a trace file back into an in-memory
/// store. Only for small runs and equivalence tests — streaming
/// consumers use [`ChunkReader::cursor`] instead.
pub fn read_store(path: &Path) -> io::Result<SeriesStore> {
    let reader = ChunkReader::open(path)?;
    let mut store = SeriesStore::new();
    for (host, metric) in reader.series_ids() {
        let mut cur = reader.cursor(&host, metric)?;
        let Some((start, interval)) = cur.timing() else {
            continue;
        };
        let id = store.host_id(&host);
        while let Some(values) = cur.next_chunk()? {
            for i in 0..values.len() {
                store.record_by_id(id, metric, start, interval, values[i]);
            }
        }
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cloudchar-chunk-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn t0() -> SimTime {
        SimTime::from_secs(2)
    }

    fn dt() -> SimDuration {
        SimDuration::from_secs(2)
    }

    #[test]
    fn round_trips_across_chunk_boundaries() {
        let path = tmp("roundtrip.cctr");
        let values: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 120.0 + (i % 7) as f64)
            .collect();
        let mut w = ChunkWriter::create(&path, "", 256).unwrap();
        let h = w.host_id("web-vm");
        for &v in &values {
            w.record_value(h, MetricId(3), t0(), dt(), v).unwrap();
        }
        let size = w.finish().unwrap();
        assert_eq!(size, fs::metadata(&path).unwrap().len());

        let r = ChunkReader::open(&path).unwrap();
        assert_eq!(r.hosts(), ["web-vm".to_string()]);
        assert!(r.has_series("web-vm", MetricId(3)));
        assert_eq!(r.sample_count("web-vm", MetricId(3)), 1000);
        assert_eq!(r.timing("web-vm", MetricId(3)), Some((t0(), dt())));
        let mut cur = r.cursor("web-vm", MetricId(3)).unwrap();
        let mut got = Vec::new();
        while let Some(chunk) = cur.next_chunk().unwrap() {
            assert!(chunk.len() <= 256);
            got.extend_from_slice(chunk);
        }
        assert_eq!(got.len(), values.len());
        for (a, b) in got.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn constant_series_compresses_hard() {
        let path = tmp("constant.cctr");
        let mut w = ChunkWriter::create(&path, "", 256).unwrap();
        let h = w.host_id("h");
        for _ in 0..4096 {
            w.record_value(h, MetricId(0), t0(), dt(), 42.5).unwrap();
        }
        let size = w.finish().unwrap();
        // 4096 samples × 8 bytes raw = 32 KiB; constant series spend
        // ~2 bits/sample, so the whole file is ~1.3 KiB.
        assert!(
            size * 8 < 4096 * 8,
            "constant series should beat 1 byte/sample, got {size} bytes"
        );
        let store = read_store(&path).unwrap();
        let s = store.get("h", MetricId(0)).unwrap();
        assert_eq!(s.len(), 4096);
        assert!(s.values.iter().all(|&v| v == 42.5));
    }

    #[test]
    fn store_oracle_round_trip_is_exact() {
        let path = tmp("oracle.cctr");
        let mut store = SeriesStore::new();
        for host in ["web-vm", "mysql-vm", "dom0"] {
            for m in [0u16, 7, 200] {
                for i in 0..300 {
                    let v = match m {
                        0 => (i as f64).sqrt() * 3.25,
                        7 => {
                            if i % 2 == 0 {
                                0.0
                            } else {
                                97.5
                            }
                        }
                        _ => 1e9 + i as f64,
                    };
                    store.record(host, MetricId(m), t0(), dt(), v);
                }
            }
        }
        write_store(&store, &path, 128).unwrap();
        let back = read_store(&path).unwrap();
        let a: Vec<_> = store
            .iter()
            .map(|(h, m, s)| (h.to_string(), m, s.clone()))
            .collect();
        let b: Vec<_> = back
            .iter()
            .map(|(h, m, s)| (h.to_string(), m, s.clone()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[cfg(unix)]
    fn reader_keeps_its_handle_after_the_file_is_deleted() {
        // One handle serves every cursor: once open, the reader no
        // longer needs the path, so every series reads back bit-equal
        // to the resident store after the file is unlinked.
        let path = tmp("unlinked.cctr");
        let mut store = SeriesStore::new();
        for host in ["web-vm", "mysql-vm", "dom0"] {
            for m in 0u16..40 {
                for i in 0..300 {
                    let v = (i as f64 * 0.37 + f64::from(m)).sin() * 1e3;
                    store.record(host, MetricId(m), t0(), dt(), v);
                }
            }
        }
        write_store(&store, &path, 64).unwrap();
        let reader = ChunkReader::open(&path).unwrap();
        fs::remove_file(&path).unwrap();
        let mut series = 0;
        for (host, metric, want) in store.iter() {
            let mut cur = reader.cursor(host, metric).unwrap();
            assert_eq!(cur.timing(), Some((want.start, want.interval)));
            let mut got = Vec::new();
            while let Some(values) = cur.next_chunk().unwrap() {
                got.extend(values.iter().map(|v| v.to_bits()));
            }
            let want: Vec<u64> = want.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{host}/{}", metric.0);
            series += 1;
        }
        assert_eq!(series, 120);
        // Each cursor handed its buffers back before the next took them.
        assert_eq!(reader.spare.lock().unwrap().len(), 1);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmp("truncated.cctr");
        let mut w = ChunkWriter::create(&path, "", 16).unwrap();
        let h = w.host_id("h");
        for i in 0..100 {
            w.record_value(h, MetricId(1), t0(), dt(), i as f64)
                .unwrap();
        }
        w.finish().unwrap();
        let full = fs::read(&path).unwrap();
        // Chop the trailer (and a bit more) off: open must fail loudly.
        fs::write(&path, &full[..full.len() - 30]).unwrap();
        let err = ChunkReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("truncated") || msg.contains("checksum"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn unfinished_file_is_rejected() {
        let path = tmp("unfinished.cctr");
        let mut w = ChunkWriter::create(&path, "", 4).unwrap();
        let h = w.host_id("h");
        for i in 0..10 {
            w.record_value(h, MetricId(1), t0(), dt(), i as f64)
                .unwrap();
        }
        drop(w); // no finish(): sealed chunks on disk, no trailer
        let err = ChunkReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_chunk_payload_is_reported() {
        let path = tmp("corrupt.cctr");
        let mut w = ChunkWriter::create(&path, "", 16).unwrap();
        let h = w.host_id("h");
        for i in 0..64 {
            w.record_value(h, MetricId(1), t0(), dt(), (i * i) as f64)
                .unwrap();
        }
        w.finish().unwrap();
        // Flip one byte inside the first chunk's payload (after the
        // 8-byte header magic and 12-byte frame).
        let mut bytes = fs::read(&path).unwrap();
        bytes[8 + 12 + PAYLOAD_HEADER_LEN + 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let r = ChunkReader::open(&path).unwrap();
        let mut cur = r.cursor("h", MetricId(1)).unwrap();
        let err = loop {
            match cur.next_chunk() {
                Err(e) => break e,
                Ok(None) => panic!("corruption went undetected"),
                Ok(Some(_)) => {}
            }
        };
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    /// Write a trace file around a hand-made footer: the header magic,
    /// `body` zero bytes of chunk region, the footer, and a trailer
    /// whose checksum matches, so only the footer's contents can fail.
    fn crafted(name: &str, body: usize, footer: &[u8]) -> PathBuf {
        let path = tmp(name);
        let mut bytes = MAGIC_HEADER.to_vec();
        bytes.resize(8 + body, 0);
        bytes.extend_from_slice(footer);
        bytes.extend_from_slice(&(8 + body as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv64(footer).to_le_bytes());
        bytes.extend_from_slice(MAGIC_TRAILER);
        fs::write(&path, bytes).unwrap();
        path
    }

    /// One footer index entry with the given sequence, offset and
    /// payload length (host 0, metric 1).
    fn entry(seq: u32, offset: u64, payload_len: u32) -> Vec<u8> {
        let mut e = Vec::new();
        e.extend_from_slice(&0u32.to_le_bytes());
        e.extend_from_slice(&1u16.to_le_bytes());
        e.extend_from_slice(&seq.to_le_bytes());
        e.extend_from_slice(&4u32.to_le_bytes());
        e.extend_from_slice(&2u64.to_le_bytes());
        e.extend_from_slice(&2u64.to_le_bytes());
        e.extend_from_slice(&offset.to_le_bytes());
        e.extend_from_slice(&payload_len.to_le_bytes());
        e.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(e.len(), INDEX_ENTRY_LEN);
        e
    }

    /// A footer with one host `"h"` and the given chunk count and
    /// entries.
    fn footer(n_chunks: u32, entries: &[Vec<u8>]) -> Vec<u8> {
        let mut f = 1u32.to_le_bytes().to_vec();
        f.extend_from_slice(&1u16.to_le_bytes());
        f.push(b'h');
        f.extend_from_slice(&n_chunks.to_le_bytes());
        for e in entries {
            f.extend_from_slice(e);
        }
        f
    }

    #[test]
    fn crafted_counts_are_rejected_without_allocating_them() {
        // A valid checksum over a footer that claims u32::MAX chunks (or
        // hosts) must fail as truncated, not reserve hundreds of GB.
        let path = crafted("huge_chunks.cctr", 0, &footer(u32::MAX, &[]));
        let err = ChunkReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        let path = crafted("huge_hosts.cctr", 0, &u32::MAX.to_le_bytes());
        let err = ChunkReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frames_outside_the_chunk_region_are_rejected_at_open() {
        // 32 bytes of chunk region: a frame (12 bytes + payload) must end
        // by offset 40, where the footer starts.
        let fits = crafted("frame_fits.cctr", 32, &footer(1, &[entry(0, 8, 20)]));
        assert!(ChunkReader::open(&fits).is_ok());
        for (name, offset, len) in [
            ("frame_past_footer.cctr", 8, 21),
            ("frame_huge_payload.cctr", 8, u32::MAX),
            ("frame_offset_wraps.cctr", u64::MAX - 4, 0),
            ("frame_in_header.cctr", 0, 0),
        ] {
            let path = crafted(name, 32, &footer(1, &[entry(0, offset, len)]));
            let err = ChunkReader::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains("outside"), "{name}: {err}");
        }
    }

    #[test]
    fn chunk_sequence_gaps_are_rejected_at_open() {
        // Entries may appear in any order; sorted, they must count 0, 1, …
        let ok = crafted(
            "seq_ok.cctr",
            32,
            &footer(2, &[entry(1, 8, 0), entry(0, 8, 0)]),
        );
        let r = ChunkReader::open(&ok).unwrap();
        assert_eq!(r.sample_count("h", MetricId(1)), 8);
        for (name, entries) in [
            ("seq_gap.cctr", vec![entry(0, 8, 0), entry(2, 8, 0)]),
            ("seq_late_start.cctr", vec![entry(1, 8, 0)]),
            ("seq_duplicate.cctr", vec![entry(0, 8, 0), entry(0, 8, 0)]),
        ] {
            let path = crafted(name, 32, &footer(entries.len() as u32, &entries));
            let err = ChunkReader::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains("gap"), "{name}: {err}");
        }
    }

    #[test]
    fn prefixed_labels_and_multiple_series_interleave() {
        let path = tmp("prefixed.cctr");
        let mut w = ChunkWriter::create(&path, "pod03/", 8).unwrap();
        let a = w.host_id("web-vm");
        let b = w.host_id("dom0");
        assert_eq!(w.host_id("web-vm"), a);
        for i in 0..20 {
            w.record_value(a, MetricId(0), t0(), dt(), i as f64)
                .unwrap();
            w.record_value(b, MetricId(5), t0(), dt(), -(i as f64))
                .unwrap();
        }
        w.finish().unwrap();
        let store = read_store(&path).unwrap();
        assert_eq!(store.hosts(), vec!["pod03/dom0", "pod03/web-vm"]);
        assert_eq!(store.get("pod03/web-vm", MetricId(0)).unwrap().len(), 20);
        assert_eq!(store.get("pod03/dom0", MetricId(5)).unwrap().len(), 20);
    }

    #[test]
    fn writer_resident_memory_is_bounded_by_open_chunks() {
        let path = tmp("resident.cctr");
        let mut w = ChunkWriter::create(&path, "", 64).unwrap();
        let h = w.host_id("h");
        for i in 0..64 {
            w.record_value(h, MetricId(0), t0(), dt(), (i as f64).cos())
                .unwrap();
        }
        let after_one_chunk = w.resident_bytes();
        for i in 0..64 * 40 {
            w.record_value(h, MetricId(0), t0(), dt(), (i as f64).cos())
                .unwrap();
        }
        // 40 more sealed chunks later, the encoder buffers have not
        // grown: memory is O(open chunks), not O(run length).
        assert!(
            w.resident_bytes() <= after_one_chunk.max(1) * 2,
            "resident grew from {after_one_chunk} to {}",
            w.resident_bytes()
        );
        w.finish().unwrap();
    }
}
