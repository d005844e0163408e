//! Replay probes of the traced run. They run after the timed phases and
//! push a finished run's sampled rows, one tick at a time, through each
//! sink and kernel the sampling tick feeds, timing only the calls into
//! the program.

use crate::adapter::{self as cc, ExperimentResult, SampleRow};
use crate::spans::Tracer;
use std::path::Path;
use std::time::Instant;

/// Per-row costs and sizes of the monitor sinks and online kernels.
pub struct Replay {
    /// Rows replayed: hosts × sampling ticks.
    pub rows: u64,
    pub synth_us_per_row: f64,
    pub store_us_per_row: f64,
    pub store_mb: f64,
    pub chunk_us_per_row: f64,
    pub chunk_mb: f64,
    /// Raw bytes (8 per value) over trace file bytes.
    pub compression: f64,
    pub online_us_per_row: f64,
}

/// Replay every row of `r` into `sink`, tick-major as the sampling tick
/// emits them; returns (rows, values, seconds spent inside `sink`).
fn replay(r: &ExperimentResult, mut sink: impl FnMut(&str, &SampleRow)) -> (u64, u64, f64) {
    let cols = cc::columns(r);
    let hosts = cc::hosts(r);
    let (_, ticks) = cc::hosts_and_ticks(r);
    let mut rows: Vec<SampleRow> = hosts.iter().map(|_| cc::new_row()).collect();
    let (mut n, mut values, mut busy) = (0u64, 0u64, 0.0);
    for tick in 0..ticks {
        for (row, c) in rows.iter_mut().zip(&cols) {
            cc::fill_row(c, tick, row);
            values += cc::row_len(row) as u64;
        }
        let start = Instant::now();
        for (row, host) in rows.iter().zip(hosts) {
            sink(host, row);
        }
        busy += start.elapsed().as_secs_f64();
        n += rows.len() as u64;
    }
    (n, values, busy)
}

/// Run every replay probe over `r`, writing the probe trace to
/// `trace_path`.
pub fn replay_all(t: &mut Tracer, r: &ExperimentResult, trace_path: &Path) -> Replay {
    let dt = cc::sample_interval(r);
    let (hosts, ticks) = cc::hosts_and_ticks(r);
    let rows = (hosts * ticks) as u64;

    // Synthesis: as many rows as the run sampled, from one tick's raw
    // samples of the same platform; fastest of three passes.
    let (synth_s, _) = t.span("monitor.synthesize", |t| {
        let raw = cc::platform_raw_samples(cc::config(r));
        let mut row = cc::new_row();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            for i in 0..rows as usize {
                cc::synthesize(&raw[i % raw.len()], &mut row);
                std::hint::black_box(&row);
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        t.arg("rows", rows as f64);
        best
    });

    let ((store_s, values), _) = t.span("monitor.store", |t| {
        let mut store = cc::store_new(ticks);
        let (n, values, busy) = replay(r, |h, row| cc::store_record(&mut store, h, dt, row));
        t.arg("rows", n as f64);
        std::hint::black_box(&store);
        (busy, values)
    });

    let ((chunk_s, bytes), _) = t.span("monitor.chunk", |t| {
        let mut w = cc::chunk_create(trace_path).expect("probe trace file is writable");
        let (n, _, busy) = replay(r, |h, row| {
            cc::chunk_record(&mut w, h, dt, row).expect("probe trace accepts the row")
        });
        let start = Instant::now();
        let bytes = cc::chunk_finish(&mut w).expect("probe trace seals");
        t.arg("rows", n as f64);
        (busy + start.elapsed().as_secs_f64(), bytes)
    });

    let (online_s, _) = t.span("analysis.online", |t| {
        let mut bank = cc::online_new(dt);
        let (n, _, busy) = replay(r, |h, row| cc::online_record(&mut bank, h, row));
        t.arg("rows", n as f64);
        t.arg("snapshots", cc::online_finish(bank) as f64);
        busy
    });

    let per_row_us = |s: f64| 1e6 * s / rows.max(1) as f64;
    let raw_bytes = 8.0 * values as f64;
    Replay {
        rows,
        synth_us_per_row: per_row_us(synth_s),
        store_us_per_row: per_row_us(store_s),
        store_mb: raw_bytes / 1e6,
        chunk_us_per_row: per_row_us(chunk_s),
        chunk_mb: bytes as f64 / 1e6,
        compression: raw_bytes / bytes.max(1) as f64,
        online_us_per_row: per_row_us(online_s),
    }
}
