//! What every run of every workload yields, and how sub-runs combine into
//! the end-to-end metrics.

use crate::stats::{highest_supported, mean, median, percentile, sorted};

/// One run of one scenario (one sub-seed of a workload).
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Build cluster + engines + schedule the load, before the timed run.
    pub setup_s: f64,
    /// Wall-clock of the timed run.
    pub wall_s: f64,
    /// Submit→deliver at the origin node, ms, txs submitted after warm-up.
    pub latencies_ms: Vec<f64>,
    /// Per honest up node, payload MB/s delivered inside the window.
    pub goodput_mbps: Vec<f64>,
    /// Σ `NodeStats::bytes_sent` over honest nodes.
    pub wire_bytes: u64,
    /// Payload bytes in node 0's total order.
    pub payload_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

/// Set-ups per sub-run; a sub-run's `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The end-to-end metrics of one workload run, plus the p99 and the wall
/// price that are reported as information.
#[derive(Clone, Debug, PartialEq)]
pub struct EndToEnd {
    /// Median over the sub-runs.
    pub setup_s: f64,
    pub goodput_mbps: f64,
    pub goodput_min_mbps: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
    pub wire_bytes_per_payload_byte: f64,
    pub wall_ms_per_payload_mb: f64,
    pub latency_samples: usize,
    /// The highest of p50/p95/p99 with at least ten samples beyond it.
    pub supported_percentile: f64,
}

pub fn end_to_end(samples: &[Sample]) -> EndToEnd {
    // Percentiles of the samples pooled over the sub-runs: on the varying
    // network the sub-runs together cover the same network states on every
    // seed, each alone does not.
    let lat = sorted(
        samples
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect(),
    );
    let pct = |p: f64| {
        if lat.is_empty() {
            0.0
        } else {
            percentile(&lat, p)
        }
    };
    let per_run = |f: fn(&[f64]) -> f64| {
        mean(
            &samples
                .iter()
                .map(|s| f(&s.goodput_mbps))
                .collect::<Vec<_>>(),
        )
    };
    let payload: u64 = samples.iter().map(|s| s.payload_bytes).sum();
    let wire: u64 = samples.iter().map(|s| s.wire_bytes).sum();
    let wall_s: f64 = samples.iter().map(|s| s.wall_s).sum();
    EndToEnd {
        setup_s: median(&samples.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
        goodput_mbps: per_run(mean),
        goodput_min_mbps: per_run(|v| v.iter().copied().fold(f64::INFINITY, f64::min)),
        latency_p50_ms: pct(50.0),
        latency_p95_ms: pct(95.0),
        latency_p99_ms: pct(99.0),
        wire_bytes_per_payload_byte: wire as f64 / payload.max(1) as f64,
        wall_ms_per_payload_mb: wall_s * 1e3 / (payload.max(1) as f64 / 1e6),
        latency_samples: lat.len(),
        supported_percentile: highest_supported(lat.len()),
    }
}

impl EndToEnd {
    /// Replace the pooled percentiles by the median over `windows` of each
    /// window's percentile. Used where samples come in wall-clock time: a
    /// scheduling hiccup then spoils one window, not the run's tail.
    pub fn with_window_medians(mut self, windows: &[Vec<f64>]) -> EndToEnd {
        let sorted_windows: Vec<Vec<f64>> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| sorted(w.clone()))
            .collect();
        if sorted_windows.is_empty() {
            return self;
        }
        let pct = |p: f64| {
            median(
                &sorted_windows
                    .iter()
                    .map(|w| percentile(w, p))
                    .collect::<Vec<_>>(),
            )
        };
        self.latency_p50_ms = pct(50.0);
        self.latency_p95_ms = pct(95.0);
        self.latency_p99_ms = pct(99.0);
        let fewest = sorted_windows.iter().map(Vec::len).min().unwrap_or(0);
        self.supported_percentile = highest_supported(fewest);
        self
    }
}
