//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `../BENCHMARK.json` is
//! [`manifest_json`] written to a file; a test keeps the two equal.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` if a lower value is better.
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
    }
}

/// Wall seconds one run measures at the sizes the README documents.
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "vbw-sat-dl",
        why: "DL, N=16, every uplink re-drawn each second, closed loop of 40 clients per node: the paper's throughput experiment; uplink scheduling and retrieval decide it, coding and CPU do not",
    },
    Workload {
        name: "vbw-sat-hb",
        why: "the same run under HoneyBadger: the paper's baseline and the same engine's coupled path, so a DL gain that costs vote-after-retrieval shows here",
    },
    Workload {
        name: "vbw-rate-dl",
        why: "DL on the same varying network, open loop Poisson at 85% of the closed-loop goodput: confirmation latency at a stated load",
    },
    Workload {
        name: "control-n32",
        why: "N=32 with negligible payload: BA and VID control envelopes (N^3 per epoch) and the empty-block path do all the work; bandwidth and coding changes should not move it",
    },
    Workload {
        name: "coded-n16",
        why: "real Reed-Solomon and Merkle coder at N=16: the only sim workload where coding dominates the wall clock, so a kernel or pool change shows here and nowhere else",
    },
    Workload {
        name: "crash-revive-n7",
        why: "a node with a write-ahead log crashes and revives under load: the fault run, and the only workload through store, restore and sync catch-up",
    },
];

/// The real-socket cross-check. Run by the suite and by hand, but not one
/// of the contract's workloads: every number it yields is wall-clock on
/// shared cores and cannot meet the contract's steadiness rule (README).
pub const TCP_WORKLOAD: &str = "tcp-n4";

pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("goodput_mbps", "MB/s", false, 0.10),
    e2e("goodput_min_mbps", "MB/s", false, 0.10),
    e2e("latency_p50_ms", "ms", true, 0.15),
    e2e("latency_p95_ms", "ms", true, 0.25),
    e2e("wire_bytes_per_payload_byte", "ratio", true, 0.05),
];

pub const PER_LAYER: [Metric; 63] = [
    layer("wall_ms_per_payload_mb", "ms/MB", true),
    layer("trace_overhead_pct", "%", true),
    layer("undelivered_share", "ratio", true),
    layer("catchup_ms", "ms", true),
    layer("latency_p99_ms", "ms", true),
    layer("erasure.encode_mbps", "MB/s", false),
    layer("erasure.encode_pooled_mbps", "MB/s", false),
    layer("erasure.decode_mbps", "MB/s", false),
    layer("erasure.decode_pooled_mbps", "MB/s", false),
    layer("crypto.sha256_mbps", "MB/s", false),
    layer("crypto.merkle_build_mbps", "MB/s", false),
    layer("crypto.merkle_verify_ns", "ns", true),
    layer("pool.dispatch_us", "us", true),
    layer("pool.encode_speedup", "ratio", false),
    layer("pool.threads", "count", false),
    layer("coder.encode_s", "s", true),
    layer("coder.verify_s", "s", true),
    layer("coder.decode_s", "s", true),
    layer("coder.calls", "count", true),
    layer("vid.disperse_us", "us", true),
    layer("vid.retrieve_us", "us", true),
    layer("vid.chunks_per_retrieval", "count", true),
    layer("ba.msgs_per_decision", "count", true),
    layer("ba.rounds_per_decision", "count", true),
    layer("ba.handle_ns_per_msg", "ns", true),
    layer("wire.frame_encode_ns.chunk", "ns", true),
    layer("wire.frame_encode_ns.vote", "ns", true),
    layer("wire.frame_decode_ns.chunk", "ns", true),
    layer("wire.frame_decode_ns.vote", "ns", true),
    layer("wire.vote_wire_bytes", "count", true),
    layer("wire.block_codec_s", "s", true),
    layer("core.self_s", "s", true),
    layer("core.ns_per_envelope", "ns", true),
    layer("core.envelopes_per_epoch", "count", true),
    layer("core.envelopes.vid", "count", true),
    layer("core.envelopes.ba", "count", true),
    layer("core.envelopes.retrieval", "count", true),
    layer("core.bytes.dispersal", "count", true),
    layer("core.bytes.retrieval", "count", true),
    layer("core.bytes.ba", "count", true),
    layer("core.sendqueue_ns_per_op", "ns", true),
    layer("core.retrieval_overfetch", "ratio", true),
    layer("core.empty_block_share", "ratio", true),
    layer("core.linked_delivery_share", "ratio", true),
    layer("core.txs_requeued", "count", true),
    layer("store.append_us.mem", "us", true),
    layer("store.append_us.file", "us", true),
    layer("store.sync_us.always", "us", true),
    layer("store.sync_us.epoch", "us", true),
    layer("store.replay_mbps", "MB/s", false),
    layer("store.bytes_per_payload_byte", "ratio", true),
    layer("sim.self_s", "s", true),
    layer("sim.ns_per_event", "ns", true),
    layer("sim.events", "count", true),
    layer("sim.uplink_utilisation_mean", "ratio", false),
    layer("sim.uplink_utilisation_min", "ratio", false),
    layer("net.sat_goodput_mbps", "MB/s", false),
    layer("net.latency_p95_ms", "ms", true),
    layer("net.cpu_ms_per_payload_mb", "ms/MB", true),
    layer("net.write_segments_mbps", "MB/s", false),
    layer("net.gen_late_ms_max", "ms", true),
    layer("traced_wall_s", "s", true),
    layer("untraced_wall_s", "s", true),
];

fn better(m: &Metric) -> &'static str {
    if m.lower_is_better {
        "lower"
    } else {
        "higher"
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
            \"--manifest-path\", \"dl-e2e/Cargo.toml\", \"--bin\", \"dl-e2e\", \"--\"],\n";
    out += "  \"paths\": [\"dl-e2e\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out += &format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        );
    }
    out += "  ],\n  \"end_to_end\": [\n";
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        out += &format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            better(m),
            m.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    out += "  ],\n  \"per_layer\": [\n";
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out += &format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            better(m),
        );
    }
    out += "  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(ok));
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.lower_is_better);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `dl-e2e --manifest`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
