//! The seven workloads: their sizes at the nominal run length, how
//! `--seconds` scales them, and how a run turns into metric rows.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dl_core::{NodeStats, ProtocolVariant};

use crate::layers;
use crate::measure::{end_to_end, EndToEnd, Sample};
use crate::probe::{Counts, Kind};
use crate::sim::{self, Crash, Load, Net, Scenario};
use crate::spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{mean, median};
use crate::tcp::{self, TcpLoad, TcpScenario};
use crate::trace::Tracer;

/// One metric row of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
    /// Context printed above the result line: sample counts, seeds, box.
    pub notes: Vec<String>,
    pub violations: Vec<String>,
}

impl RunResult {
    /// The result line the benchmark's contract prescribes.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let value = if row.value.is_finite() {
                    row.value
                } else {
                    0.0
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    row.name, row.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

enum Plan {
    /// `runs` simulations with sub-seeds derived from `--seed`.
    Sim {
        scn: Scenario,
        runs: u64,
    },
    Tcp {
        scn: TcpScenario,
    },
}

/// Sizes at `RUN_SECONDS`; durations (never shapes) scale with `--seconds`.
fn plan(workload: &str, seconds: f64) -> Option<Plan> {
    let scale = seconds / RUN_SECONDS as f64;
    let ms = |nominal: u64| ((nominal as f64 * scale) as u64).max(500);
    let vbw = |variant, load, duration_ms, warmup_ms| Scenario {
        n: 16,
        variant,
        fluid: true,
        // The run loop enters each sub-run into the bank (`sub_scenario`).
        net: Net::Varying {
            seed: 0,
            offset_s: 0,
        },
        load,
        tx_bytes: 25_000,
        duration_ms,
        warmup_ms,
        crash: None,
    };
    // DL on uniform WAN links under an open Poisson load.
    let wan = |n, fluid, tx_per_sec, tx_bytes, duration_ms, crash| Scenario {
        n,
        variant: ProtocolVariant::Dl,
        fluid,
        net: Net::Wan,
        load: Load::Open { tx_per_sec },
        tx_bytes,
        duration_ms,
        warmup_ms: 0,
        crash,
    };
    // The measured windows of the sub-runs tile the uplink bank: 6 × 120 s
    // is three cycles of it (see `sub_scenario`), 6 × 80 s is two.
    let sat = |variant| Plan::Sim {
        scn: vbw(
            variant,
            Load::Closed { clients: 40 },
            ms(130_000),
            ms(10_000),
        ),
        runs: 6,
    };
    Some(match workload {
        "vbw-sat-dl" => sat(ProtocolVariant::Dl),
        "vbw-sat-hb" => sat(ProtocolVariant::HoneyBadger),
        // 8 tx/s × 25 kB = 200 kB/s per node, 3.2 MB/s aggregate.
        "vbw-rate-dl" => Plan::Sim {
            scn: vbw(
                ProtocolVariant::Dl,
                Load::Open { tx_per_sec: 8.0 },
                ms(80_000),
                0,
            ),
            runs: 6,
        },
        "control-n32" => Plan::Sim {
            scn: wan(32, true, 12.0, 250, ms(16_000), None),
            runs: 1,
        },
        // 6 tx/s × 25 kB = 150 kB/s per node.
        "coded-n16" => Plan::Sim {
            scn: wan(16, false, 6.0, 25_000, ms(10_000), None),
            runs: 2,
        },
        // 10 tx/s × 10 kB = 100 kB/s per node.
        "crash-revive-n7" => {
            let duration_ms = ms(30_000);
            let crash = Crash {
                node: 6,
                clients_stop_ms: (duration_ms / 6).saturating_sub(1_500),
                crash_ms: duration_ms / 6,
                revive_ms: duration_ms / 2,
            };
            Plan::Sim {
                scn: wan(7, false, 10.0, 10_000, duration_ms, Some(crash)),
                runs: 6,
            }
        }
        // 1500 tx/s × 20 kB = 30 MB/s aggregate. `tcp-n4-lowrate` (2.5
        // MB/s) is not part of the suite: it reproduces the lost
        // transactions the README records.
        "tcp-n4" | "tcp-n4-lowrate" => Plan::Tcp {
            scn: TcpScenario {
                n: 4,
                tx_bytes: 20_000,
                load: TcpLoad::Open {
                    tx_per_sec: if workload == "tcp-n4" { 1500.0 } else { 125.0 },
                },
                duration: Duration::from_secs_f64(seconds),
                warmup: Duration::from_secs_f64(seconds / 10.0),
                drain: Duration::from_secs(10),
            },
        },
        _ => return None,
    })
}

fn sub_seed(seed: u64, run: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(run)
}

/// Sub-run `run` of `runs`: on a varying network its measured window
/// starts where the previous sub-run's ended, so together they tile the
/// bank from the phase `seed` picks. A workload that goes round the bank
/// more than once shifts each further cycle by a fraction of the window:
/// the same network states again, cut into windows at other places (a
/// closed loop has no other randomness, and would repeat itself exactly).
fn sub_scenario(scn: &Scenario, seed: u64, run: u64, runs: u64) -> Scenario {
    let mut scn = *scn;
    if let Net::Varying { .. } = scn.net {
        let window_s = ((scn.duration_ms - scn.warmup_ms) / 1000).max(1);
        let warmup_s = scn.warmup_ms.div_ceil(1000);
        let bank_s = sim::BANK_SECS as u64;
        let per_cycle = (bank_s / window_s).max(1);
        let cycles = runs.div_ceil(per_cycle);
        let shift_s = (run / per_cycle) * window_s / cycles;
        scn.net = Net::Varying {
            seed,
            offset_s: sim::bank_phase(seed) + run * window_s + shift_s + bank_s - warmup_s % bank_s,
        };
    }
    scn
}

fn box_note() -> String {
    format!(
        "nproc={} pool_threads={} sha256_kernel={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        dl_pool::Pool::global().threads(),
        dl_crypto::sha256::kernel_name(),
    )
}

/// One row per metric of `specs`, in their order; a metric nobody computed
/// is a bug in this file, not a zero.
fn rows(specs: &[Metric], values: &[(&'static str, f64)]) -> Vec<Row> {
    specs
        .iter()
        .map(|spec| Row {
            name: spec.name,
            value: values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .unwrap_or_else(|| panic!("metric {} is not computed", spec.name))
                .1,
            unit: spec.unit,
        })
        .collect()
}

fn finish(samples: &[Sample], rows: Vec<Row>, mut notes: Vec<String>) -> RunResult {
    let violations: Vec<String> = samples.iter().flat_map(|s| s.violations.clone()).collect();
    notes.push(box_note());
    RunResult {
        correct: violations.is_empty(),
        attempted: samples.iter().map(|s| s.attempted).sum::<u64>().max(1),
        failed: samples.iter().map(|s| s.failed).sum(),
        rows,
        notes,
        violations,
    }
}

/// The untraced run: every end-to-end metric.
fn run_untraced(plan: &Plan, seed: u64) -> RunResult {
    let mut notes = Vec::new();
    let (samples, m): (Vec<Sample>, EndToEnd) = match plan {
        Plan::Sim { scn, runs } => {
            let samples: Vec<Sample> = (0..*runs)
                .map(|r| {
                    sim::run(&sub_scenario(scn, seed, r, *runs), sub_seed(seed, r), None).sample
                })
                .collect();
            let m = end_to_end(&samples);
            (samples, m)
        }
        Plan::Tcp { scn } => {
            let out = tcp::run(scn, seed, None);
            notes.push(format!(
                "loopback TCP; generator ran at most {:.3} ms late; latency percentiles are \
                 medians over {} one-second windows",
                out.gen_late_ms_max,
                out.latency_windows.len()
            ));
            let samples = vec![out.sample];
            let m = end_to_end(&samples).with_window_medians(&out.latency_windows);
            (samples, m)
        }
    };
    notes.push(format!(
        "latency samples={} highest supported percentile=p{} sub-runs={} seed={seed}",
        m.latency_samples,
        m.supported_percentile,
        samples.len()
    ));
    notes.push(format!(
        "wall {:.3} ms per payload MB (wall-clock on shared cores: information, per-layer in traced runs)",
        m.wall_ms_per_payload_mb
    ));
    let values = [
        ("setup_s", m.setup_s),
        ("goodput_mbps", m.goodput_mbps),
        ("goodput_min_mbps", m.goodput_min_mbps),
        ("latency_p50_ms", m.latency_p50_ms),
        ("latency_p95_ms", m.latency_p95_ms),
        ("wire_bytes_per_payload_byte", m.wire_bytes_per_payload_byte),
    ];
    finish(&samples, rows(&END_TO_END, &values), notes)
}

struct Traced {
    sample: Sample,
    untraced_wall_s: f64,
    /// Traced against untraced cost: wall seconds in virtual time, CPU
    /// seconds over real sockets (where the open loop pins the wall).
    overhead_pct: f64,
    stats: Vec<NodeStats>,
    counts: Vec<Counts>,
    n: usize,
    catchup_ms: f64,
    events: u64,
    uplink_utilisation: Vec<f64>,
    net: Vec<(&'static str, f64)>,
}

/// The traced run: the first sub-run untraced and traced, and the layer
/// kernels at the block size it produced.
fn run_traced(workload: &str, plan: &Plan, seed: u64, out_dir: &Path) -> RunResult {
    let tracer = Arc::new(Tracer::new());
    let t = match plan {
        Plan::Sim { scn, runs } => {
            let s = sub_seed(seed, 0);
            let scn = &sub_scenario(scn, seed, 0, *runs);
            // Untraced, traced, untraced: the first pass of a process pays
            // for first-touch page faults and lazy tables, so the traced
            // pass is compared with the mean of the passes around it.
            let before = sim::run(scn, s, None).sample.wall_s;
            let traced = sim::run(scn, s, Some(&tracer));
            let after = sim::run(scn, s, None).sample.wall_s;
            let untraced_wall_s = (before + after) / 2.0;
            Traced {
                untraced_wall_s,
                overhead_pct: 100.0 * (traced.sample.wall_s / untraced_wall_s - 1.0),
                sample: traced.sample,
                stats: traced.stats,
                counts: traced.counts,
                n: scn.n,
                catchup_ms: traced.catchup_ms,
                events: traced.events,
                uplink_utilisation: traced.uplink_utilisation,
                // The socket runs belong to `tcp-n4`; elsewhere they are 0.
                net: [
                    "net.sat_goodput_mbps",
                    "net.latency_p95_ms",
                    "net.cpu_ms_per_payload_mb",
                    "net.gen_late_ms_max",
                ]
                .map(|name| (name, 0.0))
                .to_vec(),
            }
        }
        Plan::Tcp { scn } => {
            // Three passes share the run length: open loop plain, open
            // loop traced, and closed-loop saturation.
            let third = TcpScenario {
                duration: scn.duration / 3,
                warmup: scn.warmup / 3,
                ..*scn
            };
            let plain = tcp::run(&third, seed, None);
            let traced = tcp::run(&third, seed, Some(&tracer));
            let sat = tcp::run(
                &TcpScenario {
                    load: TcpLoad::Closed { clients: 64 },
                    ..third
                },
                seed,
                None,
            );
            let net = vec![
                ("net.sat_goodput_mbps", mean(&sat.sample.goodput_mbps)),
                (
                    "net.latency_p95_ms",
                    end_to_end(std::slice::from_ref(&plain.sample)).latency_p95_ms,
                ),
                (
                    "net.cpu_ms_per_payload_mb",
                    plain.cpu_s * 1e3 / (plain.sample.payload_bytes.max(1) as f64 / 1e6),
                ),
                ("net.gen_late_ms_max", plain.gen_late_ms_max),
            ];
            let mut sample = traced.sample;
            sample.violations.extend(plain.sample.violations);
            sample.violations.extend(sat.sample.violations);
            Traced {
                untraced_wall_s: plain.sample.wall_s,
                overhead_pct: 100.0 * (traced.cpu_s / plain.cpu_s.max(0.01) - 1.0),
                sample,
                stats: traced.stats,
                counts: traced.counts,
                n: scn.n,
                catchup_ms: 0.0,
                events: 0,
                uplink_utilisation: vec![0.0],
                net,
            }
        }
    };

    let counts = Counts::merged(&t.counts);
    let block_bytes = if counts.proposed_bytes.is_empty() {
        dl_core::DEFAULT_PROPOSE_SIZE
    } else {
        median(
            &counts
                .proposed_bytes
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        ) as usize
    };
    let _ = std::fs::create_dir_all(out_dir);
    let mut values: Vec<(&'static str, f64)> = layers::measure(t.n, block_bytes, seed, out_dir);
    values.extend(t.net.iter().copied());

    let secs = |name: &str| tracer.total(name).total_ns as f64 / 1e9;
    let self_s = |name: &str| tracer.total(name).self_ns as f64 / 1e9;
    let calls = |name: &str| tracer.total(name).count as f64;
    let sum = |f: fn(&NodeStats) -> u64| t.stats.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sent = |k: Kind| counts.sent.get(&k).copied().unwrap_or((0, 0));
    let core_self = self_s("core.submit") + self_s("core.handle_burst") + self_s("core.poll");
    let sim_self = self_s("run");
    let epochs = sum(|s| s.epochs_delivered);
    let retrievals = sum(|s| s.retrievals_started);
    let k = t.n - 2 * ((t.n - 1) / 3);
    values.extend([
        (
            "wall_ms_per_payload_mb",
            ratio(t.untraced_wall_s * 1e3, t.sample.payload_bytes as f64 / 1e6),
        ),
        ("trace_overhead_pct", t.overhead_pct),
        ("traced_wall_s", t.sample.wall_s),
        ("untraced_wall_s", t.untraced_wall_s),
        (
            "undelivered_share",
            ratio(t.sample.failed as f64, t.sample.attempted as f64),
        ),
        ("catchup_ms", t.catchup_ms),
        (
            "latency_p99_ms",
            end_to_end(std::slice::from_ref(&t.sample)).latency_p99_ms,
        ),
        ("coder.encode_s", secs("coder.encode")),
        ("coder.verify_s", secs("coder.verify")),
        ("coder.decode_s", secs("coder.decode")),
        (
            "coder.calls",
            calls("coder.encode") + calls("coder.verify") + calls("coder.decode"),
        ),
        (
            "wire.block_codec_s",
            secs("wire.pack") + secs("wire.unpack"),
        ),
        (
            "vid.chunks_per_retrieval",
            ratio(counts.return_chunks_received as f64, retrievals),
        ),
        (
            "ba.msgs_per_decision",
            ratio(sent(Kind::Ba).0 as f64, epochs * t.n as f64),
        ),
        (
            "ba.rounds_per_decision",
            ratio(
                counts.ba_rounds.values().map(|&r| f64::from(r) + 1.0).sum(),
                counts.ba_rounds.len() as f64,
            ),
        ),
        ("core.self_s", core_self),
        (
            "core.ns_per_envelope",
            ratio(core_self * 1e9, counts.received as f64),
        ),
        (
            "core.envelopes_per_epoch",
            ratio(counts.received as f64, epochs),
        ),
        ("core.envelopes.vid", sent(Kind::Dispersal).0 as f64),
        ("core.envelopes.ba", sent(Kind::Ba).0 as f64),
        ("core.envelopes.retrieval", sent(Kind::Retrieval).0 as f64),
        ("core.bytes.dispersal", sent(Kind::Dispersal).1 as f64),
        ("core.bytes.retrieval", sent(Kind::Retrieval).1 as f64),
        ("core.bytes.ba", sent(Kind::Ba).1 as f64),
        (
            "core.retrieval_overfetch",
            ratio(counts.return_chunks_received as f64, retrievals * k as f64),
        ),
        (
            "core.empty_block_share",
            ratio(sum(|s| s.empty_blocks_proposed), sum(|s| s.blocks_proposed)),
        ),
        (
            "core.linked_delivery_share",
            ratio(sum(|s| s.linked_deliveries), sum(|s| s.blocks_delivered)),
        ),
        ("core.txs_requeued", sum(|s| s.txs_requeued)),
        (
            "store.bytes_per_payload_byte",
            ratio(counts.persisted_bytes as f64, t.sample.payload_bytes as f64),
        ),
        ("sim.self_s", if t.events > 0 { sim_self } else { 0.0 }),
        ("sim.ns_per_event", ratio(sim_self * 1e9, t.events as f64)),
        ("sim.events", t.events as f64),
        ("sim.uplink_utilisation_mean", mean(&t.uplink_utilisation)),
        (
            "sim.uplink_utilisation_min",
            t.uplink_utilisation
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
        ),
    ]);

    let path = out_dir.join(format!("trace-{workload}.json"));
    let mut notes = vec![format!("median proposed block {block_bytes} B, N={}", t.n)];
    match std::fs::write(&path, tracer.to_json(workload)) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    if t.events > 0 {
        let coder = secs("coder.encode") + secs("coder.verify") + secs("coder.decode");
        notes.push(format!(
            "self times: coder {coder:.3} s + wire codec {:.3} s + core {core_self:.3} s + sim \
             {sim_self:.3} s = traced wall {:.3} s; untraced wall {:.3} s",
            secs("wire.pack") + secs("wire.unpack"),
            t.sample.wall_s,
            t.untraced_wall_s
        ));
    }
    let rows = rows(&PER_LAYER, &values);
    finish(&[t.sample], rows, notes)
}

/// Run one workload once. `None` if there is no workload of that name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Option<RunResult> {
    let plan = plan(workload, seconds)?;
    Some(if trace {
        run_traced(workload, &plan, seed, out_dir)
    } else {
        run_untraced(&plan, seed)
    })
}
