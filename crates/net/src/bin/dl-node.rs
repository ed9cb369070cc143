//! `dl-node` — run a real N-node DispersedLedger cluster on localhost.
//!
//! Spawns `--nodes` full [`dl_net::NetNode`]s (engine thread + TCP mesh,
//! framed zero-copy sends) in one process, submits `--txs` synthetic
//! transactions round-robin, waits for the cluster to quiesce (every node
//! delivered everything), and asserts agreement + total order across all
//! nodes. Runs one variant or all four.
//!
//! ```sh
//! dl-node --smoke                         # CI: 4 nodes, all 4 variants
//! dl-node --variant dl --nodes 7 --txs 32 # one bigger run
//! dl-node --restart-smoke                 # CI: kill + restart a member,
//!                                         # assert WAL replay + catch-up
//! ```
//!
//! With `--data-dir DIR` every node keeps a write-ahead log under
//! `DIR/node<i>/`, fsynced per `--fsync always|epoch|never` (default
//! `epoch`). `--restart-smoke` runs the restart-recovery scenario: a
//! store-backed member is killed mid-run, the survivors keep committing,
//! and the member restarted from its `--data-dir` must end with the
//! identical delivered prefix.
//!
//! Exits non-zero if any run misses quiescence inside `--timeout-ms` or
//! any total-order check fails.

use std::path::PathBuf;
use std::time::Duration;

use dl_core::ProtocolVariant;
use dl_net::{run_restart_recovery, ClusterSpec, LocalCluster};
use dl_store::FsyncPolicy;

struct Opts {
    nodes: usize,
    variant: Option<ProtocolVariant>,
    txs: u64,
    tx_bytes: u32,
    timeout_ms: u64,
    data_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    restart_smoke: bool,
}

fn parse_variant(name: &str) -> Option<ProtocolVariant> {
    match name {
        "dl" => Some(ProtocolVariant::Dl),
        "dl-coupled" => Some(ProtocolVariant::DlCoupled),
        "hb" | "honey-badger" => Some(ProtocolVariant::HoneyBadger),
        "hb-link" => Some(ProtocolVariant::HoneyBadgerLink),
        _ => None,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: dl-node [--smoke | --restart-smoke] [--nodes N] \
         [--variant dl|dl-coupled|hb|hb-link|all] [--txs T] [--tx-bytes B] \
         [--timeout-ms MS] [--data-dir DIR] [--fsync always|epoch|never]"
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = Opts {
        nodes: 4,
        variant: None, // all four
        txs: 8,
        tx_bytes: 300,
        timeout_ms: 120_000,
        data_dir: None,
        fsync: FsyncPolicy::default(),
        restart_smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            // --smoke is the CI profile; currently identical to the
            // defaults, kept as a named knob so the workflow reads clearly.
            "--smoke" => {}
            "--restart-smoke" => opts.restart_smoke = true,
            "--nodes" => opts.nodes = value("--nodes").parse().unwrap_or_else(|_| usage()),
            "--variant" => {
                let v = value("--variant");
                if v != "all" {
                    opts.variant = Some(parse_variant(&v).unwrap_or_else(|| usage()));
                }
            }
            "--txs" => opts.txs = value("--txs").parse().unwrap_or_else(|_| usage()),
            "--tx-bytes" => opts.tx_bytes = value("--tx-bytes").parse().unwrap_or_else(|_| usage()),
            "--timeout-ms" => {
                opts.timeout_ms = value("--timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--data-dir" => opts.data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--fsync" => {
                opts.fsync = value("--fsync").parse().unwrap_or_else(|e| {
                    eprintln!("dl-node: {e}");
                    usage()
                })
            }
            _ => usage(),
        }
    }
    if opts.nodes < 4 {
        eprintln!("dl-node: need at least 4 nodes (N >= 3f + 1 with f >= 1)");
        std::process::exit(2);
    }

    if opts.restart_smoke {
        // Kill-and-restart scenario: WAL replay + retrieval catch-up must
        // reconverge on the survivors' delivered prefix.
        let data_root = opts.data_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("dl-node-restart-{}", std::process::id()))
        });
        let scratch = opts.data_dir.is_none();
        let timeout = Duration::from_millis(opts.timeout_ms);
        let result = run_restart_recovery(&data_root, opts.fsync, timeout);
        if scratch {
            let _ = std::fs::remove_dir_all(&data_root);
        }
        match result {
            Ok(elapsed) => {
                eprintln!(
                    "dl-node: restart-recovery  4 nodes  kill+restart OK  {:.2}s",
                    elapsed.as_secs_f64()
                );
                return;
            }
            Err(msg) => {
                eprintln!("dl-node: FAIL restart-recovery: {msg}");
                std::process::exit(1);
            }
        }
    }

    let variants: Vec<ProtocolVariant> = match opts.variant {
        Some(v) => vec![v],
        None => vec![
            ProtocolVariant::Dl,
            ProtocolVariant::DlCoupled,
            ProtocolVariant::HoneyBadger,
            ProtocolVariant::HoneyBadgerLink,
        ],
    };

    let timeout = Duration::from_millis(opts.timeout_ms);
    let mut failed = false;
    for variant in variants {
        let mut spec = ClusterSpec::new(opts.nodes, variant);
        spec.store = opts
            .data_dir
            .as_ref()
            .map(|root| (root.join(variant.label()), opts.fsync));
        let result = LocalCluster::spawn(&spec)
            .map_err(|e| format!("{variant:?}: spawn failed: {e}"))
            .and_then(|cluster| cluster.run_to_quiescence(opts.txs, opts.tx_bytes, timeout));
        match result {
            Ok(elapsed) => eprintln!(
                "dl-node: {:<12} {} nodes  {} txs  total order OK  {:.2}s",
                variant.label(),
                opts.nodes,
                opts.txs,
                elapsed.as_secs_f64()
            ),
            Err(msg) => {
                eprintln!("dl-node: FAIL {msg}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
