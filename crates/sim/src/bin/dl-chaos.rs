//! `dl-chaos` — batch seeded chaos scenarios and audit safety.
//!
//! Each seed deterministically expands to a full scenario
//! ([`dl_sim::scenario_from_seed`]): protocol variant, cluster size,
//! adversary behaviour, client load (a trickle, or bursts of full Nagle
//! batches that open the dispersal window), link-fault schedule (drops,
//! duplicates, reordering, jitter, partitions) and a crash/revive storm
//! against the write-ahead logs. The run is audited by the cluster-wide
//! safety [`dl_sim::Auditor`]; any violation prints its reproducing seed
//! and the process exits non-zero.
//!
//! ```sh
//! dl-chaos --seeds 512             # CI: seeds 0..512
//! dl-chaos --seed-base 100 --seeds 64
//! dl-chaos --seed 17               # replay one failing seed
//! dl-chaos --seed 17 --seed 40     # or a list of them
//! ```

use std::process::ExitCode;

use dl_sim::{run_scenario, scenario_from_seed, ChaosScenario};

fn usage() -> ! {
    eprintln!("usage: dl-chaos [--seeds N] [--seed-base B] [--seed S]... [--max-ms MS]");
    std::process::exit(2);
}

fn describe(sc: &ChaosScenario) -> String {
    format!(
        "n={} {:?} load={}x{}B adversary={} drop={:.3} dup={:.3} reorder={:.2} jitter={}ms \
         partitions={} storm={}",
        sc.n,
        sc.variant,
        sc.txs_per_node,
        sc.tx_bytes,
        sc.adversary
            .map_or_else(|| "none".to_string(), |k| format!("{k:?}")),
        sc.plan.drop,
        sc.plan.duplicate,
        sc.plan.reorder,
        sc.plan.jitter_ms,
        sc.plan.partitions.len(),
        sc.actions.len() / 2,
    )
}

fn main() -> ExitCode {
    let mut seeds = 32u64;
    let mut seed_base = 0u64;
    let mut only_seeds: Vec<u64> = Vec::new();
    let mut max_ms: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--seeds" => seeds = value("--seeds").parse().unwrap_or_else(|_| usage()),
            "--seed-base" => seed_base = value("--seed-base").parse().unwrap_or_else(|_| usage()),
            "--seed" => only_seeds.push(value("--seed").parse().unwrap_or_else(|_| usage())),
            "--max-ms" => max_ms = Some(value("--max-ms").parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let batch: Vec<u64> = if only_seeds.is_empty() {
        (seed_base..seed_base + seeds).collect()
    } else {
        only_seeds
    };

    let mut failures = 0u32;
    for &seed in &batch {
        let mut sc = scenario_from_seed(seed);
        if let Some(ms) = max_ms {
            sc.max_ms = ms;
        }
        let out = run_scenario(&sc);
        let mut bad = Vec::new();
        if !out.report.quiesced {
            bad.push(format!("did not quiesce within {} virtual ms", sc.max_ms));
        }
        for v in &out.violations {
            bad.push(v.to_string());
        }
        if let Some(total) = out.expected_txs {
            for i in 0..sc.n {
                if sc.adversary.is_some() && i == sc.n - 1 {
                    continue;
                }
                let got = out.report.stats[i].as_ref().map_or(0, |s| s.txs_delivered);
                if got < total {
                    bad.push(format!(
                        "lossless scenario, but node {i} delivered {got}/{total} txs"
                    ));
                }
            }
        }
        let verdict = if bad.is_empty() { "ok" } else { "FAIL" };
        println!(
            "dl-chaos: seed {seed:>4}  {verdict}  {}  [{} events, {} virtual ms, \
             dropped {}, duplicated {}]",
            describe(&sc),
            out.report.events_processed,
            out.report.now_ms,
            out.dropped,
            out.duplicated,
        );
        for detail in &bad {
            eprintln!("dl-chaos: seed {seed}: {detail}");
        }
        if !bad.is_empty() {
            failures += 1;
            eprintln!("dl-chaos: reproduce with: dl-chaos --seed {seed}");
        }
    }
    if failures > 0 {
        eprintln!("dl-chaos: {failures}/{} seeds FAILED", batch.len());
        return ExitCode::FAILURE;
    }
    println!(
        "dl-chaos: all {} seeds passed the safety audit",
        batch.len()
    );
    ExitCode::SUCCESS
}
