//! `sbft-chaos`: scenario-driven fault injection for SBFT clusters.
//!
//! ```text
//! sbft-chaos --list                                  # plan library
//! sbft-chaos --plan primary-crash --seed 0xDEAD      # one scenario, both backends
//! sbft-chaos --plan primary-crash --backend tcp      # real sockets only
//! sbft-chaos --swarm 32                              # 32-seed sweep + TCP coverage
//! sbft-chaos --swarm 32 --backend sim --time-cap 60 # the CI sweep
//! ```
//!
//! Every report line carries the exact seed, so any failure replays with
//! `--plan <name> --seed <seed>`. Sim failures are automatically shrunk
//! to a minimal failing schedule. Exit code 1 if anything failed.

use std::process::ExitCode;
use std::time::Duration;

use sbft_chaos::swarm::{run_once, BackendSel, SwarmConfig};
use sbft_chaos::{canonical_plans, plan_by_name, random_crashes_plan, run_swarm, shrink};

struct Args {
    plan: Option<String>,
    backend: BackendSel,
    seed: u64,
    swarm: Option<u64>,
    time_cap: Duration,
    list: bool,
    no_shrink: bool,
    no_determinism_check: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        plan: None,
        backend: BackendSel::Both,
        seed: 0xC0FFEE,
        swarm: None,
        time_cap: Duration::from_secs(300),
        list: false,
        no_shrink: false,
        no_determinism_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--list" => args.list = true,
            "--plan" => args.plan = Some(value("--plan")?),
            "--seed" => {
                let raw = value("--seed")?;
                args.seed = parse_seed(&raw).ok_or_else(|| format!("bad seed `{raw}`"))?;
            }
            "--swarm" => {
                let raw = value("--swarm")?;
                args.swarm = Some(raw.parse().map_err(|_| format!("bad count `{raw}`"))?);
            }
            "--backend" => {
                args.backend = match value("--backend")?.as_str() {
                    "sim" => BackendSel::Sim,
                    "tcp" => BackendSel::Tcp,
                    "both" => BackendSel::Both,
                    other => return Err(format!("unknown backend `{other}`")),
                };
            }
            "--time-cap" => {
                let raw = value("--time-cap")?;
                let raw = raw.strip_suffix('s').unwrap_or(&raw);
                let secs: u64 = raw.parse().map_err(|_| format!("bad time cap `{raw}`"))?;
                args.time_cap = Duration::from_secs(secs);
            }
            "--no-shrink" => args.no_shrink = true,
            "--no-determinism-check" => args.no_determinism_check = true,
            "--help" | "-h" => {
                println!(
                    "usage: sbft-chaos [--list] [--plan NAME] [--seed 0xHEX] [--swarm N]\n\
                     \x20                 [--backend sim|tcp|both] [--time-cap SECS]\n\
                     \x20                 [--no-shrink] [--no-determinism-check]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sbft-chaos: {e}");
            return ExitCode::FAILURE;
        }
    };

    let plans = canonical_plans();
    if args.list {
        println!("canonical fault plans ({}):", plans.len());
        for plan in &plans {
            let backends = if plan.tcp_supported() {
                "sim+tcp"
            } else {
                "sim"
            };
            println!("  {:<28} [{backends}] {}", plan.name, plan.summary);
        }
        println!(
            "  {:<28} [sim]     seed-derived crash schedule (swarm only)",
            "random-crashes"
        );
        return ExitCode::SUCCESS;
    }

    // Single-plan mode: run one scenario under one seed.
    if let Some(name) = &args.plan {
        let plan = if name == "random-crashes" {
            Some(random_crashes_plan(args.seed))
        } else {
            plan_by_name(name)
        };
        let Some(plan) = plan else {
            eprintln!("sbft-chaos: unknown plan `{name}` (try --list)");
            return ExitCode::FAILURE;
        };
        let reports = run_once(&plan, args.seed, args.backend, args.time_cap);
        let mut failed = false;
        for report in &reports {
            println!("{}", report.line());
            failed |= report.outcome.failed();
            if report.outcome.failed() {
                print!("{}", report.registry_dump());
                if !args.no_shrink {
                    if let Some(minimal) = shrink(&plan, report.seed, 40) {
                        println!("{}", minimal.recipe());
                    }
                }
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    // Swarm mode (default: one seed over every plan).
    let config = SwarmConfig {
        seeds: args.swarm.unwrap_or(1),
        base_seed: args.seed,
        backend: args.backend,
        time_cap: args.time_cap,
        check_determinism: !args.no_determinism_check,
        shrink_failures: !args.no_shrink,
    };
    println!(
        "sweeping {} plans × {} seeds (base 0x{:x}, backend {:?}, cap {}s)",
        plans.len(),
        config.seeds,
        config.base_seed,
        config.backend,
        config.time_cap.as_secs()
    );
    let result = run_swarm(&plans, &config);
    for report in &result.reports {
        println!("{}", report.line());
        if report.outcome.failed() {
            print!("{}", report.registry_dump());
        }
    }
    for minimal in &result.shrunk {
        println!("{}", minimal.recipe());
    }
    let (pass, fail, skip) = result.tally();
    println!("swarm: {pass} passed, {fail} failed, {skip} skipped");
    if result.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
