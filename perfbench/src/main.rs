//! `perfbench`: runs one workload of the benchmark once and prints one
//! JSON record. `run.py` calls it once per measured run, so every measured
//! run is the first thing its process does and its peak memory is that
//! run's alone.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--traced]
//! ```
//!
//! After the measured run (and after reading its peak memory) the process
//! sets the workload up [`EXTRA_SETUPS`] more times without running it,
//! and reports those set-up times beside the measured run's own.
//! `--traced` installs the timing decorators and adds per-layer host
//! metrics. The process exits 1 on bad arguments and 2 when an output
//! check failed (the record is still printed).

use std::process::ExitCode;

use rolp_perfbench::json::{strings, Object};
use rolp_perfbench::measure::{layer_metrics, peak_rss_mb};
use rolp_perfbench::{run, run_traced, setup_only, WorkloadId};

/// Set-ups sampled after the measured run, so `setup_s` is a median of
/// this many plus one.
const EXTRA_SETUPS: usize = 9;

struct Args {
    workload: WorkloadId,
    seed: u64,
    traced: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = rolp_perfbench::DEFAULT_SEED;
    let mut traced = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(WorkloadId::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be a u64")?,
            "--traced" => traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, traced })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let (sample, layers) = if args.traced {
        let (sample, clock) = run_traced(args.workload, args.seed);
        let layers = layer_metrics(&sample, &clock);
        (sample, Some(layers))
    } else {
        (run(args.workload, args.seed, None), None)
    };
    let peak_rss_mb = peak_rss_mb();
    let mut setup_s = vec![sample.setup_s];
    setup_s.extend((0..EXTRA_SETUPS).map(|_| setup_only(args.workload, args.seed)));

    let mut sim = Object::new();
    for &(name, v) in &sample.sim {
        sim.num(name, v);
    }
    let mut fingerprint = Object::new();
    for &(name, v) in &sample.fingerprint {
        fingerprint.int(name, v);
    }
    let setup: Vec<String> = setup_s.iter().map(|s| format!("{s:?}")).collect();
    let mut rec = Object::new();
    rec.str("workload", args.workload.name())
        .int("seed", args.seed)
        .raw("traced", if args.traced { "true" } else { "false" })
        .raw("setup_s", &format!("[{}]", setup.join(",")))
        .num("host_s", sample.host_s)
        .num("cpu_s", sample.cpu_s)
        .num("sim_s", sample.sim_s)
        .num("peak_rss_mb", peak_rss_mb)
        .raw("failures", &strings(&sample.failures))
        .raw("sim", &sim.finish())
        .raw("fingerprint", &fingerprint.finish());
    if let Some(layers) = layers {
        let mut obj = Object::new();
        for (name, v) in layers {
            obj.num(name, v);
        }
        rec.raw("layers", &obj.finish());
    }
    println!("{}", rec.finish());
    if sample.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
