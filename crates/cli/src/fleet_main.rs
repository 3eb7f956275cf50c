//! `rolp-fleet`: simulate a fleet of runtime instances learning the same
//! program, aggregate their exported `rolp-profile-v1` profiles into a
//! confidence-weighted consensus, and (optionally) prove the consensus
//! warm-starts a late-joining instance: the joiner imports it through the
//! ordinary `--profile-in` canary-blend path and pretenures from its
//! first allocation instead of re-learning from zero. See `--help`.

mod output;

use std::process::ExitCode;

use rolp::runtime::RuntimeConfig;
use rolp::{DecisionProfile, FleetAggregator, ProfileValidation};
use rolp_metrics::{SimScale, SimTime};
use rolp_trace::{EventKind, TraceEvent, GLOBAL_THREAD};
use rolp_vm::CostModel;
use rolp_workloads::{execute_hooked, CassandraMix, RunBudget};

/// Parsed `rolp-fleet` command line.
#[derive(Debug, Clone)]
struct FleetArgs {
    /// Fleet size (learning instances).
    instances: usize,
    /// Submission rounds: each round every instance runs with more
    /// simulated time and re-submits its latest profile (epoch cadence).
    rounds: usize,
    /// Simulated seconds of the first round; round `r` runs `(r+1) * secs`.
    secs: u64,
    /// Experiment scale divisor.
    scale: u64,
    /// Give the last instance a drifted read/write mix, exercising the
    /// weighted-majority conflict resolution.
    drift: bool,
    /// Guest mutator threads per instance.
    mutator_threads: u32,
    /// Write the consensus profile (rolp-profile-v1) here.
    consensus_out: Option<String>,
    /// Run the late joiner cold (no profile) and write its stats JSON.
    cold_stats: Option<String>,
    /// Run the late joiner warm (importing the consensus) and write its
    /// stats JSON.
    warm_stats: Option<String>,
    /// Write a trace of fleet submissions and the consensus publication.
    trace_out: Option<String>,
}

impl Default for FleetArgs {
    fn default() -> Self {
        FleetArgs {
            instances: 3,
            rounds: 2,
            secs: 45,
            scale: 64,
            drift: false,
            mutator_threads: 4,
            consensus_out: None,
            cold_stats: None,
            warm_stats: None,
            trace_out: None,
        }
    }
}

const USAGE: &str = "\
rolp-fleet — aggregate lifetime profiles across simulated runtime instances

Runs N instances of the Cassandra workload with per-instance seed offsets,
exports each instance's learned rolp-profile-v1 at epoch cadence into a
central aggregator, publishes the confidence-weighted consensus, and can
run a late-joining instance cold vs. warm to show the consensus removes
the joiner's warmup window.

USAGE:
    rolp-fleet [OPTIONS]

OPTIONS:
    --instances <N>     learning instances in the fleet     [default: 3]
    --rounds <N>        submission rounds per instance      [default: 2]
    --secs <N>          simulated seconds of round 1; round r
                        runs (r+1)*secs                     [default: 45]
    --scale <N>         run at 1/N of the paper's testbed   [default: 64]
    --drift             give the last instance a drifted read/write mix
                        (forces weighted-majority conflict resolution)
    --mutator-threads <N>  guest mutator threads per instance, 1-256 [default: 4]
    --consensus-out <FILE>  write the consensus profile (rolp-profile-v1)
    --cold-stats <FILE>    run the late joiner WITHOUT a profile and write
                        its stats JSON (for scripts/warmup_gate.py)
    --warm-stats <FILE>    run the late joiner WITH the consensus profile
                        and write its stats JSON
    --trace-out <FILE>  write fleet submission/consensus events (Chrome
                        trace_event format; .jsonl for line JSON)
    --help              show this text

EXIT CODES:
    0   success
    1   generic failure (bad flags, I/O errors, empty consensus, ...)
    2   the consensus profile failed shape validation against the warm
        joiner's program: it parsed fine but none of its decisions or
        call sites matched, so the joiner started cold
";

/// Why a fleet run failed — shape-validation failures get their own exit
/// code so CI and operators can tell "the consensus is for a different
/// program" apart from generic errors without parsing stderr.
#[derive(Debug)]
enum FleetError {
    /// The consensus profile parsed but applied nothing against the warm
    /// joiner's program (exit code 2).
    Shape(String),
    /// Anything else (exit code 1).
    Other(String),
}

impl From<String> for FleetError {
    fn from(msg: String) -> Self {
        FleetError::Other(msg)
    }
}

/// Renders a readable diagnosis of a consensus profile whose shape did
/// not match the joiner's program.
fn shape_failure_message(v: &ProfileValidation) -> String {
    let fingerprint = if v.fingerprint_checked && !v.fingerprint_matched {
        "its program fingerprint does not match (the fleet learned a different program build); "
    } else {
        ""
    };
    format!(
        "consensus profile failed shape validation against the warm joiner: \
         {fingerprint}0/{} decision entries and 0/{} call sites applied \
         ({} entr{} and {} call site(s) rejected). The joiner ran cold. \
         Re-run the fleet against the joiner's program, or drop --warm-stats.",
        v.entries_total,
        v.call_sites_total,
        v.entries_rejected,
        if v.entries_rejected == 1 { "y" } else { "ies" },
        v.call_sites_rejected,
    )
}

fn parse(argv: &[String]) -> Result<FleetArgs, String> {
    let mut args = FleetArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or_else(|| format!("{name} needs a value"))
        };
        let positive = |name: &str, v: String| {
            v.parse::<u64>().ok().filter(|&n| n > 0).ok_or(format!("{name} must be positive"))
        };
        match arg.as_str() {
            "--instances" => {
                args.instances = positive("--instances", take("--instances")?)? as usize
            }
            "--rounds" => args.rounds = positive("--rounds", take("--rounds")?)? as usize,
            "--secs" => args.secs = positive("--secs", take("--secs")?)?,
            "--scale" => args.scale = positive("--scale", take("--scale")?)?,
            "--drift" => args.drift = true,
            "--mutator-threads" => {
                args.mutator_threads =
                    output::parse_thread_count("--mutator-threads", &take("--mutator-threads")?)?
            }
            "--consensus-out" => args.consensus_out = Some(take("--consensus-out")?),
            "--cold-stats" => args.cold_stats = Some(take("--cold-stats")?),
            "--warm-stats" => args.warm_stats = Some(take("--warm-stats")?),
            "--trace-out" => args.trace_out = Some(take("--trace-out")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other}\n\n{USAGE}")),
        }
    }
    output::check_output_dirs(&[
        ("--consensus-out", &args.consensus_out),
        ("--cold-stats", &args.cold_stats),
        ("--warm-stats", &args.warm_stats),
        ("--trace-out", &args.trace_out),
    ])?;
    Ok(args)
}

/// Per-instance workload: the paper's Cassandra write-intensive preset
/// with a seed offset so instances see different traffic, optionally with
/// a drifted read/write mix for the final instance.
fn instance_workload(
    args: &FleetArgs,
    scale: SimScale,
    instance: usize,
) -> rolp_workloads::CassandraWorkload {
    let mut preset = rolp_workloads::presets::cassandra(CassandraMix::WriteIntensive, scale);
    let mut params = preset.params().clone();
    params.seed = params.seed.wrapping_add((instance as u64) << 16);
    if args.drift && args.instances > 1 && instance == args.instances - 1 {
        params.mix = CassandraMix::ReadWrite;
    }
    preset = rolp_workloads::CassandraWorkload::new(params);
    preset
}

fn instance_config(args: &FleetArgs, scale: SimScale) -> RuntimeConfig {
    RuntimeConfig {
        collector: rolp::runtime::CollectorKind::RolpNg2c,
        heap: rolp_workloads::presets::bigdata_heap(scale),
        cost: CostModel::scaled(scale),
        threads: args.mutator_threads,
        side_table_scale: scale.divisor(),
        ..Default::default()
    }
}

/// Runs one instance for `secs` simulated seconds and exports its
/// learned profile.
fn run_instance(args: &FleetArgs, scale: SimScale, instance: usize, secs: u64) -> DecisionProfile {
    let mut workload = instance_workload(args, scale, instance);
    let budget = RunBudget {
        sim_time: SimTime::from_secs(secs),
        warmup_discard: SimTime::from_secs(0),
        max_ops: u64::MAX,
    };
    let mut profile = DecisionProfile::default();
    execute_hooked(
        &mut workload,
        instance_config(args, scale),
        &budget,
        |_| {},
        |rt| {
            if let Some(profiler) = &rt.profiler {
                let p = profiler.borrow();
                profile = DecisionProfile::from_profiler(&p, &rt.vm.env.program, &rt.vm.env.jit);
            }
        },
    );
    profile
}

/// Runs the late joiner (a seed the fleet never saw) and writes its stats
/// JSON; returns `(last_change_epoch, p99_ms, profile_import)`.
fn run_joiner(
    args: &FleetArgs,
    scale: SimScale,
    profile: Option<DecisionProfile>,
    stats_path: &str,
) -> Result<(u64, f64, Option<ProfileValidation>), String> {
    let mut workload = instance_workload(args, scale, args.instances);
    let mut config = instance_config(args, scale);
    config.rolp.offline_profile = profile;
    let budget = RunBudget {
        sim_time: SimTime::from_secs(args.secs),
        warmup_discard: SimTime::from_secs(0),
        max_ops: u64::MAX,
    };
    let out = rolp_workloads::execute_with(&mut workload, config, &budget, |_| {});
    let body = rolp::stats_json(&out.report, &out.pauses, out.trace_dropped);
    output::write_atomic(stats_path, &body)?;
    let rolp_stats = out.report.rolp.as_ref();
    let last_change = rolp_stats.map(|r| r.last_change_epoch).unwrap_or(u64::MAX);
    let import = rolp_stats.and_then(|r| r.profile_import);
    Ok((last_change, out.pauses.percentile_ms(99.0), import))
}

fn run(args: FleetArgs) -> Result<(), FleetError> {
    let scale = SimScale::new(args.scale);
    let mut aggregator = FleetAggregator::new();
    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut seq = 0u64;
    let mut push_event = |trace: &mut Vec<TraceEvent>, secs: u64, kind: EventKind| {
        trace.push(TraceEvent {
            ts: SimTime::from_secs(secs),
            thread: GLOBAL_THREAD,
            seq: {
                seq += 1;
                seq
            },
            kind,
        });
    };

    println!(
        "fleet: {} instance(s) x {} round(s), {} simulated second(s) in round 1, scale 1/{}{}",
        args.instances,
        args.rounds,
        args.secs,
        args.scale,
        if args.drift { ", last instance drifted" } else { "" },
    );

    for round in 0..args.rounds {
        let secs = args.secs * (round as u64 + 1);
        for instance in 0..args.instances {
            let profile = run_instance(&args, scale, instance, secs);
            let (epochs, entries) = (profile.epochs, profile.len() as u64);
            let outcome = aggregator.submit(&format!("instance-{instance}"), profile);
            println!(
                "  round {round}: instance-{instance} submitted {entries} decision(s) from {epochs} epoch(s) — {outcome:?}",
            );
            push_event(
                &mut trace,
                secs,
                EventKind::FleetSubmission {
                    instance: instance as u32,
                    epochs,
                    entries,
                    accepted: outcome.accepted(),
                },
            );
        }
    }

    let consensus = aggregator.consensus();
    println!(
        "consensus: {} decision(s) from {} instance(s) — {} unanimous, {} contested, fingerprint {}",
        consensus.profile.len(),
        consensus.instances,
        consensus.unanimous,
        consensus.contested,
        consensus
            .profile
            .fingerprint
            .map(|fp| format!("{fp:016x}"))
            .unwrap_or_else(|| "none".into()),
    );
    push_event(
        &mut trace,
        args.secs * args.rounds as u64 + 1,
        EventKind::FleetConsensus {
            instances: consensus.instances as u32,
            entries: consensus.profile.len() as u64,
            contested: consensus.contested as u64,
        },
    );
    if consensus.profile.is_empty() {
        return Err(FleetError::Other(
            "fleet produced an empty consensus — nothing learned; raise --secs".into(),
        ));
    }

    if let Some(path) = &args.consensus_out {
        std::fs::write(path, consensus.profile.to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("consensus profile written to {path}");
    }

    if let Some(path) = &args.cold_stats {
        let (epoch, p99, _) = run_joiner(&args, scale, None, path)?;
        println!("late joiner (cold): stable at epoch {epoch}, p99 {p99:.2} ms -> {path}");
    }
    if let Some(path) = &args.warm_stats {
        let (epoch, p99, import) = run_joiner(&args, scale, Some(consensus.profile.clone()), path)?;
        println!("late joiner (warm): stable at epoch {epoch}, p99 {p99:.2} ms -> {path}");
        // A consensus that applied nothing is a different failure from a
        // slow warm start: the profile is for another program. Surface it
        // with its own exit code (see EXIT CODES in --help).
        if let Some(v) = import {
            if v.nothing_applied() {
                return Err(FleetError::Shape(shape_failure_message(&v)));
            }
        }
        if epoch != 0 {
            return Err(FleetError::Other(format!(
                "late joiner still changed decisions after epoch 0 (last change at {epoch}) — \
                 the consensus did not warm-start it"
            )));
        }
    }

    if let Some(path) = &args.trace_out {
        let rendered = if path.ends_with(".jsonl") {
            rolp_trace::export::to_jsonl(&trace)
        } else {
            rolp_trace::export::to_chrome_trace(&trace)
        };
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace: {} fleet event(s) written to {path}", trace.len());
    }
    Ok(())
}

/// Exit code for shape-validation failures (see EXIT CODES in --help).
const EXIT_SHAPE_MISMATCH: u8 = 2;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(FleetError::Shape(msg)) => {
                eprintln!("error: {msg}");
                ExitCode::from(EXIT_SHAPE_MISMATCH)
            }
            Err(FleetError::Other(msg)) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn defaults_and_flags_parse() {
        let d = parse(&[]).unwrap();
        assert_eq!((d.instances, d.rounds, d.secs), (3, 2, 45));
        assert!(!d.drift);
        let a = parse(&argv(
            "--instances 5 --rounds 1 --secs 30 --drift \
             --consensus-out c.prof --cold-stats cold.json --warm-stats warm.json",
        ))
        .unwrap();
        assert_eq!(a.instances, 5);
        assert!(a.drift);
        assert_eq!(a.consensus_out.as_deref(), Some("c.prof"));
        assert!(parse(&argv("--instances 0")).unwrap_err().contains("positive"));
        let err = parse(&argv("--mutator-threads 4294967296")).unwrap_err();
        assert!(err.starts_with("--mutator-threads must be at most 256"), "{err}");
        assert!(parse(&argv("--table-shards 4")).unwrap_err().contains("unknown option"));
        assert!(parse(&argv("--frobnicate")).unwrap_err().contains("unknown option"));
    }

    #[test]
    fn output_paths_in_missing_directories_fail_before_the_run() {
        let missing = std::env::temp_dir().join("rolp-fleet-no-such-dir").join("x.json");
        let missing = missing.to_str().unwrap();
        for flag in ["--consensus-out", "--cold-stats", "--warm-stats", "--trace-out"] {
            let err = parse(&argv(&format!("{flag} {missing}"))).unwrap_err();
            assert!(err.starts_with(flag) && err.contains("does not exist"), "{err}");
        }
        assert!(parse(&argv("--cold-stats x.json")).is_ok(), "a bare name writes to the cwd");
    }

    #[test]
    fn shape_failure_diagnosis_is_readable_and_distinct() {
        let v = ProfileValidation {
            fingerprint_checked: true,
            fingerprint_matched: false,
            entries_total: 7,
            entries_applied: 0,
            entries_rejected: 7,
            call_sites_total: 3,
            call_sites_applied: 0,
            call_sites_rejected: 3,
        };
        assert!(v.nothing_applied());
        let msg = shape_failure_message(&v);
        assert!(msg.contains("fingerprint does not match"), "{msg}");
        assert!(msg.contains("0/7 decision entries"), "{msg}");
        assert!(msg.contains("0/3 call sites"), "{msg}");
        // A partially-applied profile is NOT a shape failure.
        let partial = ProfileValidation { entries_applied: 2, entries_rejected: 5, ..v };
        assert!(!partial.nothing_applied());
        // String errors coerce to the generic (exit 1) variant.
        let generic: FleetError = String::from("disk full").into();
        assert!(matches!(generic, FleetError::Other(_)));
        assert_eq!(EXIT_SHAPE_MISMATCH, 2);
    }

    #[test]
    fn seed_offsets_differ_per_instance_and_drift_changes_the_mix() {
        let args = FleetArgs { drift: true, ..FleetArgs::default() };
        let scale = SimScale::new(512);
        let a = instance_workload(&args, scale, 0);
        let b = instance_workload(&args, scale, 1);
        let last = instance_workload(&args, scale, args.instances - 1);
        assert_ne!(a.params().seed, b.params().seed);
        assert_eq!(a.params().mix, CassandraMix::WriteIntensive);
        assert_eq!(last.params().mix, CassandraMix::ReadWrite);
    }
}
