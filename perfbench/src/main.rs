//! `perfbench`: the end-to-end and per-layer benchmark of commorder.
//!
//! ```text
//! perfbench --workload <paper-grid|preprocess-mega|spgemm> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --reference
//! ```
//!
//! With `--trace 0` a run sets its inputs up several times (`setup_s` is
//! the median), then repeats untraced passes of the workload until
//! `--seconds` of timed work and at least two passes have accumulated,
//! and reports the median pass. With `--trace 1` it runs one untraced
//! pass and then traced passes, which call one layer at a time, and
//! reports the per-layer metrics. The last line of standard output is
//! the result object; the line before it records the host and the raw
//! samples. `--reference` prints the default-seed fingerprints of every
//! workload on the serial engine, the content of `reference.txt`.

mod check;
mod measure;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use commorder::exec::Engine;

use check::{same_fingerprints, Checks, Fingerprints};
use measure::{json_string, median, CountingAlloc, Stopwatch};
use trace::{Trace, LAYER_METRICS};
use workloads::{generate, Pass, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Untraced passes per run, at least.
const MIN_PASSES: usize = 2;
/// Set-up repeats before every pass until it has taken this long, so
/// the set-up samples span the whole run.
const SETUP_BLOCK_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: perfbench --workload <paper-grid|preprocess-mega|spgemm> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --reference";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Reference,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--reference"] {
        return Ok(Command::Reference);
    }
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = take("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = take("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("--seconds")?
        .parse::<u32>()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds: f64::from(seconds.max(1)),
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run(args)) => {
            let result = if args.trace {
                run_traced(&args)
            } else {
                run_untraced(&args)
            };
            println!("{}", result.detail);
            println!("{}", result.line);
            ExitCode::SUCCESS
        }
        Ok(Command::Reference) => {
            print_reference();
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct Report {
    detail: String,
    line: String,
}

fn report(
    args: &Args,
    checks: &Checks,
    metrics: &[(&str, f64, &str)],
    samples: &[(&str, &[f64])],
) -> Report {
    let number = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            "0".to_string()
        }
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                number(*value),
                json_string(unit)
            )
        })
        .collect();
    let samples: Vec<String> = samples
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(|&v| number(v)).collect();
            format!("{}: [{}]", json_string(name), values.join(", "))
        })
        .collect();
    // Results are comparable only under the same host facts; the id lets
    // a reader flag a result from another host instead of comparing it.
    let host = measure::host_json();
    let host_id = check::fnv1a_u64s(host.bytes().map(u64::from));
    Report {
        detail: format!(
            "{{\"host\": {host}, \"host_id\": \"{host_id:016x}\", \"workload\": {}, \"seed\": {}, \
             \"trace\": {}, \"engine_width\": {}, \"samples\": {{{}}}}}",
            json_string(args.workload.name()),
            args.seed,
            u8::from(args.trace),
            args.workload.width(),
            samples.join(", ")
        ),
        line: format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.failed == 0 && checks.attempted > 0,
            checks.attempted,
            checks.failed,
            metrics.join(", ")
        ),
    }
}

/// Generates the inputs and builds the pass state, timed.
fn set_up(workload: Workload, seed: u64) -> (Box<dyn Pass>, f64) {
    let started = Instant::now();
    let pass = workload.prepare(generate(&workload.entries(seed)));
    (pass, started.elapsed().as_secs_f64())
}

/// Sets up at least `min_reps` times and for [`SETUP_BLOCK_SECONDS`],
/// recording each time, and returns the last state.
fn set_up_block(
    workload: Workload,
    seed: u64,
    min_reps: usize,
    setups: &mut Vec<f64>,
) -> Box<dyn Pass> {
    let start = setups.len();
    let mut state = None;
    while setups.len() - start < min_reps
        || setups[start..].iter().sum::<f64>() < SETUP_BLOCK_SECONDS
    {
        // Drop the previous inputs first so only one copy is ever live.
        drop(state.take());
        let (pass, seconds) = set_up(workload, seed);
        state = Some(pass);
        setups.push(seconds);
    }
    state.expect("set up at least once")
}

fn run_untraced(args: &Args) -> Report {
    let workload = args.workload;
    let mut checks = Checks::new(args.seed);

    let engine = Engine::new(workload.width());
    let (mut setups, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks: BTreeMap<String, usize> = BTreeMap::new();
    let mut first: Option<Fingerprints> = None;
    while walls.len() < MIN_PASSES || walls.iter().sum::<f64>() < args.seconds {
        // Every pass runs on a fresh set-up; the first block repeats at
        // least twice so a run always has three set-up samples or more.
        let state = set_up_block(workload, args.seed, 2 - walls.len().min(1), &mut setups);
        let mut clock = Stopwatch::default();
        let fingerprints = state.run(&engine, &mut clock, &mut checks);
        walls.push(clock.wall);
        cpus.push(clock.cpu);
        for (matrix, bytes) in clock.peaks {
            let peak = peaks.entry(matrix).or_default();
            *peak = (*peak).max(bytes);
        }
        match &first {
            None => first = Some(fingerprints),
            Some(first) => same_fingerprints(
                &mut checks,
                &format!("pass {} repeats pass 1", walls.len()),
                first,
                &fingerprints,
            ),
        }
    }

    // The median over input matrices, not the maximum: one matrix's peak
    // can sit on a hash-table doubling that flips with the seed.
    let peaks: Vec<f64> = peaks.values().map(|&b| b as f64 / 1e6).collect();
    report(
        args,
        &checks,
        &[
            ("wall_s", median(&walls), "s"),
            ("setup_s", median(&setups), "s"),
            ("cpu_s", median(&cpus), "s"),
            ("peak_heap_mb", median(&peaks), "MB"),
            ("success_ratio", checks.success_ratio(), "ratio"),
        ],
        &[
            ("wall_s", &walls),
            ("cpu_s", &cpus),
            ("setup_s", &setups),
            ("peak_heap_mb", &peaks),
        ],
    )
}

/// Layers timed as standalone probes outside the traced cells: they do
/// not count toward the traced wall.
const PROBE_LAYERS: [&str; 3] = [
    "synth.generate_s",
    "sparse.symmetrize_s",
    "sparse.components_s",
];

fn run_traced(args: &Args) -> Report {
    let workload = args.workload;
    let mut checks = Checks::new(args.seed);
    let started = Instant::now();
    let inputs = generate(&workload.entries(args.seed));
    let generate_s = started.elapsed().as_secs_f64();
    let state = workload.prepare(inputs);
    let engine = Engine::new(workload.width());

    let mut clock = Stopwatch::default();
    let untraced = state.run(&engine, &mut clock, &mut checks);

    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut elapsed = clock.wall;
    while passes.is_empty() || elapsed < args.seconds {
        let mut trace = Trace::start();
        let traced = state.run_traced(&engine, &mut trace, &mut checks);
        let mut m = trace.finish(workload.width(), clock.wall);
        m.insert("synth.generate_s", generate_s);
        same_fingerprints(
            &mut checks,
            "traced pass reproduces the untraced pass",
            &untraced,
            &traced,
        );
        let wall = m["traced_wall_s"];
        let layers: f64 = LAYER_METRICS
            .iter()
            .filter(|(name, unit)| {
                *unit == "s" && !PROBE_LAYERS.contains(name) && !name.starts_with("exec.")
            })
            .map(|(name, _)| m[name])
            .sum();
        checks.expect(
            "layer self-times and unattributed time sum to the traced wall",
            m["core.unattributed_s"] >= 0.0 && (layers - wall).abs() <= 1e-9 * wall.max(1.0),
            || format!("layers {layers} s against a traced wall of {wall} s"),
        );
        if let Some(previous) = passes.last() {
            // Steals depend on thread timing once the engine has more
            // than one worker; every other count is a function of the
            // inputs.
            let differing: Vec<&str> = LAYER_METRICS
                .iter()
                .filter(|(name, unit)| {
                    *unit == "count" && *name != "exec.steals" && previous[name] != m[name]
                })
                .map(|(name, _)| *name)
                .collect();
            checks.expect(
                "count metrics repeat between traced passes",
                differing.is_empty(),
                || format!("differing counts: {differing:?}"),
            );
        }
        elapsed += wall;
        passes.push(m);
    }

    let metrics: Vec<(&str, f64, &str)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = passes.iter().map(|m| m[name]).collect();
            (name, median(&values), unit)
        })
        .collect();
    let traced_walls: Vec<f64> = passes.iter().map(|m| m["traced_wall_s"]).collect();
    report(
        args,
        &checks,
        &metrics,
        &[
            ("untraced_wall_s", &[clock.wall]),
            ("traced_wall_s", &traced_walls),
        ],
    )
}

/// Prints `name 0xHEX` for every fingerprint of every workload at the
/// default seed, computed on the serial engine.
fn print_reference() {
    println!("# Default-seed fingerprints on the serial engine: perfbench --reference");
    let mut all = Fingerprints::new();
    for workload in Workload::ALL {
        eprintln!("perfbench: reference pass of {}", workload.name());
        let (state, _) = set_up(workload, check::DEFAULT_SEED);
        let mut checks = Checks::default();
        let fingerprints = state.run(&Engine::serial(), &mut Stopwatch::default(), &mut checks);
        assert_eq!(
            checks.failed,
            0,
            "{} fails its invariant checks",
            workload.name()
        );
        all.extend(fingerprints);
    }
    for (name, value) in all {
        println!("{name} {value:#018x}");
    }
}
