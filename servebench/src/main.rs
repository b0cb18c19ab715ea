//! End-to-end serving benchmark of the MEANet edge-cloud system.
//!
//! ```text
//! servebench --workload <edge_local|cloud_offload|backlog> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run trains the system from data generated from `--seed`, deploys
//! it into a [`mea_edgecloud::serve::Fleet`] over Unix-domain sockets and
//! serves the workload for `--seconds` seconds. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` additionally replays the workload's
//! requests layer by layer inside spans and prints the per-layer metrics.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this crate.

mod checks;
mod procfs;
mod replay;
mod report;
mod setup;
mod stats;
mod trace;
mod workload;

use mea_edgecloud::serve::{Fleet, ServeReport};
use mea_tensor::Rng;
use meanet::OffloadPolicy;
use procfs::CpuTicks;
use report::Metrics;
use setup::System;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{build_trace, Trace, Workload, DRAIN_BOUND_S, MAX_BATCH};

/// Set-up and measurement cycles per untraced run. The host's speed
/// drifts over seconds; spreading short windows over the whole run lets
/// each run summarise the windows the hypervisor disturbed least (see
/// `README.md`).
const CYCLES: usize = 3;
/// Measurement windows served after each set-up.
const WINDOWS_PER_CYCLE: usize = 8;
/// Measurement windows per run.
const WINDOWS: usize = CYCLES * WINDOWS_PER_CYCLE;

const USAGE: &str = "usage: servebench --workload <edge_local|cloud_offload|backlog> --seed <n> \
                     --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One timed `Fleet::serve` call.
struct Round {
    trace: Trace,
    report: ServeReport,
    wall_s: f64,
    cpu: CpuTicks,
    /// Host-wide steal ticks while the round was served.
    steal: u64,
}

/// The end-to-end figures of one measurement window.
struct Window {
    p50: stats::Percentile,
    p95: stats::Percentile,
    throughput_rps: f64,
    cpu_ms_per_req: f64,
    wan_bytes_per_req: f64,
    /// Worst drain lag of the window's rounds.
    lag_s: f64,
    /// Host-wide steal ticks while the window was served.
    steal: u64,
}

impl Window {
    fn of(rounds: &[Round]) -> Window {
        let latencies_ms: Vec<f64> =
            rounds.iter().flat_map(|r| r.report.completions.iter().map(|c| c.latency_s * 1e3)).collect();
        let total: usize = rounds.iter().map(|r| r.report.stats.total).sum();
        let wan: u64 =
            rounds.iter().map(|r| r.report.stats.bytes_to_cloud + r.report.stats.bytes_from_cloud).sum();
        let wall_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
        let cpu = rounds.iter().fold(CpuTicks::default(), |acc, r| acc.plus(r.cpu));
        Window {
            p50: stats::percentile(&latencies_ms, 50.0),
            p95: stats::percentile(&latencies_ms, 95.0),
            throughput_rps: total as f64 / wall_s,
            cpu_ms_per_req: 1e3 * (cpu.user_s() + cpu.sys_s()) / total as f64,
            wan_bytes_per_req: wan as f64 / total as f64,
            lag_s: rounds.iter().map(|r| checks::drain_lag_s(&r.trace, &r.report)).fold(0.0, f64::max),
            steal: rounds.iter().map(|r| r.steal).sum(),
        }
    }

    fn print(&self, index: usize, rounds: usize) {
        println!(
            "window {index}: {} requests in {rounds} rounds, p50 {:.3} ms, p95 {:.3} ms ({} beyond{}), {:.1} req/s, \
             {:.3} CPU ms/req, drain lag {:.3} s, host steal {} ticks",
            self.p50.samples,
            self.p50.value,
            self.p95.value,
            self.p95.beyond,
            if self.p95.supported() { "" } else { ", too few for a tail" },
            self.throughput_rps,
            self.cpu_ms_per_req,
            self.lag_s,
            self.steal,
        );
    }
}

/// Everything a run measured and checked.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome { metrics: Metrics::default(), attempted: 0, failed: 0, failures: Vec::new() }
    }

    /// Checks one served round.
    fn check(&mut self, label: &str, round: (&Trace, &ServeReport), reference: &checks::Reference) {
        let (failures, missing) = checks::check_round(round.0, round.1, reference);
        self.failures.extend(failures.into_iter().map(|f| format!("{label}: {f}")));
        self.attempted += round.0.requests.len() as u64;
        self.failed += missing as u64;
    }

    /// An open loop must keep up with its offered rate: at least half of
    /// the windows end within [`DRAIN_BOUND_S`] of their last arrival. A
    /// rate the host cannot sustain lags in every window; a neighbour
    /// stealing the CPU for a few seconds lags in a few.
    fn check_drain(&mut self, windows: &[Window]) {
        let late = windows.iter().filter(|x| x.lag_s > DRAIN_BOUND_S).count();
        if 2 * late > windows.len() {
            self.failures.push(format!(
                "{late} of {} windows ended more than {DRAIN_BOUND_S} s behind their last arrival",
                windows.len()
            ));
        }
    }
}

/// The median of one window figure over the windows `keep` selects.
fn over_windows(windows: &[Window], keep: &[usize], figure: fn(&Window) -> f64) -> f64 {
    stats::median(&keep.iter().map(|&i| figure(&windows[i])).collect::<Vec<_>>())
}

/// Serves one measurement window of `window_s` seconds: one open-loop
/// round of whole passes at the workload's rate, or back-to-back drain
/// rounds until the window has passed. Checks every round.
fn serve_window(
    fleet: &mut Fleet,
    sys: &System,
    w: Workload,
    window_s: f64,
    rng: &mut Rng,
    reference: &checks::Reference,
    out: &mut Outcome,
) -> Vec<Round> {
    let passes = w.passes_per_round(sys.test.len(), window_s);
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let trace = build_trace(w.rate_hz(), &sys.test, passes, rng);
        let steal0 = procfs::steal_ticks().expect("/proc/stat is readable");
        let cpu0 = procfs::cpu_ticks().expect("/proc/self/stat is readable");
        let t0 = Instant::now();
        let report = fleet.serve(&trace.requests).expect("the benchmark's traces are well-formed");
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu = procfs::cpu_ticks().expect("/proc/self/stat is readable").since(cpu0);
        let steal = procfs::steal_ticks().expect("/proc/stat is readable") - steal0;
        out.check("serve", (&trace, &report), reference);
        rounds.push(Round { trace, report, wall_s, cpu, steal });
        if w.rate_hz().is_some() || start.elapsed() >= Duration::from_secs_f64(window_s) {
            return rounds;
        }
    }
}

/// Computes the reference under `policy` and checks the trained edge.
fn reference(sys: &mut System, w: Workload, policy: OffloadPolicy, out: &mut Outcome) -> checks::Reference {
    let reference = checks::reference(sys, w, policy);
    println!("reference: edge accuracy {:.3} on {} serving-set images", reference.edge_accuracy, sys.test.len());
    if reference.edge_accuracy < checks::MIN_EDGE_ACCURACY {
        out.failures.push(format!(
            "edge accuracy {:.3} below {}",
            reference.edge_accuracy,
            checks::MIN_EDGE_ACCURACY
        ));
    }
    reference
}

/// The untraced warm-up serve: one pass over the serving set, all due at
/// once, checked like a timed round but neither measured nor counted.
fn warm_up(fleet: &mut Fleet, sys: &System, reference: &checks::Reference, rng: &mut Rng, out: &mut Outcome) {
    let trace = build_trace(None, &sys.test, 1, rng);
    let report = fleet.serve(&trace.requests).expect("the benchmark's traces are well-formed");
    let mut warm = Outcome::new();
    warm.check("warm-up", (&trace, &report), reference);
    println!("phase warmup: attempted {} failed {}", warm.attempted, warm.failed);
    out.failures.extend(warm.failures);
}

/// `--trace 0`: [`CYCLES`] cycles of set-up, warm-up and
/// [`WINDOWS_PER_CYCLE`] measurement windows, `seconds` split evenly over
/// the windows. `setup_s` is the median set-up; every other figure is the
/// median over the half of the windows with the least host steal (see
/// `README.md`).
fn run_untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::new();
    let mut rng = Rng::new(args.seed ^ 0x7261_6365);
    let mut checked: Option<(OffloadPolicy, checks::Reference)> = None;
    let (mut setup_s, mut windows, mut peak_rss_mb) = (Vec::new(), Vec::new(), None);
    for cycle in 0..CYCLES {
        let t0 = Instant::now();
        let mut sys = setup::train(args.seed);
        let policy = setup::calibrate(&mut sys, w.offload_fraction());
        let mut fleet = setup::deploy(&mut sys, w, policy);
        setup_s.push(t0.elapsed().as_secs_f64());
        println!("cycle {cycle}: setup {:.3} s", setup_s[cycle]);
        // Every cycle trains the same system, so the first cycle's policy
        // and reference check them all.
        let (first_policy, reference) =
            checked.get_or_insert_with(|| (policy, reference(&mut sys, w, policy, &mut out)));
        if policy != *first_policy {
            out.failures.push(format!("cycle {cycle} calibrated a different policy"));
        }
        warm_up(&mut fleet, &sys, reference, &mut rng, &mut out);
        for _ in 0..WINDOWS_PER_CYCLE {
            let rounds =
                serve_window(&mut fleet, &sys, w, args.seconds / WINDOWS as f64, &mut rng, reference, &mut out);
            let window = Window::of(&rounds);
            window.print(windows.len(), rounds.len());
            windows.push(window);
        }
        // A deployment sets up once and then serves: the first cycle's
        // peak is its peak. Each later set-up adds allocator
        // fragmentation of its own.
        peak_rss_mb.get_or_insert_with(|| procfs::peak_rss_mib().expect("/proc/self/status is readable"));
    }
    println!("phase serve: attempted {} failed {}", out.attempted, out.failed);
    if w.rate_hz().is_some() {
        out.check_drain(&windows);
    }
    let quiet = stats::quietest_half(&windows.iter().map(|x| x.steal).collect::<Vec<_>>());
    println!("summarised windows (least host steal): {quiet:?}");
    let m = &mut out.metrics;
    m.push("setup_s", stats::median(&setup_s), "s");
    m.push("latency_p50_ms", over_windows(&windows, &quiet, |x| x.p50.value), "ms");
    m.push("throughput_rps", over_windows(&windows, &quiet, |x| x.throughput_rps), "req/s");
    m.push("cpu_ms_per_req", over_windows(&windows, &quiet, |x| x.cpu_ms_per_req), "ms");
    m.push("wan_bytes_per_req", over_windows(&windows, &quiet, |x| x.wan_bytes_per_req), "B");
    m.push("peak_rss_mb", peak_rss_mb.expect("the run has cycles"), "MB");
    out
}

/// `--trace 1`: traced set-up, the run's windows served untraced on one
/// fleet (for the serving counters and the CPU time per request the
/// coverage is taken against, both over all windows), then the traced
/// replay and kernel timings; reports the per-layer metrics.
fn run_traced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::new();
    let mut tr = Tracer::new();
    let mut traced = setup::train_traced(args.seed, &mut tr);
    let mut sys = setup::train(args.seed);
    if !setup::same_weights(&mut sys, &mut traced) {
        out.failures.push("the traced set-up trained different weights than Pipeline::run".to_string());
    }
    drop(traced);
    let policy = setup::calibrate(&mut sys, w.offload_fraction());
    let reference = reference(&mut sys, w, policy, &mut out);
    let mut fleet = tr.leaf("train.deploy", "setup", None, None, || setup::deploy(&mut sys, w, policy));
    let mut rng = Rng::new(args.seed ^ 0x7261_6365);
    warm_up(&mut fleet, &sys, &reference, &mut rng, &mut out);
    let (mut rounds, mut windows) = (Vec::new(), Vec::new());
    for _ in 0..WINDOWS {
        let window_rounds =
            serve_window(&mut fleet, &sys, w, args.seconds / WINDOWS as f64, &mut rng, &reference, &mut out);
        let window = Window::of(&window_rounds);
        window.print(windows.len(), window_rounds.len());
        windows.push(window);
        rounds.extend(window_rounds);
    }
    drop(fleet);
    println!("phase serve: attempted {} failed {}", out.attempted, out.failed);
    if w.rate_hz().is_some() {
        out.check_drain(&windows);
    }

    // Serving counters and CPU time over all windows.
    let served_total: usize = rounds.iter().map(|r| r.report.stats.total).sum();
    let offloaded: usize = rounds.iter().map(|r| r.report.stats.offloaded).sum();
    let batches: u64 = rounds.iter().map(|r| r.report.stats.cloud_batches).sum();
    let bytes_up: u64 = rounds.iter().map(|r| r.report.stats.bytes_to_cloud).sum();
    let cpu = rounds.iter().fold(CpuTicks::default(), |acc, r| acc.plus(r.cpu));
    let (user_ms, sys_ms) = (1e3 * cpu.user_s() / served_total as f64, 1e3 * cpu.sys_s() / served_total as f64);

    // Replay whole served rounds, in the cloud batch size they were
    // served in, until enough requests are covered.
    let batch = ((offloaded as f64 / batches.max(1) as f64).round() as usize).clamp(1, MAX_BATCH);
    let (mut replayed, mut diverged) = (0usize, 0usize);
    for r in &rounds {
        if replayed >= replay::REPLAY_REQUESTS {
            break;
        }
        let records = replay::replay(&mut tr, &mut sys, w.features(), policy, &r.trace, batch, replayed);
        diverged += records.iter().zip(&r.report.records).filter(|(a, b)| !checks::same_record(a, b)).count();
        replayed += records.len();
    }
    if diverged > 0 {
        out.failures.push(format!("{diverged} replayed records differ from the served ones"));
    }
    out.attempted += replayed as u64;
    println!("phase replay: attempted {replayed} failed 0, cloud batches of {batch}");
    replay::probe_off_path(&mut tr, &mut sys, &rounds[0].trace);
    let mut probe_rng = Rng::new(0);
    let backbone = sys.recipe.backbone.build(&mut probe_rng);
    let gemm =
        replay::heaviest_conv(&backbone.segments, backbone.in_shape).expect("the backbone has convolutions");
    let (n_b1, n_train) = replay::time_gemms(&mut tr, gemm, sys.recipe.pretrain.batch_size);

    let path = PathBuf::from("servebench/traces").join(format!("{}-seed{}.json", w.name(), args.seed));
    match tr.write_chrome(&path) {
        Ok(()) => println!("trace: {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => out.failures.push(format!("writing {}: {e}", path.display())),
    }

    let med = |name: &str| -> f64 {
        let d = tr.durations_s(name);
        assert!(!d.is_empty(), "no {name} spans recorded");
        stats::median(&d)
    };
    let total_s = |name: &str| tr.durations_s(name).iter().sum::<f64>();

    // Self time of the layer spans on the request path, per replayed
    // request.
    let self_ns = tr.self_times_ns();
    let path_ns: u64 = tr
        .spans()
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.cat == replay::PATH_CAT && s.name != replay::REQUEST_SPAN)
        .map(|(_, &ns)| ns)
        .sum();
    let path_ms_per_req = path_ns as f64 * 1e-6 / replayed as f64;

    // One transport round trip per offloaded replayed request: its four
    // socket calls.
    let mut trips = vec![0u64; replayed];
    for s in tr.spans().iter().filter(|s| s.name.starts_with("transport.")) {
        trips[s.req.expect("transport spans belong to one request")] += s.dur_ns();
    }
    let trips_us: Vec<f64> = trips.iter().filter(|&&ns| ns > 0).map(|&ns| ns as f64 * 1e-3).collect();

    let m = &mut out.metrics;
    m.push("train.backbone_s", total_s("train.backbone"), "s");
    m.push("train.cloud_s", total_s("train.cloud"), "s");
    m.push("train.edge_blocks_s", total_s("train.edge_blocks"), "s");
    m.push("train.deploy_ms", 1e3 * total_s("train.deploy"), "ms");
    m.push("nn.main_exit_ms", 1e3 * med("nn.main_exit"), "ms");
    m.push("nn.main_exit_mmacs", sys.net.cost_split().fixed_macs as f64 / 1e6, "MMAC");
    m.push("nn.extension_ms", 1e3 * med("nn.extension"), "ms");
    m.push("nn.prefix_ms", 1e3 * med("nn.prefix"), "ms");
    m.push("nn.cloud_full_b1_ms", 1e3 * med("nn.cloud_full_b1"), "ms");
    m.push("nn.cloud_suffix_b1_ms", 1e3 * med("nn.cloud_suffix_b1"), "ms");
    m.push("nn.cloud_suffix_batch_ms_per_req", 1e3 * med("nn.cloud_suffix_batch") / MAX_BATCH as f64, "ms");
    m.push("tensor.gemm_b1_us", 1e6 * med("tensor.gemm_b1"), "us");
    m.push("tensor.gemm_b1_mflop", 2.0 * (gemm.m * gemm.k * n_b1) as f64 / 1e6, "MFLOP");
    m.push("tensor.gemm_train_ms", 1e3 * med("tensor.gemm_train"), "ms");
    m.push("tensor.gemm_train_mflop", 2.0 * (gemm.m * gemm.k * n_train) as f64 / 1e6, "MFLOP");
    m.push("routing.plan_us", 1e6 * med("routing.plan"), "us");
    m.push("payload.encode_us", 1e6 * med("payload.encode"), "us");
    m.push("payload.decode_us", 1e6 * med("payload.decode"), "us");
    m.push("payload.bytes_per_offload", bytes_up as f64 / offloaded as f64, "B");
    m.push("transport.round_trip_us", stats::median(&trips_us), "us");
    m.push("serve.cloud_batch_size", offloaded as f64 / batches as f64, "count");
    let depth = rounds.iter().map(|r| r.report.stats.max_queue_depth).max().unwrap_or(0);
    m.push("serve.max_queue_depth", depth as f64, "count");
    m.push("serve.user_cpu_ms_per_req", user_ms, "ms");
    m.push("serve.sys_cpu_ms_per_req", sys_ms, "ms");
    m.push("serve.unattributed_ms_per_req", user_ms + sys_ms - path_ms_per_req, "ms");
    m.push("trace.coverage", path_ms_per_req / (user_ms + sys_ms), "ratio");
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "servebench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = if args.trace { run_traced(&args) } else { run_untraced(&args) };
    let expected = if args.trace { report::PER_LAYER } else { report::END_TO_END };
    let reported: Vec<(&str, &str)> = out.metrics.items().iter().map(|m| (m.name.as_str(), m.unit)).collect();
    assert_eq!(reported, expected, "the run reports exactly its metric list");
    for m in out.metrics.items() {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        eprintln!("servebench: check failed: {f}");
    }
    println!("{}", report::result_json(out.failures.is_empty(), out.attempted, out.failed, &out.metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload backlog --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(a, Args { workload: Workload::Backlog, seed: 7, seconds: 10.0, trace: true });
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload backlog --seed 1 --seconds 0 --trace 0",
            "--workload backlog --seed x --seconds 1 --trace 0",
            "--workload backlog --seed 1 --seconds 1 --trace 2",
            "--workload backlog --seed 1 --seconds 1",
            "--workload backlog --seed 1 --seconds 1 --trace",
            "--extra 1 --workload backlog --seed 1 --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
