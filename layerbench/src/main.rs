//! `graphh-layerbench` — the in-process half of the layered benchmark.
//!
//! ```text
//! graphh-layerbench run --workload NAME --seed N --seconds S --trace 0|1 [--scale K]
//! graphh-layerbench cluster-ref --seed N --trace 0|1 --values-out FILE [--scale K]
//! ```
//!
//! `run` measures one in-process workload closed-loop: one job at a time,
//! each trial starting when the previous one returned. `cluster-ref` builds
//! the cluster workload's inputs in-process and writes the sequential
//! executor's values, which `run.py` compares the node replicas against. Both
//! print human-readable lines, then one JSON object as the last line:
//! `{"correct", "attempted", "failed", "values", "samples"}`. `run.py` is the
//! entry point that attaches units and prints the benchmark's result.

mod walk;
mod workload;

use graphh_bench::experiments::aggregate_phases;
use graphh_compress::Codec;
use graphh_core::{GabProgram, GraphHConfig, GraphHEngine, RunResult, SequentialExecutor};
use graphh_graph::ids::VertexId;
use graphh_obs::{global_counters, TraceConfig, Tracer};
use graphh_runtime::{encode_values, ThreadedExecutor};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use walk::{PlaneKind, WalkOutput};
use workload::{build_inputs, same_bits, Inputs, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Measured trials a run makes even when they overrun `--seconds`: enough
/// for steady medians on the slowest workload.
const MIN_TRIALS: usize = 5;
/// The same for traced runs, whose trials run the job twice.
const MIN_TRACED_TRIALS: usize = 3;
/// Every this many measured trials, the job also runs on the sequential
/// executor (for `reference_job_s`); the other trials compare against its
/// stored result.
const REFERENCE_EVERY: usize = 2;

struct Args {
    mode: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: u32,
    values_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode (run | cluster-ref)")?;
    let mut args = Args {
        mode,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 18,
        values_out: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value)?),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            "--values-out" => args.values_out = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|args| match args.mode.as_str() {
        "run" => match args.workload {
            Some(Workload::PagerankClusterTcp) => {
                Err("the cluster workload is driven by run.py".to_string())
            }
            Some(w) => Ok(run(w, &args)),
            None => Err("--workload is required".to_string()),
        },
        "cluster-ref" => Ok(cluster_reference(&args)),
        other => Err(format!("unknown mode {other:?}")),
    });
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(message) => {
            eprintln!("graphh-layerbench: {message}");
            std::process::exit(2);
        }
    }
}

/// Trial accounting and named values for the last output line.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// False after any failed check, including ones outside a trial.
    ok: bool,
    values: Vec<(&'static str, f64)>,
    samples: Vec<(&'static str, usize)>,
}

impl Report {
    fn new() -> Self {
        Report {
            ok: true,
            ..Report::default()
        }
    }

    /// Count one trial; an error counts as a failure and yields no sample.
    fn trial<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("FAILED {what}: {e}");
                self.failed += 1;
                self.ok = false;
                None
            }
        }
    }

    fn fail(&mut self, what: &str, e: String) {
        eprintln!("FAILED {what}: {e}");
        self.ok = false;
    }

    /// Record the median of `samples` under `name`, with the sample count.
    fn median(&mut self, name: &'static str, samples: &[f64]) {
        let Some(m) = median(samples) else {
            self.fail(name, "no samples".into());
            return;
        };
        let (lo, hi) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        println!(
            "{name}: median {m:.6} over {} samples (min {lo:.6}, max {hi:.6})",
            samples.len()
        );
        self.values.push((name, m));
        self.samples.push((name, samples.len()));
    }

    fn value(&mut self, name: &'static str, value: f64, samples: usize) {
        println!("{name}: {value} ({samples} samples)");
        self.values.push((name, value));
        self.samples.push((name, samples));
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"values\": {{",
            self.ok && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a non-finite value is reported as null
            // and run.py rejects it.
            if value.is_finite() {
                let _ = write!(out, "{sep}\"{name}\": {value}");
            } else {
                let _ = write!(out, "{sep}\"{name}\": null");
            }
        }
        out.push_str("}, \"samples\": {");
        for (i, (name, n)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {n}");
        }
        out.push_str("}}");
        out
    }
}

/// Per-trial facts that must not change between trials of the same job: a
/// drift here is a config change, not a speed-up.
#[derive(Debug, Clone, PartialEq)]
struct Invariants {
    supersteps_run: u32,
    cache_codec: Codec,
    wire_bytes: u64,
    edges_processed: u64,
}

/// Encoded broadcast bytes of one job, each message counted once. On one
/// server nothing is sent, but messages are still encoded and compressed, so
/// compressed jobs read the compressor's output counter (`compress_out`: its
/// growth over the job); the network counters must agree with it.
fn wire_bytes(config: &GraphHConfig, result: &RunResult, compress_out: u64) -> Result<u64, String> {
    let sent: u64 = result
        .metrics
        .supersteps
        .iter()
        .flat_map(|s| s.servers.iter())
        .map(|s| s.network_sent_bytes)
        .sum();
    let fanout = u64::from(config.cluster.num_servers - 1);
    let compressed = config.message_compressor.is_some_and(|c| c != Codec::Raw);
    let wire = match (compressed, fanout) {
        (true, _) => compress_out,
        (false, 0) => 0,
        (false, f) => sent / f,
    };
    if sent != wire * fanout {
        return Err(format!(
            "network counters report {sent} bytes sent, the encoder produced {wire} x {fanout}"
        ));
    }
    if wire == 0 {
        return Err("the job broadcast nothing".into());
    }
    Ok(wire)
}

fn invariants(
    config: &GraphHConfig,
    result: &RunResult,
    compress_out: u64,
) -> Result<Invariants, String> {
    Ok(Invariants {
        supersteps_run: result.supersteps_run,
        cache_codec: result.cache_codec,
        wire_bytes: wire_bytes(config, result, compress_out)?,
        edges_processed: result
            .metrics
            .supersteps
            .iter()
            .map(|s| s.total_edges_processed())
            .sum(),
    })
}

/// What one untraced trial measured.
struct Trial {
    job_s: f64,
    reference_s: Option<f64>,
    peak_rss_mb: f64,
}

/// One workload's inputs, jobs and verified results.
struct Bench {
    workload: Workload,
    inputs: Inputs,
    config: GraphHConfig,
    sources: Vec<VertexId>,
    programs: Vec<Box<dyn GabProgram>>,
    /// Sequential values per job, checked against `graphh_core::reference`.
    expected: Vec<Option<Vec<f64>>>,
    /// Invariants per job, from its first trial.
    invariants: Vec<Option<Invariants>>,
}

impl Bench {
    fn new(workload: Workload, inputs: Inputs, seed: u64) -> Self {
        let config = workload.config(&inputs.partitioned);
        let sources = workload.sources(&inputs.graph, seed);
        let programs = sources.iter().map(|&s| workload.program(s)).collect();
        Bench {
            workload,
            expected: vec![None; sources.len()],
            invariants: vec![None; sources.len()],
            inputs,
            config,
            sources,
            programs,
        }
    }

    fn jobs(&self) -> usize {
        self.sources.len()
    }

    /// Run job `key` on the sequential executor; the first result per job is
    /// checked against the reference, later ones against the first.
    fn sequential(&mut self, key: usize) -> Result<(f64, RunResult), String> {
        let engine =
            GraphHEngine::with_executor(self.config.clone(), Arc::new(SequentialExecutor::new()));
        settle_heap();
        let started = Instant::now();
        let result = engine
            .run(&self.inputs.partitioned, self.programs[key].as_ref())
            .map_err(|e| format!("sequential run: {e}"))?;
        let elapsed = started.elapsed().as_secs_f64();
        match &self.expected[key] {
            Some(expected) if !same_bits(expected, &result.values) => {
                return Err("sequential values changed between trials".into());
            }
            Some(_) => {}
            None => {
                self.workload.check_reference(
                    &self.inputs.graph,
                    self.sources[key],
                    &result.values,
                )?;
                self.expected[key] = Some(result.values.clone());
            }
        }
        Ok((elapsed, result))
    }

    /// Run job `key` on the threaded executor (traced when `tracer` is
    /// given), check its invariants, and return its time and result.
    fn threaded(
        &mut self,
        key: usize,
        tracer: Option<&Tracer>,
    ) -> Result<(f64, RunResult), String> {
        settle_heap();
        reset_peak_rss()?;
        let executor = match tracer {
            Some(t) => ThreadedExecutor::with_trace(TraceConfig { tracer: t.clone() }),
            None => ThreadedExecutor::new(),
        };
        let engine = GraphHEngine::with_executor(self.config.clone(), Arc::new(executor));
        let out_counter = global_counters().counter("compress.bytes_out");
        let out_before = out_counter.get();
        let started = Instant::now();
        let result = engine
            .run(&self.inputs.partitioned, self.programs[key].as_ref())
            .map_err(|e| format!("threaded run: {e}"))?;
        let elapsed = started.elapsed().as_secs_f64();
        let inv = invariants(&self.config, &result, out_counter.get() - out_before)?;
        self.check_invariants(key, inv)?;
        Ok((elapsed, result))
    }

    fn check_invariants(&mut self, key: usize, inv: Invariants) -> Result<(), String> {
        if inv.cache_codec != self.workload.expected_cache_codec() {
            return Err(format!(
                "edge cache selected {}, expected {}",
                inv.cache_codec.name(),
                self.workload.expected_cache_codec().name()
            ));
        }
        match &self.invariants[key] {
            Some(first) if *first != inv => {
                Err(format!("invariants drifted: {first:?} then {inv:?}"))
            }
            Some(_) => Ok(()),
            None => {
                self.invariants[key] = Some(inv);
                Ok(())
            }
        }
    }

    /// The values job `key` must produce; only valid after a sequential run.
    fn check_values(&self, key: usize, values: &[f64]) -> Result<(), String> {
        match &self.expected[key] {
            Some(expected) if same_bits(expected, values) => Ok(()),
            Some(_) => Err("values differ from the sequential executor's".into()),
            None => Err("no sequential result to compare with".into()),
        }
    }

    /// Make sure job `key` has a verified sequential result to compare with.
    fn ensure_expected(&mut self, key: usize) -> Result<(), String> {
        if self.expected[key].is_none() {
            self.sequential(key)?;
        }
        Ok(())
    }

    /// One untraced trial: the job on the threaded executor, then, when
    /// `with_reference` is set or the job has no sequential result yet, on
    /// the sequential one.
    fn trial(&mut self, key: usize, with_reference: bool) -> Result<Trial, String> {
        let (job_s, threaded) = self.threaded(key, None)?;
        let peak_rss_mb = peak_rss_mb()?;
        let mut reference_s = None;
        if with_reference || self.expected[key].is_none() {
            let (elapsed, sequential) = self.sequential(key)?;
            if sequential.supersteps_run != threaded.supersteps_run {
                return Err("sequential and threaded runs took different superstep counts".into());
            }
            reference_s = Some(elapsed);
        }
        self.check_values(key, &threaded.values)?;
        eprintln!("trial job {key}: job_s {job_s:.6} reference_job_s {reference_s:?} peak_rss_mb {peak_rss_mb:.3}");
        Ok(Trial {
            job_s,
            reference_s,
            peak_rss_mb,
        })
    }

    /// Walk job 0 layer by layer and check it computes what the sequential
    /// executor computed.
    fn walk(&self, kind: PlaneKind) -> Result<(f64, WalkOutput), String> {
        let (mut planes, establish_s) = walk::connect(kind, self.workload.servers())?;
        let out = walk::walk(
            &self.config,
            &self.inputs.partitioned,
            self.programs[0].as_ref(),
            &mut planes,
        )?;
        self.check_values(0, &out.values)
            .map_err(|e| format!("layer walk: {e}"))?;
        if let Some(inv) = &self.invariants[0] {
            if inv.edges_processed != out.layers.edges_processed
                || inv.supersteps_run != out.supersteps_run
            {
                return Err("layer walk did different work from the executors".into());
            }
            if inv.wire_bytes != out.layers.wire_bytes {
                return Err(format!(
                    "layer walk encoded {} bytes, the executor {}",
                    out.layers.wire_bytes, inv.wire_bytes
                ));
            }
        }
        Ok((establish_s, out))
    }
}

/// Build the inputs `SETUP_REPS` times (each build must be identical) and
/// keep the last. Returns the inputs and the per-rep generate and partition
/// times.
fn setup(args: &Args, report: &mut Report) -> Result<(Inputs, Vec<f64>, Vec<f64>), String> {
    let (mut generate, mut partition) = (Vec::new(), Vec::new());
    let mut kept: Option<Inputs> = None;
    let mut fingerprint = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let inputs = build_inputs(args.scale, args.seed)?;
        generate.push(inputs.generate_s);
        partition.push(inputs.partition_s);
        let fp = partition_fingerprint(&inputs);
        if fingerprint.is_some_and(|f| f != fp) {
            report.fail(
                "setup",
                "rebuilding from the same seed gave different tiles".into(),
            );
        }
        fingerprint = Some(fp);
        kept = Some(inputs);
    }
    let inputs = kept.expect("SETUP_REPS > 0");
    let n = inputs.partitioned.num_vertices();
    println!(
        "context: vertices={n} edges={} tiles={} tile_bytes={} vertex_array_bytes_per_server={} threads={}",
        inputs.partitioned.num_edges(),
        inputs.partitioned.num_tiles(),
        inputs.partitioned.total_tile_bytes(),
        // values + message buffer (f64) and in/out degrees (u32), as
        // `ServerState::build` accounts them.
        24 * n,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );
    Ok((inputs, generate, partition))
}

/// FNV-1a over every tile's serialized bytes.
fn partition_fingerprint(inputs: &Inputs) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for tile in &inputs.partitioned.tiles {
        for b in tile.to_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Return freed heap pages to the kernel before a timed job, so every job
/// starts from the same allocator state, as in a fresh process, whatever
/// earlier trials left resident.
fn settle_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap memory; it takes
        // no pointers and is safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Reset the process's peak resident set size (VmHWM) to its current size,
/// so the next reading is the peak of the job that runs in between.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(workload: Workload, args: &Args) -> Report {
    let mut report = Report::new();
    let (inputs, generate, partition) = match setup(args, &mut report) {
        Ok(s) => s,
        Err(e) => {
            report.trial("setup", Err::<(), _>(e));
            return report;
        }
    };
    let setup_s: Vec<f64> = generate
        .iter()
        .zip(&partition)
        .map(|(g, p)| g + p)
        .collect();
    let mut bench = Bench::new(workload, inputs, args.seed);
    println!(
        "workload {}: servers={} threads_per_server={} sources={:?}",
        workload.name(),
        workload.servers(),
        workload.threads_per_server(),
        bench.sources
    );

    // Warm-up: one verified trial, not timed (a process's first threaded
    // job runs much slower than later ones).
    let outcome = bench.trial(0, true);
    report.trial("warm-up trial", outcome);

    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut trials = 0usize;
    // Every job runs at least once, so per-job numbers never depend on the
    // window.
    let min_trials = if args.trace {
        MIN_TRACED_TRIALS
    } else {
        MIN_TRIALS
    }
    .max(bench.jobs());
    if !args.trace {
        let (mut job, mut reference, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        while started.elapsed() < window || trials < min_trials {
            let key = trials % bench.jobs();
            trials += 1;
            let outcome = bench.trial(key, trials % REFERENCE_EVERY == 1);
            if let Some(t) = report.trial("trial", outcome) {
                job.push(t.job_s);
                reference.extend(t.reference_s);
                rss.push(t.peak_rss_mb);
            }
        }
        report.median("setup_s", &setup_s);
        report.median("job_s", &job);
        report.median("reference_job_s", &reference);
        // Per job, not per trial: BFS jobs differ by source, and each
        // source's bytes are an invariant checked on every trial.
        let wire: Vec<f64> = bench
            .invariants
            .iter()
            .flatten()
            .map(|i| i.wire_bytes as f64)
            .collect();
        report.median("wire_bytes", &wire);
        report.median("peak_rss_mb", &rss);
        return report;
    }

    // Traced run: the layer walk, then untraced and traced threaded jobs in
    // alternation, so their ratio is the tracing overhead.
    let walked = bench.walk(PlaneKind::Channel);
    let Some((establish_s, out)) = report.trial("layer walk", walked) else {
        return report;
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut barrier, mut pool_job, mut encode_compress) = (Vec::new(), Vec::new(), Vec::new());
    while started.elapsed() < window || trials < min_trials {
        let key = trials % bench.jobs();
        trials += 1;
        let tracer = Tracer::new();
        let outcome = bench
            .ensure_expected(key)
            .and_then(|()| bench.threaded(key, None))
            .and_then(|(untraced_s, r)| {
                bench.check_values(key, &r.values)?;
                let (traced_s, r) = bench.threaded(key, Some(&tracer))?;
                bench.check_values(key, &r.values)?;
                Ok((untraced_s, traced_s))
            });
        if let Some((u, t)) = report.trial("traced trial", outcome) {
            plain.push(u);
            traced.push(t);
            let phases = aggregate_phases(&tracer.drain());
            let total = |name: &str| {
                phases
                    .iter()
                    .filter(|p| p.name == name)
                    .map(|p| p.total_seconds)
                    .sum::<f64>()
            };
            barrier.push(total("barrier-wait"));
            pool_job.push(total("pool-job"));
            encode_compress.push(total("encode-compress"));
        }
    }
    report.median("graph.generate_s", &generate);
    report.median("partition.spe_s", &partition);
    report_layers(&mut report, establish_s, &out);
    report.median("runtime.barrier_wait_s", &barrier);
    report.median("pool.pool_job_s", &pool_job);
    report.median("pool.encode_compress_s", &encode_compress);
    if let (Some(u), Some(t)) = (median(&plain), median(&traced)) {
        println!(
            "job_s untraced {u:.6}, traced {t:.6} over {} trials",
            plain.len()
        );
        report.value("trace_overhead_ratio", t / u, plain.len());
    }
    report
}

fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => None,
        n if n % 2 == 1 => Some(sorted[mid]),
        _ => Some((sorted[mid - 1] + sorted[mid]) / 2.0),
    }
}

/// Report the walk's per-layer numbers (one walked job).
fn report_layers(report: &mut Report, establish_s: f64, out: &WalkOutput) {
    let l = &out.layers;
    let ratio = |num: u64, den: u64, empty: f64| {
        if den == 0 {
            empty
        } else {
            num as f64 / den as f64
        }
    };
    let values: [(&'static str, f64); 24] = [
        ("core.plan_prepare_s", l.plan_prepare_s),
        ("core.server_build_s", l.server_build_s),
        ("core.tile_phase_s", l.tile_phase_s),
        ("core.apply_s", l.apply_s),
        ("core.edges_processed", l.edges_processed as f64),
        ("core.tiles_skipped", l.tiles_skipped as f64),
        ("core.push_supersteps", l.push_supersteps as f64),
        ("core.pull_supersteps", l.pull_supersteps as f64),
        (
            "cache.hit_ratio",
            ratio(l.cache_hits, l.cache_hits + l.cache_misses, 0.0),
        ),
        ("cache.misses", l.cache_misses as f64),
        ("storage.read_bytes", l.storage_read_bytes as f64),
        ("cluster.encode_s", l.encode_s),
        ("cluster.decode_s", l.decode_s),
        ("cluster.plain_bytes", l.plain_bytes as f64),
        ("cluster.dense_messages", l.dense_messages as f64),
        ("cluster.sparse_messages", l.sparse_messages as f64),
        ("compress.compress_s", l.compress_s),
        ("compress.decompress_s", l.decompress_s),
        ("compress.ratio", ratio(l.wire_bytes, l.plain_bytes, 1.0)),
        // Nothing compressed means nothing wasted.
        (
            "compress.useful_ratio",
            ratio(l.useful_compressed_bytes, l.compressed_input_bytes, 1.0),
        ),
        ("runtime.establish_s", establish_s),
        ("runtime.broadcast_s", l.broadcast_s),
        ("runtime.end_superstep_s", l.end_superstep_s),
        ("runtime.collect_s", l.collect_s),
    ];
    for (name, value) in values {
        report.value(name, value, 1);
    }
}

/// The cluster workload's in-process side: inputs, the verified sequential
/// result (written to `--values-out` for `cmp`) and, with `--trace 1`, the
/// layer walk over a loopback `PollPlane` pair. It then prints
/// `ready wire_bytes=N supersteps_run=N` and times one more sequential job
/// for every `job` line on standard input, answering `job ok SECONDS` or
/// `job failed`, so `run.py` can interleave them with the node trials. At
/// the end of input it reports.
fn cluster_reference(args: &Args) -> Report {
    let mut report = Report::new();
    let workload = Workload::PagerankClusterTcp;
    let (inputs, generate, partition) = match setup(args, &mut report) {
        Ok(s) => s,
        Err(e) => {
            report.trial("setup", Err::<(), _>(e));
            return report;
        }
    };
    let mut bench = Bench::new(workload, inputs, args.seed);
    let sequential = |bench: &mut Bench| {
        bench.sequential(0).and_then(|(elapsed, result)| {
            let inv = invariants(&bench.config, &result, 0)?;
            bench.check_invariants(0, inv)?;
            Ok(elapsed)
        })
    };
    // Warm-up and verification against the reference; not timed.
    let outcome = sequential(&mut bench);
    report.trial("sequential reference", outcome);
    let (Some(values), Some(inv)) = (bench.expected[0].clone(), bench.invariants[0].clone()) else {
        return report;
    };
    match &args.values_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, encode_values(&values)) {
                report.fail("values-out", format!("write {path}: {e}"));
            }
        }
        None => report.fail("values-out", "--values-out is required".into()),
    }
    if args.trace {
        report.median("graph.generate_s", &generate);
        report.median("partition.spe_s", &partition);
        let walked = bench.walk(PlaneKind::Poll);
        if let Some((establish_s, out)) = report.trial("layer walk", walked) {
            report_layers(&mut report, establish_s, &out);
        }
    }
    println!(
        "ready wire_bytes={} supersteps_run={}",
        inv.wire_bytes, inv.supersteps_run
    );
    let mut reference = Vec::new();
    for line in std::io::stdin().lines() {
        if !matches!(line.as_deref().map(str::trim), Ok("job")) {
            break;
        }
        let outcome = sequential(&mut bench);
        match report.trial("sequential reference", outcome) {
            Some(elapsed) => {
                println!("job ok {elapsed}");
                reference.push(elapsed);
            }
            None => println!("job failed"),
        }
    }
    if !args.trace {
        report.median("reference_job_s", &reference);
    }
    report
}
