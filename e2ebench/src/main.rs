//! End-to-end benchmark of the rlcx flow.
//!
//! ```text
//! RLCX_THREADS=1 cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <characterize|htree-skew|field-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every round runs the paper's flow: a table characterization, a
//! Monte-Carlo H-tree skew analysis on the transient and the PRIMA path,
//! and a field-solver frequency sweep. The workload sets how large each
//! stage is and how often it runs in a round; each workload scales up the
//! stage it is named after and repeats the small companion stages. Rounds
//! repeat for `--seconds`, each end-to-end metric is the median over the
//! runs of its stage, and the last line of standard output is the JSON
//! result. With
//! `--trace 1` the run also walks every operation through its layer calls
//! and prints the per-layer metrics instead. See `README.md`.

mod characterize;
mod metrics;
mod oracle;
mod skew;
mod sweep;

use characterize::Grid;
use metrics::{Kind, Ledger, Samples};
use rlcx::core::{ClocktreeExtractor, TableBuilder};
use rlcx::geom::{Block, HTree, ShieldConfig, Stackup};
use rlcx::numeric::{thread_count, SplitMix64, UniformRng};
use rlcx::obs::{self, MetricValue};
use rlcx::peec::{PartialSystem, SolverBackend};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The declaration the printed metrics must match.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fewest rounds a run makes, however short its window.
const MIN_ROUNDS: usize = 2;

/// Where runs keep their table-cache directories, under the working
/// directory. Each run uses and removes its own subdirectory.
const WORK_DIR: &str = ".e2ebench-work";

/// Die half-span of the H-tree (µm): a 12.8 mm die.
const DIE_HALF_SPAN: f64 = 6400.0;

/// How large each stage of a round is, and how often it runs.
struct Shape {
    grid: Grid,
    tree_levels: usize,
    sweep_mesh: (usize, usize),
    /// Runs per round of the characterize, skew and sweep stages. The
    /// stage the workload is named after runs once; the small companion
    /// stages run several times, so that their medians rest on as many
    /// samples as the large stage's.
    reps: [usize; 3],
}

/// The sweep's frequencies, three decades.
const FREQS: &[f64] = &[1e8, 1e9, 1e10];

fn shape(workload: &str) -> Option<Shape> {
    let companion = Shape {
        grid: characterize::TREE_GRID,
        tree_levels: 2,
        sweep_mesh: sweep::COARSE_MESH,
        reps: [2, 4, 4],
    };
    match workload {
        "characterize" => Some(Shape {
            grid: characterize::EXPERIMENT_GRID,
            reps: [1, 4, 4],
            ..companion
        }),
        "htree-skew" => Some(Shape {
            tree_levels: 4,
            reps: [2, 1, 3],
            ..companion
        }),
        "field-sweep" => Some(Shape {
            sweep_mesh: (42, 16),
            reps: [2, 3, 1],
            ..companion
        }),
        _ => None,
    }
}

/// Per-round sums of layer figures, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `value` to the round's sum for `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    /// Keeps the round's largest `value` for `name`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let v = self.0.entry(name).or_insert(value);
        *v = v.max(value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The current value of a program counter.
pub fn counter(name: &str) -> u64 {
    match obs::metric_value(name) {
        Some(MetricValue::Counter(n)) => n,
        _ => 0,
    }
}

/// The current value of a program gauge.
pub fn gauge(name: &str) -> f64 {
    match obs::metric_value(name) {
        Some(MetricValue::Gauge(v)) => v,
        _ => 0.0,
    }
}

/// The running sum of a program histogram.
pub fn hist_sum(name: &str) -> f64 {
    match obs::metric_value(name) {
        Some(MetricValue::Histogram { sum, .. }) => sum,
        _ => 0.0,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// Everything a round needs, made from the seed.
struct Setup {
    stackup: Stackup,
    char_builder: TableBuilder,
    extractor: ClocktreeExtractor,
    htree: HTree,
    crosses: [Block; 2],
    /// One Monte-Carlo seed per cross-section for each run of the skew
    /// stage in a round.
    draw_seeds: Vec<[u64; 2]>,
    cpw: PartialSystem,
}

/// Builds the inputs and characterizes the tables the tree needs. Returns
/// the set-up and the seconds its table build took.
fn set_up(shape: &Shape, seed: u64) -> Result<(Setup, f64), String> {
    let stackup = Stackup::hp_six_metal_copper();
    let t0 = Instant::now();
    let tree_tables = characterize::builder(&stackup, &characterize::TREE_GRID)
        .build()
        .map_err(|e| format!("tree tables: {e}"))?;
    let build_s = t0.elapsed().as_secs_f64();
    let extractor =
        ClocktreeExtractor::new(stackup.clone(), characterize::CLOCK_LAYER, tree_tables)
            .map_err(|e| e.to_string())?;
    let cpw = Block::coplanar_waveguide(1.0, 5.0, 5.0, 1.0).map_err(|e| e.to_string())?;
    let microstrip = cpw.clone().with_shield(ShieldConfig::PlaneBelow);
    let mut rng = SplitMix64::new(seed);
    let setup = Setup {
        char_builder: characterize::builder(&stackup, &shape.grid),
        stackup,
        extractor,
        htree: HTree::new(shape.tree_levels, DIE_HALF_SPAN).map_err(|e| e.to_string())?,
        crosses: [cpw, microstrip],
        draw_seeds: (0..shape.reps[1])
            .map(|_| [rng.next_u64(), rng.next_u64()])
            .collect(),
        cpw: sweep::cpw(),
    };
    Ok((setup, build_s))
}

/// Checks of inputs that neither the seed nor the round changes, made once
/// per run before the rounds (they also warm up the analysis and solver
/// paths). Each operation they concern carries their outcome.
struct FixedChecks {
    /// Per cross-section and path: the nominal tree's skew, and on the
    /// transient path the root stage's RLC-vs-RC gap.
    tree: [[Vec<String>; 2]; 2],
    /// Per frequency: Dense vs Iterative on the coarse mesh.
    backends: Vec<Vec<String>>,
}

const PATHS: [skew::Path; 2] = [skew::Path::Transient, skew::Path::Reduced];

fn tree<'a>(setup: &'a Setup, cross: &'a Block) -> skew::Tree<'a> {
    skew::Tree {
        extractor: &setup.extractor,
        htree: &setup.htree,
        cross,
    }
}

fn fixed_checks(setup: &Setup) -> FixedChecks {
    let per_tree = |cross: &Block| {
        let tree = tree(setup, cross);
        PATHS.map(|p| {
            let mut f = skew::check_nominal(&tree, p).unwrap_or_else(|e| vec![e]);
            if p == skew::Path::Transient {
                f.extend(skew::check_rc_gap(&tree).unwrap_or_else(|e| vec![e]));
            }
            f
        })
    };
    FixedChecks {
        tree: [per_tree(&setup.crosses[0]), per_tree(&setup.crosses[1])],
        backends: FREQS
            .iter()
            .map(|&f| sweep::check_backends(&setup.cpw, f).unwrap_or_else(|e| vec![e]))
            .collect(),
    }
}

/// One round in progress: its inputs and what it records.
struct Round<'a> {
    setup: &'a Setup,
    fixed: &'a FixedChecks,
    trace: bool,
    ledger: &'a mut Ledger,
    samples: &'a mut Samples,
    layers: Layers,
    /// Wall time of the untraced operations.
    plain: f64,
    /// Wall time of their traced walks.
    traced: f64,
}

impl Round<'_> {
    /// One run of the characterize stage: one operation.
    fn characterize(&mut self, dir: &Path) {
        let setup = self.setup;
        let outcome = characterize::run(&setup.char_builder, &dir.join("cold")).map(
            |(cold, warm, seconds, mut failures)| {
                self.samples.push("characterize_s", seconds);
                self.plain += seconds;
                failures.extend(characterize::check(&cold, &warm, &setup.stackup));
                if self.trace {
                    match characterize::run_traced(
                        &setup.char_builder,
                        &dir.join("traced"),
                        &mut self.layers,
                    ) {
                        Ok((tables, wall)) => {
                            self.traced += wall;
                            failures.extend(characterize::bit_mismatches(&cold, &tables));
                        }
                        Err(e) => failures.push(e),
                    }
                }
                failures
            },
        );
        self.ledger.record("table build", outcome);
        std::fs::remove_dir_all(dir).ok();
    }

    /// One run of the skew stage: a draw on each cross-section, each
    /// analyzed on both paths; one operation per draw per path.
    fn skew(&mut self, seeds: [u64; 2]) {
        let setup = self.setup;
        let mut path_s = [Some(0.0), Some(0.0)];
        for (x, cross) in setup.crosses.iter().enumerate() {
            let tree = tree(setup, cross);
            let stages = counter("clocktree.stages");
            let runs = PATHS.map(|p| skew::draw(&tree, p, seeds[x]));
            self.layers.add(
                "clocktree.stages",
                (counter("clocktree.stages") - stages) as f64,
            );
            let cross_check = match (&runs[0], &runs[1]) {
                (Ok((t, _)), Ok((r, _))) => skew::check_paths(&t.sink_delays, &r.sink_delays),
                _ => Vec::new(),
            };
            for (k, run) in runs.into_iter().enumerate() {
                let outcome = run.map(|(report, seconds)| {
                    self.plain += seconds;
                    path_s[k] = path_s[k].map(|s| s + seconds);
                    let mut failures = skew::check_draw(&report.sink_delays, setup.htree.levels());
                    failures.extend(self.fixed.tree[x][k].iter().cloned());
                    failures.extend(cross_check.iter().cloned());
                    if self.trace {
                        match skew::draw_traced(&tree, PATHS[k], seeds[x], &mut self.layers) {
                            Ok((walked, wall)) => {
                                self.traced += wall;
                                failures.extend(skew::check_traced(&report.sink_delays, &walked));
                            }
                            Err(e) => failures.push(e),
                        }
                    }
                    failures
                });
                if outcome.is_err() {
                    path_s[k] = None;
                }
                self.ledger.record("skew draw", outcome);
            }
        }
        for (name, s) in ["skew_transient_s", "skew_reduced_s"]
            .into_iter()
            .zip(path_s)
        {
            if let Some(s) = s {
                self.samples.push(name, s);
            }
        }
    }

    /// One run of the sweep stage: one operation per frequency point.
    fn sweep(&mut self, mesh: (usize, usize)) {
        let cpw = &self.setup.cpw;
        let mut sweep_s = Some(0.0);
        let mut prev: Option<Vec<(f64, f64)>> = None;
        for (i, &f) in FREQS.iter().enumerate() {
            let outcome =
                sweep::solve(cpw, f, mesh, SolverBackend::Iterative).map(|(z, _, seconds)| {
                    self.plain += seconds;
                    sweep_s = sweep_s.map(|s| s + seconds);
                    let mut failures = sweep::check_point(&z, f, prev.as_deref());
                    failures.extend(self.fixed.backends[i].iter().cloned());
                    if self.trace {
                        match sweep::solve_traced(cpw, f, mesh, &mut self.layers) {
                            Ok((zt, wall)) => {
                                self.traced += wall;
                                failures.extend(sweep::check_traced(&z, &zt));
                            }
                            Err(e) => failures.push(e),
                        }
                    }
                    prev = Some(sweep::diagonal_rl(&z, f));
                    failures
                });
            if outcome.is_err() {
                sweep_s = None;
            }
            self.ledger.record("frequency point", outcome);
        }
        if let Some(s) = sweep_s {
            self.samples.push("sweep_s", s);
        }
    }
}

/// One round: every stage as often as the shape says, each run checked
/// after it.
fn run_round(
    setup: &Setup,
    fixed: &FixedChecks,
    shape: &Shape,
    trace: bool,
    dir: &Path,
    ledger: &mut Ledger,
    samples: &mut Samples,
) {
    let mut round = Round {
        setup,
        fixed,
        trace,
        ledger,
        samples,
        layers: Layers::default(),
        plain: 0.0,
        traced: 0.0,
    };
    for rep in 0..shape.reps[0] {
        round.characterize(&dir.join(format!("build-{rep}")));
    }
    for &seeds in &setup.draw_seeds {
        round.skew(seeds);
    }
    for _ in 0..shape.reps[2] {
        round.sweep(shape.sweep_mesh);
    }

    if trace {
        let layers = &mut round.layers;
        let (hits, misses) = (layers.get("kernel.hits"), layers.get("peec.kernel.misses"));
        layers.add("peec.kernel.hit_rate", hits / (hits + misses));
        layers.add("trace.overhead", round.traced / round.plain);
        for m in metrics::METRICS.iter().filter(|m| m.kind == Kind::PerLayer) {
            if let Some(&v) = layers.0.get(m.name) {
                round.samples.push(m.name, v);
            }
        }
    }
}

/// The process's peak resident set (MiB), from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    metrics::check_declaration(DECLARED)?;
    let shape = shape(&args.workload).ok_or(format!(
        "--workload must be one of {:?}, got {:?}",
        metrics::WORKLOADS,
        args.workload
    ))?;
    if thread_count() != 1 {
        return Err(format!(
            "the benchmark is pinned to one thread; run it with RLCX_THREADS=1 (now {})",
            thread_count()
        ));
    }
    let mut samples = Samples::default();
    let mut setup = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (s, build_s) = set_up(&shape, args.seed)?;
        samples.push("setup_s", t0.elapsed().as_secs_f64());
        samples.push("core.table.build_s", build_s);
        setup = Some(s);
    }
    let setup = setup.expect("SETUPS is positive");

    let fixed = fixed_checks(&setup);

    let dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let mut ledger = Ledger::new();
    let t0 = Instant::now();
    let mut rounds = 0;
    // A round starts only if it should end within the window, judged by
    // the mean round so far; every run makes at least MIN_ROUNDS.
    while rounds < MIN_ROUNDS || {
        let elapsed = t0.elapsed().as_secs_f64();
        elapsed * (rounds + 1) as f64 / rounds as f64 <= args.seconds
    } {
        run_round(
            &setup,
            &fixed,
            &shape,
            args.trace,
            &dir.join(format!("round-{rounds}")),
            &mut ledger,
            &mut samples,
        );
        rounds += 1;
        let times: Vec<String> = [
            "characterize_s",
            "skew_transient_s",
            "skew_reduced_s",
            "sweep_s",
        ]
        .iter()
        .filter_map(|m| Some(format!("{m} {:.4}", samples.last(m)?)))
        .collect();
        eprintln!("round {rounds}: {}", times.join(", "));
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir(WORK_DIR).ok();
    samples.push("peak_rss_mib", peak_rss_mib()?);

    let kind = if args.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    println!(
        "workload {} seed {} rounds {rounds} attempted {} failed {}",
        args.workload, args.seed, ledger.attempted, ledger.failed
    );
    for m in metrics::METRICS.iter().filter(|m| m.kind == kind) {
        if let Some(v) = samples.median(m.name) {
            println!("  {:<24} {v:>14.6} {}", m.name, m.unit);
        }
    }
    metrics::result_line(&ledger, &samples, kind)
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}
