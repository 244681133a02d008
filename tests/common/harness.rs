//! The differential harness: one case type and one runner for the paper's
//! central claim, exactness.
//!
//! Unlike Quick, the paper's algorithm misses no maximal quasi-clique, and the
//! system side — task decomposition, queues, spilling, stealing, transports,
//! the fault simulator — must not change the answer either. A [`Case`] names
//! a graph (family × seed), γ, τ_size, the prune set and τ_split/τ_time.
//! [`run`] mines each case with `SerialMiner`, then pushes it through the
//! named entries of [`SURFACES`], comparing each answer with the serial one
//! and checking the invariants every run keeps; the [`Tally`] it returns
//! counts what the runs exercised, so a test can assert the machinery it
//! names was used. The answer-equality tests of the other targets are
//! [`leg`]s, a few cases each on the surfaces their names promise.
//! `tests/differential.rs` runs [`sweep`]: at the tier-1 seeds each case on
//! the surfaces no leg already runs its input on ([`left_by_the_legs`]), at
//! ten times the seeds on every surface.
//!
//! A failing case is shrunk — vertices, then edges, are deleted while the
//! same surface still fails — and printed as a `Case` literal. Append it to
//! [`REGRESSIONS`], which runs before the sweep.

use qcm::core::{is_valid_quasi_clique, naive, remove_non_maximal};
use qcm::engine::QuasiCliqueApp;
use qcm::prelude::*;
use qcm_sync::atomic::{AtomicUsize, Ordering};
use qcm_sync::{thread, Arc, Mutex};
use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Duration;

/// Where a case's graph comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    /// `(a, b)` is an edge iff `(a² + b² + c) % m < t`, with 13 or 14
    /// vertices and `c`, `t`, `m` drawn from the seed: small graphs the naive
    /// oracle checks.
    Arithmetic(u64),
    /// `n` vertices of power-law background with communities of the given
    /// sizes planted at density 0.95; then the seed.
    Planted(usize, &'static [usize], Background, u64),
    /// A Chung–Lu power-law graph of `n` vertices; then the seed.
    PowerLaw(usize, u64),
    /// A Table 1 stand-in or `tiny-test`, shrunk, with its seed replaced. At
    /// the spec's own γ and τ_size its planted communities must come back.
    Dataset(&'static str, u64),
    /// The paper's Figure 4 graph.
    Figure4,
    /// `n` vertices and these edges: the fixtures, and what the shrinker
    /// prints.
    Edges(usize, &'static [(u32, u32)]),
}

/// The power-law background of a planted graph, average degree 5: its
/// exponent β and its largest expected degree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Background(pub f64, pub f64);

/// β = 2.5 up to degree 40, the background of `tests/fault_scenarios.rs`.
pub const LIGHT: Background = Background(2.5, 40.0);
/// β = 2.4 up to degree 50: a heavier tail, hubs for the engine stress
/// tests.
pub const HEAVY: Background = Background(2.4, 50.0);

/// One input to every surface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Case {
    pub graph: Family,
    pub gamma: f64,
    pub min_size: usize,
    /// `false` mines without the size-threshold rule, so without the k-core
    /// peel.
    pub peel: bool,
    pub tau_split: usize,
    pub tau_time_ms: u64,
}

/// Cases that once failed, on the code or on a mutant of it, as the
/// shrinker printed them.
#[rustfmt::skip]
const REGRESSIONS: &[Case] = &[
    // Below ½ a parked task's peeled vertex, read from a worker's cached
    // list, cost the root a neighbour it never counted.
    Case { graph: Family::Edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 4)]), gamma: 0.4, min_size: 4, peel: true, tau_split: 100, tau_time_ms: 0 },
    // A task assembly that stops after two hops below ½ loses a set here.
    Case { graph: Family::Edges(6, &[(0, 1), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5), (4, 5)]), gamma: 0.4, min_size: 4, peel: true, tau_split: 1000, tau_time_ms: 1000 },
    // Without the maximality filter the engine publishes [1, 2, 3, 4].
    Case { graph: Family::Edges(5, &[(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4)]), gamma: 0.5, min_size: 4, peel: false, tau_split: 10, tau_time_ms: 0 },
];

/// The seeds of the tier-1 sweep; the ignored test runs ten times as many.
pub const TIER_1_SEEDS: Range<u64> = 0..3;

/// How long one surface may take on one case: a hung run is a failure.
const SURFACE_LIMIT: Duration = Duration::from_secs(60);
const HUNG: &str = "still running after";

/// (τ_split, τ_time in ms) pairs the sweep deals out in turn: the engine's
/// defaults, decomposition by size, by a 1 ms timer, and at every node.
const HYPERPARAMETERS: [(usize, u64); 4] = [
    (
        QuasiCliqueApp::DEFAULT_TAU_SPLIT,
        QuasiCliqueApp::DEFAULT_TAU_TIME.as_millis() as u64,
    ),
    (10, 0),
    (30, 1),
    (1, 0),
];

/// The (machines, threads per machine) of the `shapes` surface.
#[rustfmt::skip]
const SHAPES: [(usize, usize); 11] = [
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 8),
    (2, 1), (2, 2), (3, 2), (4, 1), (4, 2), (8, 1),
];

/// Every surface a case goes through, in order; [`Run::surface`] runs one.
pub const SURFACES: [&str; 10] = [
    "oracle", "session", "shapes", "strict", "sim", "forced", "spill", "cache", "deadline", "fault",
];

/// What a run can be asked to have exercised at least once, in
/// [`Tally::counts`] order; the sweep must have exercised all of it.
pub const FLOORS: [&str; 7] = [
    "decomposed tasks",
    "intra-machine steals",
    "simulated inter-machine steals",
    "spilled bytes",
    "remote fetches",
    "pull retries",
    "faulted runs",
];

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// The regressions, then the small graphs — the fixtures and every small
/// family at `seeds` — then the large ones, so a failure is found, and
/// shrunk, on a small graph first. The hyperparameters are dealt out in turn;
/// every third small graph is mined without the peel.
pub fn sweep(seeds: Range<u64>) -> Vec<Case> {
    let (empty, isolated) = (Family::Edges(0, &[]), Family::Edges(50, &[]));
    let triangle = Family::Edges(3, &[(0, 1), (0, 2), (1, 2)]);
    let mut small = vec![
        (empty, 0.9, 3),
        (isolated, 0.9, 3),
        (triangle, 0.9, 3),
        (triangle, 0.4, 3),
    ];
    small.extend([(0.4, 4), (0.5, 4), (0.6, 5), (0.9, 4)].map(|(g, t)| (Family::Figure4, g, t)));
    let mut large = Vec::new();
    for seed in seeds.clone() {
        small.extend(ARITHMETIC.map(|(gamma, size)| (Family::Arithmetic(seed), gamma, size)));
        small.push((Family::Planted(18, &[7], LIGHT, seed), 0.4, 7));
        let power_law = Family::PowerLaw(20, seed);
        small.extend([
            (power_law, 0.4, 5),
            (power_law, 0.9, 4),
            (power_law, 1.0, 3),
        ]);
        large.push((Family::Planted(250, &[9, 8, 7], LIGHT, seed), 0.8, 7));
        // At γ 0.8 the (k, s) peel leaves each of the nine communities a
        // task mined whole at its root; at 0.7 tasks split, steal and spill.
        large.push((Family::Planted(400, NINE, LIGHT, 99 + seed), 0.7, 8));
        for spec in qcm::gen::datasets::all_datasets() {
            let family = Family::Dataset(spec.name, spec.seed + seed - seeds.start);
            large.push((family, spec.gamma, spec.min_size));
        }
    }
    let deal = |shapes: Vec<(Family, f64, usize)>, unpeel: bool| {
        let cases = shapes.into_iter().enumerate();
        cases.map(move |(i, (graph, gamma, min_size))| {
            let (tau_split, tau_time_ms) = HYPERPARAMETERS[i % HYPERPARAMETERS.len()];
            let peel = !unpeel || i % 3 != 2;
            Case {
                graph,
                gamma,
                min_size,
                peel,
                tau_split,
                tau_time_ms,
            }
        })
    };
    let cases = REGRESSIONS.iter().copied().chain(deal(small, true));
    cases.chain(deal(large, false)).collect()
}

/// The nine communities of `tests/fault_scenarios.rs`.
pub const NINE: &[usize] = &[10, 9, 8, 10, 9, 8, 10, 9, 8];

/// The (γ, τ_size) pairs an arithmetic graph is mined at.
const ARITHMETIC: [(f64, usize); 7] = [
    (0.4, 4),
    (0.5, 4),
    (0.6, 4),
    (0.7, 3),
    (0.8, 3),
    (0.9, 4),
    (1.0, 3),
];

/// An answer-equality test of another target, by name: a few cases on the
/// surfaces its name promises, the machinery it names, and whether each of
/// its surfaces must have run below γ = ½ on a case with an answer.
type Leg = (
    &'static str,
    Vec<Case>,
    &'static [&'static str],
    &'static [&'static str],
    bool,
);

/// Every leg: cases, surfaces, floors, below ½.
#[rustfmt::skip]
fn legs() -> Vec<Leg> {
    use qcm::gen::datasets::{all_datasets, amazon, cx_gse1730, tiny_test_spec};
    let p300 = |seed| Case::new(Family::Planted(300, &[9, 8, 7], LIGHT, seed), 0.8, 7);
    let p250 = |seed| Case::new(Family::Planted(250, &[9, 8, 8], HEAVY, seed), 0.8, 7);
    let three = Case::new(Family::Planted(400, &[10, 9, 8], LIGHT, 99), 0.8, 8);
    // Mined as `tests/fault_scenarios.rs` mines it: at γ = 0.8 the global
    // (k, s) peel leaves each community a task mined whole at its root, so
    // nothing splits or moves; at 0.7 the edge rule keeps an edge with two
    // common neighbours, and tasks split.
    let nine = Case::new(Family::Planted(400, NINE, LIGHT, 99), 0.7, 8);
    let at = |case, tau_split, tau_time_ms| Case { tau_split, tau_time_ms, ..case };
    let arithmetic = |seeds: Range<u64>| -> Vec<Case> {
        let graphs = seeds.map(Family::Arithmetic);
        graphs.flat_map(|g| ARITHMETIC.map(|(gamma, size)| Case::new(g, gamma, size))).collect()
    };
    let mut small = Vec::new();
    for seed in 0..2 {
        let planted = (Family::Planted(18, &[7], LIGHT, seed), [7, 7, 5, 4]);
        for (graph, sizes) in [planted, (Family::PowerLaw(20, seed), [5, 5, 4, 3])] {
            for (gamma, size) in [0.4, 0.5, 0.9, 1.0].into_iter().zip(sizes) {
                let case = Case::new(graph, gamma, size);
                small.extend([case, Case { peel: false, ..case }]);
            }
        }
    }
    let standin = |spec: DatasetSpec| Case::new(Family::Dataset(spec.name, spec.seed), spec.gamma, spec.min_size);
    let tiny = tiny_test_spec(42);
    let fixtures = [Family::Edges(0, &[]), Family::Edges(50, &[]), Family::Edges(3, &[(0, 1), (0, 2), (1, 2)])];
    vec![
        // tests/parallel_vs_serial.rs
        ("thread_count_does_not_change_results", vec![p300(1)], &["shapes"], &[], false),
        ("machine_count_does_not_change_results", vec![p300(2)], &["shapes", "cache"], &["remote fetches"], false),
        ("hyperparameters_do_not_change_results", [1, 10, 1000].into_iter().flat_map(|s| [0, 1, 1000].map(|t| at(p300(3), s, t))).collect(), &["shapes"], &["decomposed tasks"], false),
        ("repeated_runs_are_deterministic", vec![p300(4)], &["session", "sim"], &[], false),
        ("engine_metrics_are_consistent_with_results", vec![p300(5)], &["shapes", "forced"], &[], false),
        ("streaming_and_plain_runs_agree_across_backends", vec![p300(6)], &["session"], &[], false),
        ("validity_net_drops_nothing_on_any_cluster_shape", vec![p300(7)], &["shapes", "strict", "cache"], &[], false),
        ("peeling_to_the_core_first_never_changes_the_answer", small, &["shapes", "session", "sim"], &[], true),
        ("simulated_and_live_miners_agree_on_a_complete_run", vec![p300(8)], &["sim"], &[], false),
        // tests/oracle_equivalence.rs
        ("serial_parallel_and_oracle_agree_on_arithmetic_graphs", arithmetic(0..4), &["oracle", "shapes"], &[], true),
        ("forced_decomposition_does_not_change_results", arithmetic(4..6), &["forced"], &["decomposed tasks"], false),
        ("quick_baseline_reports_no_spurious_results", arithmetic(6..10), &["oracle"], &[], false),
        ("planted_communities_are_recovered_exactly", vec![Case::new(Family::Dataset("tiny-test", 42), tiny.gamma, tiny.min_size)], &["oracle", "session"], &[], false),
        // tests/engine_fault_injection.rs
        ("tiny_queues_with_disk_spill_produce_correct_results", vec![p250(77)], &["spill"], &["spilled bytes"], false),
        ("one_entry_vertex_cache_is_only_a_performance_problem", vec![p250(77)], &["cache"], &["remote fetches"], false),
        ("more_machines_than_meaningful_work_still_terminates", vec![p250(77)], &["shapes"], &[], false),
        ("stealing_moves_big_tasks_under_skew", vec![at(nine, 1, 0)], &["shapes", "sim"], &["simulated inter-machine steals"], false),
        ("empty_and_trivial_graphs_are_handled", fixtures.map(|g| Case::new(g, 0.9, 3)).to_vec(), &SURFACES, &[], false),
        ("dropped_pulls_are_retried_until_the_results_are_correct", vec![p250(77)], &["strict"], &["pull retries"], false),
        ("live_faulted_runs_report_only_serial_maximal_sets", vec![nine], &["fault"], &["faulted runs"], false),
        // tests/steal_equivalence.rs
        ("work_stealing_parallel_matches_serial_across_thread_counts", vec![at(p250(4242), 30, 0), at(p250(4242), 10, 0)], &["shapes"], &["intra-machine steals"], false),
        ("spilling_stealing_run_matches_serial", vec![at(p250(4242), 10, 0)], &["spill"], &["spilled bytes"], false),
        // tests/end_to_end_datasets.rs
        ("every_dataset_standin_yields_its_planted_communities", all_datasets().into_iter().map(standin).collect(), &["oracle", "session"], &[], false),
        ("parallel_equals_serial_on_two_shrunk_datasets", vec![standin(cx_gse1730()), standin(amazon())], &["shapes"], &[], false),
        // tests/session_api.rs
        ("serial_and_parallel_backends_are_equivalent_on_planted_data", vec![three], &["session", "shapes"], &[], false),
        ("streaming_run_matches_plain_run_and_orders_maximal_results", vec![three], &["session"], &[], false),
        ("strict_transport_agrees_with_default_in_proc", vec![three], &["session", "strict"], &["pull retries"], false),
        ("sim_transport_matches_serial_and_replays_deterministically", vec![three], &["session", "sim"], &[], false),
    ]
}

/// Runs the leg of that name and asserts its floors.
pub fn leg(name: &str) -> Tally {
    let legs = legs();
    let leg = legs.iter().find(|leg| leg.0 == name);
    let (_, cases, surfaces, floors, below_half) = leg.unwrap_or_else(|| panic!("no leg `{name}`"));
    let tally = run(cases, surfaces);
    tally.assert_floors(floors);
    if *below_half {
        tally.assert_below_half(surfaces);
    }
    tally
}

/// The sweep at `seeds`, each case on the surfaces no leg runs its graph,
/// γ and τ_size on: the legs' tests check those.
pub fn left_by_the_legs(seeds: Range<u64>) -> Vec<(Case, Vec<&'static str>)> {
    let legs = legs();
    let input = |c: &Case| (c.graph, c.gamma, c.min_size);
    let claimed = |case: &Case, surface: &str| {
        let mut claiming = legs.iter().filter(|leg| leg.2.contains(&surface));
        claiming.any(|leg| leg.1.iter().any(|c| input(c) == input(case)))
    };
    let cases = sweep(seeds).into_iter().map(|case| {
        let surfaces = SURFACES.into_iter().filter(|&s| !claimed(&case, s));
        (case, surfaces.collect::<Vec<_>>())
    });
    cases.filter(|(_, surfaces)| !surfaces.is_empty()).collect()
}

/// Checks `cases` on `surfaces`; see [`run_each`].
pub fn run(cases: &[Case], surfaces: &[&'static str]) -> Tally {
    let work: Vec<_> = cases
        .iter()
        .map(|&case| (case, surfaces.to_vec()))
        .collect();
    run_each(&work)
}

/// Checks each case on its surfaces, on as many threads as there are cores,
/// in order, and sums what they exercised. Stops at the first failure and
/// panics with its report.
pub fn run_each(work: &[(Case, Vec<&'static str>)]) -> Tally {
    for surface in work.iter().flat_map(|(_, surfaces)| surfaces) {
        assert!(SURFACES.contains(surface), "no surface `{surface}`");
    }
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Ok(Tally::default()));
    let workers = thread::available_parallelism().map_or(2, |n| n.get());
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some((case, surfaces)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let checked = check(case, surfaces);
                    let mut total = total.lock();
                    match (&mut *total, checked) {
                        (Ok(sum), Ok(tally)) => sum.add(tally),
                        (Ok(_), Err(report)) => *total = Err(report),
                        (Err(_), _) => {}
                    }
                    if total.is_err() {
                        break;
                    }
                }
            });
        }
    });
    total
        .into_inner()
        .unwrap_or_else(|report| panic!("{report}"))
}

/// A surface that disagreed, and how.
type Failure = (&'static str, String);

/// Checks `case` on `surfaces`. On a failure, shrinks the graph and reports
/// the literal to append to [`REGRESSIONS`].
fn check(case: &Case, surfaces: &[&str]) -> Result<Tally, String> {
    let (graph, planted) = case.generate();
    let (surface, message) = match check_graph(case, &graph, &planted, surfaces) {
        Ok(tally) => return Ok(tally),
        Err(failure) => failure,
    };
    let report = format!("{case:?} fails on `{surface}`: {message}");
    if message.starts_with(HUNG) {
        return Err(report); // Every shrinking step could take the whole limit.
    }
    let (small, shrunk) = shrink(case, graph, surface);
    let n = small.num_vertices();
    let literal = case.literal(&small);
    Err(format!(
        "{report}\nShrunk to {n} vertices: {shrunk}\nAppend to REGRESSIONS:\n{literal}"
    ))
}

/// Mines `graph` as `case` says: the serial reference, then `surfaces`.
fn check_graph(
    case: &Case,
    graph: &Graph,
    planted: &[Vec<VertexId>],
    surfaces: &[&str],
) -> Result<Tally, Failure> {
    let mut run = attempt("serial", Run::new(case, graph, planted))?;
    for name in SURFACES {
        if surfaces.contains(&name) {
            run = attempt(name, run)?;
            if case.gamma < 0.5 && !run.serial.is_empty() {
                run.tally.below_half.insert(name);
            }
        }
    }
    Ok(run.tally)
}

/// Runs `surface` on a thread of its own. A panic, and a run still going
/// after [`SURFACE_LIMIT`], are failures too.
fn attempt(name: &'static str, mut run: Run) -> Result<Run, Failure> {
    let worker = thread::spawn(move || {
        let outcome = run.surface(name);
        (run, outcome)
    });
    // A hung run cannot be stopped: its thread is left behind, and the
    // failing test ends the process.
    let (mut waited, poll) = (Duration::ZERO, Duration::from_millis(1));
    while !worker.is_finished() {
        if waited >= SURFACE_LIMIT {
            return Err((name, format!("{HUNG} {SURFACE_LIMIT:?}")));
        }
        thread::sleep(poll);
        waited += poll;
    }
    match worker.join() {
        Ok((run, Ok(()))) => Ok(run),
        Ok((_, Err(message))) => Err((name, message)),
        Err(panic) => {
            let text = panic.downcast_ref::<String>().map(String::as_str);
            let text = text.or(panic.downcast_ref::<&str>().copied());
            Err((
                name,
                format!("panicked: {}", text.unwrap_or("(no message)")),
            ))
        }
    }
}

/// Deletes vertices, then edges, from `graph` while `surface` still fails;
/// returns the smallest graph found and how it fails.
fn shrink(case: &Case, mut graph: Graph, surface: &str) -> (Graph, String) {
    let fails = |g: &Graph| match check_graph(case, g, &[], &[surface]) {
        Err((failed, message)) if failed == surface => Some(message),
        _ => None,
    };
    let edges = |g: &Graph| {
        g.edges()
            .map(|(a, b)| (a.raw(), b.raw()))
            .collect::<Vec<_>>()
    };
    let rebuild = |n, edges: Vec<_>| Graph::from_edges(n, edges).expect("in range");
    let mut last = None;
    for v in (0..graph.num_vertices() as u32).rev() {
        let kept = edges(&graph).into_iter().filter(|&(a, b)| a != v && b != v);
        let renumbered = kept.map(|(a, b)| (a - u32::from(a > v), b - u32::from(b > v)));
        let smaller = rebuild(graph.num_vertices() - 1, renumbered.collect());
        if let Some(message) = fails(&smaller) {
            (graph, last) = (smaller, Some(message));
        }
    }
    for i in (0..graph.num_edges()).rev() {
        let mut kept = edges(&graph);
        kept.remove(i);
        let smaller = rebuild(graph.num_vertices(), kept);
        if let Some(message) = fails(&smaller) {
            (graph, last) = (smaller, Some(message));
        }
    }
    let last = last.or_else(|| fails(&graph));
    (
        graph,
        last.unwrap_or_else(|| {
            "passes when run again: the failure depends on timing, or on the planted communities"
                .to_string()
        }),
    )
}

impl Case {
    /// `graph` at γ and τ_size, with every rule on and the engine's default
    /// τ_split and τ_time.
    pub fn new(graph: Family, gamma: f64, min_size: usize) -> Case {
        let (tau_split, tau_time_ms) = HYPERPARAMETERS[0];
        Case {
            graph,
            gamma,
            min_size,
            peel: true,
            tau_split,
            tau_time_ms,
        }
    }

    /// The graph, and the communities planted in it that this case's γ and
    /// τ_size must recover.
    fn generate(&self) -> (Graph, Vec<Vec<VertexId>>) {
        let from_edges = |n, edges: Vec<_>| Graph::from_edges(n, edges).expect("in range");
        let graph = match self.graph {
            Family::Arithmetic(seed) => {
                let (n, c, t, m) = (
                    13 + seed % 2,
                    7 * seed + 1,
                    9 + seed % 9,
                    21 + 2 * (seed % 9),
                );
                let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
                let edges = pairs.filter(|&(a, b)| (a * a + b * b + c) % m < t);
                from_edges(
                    n as usize,
                    edges.map(|(a, b)| (a as u32, b as u32)).collect(),
                )
            }
            Family::Planted(num_vertices, sizes, Background(beta, max_degree), seed) => {
                let spec = PlantedGraphSpec {
                    num_vertices,
                    background_avg_degree: 5.0,
                    background_beta: beta,
                    background_max_degree: max_degree,
                    community_sizes: sizes.to_vec(),
                    community_density: 0.95,
                    seed,
                };
                qcm::gen::plant_quasi_cliques(&spec).0
            }
            Family::PowerLaw(n, seed) => {
                qcm::gen::powerlaw::power_law_graph(n, 5.0, 2.3, 30.0, seed)
            }
            Family::Dataset(name, seed) => {
                let tiny = qcm::gen::datasets::tiny_test_spec(seed);
                let specs = qcm::gen::datasets::all_datasets().into_iter().chain([tiny]);
                let spec = specs.into_iter().find(|s| s.name == name);
                let mut spec = super::shrink(&spec.expect("a stand-in"));
                spec.seed = seed;
                let own = (spec.gamma, spec.min_size) == (self.gamma, self.min_size);
                let dataset = spec.generate();
                let planted = dataset.planted.into_iter().map(|c| c.members);
                return (dataset.graph, planted.filter(|_| own).collect());
            }
            Family::Figure4 => qcm::gen::datasets::figure4(),
            Family::Edges(n, edges) => from_edges(n, edges.to_vec()),
        };
        (graph, Vec::new())
    }

    /// This case on `graph`, as a line for [`REGRESSIONS`].
    fn literal(&self, graph: &Graph) -> String {
        let edges = graph
            .edges()
            .map(|(a, b)| format!("({}, {})", a.raw(), b.raw()));
        let (n, edges) = (graph.num_vertices(), edges.collect::<Vec<_>>().join(", "));
        let Case {
            gamma,
            min_size,
            peel,
            tau_split,
            tau_time_ms,
            ..
        } = *self;
        format!(
            "    Case {{ graph: Family::Edges({n}, &[{edges}]), gamma: {gamma:?}, min_size: \
             {min_size}, peel: {peel}, tau_split: {tau_split}, tau_time_ms: {tau_time_ms} }},"
        )
    }
}

fn prune_set(peel: bool) -> PruneConfig {
    match peel {
        true => PruneConfig::all_enabled(),
        false => PruneConfig::all_enabled().without("size_threshold"),
    }
}

/// What a sweep exercised, summed over its runs.
#[derive(Debug, Default)]
pub struct Tally {
    /// One count per entry of [`FLOORS`].
    counts: [u64; 7],
    /// Surfaces that ran below γ = ½ on a case with a non-empty answer.
    below_half: BTreeSet<&'static str>,
    /// The sets of the serial answers, summed over the cases.
    pub answers: usize,
}

impl Tally {
    fn observe(&mut self, m: &EngineMetrics) {
        // The simulator's asks for work run in virtual time, so its
        // inter-machine steals repeat; the live driver's depend on the wall
        // clock.
        let simulated_steals = m.virtual_time.map_or(0, |_| m.stolen_tasks);
        let faulted = u64::from(m.outcome == RunOutcome::Faulted);
        self.add(Tally {
            counts: [
                m.tasks_decomposed,
                m.steals,
                simulated_steals,
                m.spill_bytes_written,
                m.remote_fetches,
                m.pull_retries,
                faulted,
            ],
            ..Tally::default()
        });
    }

    fn add(&mut self, other: Tally) {
        self.counts
            .iter_mut()
            .zip(other.counts)
            .for_each(|(sum, n)| *sum += n);
        self.below_half.extend(other.below_half);
        self.answers += other.answers;
    }

    /// A run that exercised none of some machinery proved nothing about it:
    /// each of `floors`, entries of [`FLOORS`], was exercised.
    pub fn assert_floors(&self, floors: &[&str]) {
        for floor in floors {
            let i = FLOORS.iter().position(|f| f == floor);
            let count = self.counts[i.unwrap_or_else(|| panic!("no floor `{floor}`"))];
            assert!(count > 0, "the runs exercised no {floor}: {self:?}");
        }
    }

    /// Each of `surfaces` ran below γ = ½ on a case with a non-empty answer.
    pub fn assert_below_half(&self, surfaces: &[&str]) {
        let missing: Vec<_> = surfaces
            .iter()
            .filter(|s| !self.below_half.contains(*s))
            .collect();
        assert!(
            missing.is_empty(),
            "not run below γ = ½ with an answer: {missing:?}"
        );
    }
}

/// One case being checked: its graph, the serial answer, and what its runs
/// exercised.
struct Run {
    case: Case,
    graph: Arc<Graph>,
    params: MiningParams,
    planted: Vec<Vec<VertexId>>,
    serial: QuasiCliqueSet,
    tally: Tally,
}

impl Run {
    fn new(case: &Case, graph: &Graph, planted: &[Vec<VertexId>]) -> Self {
        Run {
            case: *case,
            graph: Arc::new(graph.clone()),
            params: MiningParams::new(case.gamma, case.min_size),
            planted: planted.to_vec(),
            serial: QuasiCliqueSet::new(),
            tally: Tally::default(),
        }
    }

    /// Runs the surface of that name, or the serial reference.
    fn surface(&mut self, name: &str) -> Result<(), String> {
        match name {
            "serial" => self.serial(),
            "oracle" => self.oracle(),
            "session" => self.session(),
            "shapes" => self.shapes(),
            "strict" => self.strict(),
            "sim" => self.sim(),
            "forced" => self.forced(),
            "spill" => self.spill(),
            "cache" => self.cache(),
            "deadline" => self.deadline(),
            "fault" => self.fault(),
            _ => unreachable!("no surface `{name}`"),
        }
    }

    /// The reference every surface is compared with: `SerialMiner` with
    /// every rule on.
    fn serial(&mut self) -> Result<(), String> {
        let out = SerialMiner::new(self.params).mine(&self.graph);
        ensure!(
            out.outcome == RunOutcome::Complete,
            "serial: {:?}",
            out.outcome
        );
        self.valid("serial", &out.maximal)?;
        self.tally.answers += out.maximal.len();
        self.serial = out.maximal;
        Ok(())
    }

    /// A parallel miner on `config` with the case's rules and
    /// hyperparameters.
    fn miner(&self, config: EngineConfig) -> ParallelMiner {
        let tau_time = Duration::from_millis(self.case.tau_time_ms);
        let mut miner = ParallelMiner::new(self.params, config)
            .with_decomposition(self.case.tau_split, tau_time);
        miner.app.prune_config = prune_set(self.case.peel);
        miner
    }

    /// A `Session` with the case's rules and hyperparameters.
    fn session_with(&self, backend: Backend) -> SessionBuilder {
        Session::builder()
            .params(self.params)
            .prune(prune_set(self.case.peel))
            .tau_split(self.case.tau_split)
            .tau_time(Duration::from_millis(self.case.tau_time_ms))
            .backend(backend)
    }

    /// Every set is a valid quasi-clique of the input with ≥ τ_size members.
    fn valid(&self, label: &str, sets: &QuasiCliqueSet) -> Result<(), String> {
        for set in sets.iter() {
            let valid = is_valid_quasi_clique(&self.graph, set, &self.params);
            ensure!(valid, "{label}: {set:?} is not a valid quasi-clique");
        }
        Ok(())
    }

    /// `label`'s answer is the serial one.
    fn equal(&self, label: &str, sets: &QuasiCliqueSet) -> Result<(), String> {
        let missing: Vec<_> = self.serial.iter().filter(|s| !sets.contains(s)).collect();
        let extra: Vec<_> = sets.iter().filter(|s| !self.serial.contains(s)).collect();
        let same = missing.is_empty() && extra.is_empty();
        ensure!(same, "{label}: misses {missing:?}, adds {extra:?}");
        Ok(())
    }

    /// What every engine run keeps, complete or not; a complete one also
    /// processed every task, read back every spilled byte and found the
    /// serial answer.
    fn inspect(
        &mut self,
        label: &str,
        out: &ParallelMiningOutput,
        workers: usize,
    ) -> Result<(), String> {
        let m = &out.metrics;
        self.tally.observe(m);
        self.valid(label, &out.maximal)?;
        let complete = out.outcome() == RunOutcome::Complete;
        let (dropped, emitted, raw) = (
            out.invalid_sets_dropped,
            m.results_emitted,
            out.raw_reported,
        );
        let (sets, times, busy) = (out.maximal.len(), m.task_times.len(), m.worker_busy.len());
        let (processed, spawned) = (m.tasks_processed, m.tasks_spawned);
        let (spilled, read) = (m.spill_bytes_written, m.spill_bytes_read);
        for (holds, what) in [
            (
                dropped == 0,
                format!("the validity check dropped {dropped} sets"),
            ),
            (
                emitted == raw,
                format!("{emitted} results emitted, {raw} reported"),
            ),
            (
                raw >= sets as u64,
                format!("{sets} sets from {raw} raw reports"),
            ),
            (
                times as u64 == processed,
                format!("{times} task times, {processed} tasks"),
            ),
            (
                busy == workers,
                format!("{busy} busy times for {workers} workers"),
            ),
            (
                !complete || processed >= spawned,
                format!("{processed} of {spawned} tasks ran"),
            ),
            (
                !complete || spilled == read,
                format!("{spilled} bytes spilled, {read} read"),
            ),
        ] {
            ensure!(holds, "{label}: {what}");
        }
        if complete {
            self.equal(label, &out.maximal)?;
        }
        Ok(())
    }

    /// Runs `miner`, which must complete, and inspects the run. A run that
    /// does not complete is reported with the check that found its work
    /// dropped and the counters of every path that drops work, so the message
    /// names the one it took.
    fn mine(&mut self, label: &str, miner: &ParallelMiner) -> Result<ParallelMiningOutput, String> {
        let out = miner.mine(self.graph.clone());
        let m = &out.metrics;
        ensure!(
            out.outcome() == RunOutcome::Complete,
            "{label}: {:?} ({:?}); lost roots {:?}, pulls failed {} retried {}, tasks stolen {}, \
             transport dropped {}, spill bytes written {} read {}, tasks spawned {} \
             decomposed {} processed {}",
            out.outcome(),
            m.work_dropped,
            out.lost_roots,
            m.pull_failures,
            m.pull_retries,
            m.stolen_tasks,
            m.transport_dropped,
            m.spill_bytes_written,
            m.spill_bytes_read,
            m.tasks_spawned,
            m.tasks_decomposed,
            m.tasks_processed,
        );
        let workers = match miner.engine_config.transport {
            TransportFactory::Sim(_) => 0, // The simulator keeps no busy times.
            TransportFactory::InProc { .. } => miner.engine_config.total_threads(),
        };
        self.inspect(label, &out, workers)?;
        Ok(out)
    }

    /// A `Session` report that must be complete: the serial answer, and from
    /// the engine as many results emitted as reported.
    fn report(&self, label: &str, report: &MiningReport) -> Result<(), String> {
        ensure!(report.is_complete(), "{label}: {:?}", report.outcome);
        self.equal(label, &report.maximal)?;
        let raw = report.raw_reported;
        ensure!(
            raw >= report.maximal.len() as u64,
            "{label}: {raw} raw reports"
        );
        let emitted = report.engine_metrics().map_or(raw, |m| m.results_emitted);
        ensure!(emitted == raw, "{label}: {emitted} emitted, {raw} raw");
        Ok(())
    }

    /// The naive oracle (up to 14 vertices) equals the serial answer, Quick
    /// reports nothing else, and the planted communities come back.
    fn oracle(&mut self) -> Result<(), String> {
        if self.graph.num_vertices() <= 14 {
            self.equal(
                "naive oracle",
                &naive::maximal_quasi_cliques(&self.graph, &self.params),
            )?;
        }
        for set in quick_mine(&self.graph, self.params).maximal.iter() {
            ensure!(self.serial.contains(set), "Quick reported {set:?}");
        }
        for community in &self.planted {
            let found = self.serial.contains_superset_of(community);
            ensure!(found, "planted community {community:?} not recovered");
        }
        Ok(())
    }

    /// `Session`, plain and streaming, on the serial backend and on the
    /// in-process, strict and simulated transports: the observer gets every
    /// raw report, and the streamed report is the plain one.
    fn session(&mut self) -> Result<(), String> {
        let strict = Backend::Parallel {
            threads: 2,
            machines: 2,
            transport: TransportFactory::strict(),
        };
        let sim = TransportFactory::Sim(SimConfig::new(7));
        let simulated = Backend::Parallel {
            threads: 1,
            machines: 3,
            transport: sim,
        };
        for backend in [Backend::Serial, Backend::parallel(4, 1), strict, simulated] {
            let label = format!("{backend:?}");
            let session = self.session_with(backend).build().expect("valid");
            let plain = session.run(&self.graph).expect("ran");
            self.report(&label, &plain)?;
            let mut sink: Vec<Vec<VertexId>> = Vec::new();
            let streamed = session.run_streaming(&self.graph, &mut sink).expect("ran");
            self.report(&format!("{label} streaming"), &streamed)?;
            let (reports, raw) = (sink.len() as u64, streamed.raw_reported);
            ensure!(reports == raw, "{label}: {reports} streamed, {raw} raw");
            ensure!(
                streamed.maximal == plain.maximal && streamed.outcome == plain.outcome,
                "{label}: the streamed report differs from the plain one"
            );
            self.equal(
                &format!("{label} sink"),
                &remove_non_maximal(sink.into_iter().collect()),
            )?;
            let simulated = matches!(
                session.backend(),
                Backend::Parallel {
                    transport: TransportFactory::Sim(_),
                    ..
                }
            );
            let virtual_time = plain.engine_metrics().and_then(|m| m.virtual_time);
            ensure!(
                virtual_time.is_some() == simulated,
                "{label}: {virtual_time:?}"
            );
        }
        Ok(())
    }

    /// `ParallelMiner` on one machine of 1, 2, 3, 4 and 8 threads, and on
    /// clusters of 2, 3, 4 and 8 machines. Without the peel, also at 2×2
    /// with it, which may only remove roots.
    fn shapes(&mut self) -> Result<(), String> {
        let mut spawned = 0;
        for (machines, threads) in SHAPES {
            let config = EngineConfig::cluster(machines, threads);
            let out = self.mine(&format!("{machines}x{threads}"), &self.miner(config))?;
            spawned = out.metrics.tasks_spawned.max(spawned);
        }
        if !self.case.peel {
            let mut peeled = self.miner(EngineConfig::cluster(2, 2));
            peeled.app.prune_config = prune_set(true);
            let with_peel = self.mine("2x2 peeled", &peeled)?.metrics.tasks_spawned;
            ensure!(
                with_peel <= spawned,
                "{with_peel} tasks with the peel, {spawned} without"
            );
        }
        Ok(())
    }

    /// The strict transport drops its first three pulls; retries recover
    /// them.
    fn strict(&mut self) -> Result<(), String> {
        let drops = TransportFactory::strict().with_pull_drops(3);
        let mut config = EngineConfig::cluster(4, 1).with_transport(drops);
        config.pull_timeout = Duration::from_millis(20);
        config.pull_retries = 6;
        let out = self.mine("strict with 3 dropped pulls", &self.miner(config))?;
        let (failures, retries) = (out.metrics.pull_failures, out.metrics.pull_retries);
        ensure!(failures == 0, "{failures} pulls failed");
        let pulled = out.metrics.remote_fetches > 0;
        ensure!(
            !pulled || retries >= 3,
            "three dropped pulls, {retries} retries"
        );
        Ok(())
    }

    /// The simulator twice: the same sets and event log. A live run that
    /// decomposes by size, as the simulator does: the same raw count and
    /// task counts.
    fn sim(&mut self) -> Result<(), String> {
        let config = EngineConfig::cluster(3, 1);
        let sim = TransportFactory::Sim(SimConfig::new(3));
        let simulated = self.miner(config.clone().with_transport(sim));
        let first = self.mine("simulated", &simulated)?;
        let again = self.mine("simulated again", &simulated)?;
        let hashes = [&first, &again].map(|out| out.replay.as_ref().map(|r| r.log_hash));
        ensure!(
            hashes[0].is_some() && hashes[0] == hashes[1],
            "replay hashes {hashes:?}"
        );
        ensure!(first.metrics.virtual_time.is_some(), "no virtual time");
        let by_size = self
            .miner(config)
            .with_strategy(DecompositionStrategy::SizeThreshold);
        let live = self.mine("live, by size", &by_size)?;
        let (l, s) = (&live.metrics, &first.metrics);
        for (what, live, sim) in [
            ("raw reports", live.raw_reported, first.raw_reported),
            ("spawned", l.tasks_spawned, s.tasks_spawned),
            ("processed", l.tasks_processed, s.tasks_processed),
            ("decomposed", l.tasks_decomposed, s.tasks_decomposed),
        ] {
            ensure!(live == sim, "{what}: live {live}, simulated {sim}");
        }
        Ok(())
    }

    /// τ_split = 1 and τ_time = 0, the most decomposition there is, under
    /// both strategies.
    fn forced(&mut self) -> Result<(), String> {
        use DecompositionStrategy::{SizeThreshold, TimeDelayed};
        for strategy in [TimeDelayed, SizeThreshold] {
            let miner = self.miner(EngineConfig::single_machine(4));
            let miner = miner
                .with_decomposition(1, Duration::ZERO)
                .with_strategy(strategy);
            let out = self.mine(&format!("forced, {strategy:?}"), &miner)?;
            ensure!(
                out.elapsed() > Duration::ZERO,
                "{strategy:?}: no time passed"
            );
        }
        Ok(())
    }

    /// 2-slot queues and full decomposition spill to disk; every spilled byte
    /// is read back and no spill file is left.
    fn spill(&mut self) -> Result<(), String> {
        static DIRS: AtomicUsize = AtomicUsize::new(0);
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        let name = format!("qcm_differential_spill_{}_{n}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let mut config = EngineConfig::single_machine(4);
        config.batch_size = 2;
        config.local_capacity = 2;
        config.global_queue_capacity = 2;
        config.spill_dir = Some(dir.clone());
        let miner = self.miner(config).with_decomposition(1, Duration::ZERO);
        let out = self.mine("2-slot queues", &miner);
        let left = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        let _ = std::fs::remove_dir_all(&dir);
        out?;
        ensure!(left == 0, "{left} spill files left behind");
        Ok(())
    }

    /// Four machines of two threads with a one-entry vertex cache.
    fn cache(&mut self) -> Result<(), String> {
        let mut config = EngineConfig::cluster(4, 2);
        config.vertex_cache_capacity = 1;
        self.mine("1-entry cache", &self.miner(config)).map(drop)
    }

    /// A run a deadline stops publishes valid sets only; one that completes
    /// publishes the serial answer.
    fn deadline(&mut self) -> Result<(), String> {
        for backend in [Backend::Serial, Backend::parallel(2, 1)] {
            for deadline in [Duration::ZERO, Duration::from_millis(2)] {
                let label = format!("{backend:?} within {deadline:?}");
                let session = self.session_with(backend.clone()).deadline(deadline);
                let report = session
                    .build()
                    .expect("valid")
                    .run(&self.graph)
                    .expect("ran");
                match report.outcome {
                    RunOutcome::Complete => self.equal(&label, &report.maximal)?,
                    RunOutcome::DeadlineExceeded => self.valid(&label, &report.maximal)?,
                    other => return Err(format!("{label}: {other:?}")),
                }
            }
        }
        Ok(())
    }

    /// 1 to 34 dropped pulls with no retry lose tasks. A faulted run names
    /// lost roots and publishes only serial-maximal sets, none headed by a
    /// lost root.
    fn fault(&mut self) -> Result<(), String> {
        for drops in [1, 2, 3, 5, 8, 13, 21, 34] {
            let label = format!("{drops} dropped pulls, no retry");
            let transport = TransportFactory::strict().with_pull_drops(drops);
            let mut config = EngineConfig::cluster(3, 1).with_transport(transport);
            config.pull_retries = 0;
            config.pull_timeout = Duration::from_millis(1);
            let out = self.miner(config).mine(self.graph.clone());
            self.inspect(&label, &out, 3)?;
            let lost = &out.lost_roots;
            match out.outcome() {
                RunOutcome::Complete => {}
                RunOutcome::Faulted => ensure!(!lost.is_empty(), "{label}: no lost root named"),
                other => return Err(format!("{label}: {other:?}")),
            }
            for set in out.maximal.iter() {
                let maximal = self.serial.contains(set);
                ensure!(maximal, "{label}: {set:?} is not maximal (lost {lost:?})");
                let headed = lost.binary_search(&set[0]).is_ok();
                ensure!(!headed, "{label}: {set:?} is headed by a lost root");
            }
        }
        Ok(())
    }
}
