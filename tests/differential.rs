//! Exactness on every surface: the differential harness of
//! `tests/common/harness.rs` over its whole sweep — the regressions, small
//! graphs the naive oracle checks, planted and power-law graphs and the
//! shrunk Table 1 stand-ins, on both sides of γ = ½ — through every surface.
//! Over the sweep every piece of machinery must have been exercised, and
//! every surface must have run below γ = ½ on a case with an answer.

mod common;

use common::harness::{
    left_by_the_legs, run, run_each, sweep, Case, Family, FLOORS, LIGHT, NINE, SURFACES,
    TIER_1_SEEDS,
};
use qcm_sync::atomic::{AtomicBool, Ordering};
use qcm_sync::thread;
use std::ops::Range;

/// The tier-1 seeds, less what the legs of the other targets check.
#[test]
fn every_surface_agrees_with_the_serial_miner() {
    let tally = run_each(&left_by_the_legs(TIER_1_SEEDS));
    tally.assert_floors(&FLOORS);
    tally.assert_below_half(&SURFACES);
}

/// The sweep's largest planted graph splits tasks at τ_time 0 on four
/// threads: at γ 0.7 the (k, s) peel keeps what a community's root cannot
/// mine whole.
#[test]
fn the_nine_community_case_decomposes() {
    let nine = Case::new(Family::Planted(400, NINE, LIGHT, 99), 0.7, 8);
    run(&[nine], &["forced"]).assert_floors(&["decomposed tasks"]);
}

#[test]
#[ignore = "ten times the tier-1 seeds; CI runs it in release"]
fn every_surface_agrees_on_ten_times_the_seeds() {
    let Range { start, end } = TIER_1_SEEDS;
    let tally = run(&sweep(start..start + 10 * (end - start)), &SURFACES);
    tally.assert_floors(&FLOORS);
    tally.assert_below_half(&SURFACES);
}

/// A live 8 × 1 run of this case once ended `Faulted` with no fault
/// injected, in 2 of 11 ten-times sweeps. Two hundred runs of every cluster
/// shape, beside a thread that keeps one core busy: a failure names the
/// check that found work dropped.
#[test]
#[ignore = "two hundred runs of a rare live fault; CI runs it in release"]
fn the_shrunk_power_law_case_completes_beside_a_busy_core() {
    let case = Case {
        tau_split: 1,
        tau_time_ms: 0,
        ..Case::new(Family::PowerLaw(20, 22), 0.9, 4)
    };
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        scope.spawn(|| {
            // ordering: Relaxed — a stop flag that publishes nothing; the
            // scope joins the thread.
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let runs = std::panic::catch_unwind(|| {
            for _ in 0..200 {
                run(&[case], &["shapes"]);
            }
        });
        stop.store(true, Ordering::Relaxed);
        if let Err(panic) = runs {
            std::panic::resume_unwind(panic);
        }
    });
}
