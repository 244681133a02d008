//! Serving mining queries as jobs: a mixed hot/cold workload across tenants.
//!
//! A `MiningService` runs a worker pool over the `Session` front door and
//! memoises completed answers in a result cache, so repeated ("hot") queries
//! are served in microseconds while distinct ("cold") queries are mined,
//! scheduled fairly across tenants with priorities, deadlines and admission
//! control. Run with:
//!
//! ```text
//! cargo run --release -p qcm-service --example job_service
//! ```

use qcm_service::{
    JobId, JobRequest, JobResult, MiningService, Priority, ServiceConfig, ServiceError,
};
use qcm_sync::Arc;
use std::time::Duration;

/// Long-polls until the job goes terminal (each wait is bounded, as a real
/// client's would be).
fn await_job(service: &MiningService, job: JobId) -> Result<JobResult, ServiceError> {
    loop {
        if let Some(result) = service.poll_fetch(job, Duration::from_secs(30))? {
            return Ok(result);
        }
    }
}

fn main() -> Result<(), ServiceError> {
    // Two graphs stand in for two customer datasets.
    let social = qcm::gen::datasets::tiny_test_dataset(21);
    let protein = qcm::gen::datasets::tiny_test_dataset(87);
    let social_graph = Arc::new(social.graph.clone());
    let protein_graph = Arc::new(protein.graph.clone());

    let service = MiningService::start(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    });
    println!("service up: 4 workers, default admission limits\n");

    // A mixed workload: tenant "social-app" asks the same two queries over
    // and over (a dashboard refreshing — each refresh waits for the previous
    // one, so rounds after the first are served hot), tenant "bio-lab"
    // explores with distinct parameters (all cold), and one exploratory
    // query gets a tight deadline.
    let mut jobs = Vec::new();
    let dashboard = [(social.spec.gamma, social.spec.min_size), (0.75, 5)];
    for round in 0..3 {
        let refresh: Vec<_> = dashboard
            .iter()
            .map(|&(gamma, min_size)| {
                service.submit(
                    JobRequest::new(social_graph.clone(), gamma, min_size)
                        .tenant("social-app")
                        .priority(Priority::High),
                )
            })
            .collect::<Result<_, _>>()?;
        // The dashboard renders before refreshing again.
        for &job in &refresh {
            await_job(&service, job)?;
            jobs.push(("social-app", round, job));
        }
    }
    for (round, min_size) in [(0usize, 4), (1, 5), (2, 6)] {
        let job = service.submit(
            JobRequest::new(protein_graph.clone(), protein.spec.gamma, min_size).tenant("bio-lab"),
        )?;
        jobs.push(("bio-lab", round, job));
    }
    let budgeted = service.submit(
        JobRequest::new(protein_graph.clone(), 0.6, 4)
            .tenant("bio-lab")
            .priority(Priority::Low)
            .deadline(Duration::from_millis(100)),
    )?;
    jobs.push(("bio-lab", 3, budgeted));

    for (tenant, round, job) in jobs {
        let result = await_job(&service, job)?;
        println!(
            "job {job:>2} [{tenant:<10} round {round}] {} — {} maximal sets, mined in {:?}{}",
            if result.cache_hit { "HOT " } else { "cold" },
            result.maximal().len(),
            result.answer.mining_time,
            if result.is_complete() {
                String::new()
            } else {
                format!(" (partial: {:?})", result.outcome())
            },
        );
    }

    let metrics = service.metrics();
    println!("\n--- service metrics ---");
    println!("submitted    : {}", metrics.submitted);
    println!("jobs mined   : {}", metrics.jobs_mined);
    println!(
        "cache        : {} hits / {} misses (hit rate {:.0}%)",
        metrics.cache_hits,
        metrics.cache_misses,
        metrics.cache_hit_rate().unwrap_or(0.0) * 100.0
    );
    println!(
        "job latency  : p50 {:?}, p99 {:?}",
        metrics.p50_latency, metrics.p99_latency
    );
    assert!(
        metrics.cache_hits >= 3,
        "the repeated dashboard queries must hit the cache"
    );
    service.shutdown();
    println!("\nservice drained and shut down cleanly");
    Ok(())
}
