//! `qcm` — command-line front end for the quasi-clique miner.
//!
//! ```text
//! qcm mine <edge_list> --gamma 0.9 --min-size 10 [--threads 8] [--machines 1]
//!                      [--tau-split 100] [--tau-time-ms 10] [--deadline-ms 5000]
//!                      [--format json|text] [--serial] [--output results.txt]
//! qcm trace <edge_list> [mine flags] [--out trace.json]   # traced run → Chrome trace JSON
//! qcm serve --listen addr [--workers 4]                   # mining job service (HTTP/1.1 JSON API)
//! qcm generate --dataset <name> --output graph.txt        # synthetic stand-in datasets
//! qcm stats <edge_list>                                    # graph summary statistics
//! qcm fingerprint <edge_list>                              # stable content hash (cache key)
//! qcm datasets                                             # list available stand-ins
//! ```
//!
//! All subcommands report failures through the workspace-wide typed
//! [`qcm::QcmError`]; exit codes come from the shared service error table
//! (`qcm_core::api::ERROR_CODE_TABLE`): configuration mistakes (unknown
//! flags, out-of-range γ, zero threads) exit with status 2, runtime
//! failures with status 1, retry-later conditions with status 3.

use qcm::prelude::ErrorCode;
use qcm::QcmError;
use std::process::ExitCode;

mod commands;
mod serve;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "mine" => commands::mine(rest),
        "trace" => commands::trace(rest),
        "serve" => serve::serve(rest),
        "generate" => commands::generate(rest),
        "stats" => commands::stats(rest),
        "fingerprint" => commands::fingerprint(rest),
        "datasets" => commands::list_datasets(),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(QcmError::InvalidConfig(format!(
            "unknown command {other:?}\n{}",
            commands::USAGE
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            // Route through the shared code table so the CLI and the HTTP
            // surface can never disagree on what a failure class means.
            let code = match err {
                QcmError::InvalidConfig(_) => ErrorCode::BadRequest,
                _ => ErrorCode::Internal,
            };
            ExitCode::from(code.cli_exit_code())
        }
    }
}
