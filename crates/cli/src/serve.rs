//! `qcm serve` — the mining job service over HTTP.
//!
//! `--listen <addr>` (required) binds the versioned HTTP/1.1 JSON API of
//! [`qcm_http::Api`]: `POST /v1/jobs`, `GET /v1/jobs/{id}?wait_ms=`,
//! `DELETE /v1/jobs/{id}`, `GET`/`PUT /v1/graphs`, `GET /metrics`,
//! `GET /healthz`. Multi-tenant auth via `--token <token>=<tenant>`
//! (comma-separated); without tokens the service is open and trusts
//! `X-Qcm-Tenant`.
//!
//! Errors carry the stable machine-readable code of
//! `qcm_core::api::ErrorCode`, mapped through `ErrorCode::http_status` (shed
//! load → `429` + `Retry-After`). Graph files are loaded through the shared
//! stat-aware registry: a repeat submit of an unchanged path skips the file
//! read and the content hash, an edited file is reloaded.

use crate::commands::{FlagSpec, Flags};
use qcm::QcmError;
use qcm_http::{Api, AuthConfig, Server, ServerConfig};
use qcm_service::{AdmissionControl, MiningService, ServiceConfig};
use qcm_sync::Arc;
use std::io::{BufRead, Write};
use std::time::Duration;

const SERVE_FLAGS: FlagSpec = FlagSpec {
    values: &[
        "workers",
        "max-queued",
        "max-in-flight",
        "quota",
        "cache-capacity",
        "cache-ttl-ms",
        "listen",
        "token",
        "graph-root",
    ],
    switches: &[],
};

/// `qcm serve --listen <addr> …` — runs the HTTP listener until `quit` on
/// stdin, then drains the service before exiting.
pub fn serve(args: &[String]) -> Result<(), QcmError> {
    let flags = Flags::parse(args, &SERVE_FLAGS)?;
    let Some(addr) = flags.values.get("listen") else {
        return Err(QcmError::InvalidConfig(
            "qcm serve requires --listen <addr> (e.g. --listen 127.0.0.1:8080)".into(),
        ));
    };
    let workers: usize = flags.get("workers", 2usize)?;
    if workers == 0 {
        return Err(QcmError::InvalidConfig(
            "--workers must be at least 1".into(),
        ));
    }
    let config = ServiceConfig {
        workers,
        admission: AdmissionControl {
            max_queued: flags.get("max-queued", 64usize)?,
            max_in_flight: flags.get("max-in-flight", usize::MAX)?,
            per_tenant_quota: flags.get("quota", 16usize)?,
        },
        cache_capacity: flags.get("cache-capacity", 128usize)?,
        cache_ttl: flags
            .get_opt::<u64>("cache-ttl-ms")?
            .map(Duration::from_millis),
        ..ServiceConfig::default()
    };
    let auth = match flags.values.get("token") {
        None => AuthConfig::open(),
        Some(raw) => AuthConfig::with_tokens(parse_tokens(raw)?),
    };
    // Network callers must not be able to make the server read arbitrary
    // local files: graph paths are always confined to a root — `--graph-root`
    // or, by default, the serve process's working directory.
    let graph_root = match flags.values.get("graph-root") {
        Some(dir) => dir.into(),
        None => std::env::current_dir()
            .map_err(|e| QcmError::InvalidConfig(format!("cannot resolve --graph-root: {e}")))?,
    };
    let api = Api::over(MiningService::start(config), auth).with_graph_root(graph_root);
    serve_http(api, addr)
}

/// Parses `--token tok=tenant[,tok2=tenant2,…]`.
fn parse_tokens(raw: &str) -> Result<Vec<(String, String)>, QcmError> {
    raw.split(',')
        .map(|pair| {
            pair.split_once('=')
                .map(|(token, tenant)| (token.trim().to_string(), tenant.trim().to_string()))
                .filter(|(token, tenant)| !token.is_empty() && !tenant.is_empty())
                .ok_or_else(|| {
                    QcmError::InvalidConfig(format!(
                        "invalid --token entry {pair:?} (expected <token>=<tenant>)"
                    ))
                })
        })
        .collect()
}

/// Binds, announces the address, then holds the process open until
/// `quit` on stdin (graceful drain) or the process is killed.
fn serve_http(api: Api, addr: &str) -> Result<(), QcmError> {
    let authed = api.auth().requires_token();
    let server = Server::start(
        Arc::new(api),
        ServerConfig {
            addr: addr.to_string(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| QcmError::InvalidConfig(format!("cannot listen on {addr:?}: {e}")))?;
    println!(
        "qcm serve listening on http://{} (API v1{}); `quit` on stdin stops it",
        server.local_addr(),
        if authed {
            ", token auth"
        } else {
            ", open access"
        },
    );
    let _ = std::io::stdout().flush();
    let mut quit = false;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| QcmError::Engine(format!("stdin read error: {e}")))?;
        if matches!(line.trim(), "quit" | "exit" | "shutdown") {
            quit = true;
            break;
        }
    }
    if !quit {
        // stdin hit EOF (e.g. backgrounded with stdin on /dev/null): keep
        // the listener up until the process is signalled.
        loop {
            qcm_sync::thread::sleep(Duration::from_secs(3600));
        }
    }
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_error(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match serve(&args) {
            Err(QcmError::InvalidConfig(message)) => message,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn serve_without_listen_is_a_config_error_naming_the_flag() {
        let message = config_error(&["--workers", "1"]);
        assert!(message.contains("requires --listen"), "{message}");
        // The removed line protocol's selector is an unknown flag now.
        let message = config_error(&["--listen", "127.0.0.1:0", "--format", "json"]);
        assert!(message.contains("unknown flag --format"), "{message}");
    }

    #[test]
    fn token_flag_parses_pairs_and_rejects_garbage() {
        let pairs = parse_tokens("a=alpha,b=beta").unwrap();
        assert_eq!(
            pairs,
            vec![
                ("a".to_string(), "alpha".to_string()),
                ("b".to_string(), "beta".to_string())
            ]
        );
        assert!(parse_tokens("missing-equals").is_err());
        assert!(parse_tokens("=tenant").is_err());
        assert!(parse_tokens("token=").is_err());
    }
}
