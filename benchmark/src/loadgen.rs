//! Closed-loop HTTP load: keep-alive connections with `TCP_NODELAY`, and a
//! correctness verdict for every job.
//!
//! Callers of a mining job wait for its reply, so each connection sends its
//! next job only after the previous one reached a terminal view: a closed
//! loop with as many clients as connections.
//!
//! `qcm_bench::loadgen` (the `serve_overload` row of the legacy suite) opens
//! a connection per request and counts any body containing `"outcome":` as
//! completed; this client does neither.

use crate::spans::Recorder;
use qcm_obs::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Long-poll slice while a job is not terminal.
const WAIT_MS: u64 = 2_000;

/// One job to send: mine `graph` (a path under the server's graph root) and
/// expect `expected_maximal` results.
#[derive(Clone, Debug)]
pub struct Job {
    pub graph: String,
    pub gamma: f64,
    pub min_size: usize,
    pub expected_maximal: usize,
}

/// Why a job counted as failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Socket error or an unparseable response.
    Transport(String),
    /// A response outside 2xx (a shed `429` included).
    Status(u16),
    /// Terminal, but not `complete` (`deadline_exceeded`, `faulted`, …).
    Outcome(String),
    /// Complete, but the result count differs from the reference.
    WrongCount { got: usize, expected: usize },
}

/// A parsed response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// One keep-alive HTTP/1.1 connection.
pub struct Client {
    stream: TcpStream,
    host: String,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            host: addr.to_string(),
            buf: Vec::with_capacity(4096),
        })
    }

    /// One request/response exchange on the open connection.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, Failure> {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.host,
            body.len()
        );
        self.stream
            .write_all(raw.as_bytes())
            .map_err(|e| Failure::Transport(e.to_string()))?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, Failure> {
        let transport = |message: &str| Failure::Transport(message.to_string());
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| transport("unparseable status line"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| transport("response without content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).into_owned();
        self.buf.drain(..head_end + length);
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> Result<(), Failure> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(Failure::Transport("connection closed".to_string())),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(Failure::Transport(e.to_string())),
        }
    }

    /// Runs one job to its terminal view: `POST /v1/jobs`, then long-poll
    /// `GET /v1/jobs/{id}?wait_ms=`. Returns the job's latency (first byte
    /// of the `POST` to last byte of the terminal view) and the `mining_ms`
    /// the server spent on it, or why the job failed. `spans`
    /// records the two exchanges under one request id when given.
    pub fn run_job(
        &mut self,
        job: &Job,
        request_id: u64,
        mut spans: Option<&mut Recorder>,
    ) -> Result<JobDone, Failure> {
        let outer = spans.as_deref_mut().map(|s| s.begin("job", request_id));
        let result = self.exchanges(job, request_id, &mut spans);
        if let (Some(s), Some(id)) = (spans, outer) {
            s.end(id);
        }
        result
    }

    /// [`Client::request`] under a span, when spans are recorded.
    fn spanned_request(
        &mut self,
        spans: &mut Option<&mut Recorder>,
        name: &str,
        request_id: u64,
        (method, path, body): (&str, &str, &str),
    ) -> Result<Response, Failure> {
        let id = spans.as_deref_mut().map(|s| s.begin(name, request_id));
        let response = self.request(method, path, body);
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
            s.end(id);
        }
        response
    }

    fn exchanges(
        &mut self,
        job: &Job,
        request_id: u64,
        spans: &mut Option<&mut Recorder>,
    ) -> Result<JobDone, Failure> {
        let body = format!(
            "{{\"graph\":{},\"gamma\":{},\"min_size\":{}}}",
            Json::from(job.graph.as_str()).render(),
            job.gamma,
            job.min_size
        );
        let started = Instant::now();
        let submitted = self.spanned_request(
            spans,
            "http.submit",
            request_id,
            ("POST", "/v1/jobs", &body),
        )?;
        if submitted.status != 202 {
            return Err(Failure::Status(submitted.status));
        }
        let id = Json::parse(&submitted.body)
            .ok()
            .and_then(|json| json.get("job").and_then(Json::as_f64))
            .ok_or_else(|| Failure::Transport("submit body without job id".to_string()))?;
        let path = format!("/v1/jobs/{}?wait_ms={WAIT_MS}", id as u64);
        loop {
            let poll = self.spanned_request(spans, "http.poll", request_id, ("GET", &path, ""))?;
            if poll.status != 200 {
                return Err(Failure::Status(poll.status));
            }
            let view = Json::parse(&poll.body)
                .map_err(|e| Failure::Transport(format!("unparseable job view: {e}")))?;
            let Some(outcome) = view.get("outcome").and_then(Json::as_str) else {
                continue; // still queued or running
            };
            if outcome != "complete" {
                return Err(Failure::Outcome(outcome.to_string()));
            }
            let got = view
                .get("num_maximal")
                .and_then(Json::as_f64)
                .map_or(usize::MAX, |n| n as usize);
            if got != job.expected_maximal {
                return Err(Failure::WrongCount {
                    got,
                    expected: job.expected_maximal,
                });
            }
            // A cache hit repeats the mining time of the run it reuses.
            let mined = view.get("cache_hit").and_then(Json::as_bool) != Some(true);
            let mining_ms = view.get("mining_ms").and_then(Json::as_f64);
            return Ok(JobDone {
                latency_ms: started.elapsed().as_secs_f64() * 1e3,
                mining_ms: mining_ms.filter(|_| mined).unwrap_or(0.0),
            });
        }
    }
}

/// A job that completed with the reference's result count.
#[derive(Clone, Copy, Debug)]
pub struct JobDone {
    pub latency_ms: f64,
    pub mining_ms: f64,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// What one connection measured.
#[derive(Default)]
pub struct Tally {
    pub done: Vec<JobDone>,
    pub failures: Vec<Failure>,
    pub spans: Recorder,
}

/// Sends `jobs` in order over one connection. Spans are recorded for the
/// first `traced_jobs` jobs (0 when tracing is off). A transport failure
/// reconnects, so one broken exchange fails one job, not the rest.
fn run_connection(addr: &str, jobs: &[Job], first_request_id: u64, traced_jobs: usize) -> Tally {
    let mut tally = Tally::default();
    let mut client = Client::connect(addr);
    for (i, job) in jobs.iter().enumerate() {
        let Ok(open) = client.as_mut() else {
            tally
                .failures
                .push(Failure::Transport("cannot connect".to_string()));
            client = Client::connect(addr);
            continue;
        };
        let spans = (i < traced_jobs).then_some(&mut tally.spans);
        match open.run_job(job, first_request_id + i as u64, spans) {
            Ok(done) => tally.done.push(done),
            Err(failure) => {
                if matches!(failure, Failure::Transport(_)) {
                    client = Client::connect(addr);
                }
                tally.failures.push(failure);
            }
        }
    }
    tally
}

/// Splits `jobs` into runs of `per_connection` and sends each run over its
/// own connection, all at once. Request ids count through `jobs`.
pub fn run_connections(
    addr: &str,
    jobs: &[Job],
    per_connection: usize,
    traced_jobs: usize,
) -> Vec<Tally> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(per_connection)
            .enumerate()
            .map(|(c, run)| {
                let first_id = (c * per_connection) as u64;
                scope.spawn(move || run_connection(addr, run, first_id, traced_jobs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load connection panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A canned keep-alive server: answers each request on one connection
    /// with the next scripted `(status, body)`.
    fn canned(script: Vec<(u16, &'static str)>) -> (String, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let mut served = 0;
            for (status, body) in script {
                let mut length = 0usize;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap() == 0 {
                        return served;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut sink = vec![0u8; length];
                reader.read_exact(&mut sink).unwrap();
                write!(
                    stream,
                    "HTTP/1.1 {status} X\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .unwrap();
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    fn job(expected: usize) -> Job {
        Job {
            graph: "g.txt".to_string(),
            gamma: 0.8,
            min_size: 6,
            expected_maximal: expected,
        }
    }

    #[test]
    fn one_connection_carries_every_exchange_and_verdicts_are_strict() {
        let (addr, server) = canned(vec![
            (202, "{\"job\":1}"),
            (200, "{\"job\":1,\"status\":\"running\"}"),
            (
                200,
                "{\"job\":1,\"outcome\":\"complete\",\"num_maximal\":5,\"mining_ms\":3}",
            ),
            (202, "{\"job\":2}"),
            (
                200,
                "{\"job\":2,\"outcome\":\"deadline_exceeded\",\"num_maximal\":5}",
            ),
            (202, "{\"job\":3}"),
            (
                200,
                "{\"job\":3,\"outcome\":\"complete\",\"num_maximal\":4}",
            ),
            (429, "{}"),
        ]);
        let tally = run_connection(&addr, &[job(5), job(5), job(5), job(5)], 10, 1);
        assert_eq!(
            server.join().unwrap(),
            8,
            "all on one keep-alive connection"
        );
        assert_eq!(tally.done.len(), 1);
        assert_eq!(tally.done[0].mining_ms, 3.0);
        assert_eq!(
            tally.failures,
            vec![
                Failure::Outcome("deadline_exceeded".to_string()),
                Failure::WrongCount {
                    got: 4,
                    expected: 5
                },
                Failure::Status(429),
            ]
        );
        // job + submit + two polls, for the one traced job.
        assert_eq!(tally.spans.spans().len(), 4);
        assert!(tally.spans.spans().iter().all(|s| s.request == 10));
    }
}
