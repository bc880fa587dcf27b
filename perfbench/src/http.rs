//! Loopback client for the served workloads: one HTTP/1.1 exchange per
//! connection (as `statvs serve` speaks it), with each round trip and each
//! JSON parse recorded as its own span.

use crate::trace::Tracer;
use statvs::serve::json::Json;
use statvs::serve::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a request did not produce a finished run.
#[derive(Debug)]
pub enum RequestError {
    /// The server answered 503: queue full.
    Rejected,
    /// Any other non-2xx status.
    Status(u16),
    /// Connect, read or write failure, or an unparsable response.
    Transport(String),
    /// The run itself failed on the server.
    RunFailed(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Rejected => write!(f, "rejected with 503"),
            RequestError::Status(code) => write!(f, "HTTP status {code}"),
            RequestError::Transport(why) => write!(f, "transport: {why}"),
            RequestError::RunFailed(why) => write!(f, "run failed: {why}"),
        }
    }
}

/// One request/response exchange; returns the status and body text.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), RequestError> {
    let io = |e: std::io::Error| RequestError::Transport(e.to_string());
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(io)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(io)?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8(raw).map_err(|_| transport("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| transport("response has no header end"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| transport("response has no status code"))?;
    Ok((status, body.to_string()))
}

fn transport(why: &str) -> RequestError {
    RequestError::Transport(why.into())
}

fn parse(tracer: &mut Tracer, text: &str) -> Result<Json, RequestError> {
    tracer
        .time("serve.json_parse", || Json::parse(text))
        .map_err(|e| RequestError::Transport(format!("bad JSON: {e}")))
}

/// A finished run as `GET /runs/{id}` returned it, and how many GETs it
/// took.
pub struct Finished {
    /// The `run` object.
    pub run: Json,
    /// GET requests made until the run was done.
    pub polls: u64,
}

/// POSTs an experiment, then polls `GET /runs/{id}` — first at once, then
/// every `poll` — until the run is done.
pub fn post_and_wait(
    addr: SocketAddr,
    body: &str,
    poll: Duration,
    tracer: &mut Tracer,
) -> Result<Finished, RequestError> {
    let (status, text) = tracer.time("serve.post", || {
        exchange(addr, "POST", "/experiments", body)
    })?;
    match status {
        202 => {}
        503 => return Err(RequestError::Rejected),
        code => return Err(RequestError::Status(code)),
    }
    let posted = parse(tracer, &text)?;
    let id = posted
        .get("run")
        .and_then(|r| r.get("id"))
        .and_then(Json::as_u64)
        .ok_or_else(|| transport("202 reply carries no run id"))?;
    let path = format!("/runs/{id}");
    let mut polls = 0;
    loop {
        polls += 1;
        let (status, text) = tracer.time("serve.get", || exchange(addr, "GET", &path, ""))?;
        if status != 200 {
            return Err(RequestError::Status(status));
        }
        let mut reply = parse(tracer, &text)?;
        let Json::Obj(members) = &mut reply else {
            return Err(transport("run reply is not an object"));
        };
        let run = members
            .iter_mut()
            .find(|(k, _)| k == "run")
            .map(|(_, v)| std::mem::replace(v, Json::Null))
            .ok_or_else(|| transport("run reply carries no run"))?;
        match run.get("status").and_then(Json::as_str) {
            Some("done") => return Ok(Finished { run, polls }),
            Some("failed") => {
                let why = run
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("no message");
                return Err(RequestError::RunFailed(why.into()));
            }
            _ => std::thread::sleep(poll),
        }
    }
}

/// Binds and starts an in-process server with the replay cache off,
/// recording the bind as `serve.boot`.
pub fn boot(workers: usize, tracer: &mut Tracer) -> Result<ServerHandle, String> {
    let cfg = ServerConfig {
        workers,
        artifact_dir: None,
        ..ServerConfig::default()
    };
    let server = tracer
        .time("serve.boot", || Server::bind(&cfg))
        .map_err(|e| format!("server boot: {e}"))?;
    Ok(server.start())
}

/// `runs` from `GET /healthz`: run records the server retains.
pub fn runs_retained(addr: SocketAddr) -> Result<f64, RequestError> {
    let (status, text) = exchange(addr, "GET", "/healthz", "")?;
    if status != 200 {
        return Err(RequestError::Status(status));
    }
    Json::parse(&text)
        .ok()
        .and_then(|j| j.get("runs").and_then(Json::as_f64))
        .ok_or_else(|| transport("healthz reply carries no run count"))
}
