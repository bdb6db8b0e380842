//! `http_install`: a closed loop over keep-alive loopback connections to
//! an in-process `ApiServer::start_journaled` (default `ServerConfig`,
//! telemetry on, a `DirBackend` journal).
//!
//! Each connection is one session that owns its homes and waits for
//! every reply before it sends the next request. Its seeded loop installs
//! a corpus app (confirming a dirty report), reads a home about one
//! request in four, and uninstalls when a home is full, so the run stays
//! stationary.
//!
//! The client does not cause the stall it measures: it sets
//! `TCP_NODELAY`, writes each request with one `write_all`, keeps the
//! connection alive and frames every response by its `content-length`.

use crate::util::{median, num, open_journal, percentile, rng, Budget, Scratch, Tracer};
use crate::PathOut;
use hg_api::{ApiServer, ServerConfig};
use hg_bench::fleet_gen::GenRng;
use hg_rules::json::Json;
use hg_service::{Fleet, Journal, RuleStore};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Homes each session owns.
const HOMES_PER_SESSION: usize = 6;
/// Apps a home holds before the loop uninstalls one.
const CAP: usize = 4;
/// Corpus apps the sessions install from.
const PALETTE: usize = 12;

/// The corpus apps the sessions install.
pub fn apps() -> Vec<(&'static str, &'static str)> {
    hg_corpus::device_control_apps()
        .iter()
        .take(PALETTE)
        .map(|app| (app.name, app.source))
        .collect()
}

/// One keep-alive client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    token: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            token: String::new(),
        })
    }

    /// Sends one request in a single write and reads its response.
    fn call(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Json), String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\nx-session: {}\r\n\
             content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            self.token,
            body.len()
        );
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("{method} {path}: write: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("{method} {path}: read: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{method} {path}: bad status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("{method} {path}: read: {e}"))?;
            if line == "\r\n" || line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| "bad content-length")?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("{method} {path}: body: {e}"))?;
        let text = String::from_utf8_lossy(&body);
        let json = if text.is_empty() {
            Json::Null
        } else {
            Json::parse(&text).map_err(|e| format!("{method} {path}: body json: {e:?}"))?
        };
        Ok((status, json))
    }

    /// A call that must answer `want`.
    fn expect(&mut self, want: u16, method: &str, path: &str, body: &str) -> Result<Json, String> {
        let (status, json) = self.call(method, path, body)?;
        if status == want {
            Ok(json)
        } else {
            Err(format!(
                "{method} {path}: status {status}, expected {want}: {}",
                json.to_text()
            ))
        }
    }
}

/// One session: its connection, its homes and the generator's model of
/// each home's apps.
struct Session {
    conn: Conn,
    homes: Vec<(u64, BTreeSet<&'static str>)>,
    rng: GenRng,
}

pub struct Served {
    server: Option<ApiServer>,
    sessions: Vec<Session>,
    apps: Vec<(&'static str, &'static str)>,
}

impl Drop for Served {
    fn drop(&mut self) {
        // Close the client side first so the server's keep-alive workers
        // see end-of-stream and the shutdown joins them at once.
        self.sessions.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Served {
    fn server(&self) -> &ApiServer {
        self.server.as_ref().expect("server runs until drop")
    }

    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.server().state().journal()
    }

    pub fn fleet(&self) -> Arc<Fleet> {
        self.server().state().exec().fleet().clone()
    }
}

/// Starts the server and opens one session per client connection, each
/// owning `HOMES_PER_SESSION` homes created over the wire.
pub fn setup(seed: u64, scratch: &Scratch, tracer: &mut Tracer) -> Result<Served, String> {
    let dir = scratch.fresh_dir("http");
    let journal = Arc::new(open_journal(&dir)?);
    let fleet = Arc::new(Fleet::new(RuleStore::shared()));
    let server = ApiServer::start_journaled(fleet, ServerConfig::default(), journal)
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let mut served = Served {
        server: Some(server),
        sessions: Vec::new(),
        apps: apps(),
    };
    for index in 0..crate::util::clients() {
        let mut conn = Conn::open(addr)?;
        let created = tracer.span("api.request", |_| conn.expect(201, "POST", "/sessions", ""))?;
        conn.token = created
            .get("token")
            .and_then(Json::as_str)
            .ok_or("session without token")?
            .to_string();
        let mut homes = Vec::new();
        for _ in 0..HOMES_PER_SESSION {
            let home = tracer.span("api.request", |_| conn.expect(201, "POST", "/homes", ""))?;
            let id = home
                .get("home")
                .and_then(Json::as_num)
                .ok_or("no home id")?;
            homes.push((id as u64, BTreeSet::new()));
        }
        served.sessions.push(Session {
            conn,
            homes,
            rng: rng(seed, 100 + index as u64),
        });
    }
    Ok(served)
}

/// Per-operation latencies one session recorded.
#[derive(Default)]
struct Latencies {
    install: Vec<f64>,
    confirm: Vec<f64>,
    read: Vec<f64>,
    uninstall: Vec<f64>,
    requests: u64,
    failed: u64,
}

fn app_list(json: &Json) -> BTreeSet<String> {
    json.get("apps")
        .and_then(Json::as_arr)
        .map(|apps| {
            apps.iter()
                .filter_map(|a| a.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

fn timed(
    lat: &mut Vec<f64>,
    conn: &mut Conn,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Json, String> {
    let started = Instant::now();
    let out = conn.expect(200, method, path, body);
    lat.push(started.elapsed().as_secs_f64() * 1e3);
    out
}

/// The session's closed loop.
fn run_session(
    session: &mut Session,
    apps: &[(&'static str, &'static str)],
    budget: Budget,
    lat: &mut Latencies,
) -> Result<(), String> {
    let started = Instant::now();
    let mut ops = 0;
    while budget.more(started, ops) {
        ops += 1;
        let h = session.rng.range(0, session.homes.len());
        let read = session.rng.chance(25);
        let (id, model) = &mut session.homes[h];
        let path = format!("/homes/{id}");
        lat.requests += 1;
        if read {
            let json = timed(&mut lat.read, &mut session.conn, "GET", &path, "")?;
            let want: BTreeSet<String> = model.iter().map(|a| a.to_string()).collect();
            if app_list(&json) != want {
                return Err(format!(
                    "home {id} reads {:?}, model {want:?}",
                    app_list(&json)
                ));
            }
        } else if model.len() >= CAP {
            let victim = *model
                .iter()
                .nth(session.rng.range(0, model.len()))
                .expect("full");
            let body = Json::obj([("app", Json::str(victim))]).to_text();
            timed(
                &mut lat.uninstall,
                &mut session.conn,
                "POST",
                &format!("{path}/uninstall"),
                &body,
            )?;
            model.remove(victim);
        } else {
            let free: Vec<&(&str, &str)> =
                apps.iter().filter(|(n, _)| !model.contains(n)).collect();
            let (name, source) = *free[session.rng.range(0, free.len())];
            let body = Json::obj([("source", Json::str(source)), ("name", Json::str(name))]);
            let report = timed(
                &mut lat.install,
                &mut session.conn,
                "POST",
                &format!("{path}/install"),
                &body.to_text(),
            )?;
            if report.get("installed") == Some(&Json::Bool(false)) {
                lat.requests += 1;
                let body = Json::obj([("app", Json::str(name))]).to_text();
                let confirmed = timed(
                    &mut lat.confirm,
                    &mut session.conn,
                    "POST",
                    &format!("{path}/confirm"),
                    &body,
                )?;
                if confirmed.get("installed") != Some(&Json::Bool(true)) {
                    return Err(format!("confirm of {name} on {id} did not install"));
                }
            }
            model.insert(name);
        }
    }
    Ok(())
}

pub fn measure(served: &mut Served, budget: Budget, tracer: &mut Tracer) -> PathOut {
    let mut out = PathOut::default();
    let journal_before = served.journal().map(|j| j.stats_json());
    let cache_before = served.fleet().store().verdict_cache().stats();
    let apps = served.apps.clone();
    let started = Instant::now();
    let results: Vec<(Latencies, Result<(), String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .sessions
            .iter_mut()
            .map(|session| {
                let apps = &apps;
                scope.spawn(move || {
                    let mut lat = Latencies::default();
                    let result = run_session(session, apps, budget, &mut lat);
                    (lat, result)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut all = Latencies::default();
    for (lat, result) in results {
        if let Err(why) = result {
            out.wrong.push(why);
            all.failed += 1;
        }
        all.install.extend(lat.install);
        all.confirm.extend(lat.confirm);
        all.read.extend(lat.read);
        all.uninstall.extend(lat.uninstall);
        all.requests += lat.requests;
    }
    out.attempted = all.requests;
    out.failed = all.failed;
    out.ops = all.requests;
    out.units = all.install.len();
    let rate = all.requests as f64 / elapsed;
    out.rates = vec![rate];
    out.latencies_ms = all.install.clone();
    out.aliases.put("http_ops_per_s", rate, "1/s");
    out.aliases
        .put("install_p50_ms", median(&all.install), "ms");
    out.aliases
        .put("install_p90_ms", percentile(&all.install, 90.0), "ms");
    out.aliases
        .put("install_samples", all.install.len() as f64, "count");
    out.aliases.put("read_p50_ms", median(&all.read), "ms");

    // The final state of every home must equal the generator's model.
    for session in &mut served.sessions {
        for (id, model) in &session.homes {
            match session.conn.expect(200, "GET", &format!("/homes/{id}"), "") {
                Ok(json) => {
                    let want: BTreeSet<String> = model.iter().map(|a| a.to_string()).collect();
                    if app_list(&json) != want {
                        out.wrong
                            .push(format!("home {id} final apps differ from the model"));
                    }
                }
                Err(why) => out.wrong.push(why),
            }
        }
    }

    if let (Some(before), Some(journal)) = (journal_before, served.journal()) {
        let after = journal.stats_json();
        out.journal = (
            num(&after, "records") - num(&before, "records"),
            num(&after, "appendBytesSession") - num(&before, "appendBytesSession"),
            num(&after, "ioRetriesSession") - num(&before, "ioRetriesSession"),
        );
    }
    let cache = served.fleet().store().verdict_cache().stats();
    out.cache = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );

    if tracer.on() {
        let l = &mut out.layers;
        l.put("api.install_request_ms", median(&all.install), "ms");
        l.put("api.confirm_request_ms", median(&all.confirm), "ms");
        l.put("api.read_request_ms", median(&all.read), "ms");
        l.put("api.uninstall_request_ms", median(&all.uninstall), "ms");
        l.put("api.install_p90_ms", percentile(&all.install, 90.0), "ms");
        l.put("api.install_samples", all.install.len() as f64, "count");
        l.put(
            "api.setup_request_ms",
            median(&tracer.ms("api.request")),
            "ms",
        );
        let Some(session) = served.sessions.first_mut() else {
            return out;
        };
        match session.conn.expect(200, "GET", "/analytics/latency", "") {
            Ok(json) => {
                let server_us = json
                    .get("histograms")
                    .and_then(|h| h.get("install_micros"))
                    .map(|h| num(h, "p50") as f64)
                    .unwrap_or(0.0);
                l.put("api.server_install_us", server_us, "us");
                l.put("api.wire_ms", median(&all.install) - server_us / 1e3, "ms");
            }
            Err(why) => out.wrong.push(why),
        }
        match session.conn.expect(200, "GET", "/metrics", "") {
            Ok(json) => {
                let dropped = json
                    .get("gauges")
                    .map(|g| num(g, "bus_dropped_events"))
                    .unwrap_or(0);
                l.put("telemetry.dropped_events", dropped as f64, "count");
            }
            Err(why) => out.wrong.push(why),
        }
    }
    out
}
