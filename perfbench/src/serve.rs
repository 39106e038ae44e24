//! The server path: loggers and dashboards in a closed loop against an
//! in-process `tgi-server`.
//!
//! The server keeps its traces in memory. Every write the benchmark makes
//! stays inside its working directory, which may sit on a VM disk; there,
//! the two `fdatasync`s behind each stored ingest set the tail latency
//! and vary from run to run with the host's disk, which would hide the
//! server's own behaviour. The store's write path is measured in the
//! store-query set-up instead.
//!
//! Each of [`CONNECTIONS`] client threads owns one keep-alive connection
//! and [`NODES`]` / CONNECTIONS` nodes, and cycles over its nodes four
//! requests at a time: two 60-sample ingests, one energy query over the
//! node's last 15 minutes, and one evaluation. The loop is closed because
//! the real callers wait: a logger for its durable ack, a dashboard for
//! its answer.

use crate::gen::{ingest_body, MeterStream, Rng, Suite};
use crate::store_query::{meter_trace, BATCH};
use crate::trace::{layer, op, Ledger};
use crate::{stats, Metric, Mode, Tally, Timings};
use power_model::PowerTrace;
use serde::Value;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use tgi_core::{
    MeanKind, Measurement, Perf, PerfUnit, ReferenceSystem, Seconds, TgiEvaluator, Watts, Weighting,
};
use tgi_server::http::{read_request, Request, Response};
use tgi_server::{Client, Server, ServerConfig, ServerState};

/// Nodes with a stored trace.
pub const NODES: usize = 16;
/// Client threads, each with one keep-alive connection.
pub const CONNECTIONS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Samples per ingest: one minute of 1 Hz meter data.
const INGEST_SAMPLES: usize = 60;
/// Length of the energy query window, seconds.
const ENERGY_WINDOW_S: f64 = 900.0;
/// One `server.codec` probe per this many direct ingests.
const CODEC_EVERY: u64 = 16;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

const INGEST: usize = 0;
const ENERGY: usize = 1;
const EVALUATE: usize = 2;
const HTTP_SPANS: [&str; 3] = ["server.http_ingest", "server.http_energy", "server.http_evaluate"];
const HANDLE_SPANS: [&str; 3] =
    ["server.handle_ingest", "server.handle_energy", "server.handle_evaluate"];
const OP_SPANS: [&str; 3] = ["serve.ingest", "serve.energy", "serve.evaluate"];

const WEIGHTINGS: [(&str, Weighting); 4] = [
    ("arithmetic", Weighting::Arithmetic),
    ("time", Weighting::Time),
    ("energy", Weighting::Energy),
    ("power", Weighting::Power),
];
const MEANS: [(&str, MeanKind); 3] = [
    ("arithmetic", MeanKind::Arithmetic),
    ("geometric", MeanKind::Geometric),
    ("harmonic", MeanKind::Harmonic),
];

/// One node as its logger sees it: where its meter is, every sample the
/// server acknowledged (the oracle), and the suites its dashboard scores.
struct Node {
    name: String,
    meter: MeterStream,
    oracle: PowerTrace,
    suites: Rng,
}

/// One request as sent, with what the answer must be.
struct Call {
    class: usize,
    method: &'static str,
    path: String,
    query: Vec<(String, String)>,
    body: String,
    expect: Expect,
}

enum Expect {
    Ingest { times: Vec<f64>, watts: Vec<f64> },
    Energy { energy_j: f64, average_w: f64, samples: usize },
    Evaluate { tgi: f64 },
}

/// One client thread's state across slices.
struct Conn {
    client: Option<Client>,
    nodes: Vec<Node>,
    step: u64,
    evals: u64,
    direct_ingests: u64,
    http: [Timings; 3],
    tally: Tally,
}

pub struct Serve {
    reference: ReferenceSystem,
    /// Each node's history as `POST /traces/{node}` bodies.
    history: Vec<(String, Vec<Vec<u8>>)>,
    server: Option<Server>,
    conns: Vec<Conn>,
    /// Requests per second of each untraced slice.
    slice_rates: Vec<f64>,
    served: u64,
    rejected: u64,
    pub tally: Tally,
}

fn number(body: &Value, key: &str) -> Option<f64> {
    body.get(key).and_then(Value::as_f64)
}

impl Conn {
    fn next_call(&mut self, evaluator: &TgiEvaluator<'_>) -> (usize, Call) {
        let node_index = (self.step / 4) as usize % self.nodes.len();
        let kind = self.step % 4;
        self.step += 1;
        let node = &mut self.nodes[node_index];
        let call = match kind {
            0 | 1 => {
                let (mut times, mut watts) = (Vec::new(), Vec::new());
                node.meter.fill(INGEST_SAMPLES, &mut times, &mut watts);
                Call {
                    class: INGEST,
                    method: "POST",
                    path: format!("/traces/{}", node.name),
                    query: Vec::new(),
                    body: ingest_body(&times, &watts),
                    expect: Expect::Ingest { times, watts },
                }
            }
            2 => {
                let (_, to) = node.oracle.time_bounds().expect("node has samples");
                let from = to - ENERGY_WINDOW_S;
                Call {
                    class: ENERGY,
                    method: "GET",
                    path: format!("/traces/{}/energy", node.name),
                    query: vec![
                        ("from".into(), format!("{from:?}")),
                        ("to".into(), format!("{to:?}")),
                    ],
                    body: String::new(),
                    expect: Expect::Energy {
                        energy_j: node.oracle.energy_between(from, to).value(),
                        average_w: node.oracle.average_power_between(from, to).value(),
                        samples: node.oracle.len(),
                    },
                }
            }
            _ => {
                let suite = Suite::random(&mut node.suites);
                let combo = (self.evals % 12) as usize;
                self.evals += 1;
                let (wname, weighting) = &WEIGHTINGS[combo / MEANS.len()];
                let (mname, mean) = MEANS[combo % MEANS.len()];
                let measurements: Vec<Measurement> = suite
                    .entries
                    .iter()
                    .map(|&(id, perf, watts, seconds)| {
                        let perf = if id == "hpl" {
                            Perf::new(perf * 1e9, PerfUnit::Flops)
                        } else {
                            Perf::new(perf, PerfUnit::BytesPerSecond)
                        };
                        Measurement::new(
                            id,
                            perf.expect("generated perf is positive"),
                            Watts::try_new(watts).expect("generated watts are positive"),
                            Seconds::try_new(seconds).expect("generated seconds are positive"),
                        )
                        .expect("generated measurement is valid")
                    })
                    .collect();
                let tgi = evaluator
                    .evaluate(&measurements, weighting, mean)
                    .expect("generated suite evaluates");
                Call {
                    class: EVALUATE,
                    method: "POST",
                    path: "/evaluate".to_string(),
                    query: Vec::new(),
                    body: suite.evaluate_body(wname, mname),
                    expect: Expect::Evaluate { tgi },
                }
            }
        };
        (node_index, call)
    }

    /// Checks one answer and, for an acknowledged ingest, extends the
    /// node's oracle with the batch.
    fn check(&mut self, node: usize, call: Call, status: u16, body: &str) {
        let node = &mut self.nodes[node];
        let parsed: Option<Value> = serde_json::from_str(body).ok();
        let ok = status == 200
            && parsed.as_ref().is_some_and(|v| match &call.expect {
                Expect::Ingest { times, .. } => {
                    number(v, "appended") == Some(times.len() as f64)
                        && number(v, "samples") == Some((node.oracle.len() + times.len()) as f64)
                }
                Expect::Energy { energy_j, average_w, samples } => {
                    number(v, "energy_j").map(f64::to_bits) == Some(energy_j.to_bits())
                        && number(v, "average_w").map(f64::to_bits) == Some(average_w.to_bits())
                        && number(v, "samples") == Some(*samples as f64)
                }
                Expect::Evaluate { tgi } => {
                    number(v, "tgi").map(f64::to_bits) == Some(tgi.to_bits())
                }
            });
        if let (200, Expect::Ingest { times, watts }) = (status, &call.expect) {
            node.oracle.extend_from_slices(times, watts);
        }
        self.tally.check(ok, || {
            format!(
                "{} {}: status {status}, body {}",
                call.method,
                call.path,
                body.chars().take(200).collect::<String>()
            )
        });
    }

    fn run(
        &mut self,
        until: Instant,
        mode: Mode,
        addr: &str,
        state: &ServerState,
        reference: &ReferenceSystem,
    ) -> u64 {
        let evaluator = TgiEvaluator::new(reference);
        let mut requests = 0;
        while Instant::now() < until {
            let (node, call) = self.next_call(&evaluator);
            let class = call.class;
            let (status, body) = if mode == Mode::Direct {
                let request = Request {
                    method: call.method.to_string(),
                    path: call.path.clone(),
                    query: call.query.clone(),
                    headers: Vec::new(),
                    body: call.body.clone().into_bytes(),
                };
                let response = {
                    let _op = op(OP_SPANS[class]);
                    let _s = layer(HANDLE_SPANS[class]);
                    state.handle(&request)
                };
                if class == INGEST {
                    self.direct_ingests += 1;
                    if self.direct_ingests.is_multiple_of(CODEC_EVERY) {
                        self.probe_codec(&call, state.max_body_bytes());
                    }
                }
                (response.status, response.body)
            } else {
                let target = if call.query.is_empty() {
                    call.path.clone()
                } else {
                    let q: Vec<String> =
                        call.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    format!("{}?{}", call.path, q.join("&"))
                };
                if self.client.is_none() {
                    match Client::connect(addr, CLIENT_TIMEOUT) {
                        Ok(client) => self.client = Some(client),
                        Err(e) => {
                            self.check(node, call, 0, &format!("connect failed: {e}"));
                            continue;
                        }
                    }
                }
                let client = self.client.as_mut().expect("connected above");
                let start = Instant::now();
                let result = {
                    let _op = op(OP_SPANS[class]);
                    let _s = layer(HTTP_SPANS[class]);
                    client.request(call.method, &target, &call.body)
                };
                let secs = start.elapsed().as_secs_f64();
                match result {
                    Ok(r) => {
                        self.http[class].push(mode == Mode::Traced, secs);
                        requests += 1;
                        (r.status, r.body)
                    }
                    Err(e) => {
                        self.client = None;
                        (0, format!("transport error: {e}"))
                    }
                }
            };
            self.check(node, call, status, &body);
        }
        requests
    }

    /// Parses an ingest's raw bytes and writes a reply, the codec work a
    /// worker does around each request.
    fn probe_codec(&mut self, call: &Call, max_body: usize) {
        let raw = format!(
            "{} {} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{}",
            call.method,
            call.path,
            call.body.len(),
            call.body
        );
        let mut out = Vec::with_capacity(256);
        let parsed = {
            let _s = layer("server.codec");
            let parsed = read_request(&mut raw.as_bytes(), max_body);
            Response::json(200, "{\"appended\":60}".to_string())
                .write_to(&mut out)
                .expect("writing to memory succeeds");
            parsed
        };
        self.tally.check(parsed.is_ok_and(|r| r.body == call.body.as_bytes()), || {
            "codec probe did not round-trip an ingest request".to_string()
        });
    }
}

impl Serve {
    /// Generates each node's history and its ingest bodies (not timed).
    pub fn new(seed: u64, samples_per_node: usize) -> Self {
        let per_conn = NODES / CONNECTIONS;
        let mut history = Vec::with_capacity(NODES);
        let conns = (0..CONNECTIONS)
            .map(|c| Conn {
                client: None,
                nodes: (0..per_conn)
                    .map(|i| {
                        let n = c * per_conn + i;
                        let (oracle, meter) = meter_trace(seed, 100 + n as u64, samples_per_node);
                        let name = format!("node{n:02}");
                        let bodies = oracle
                            .times()
                            .chunks(BATCH)
                            .zip(oracle.watts().chunks(BATCH))
                            .map(|(t, w)| ingest_body(t, w).into_bytes())
                            .collect();
                        history.push((format!("/traces/{name}"), bodies));
                        Node { name, meter, oracle, suites: Rng::new(seed, 200 + n as u64) }
                    })
                    .collect(),
                step: 0,
                evals: 0,
                direct_ingests: 0,
                http: Default::default(),
                tally: Tally::default(),
            })
            .collect();
        Serve {
            reference: tgi_harness::system_g_reference(),
            history,
            server: None,
            conns,
            slice_rates: Vec::new(),
            served: 0,
            rejected: 0,
            tally: Tally::default(),
        }
    }

    /// Stops the server (not timed).
    pub fn teardown(&mut self) {
        for conn in &mut self.conns {
            conn.client = None;
        }
        if let Some(mut server) = self.server.take() {
            server.shutdown();
            self.served += server.stats().served.load(Ordering::Relaxed);
            self.rejected += server.stats().rejected.load(Ordering::Relaxed);
        }
    }

    /// Starts the server and loads every node's history through its
    /// ingest handler.
    pub fn setup(&mut self, reference: &ReferenceSystem) {
        let config = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
        self.reference = reference.clone();
        let server = Server::start(config, reference.clone()).expect("server starts");
        for (path, bodies) in &self.history {
            for body in bodies {
                let response = server.state().handle(&Request {
                    method: "POST".into(),
                    path: path.clone(),
                    query: Vec::new(),
                    headers: Vec::new(),
                    body: body.clone(),
                });
                self.tally.check(response.status == 200, || {
                    format!("loading history into {path}: status {}", response.status)
                });
            }
        }
        self.server = Some(server);
    }

    /// Runs the closed loop until `until`.
    pub fn run_slice(&mut self, until: Instant, mode: Mode) {
        let server = self.server.as_ref().expect("set up before running");
        let addr = server.addr().to_string();
        let state = server.state();
        let reference = &self.reference;
        let start = Instant::now();
        let requests: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| s.spawn(|| conn.run(until, mode, &addr, state, reference)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).sum()
        });
        if mode == Mode::Untraced {
            self.slice_rates.push(requests as f64 / start.elapsed().as_secs_f64());
        }
    }

    /// Checks every node's final sample count against what was acked,
    /// then stops the server.
    pub fn finish(&mut self) {
        if let Some(server) = &self.server {
            let response = server.state().handle(&Request {
                method: "GET".into(),
                path: "/traces".into(),
                query: Vec::new(),
                headers: Vec::new(),
                body: Vec::new(),
            });
            let listed: Option<Value> = serde_json::from_str(&response.body).ok();
            for node in self.conns.iter().flat_map(|c| &c.nodes) {
                let count = listed.as_ref().and_then(|v| {
                    v.get("nodes")?.as_array()?.iter().find_map(|n| {
                        (n.get("node")?.as_str()? == node.name).then(|| number(n, "samples"))?
                    })
                });
                self.tally.check(count == Some(node.oracle.len() as f64), || {
                    format!(
                        "{} holds {count:?} samples, {} were acked",
                        node.name,
                        node.oracle.len()
                    )
                });
            }
        }
        self.teardown();
        self.tally.check(self.rejected == 0, || format!("{} connections refused", self.rejected));
        for conn in &mut self.conns {
            self.tally.absorb(std::mem::take(&mut conn.tally));
        }
    }

    fn merged(&self, class: usize, traced: bool) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| if traced { &c.http[class].traced } else { &c.http[class].untraced })
            .copied()
            .collect()
    }

    pub fn end_to_end(&mut self, out: &mut Vec<Metric>) {
        // The median slice, so one slice the host stalled cannot move it.
        out.push(Metric::median("req_per_s", &mut self.slice_rates, "1/s"));
        for (name, class) in
            [("ingest_p50_ms", INGEST), ("energy_p50_ms", ENERGY), ("evaluate_p50_ms", EVALUATE)]
        {
            out.push(Metric::quantile_ms(name, &mut self.merged(class, false), 50.0));
        }
        let mut all: Vec<f64> = (0..OP_SPANS.len()).flat_map(|c| self.merged(c, false)).collect();
        out.push(Metric::quantile_ms("req_p90_ms", &mut all, 90.0));
    }

    pub fn per_layer(&mut self, ledger: &Ledger, out: &mut Vec<Metric>) {
        for class in 0..OP_SPANS.len() {
            let handle = Metric::span_median(
                ["server.handle_ingest_ms", "server.handle_energy_ms", "server.handle_evaluate_ms"]
                    [class],
                ledger,
                HANDLE_SPANS[class],
                1e3,
                "ms",
            );
            let http = stats::median(&mut ledger.durations(HTTP_SPANS[class]).to_vec())
                .unwrap_or(f64::NAN)
                * 1e3;
            out.push(Metric {
                name: [
                    "server.transport_ingest_ms",
                    "server.transport_energy_ms",
                    "server.transport_evaluate_ms",
                ][class],
                value: http - handle.value,
                unit: "ms",
                samples: ledger.durations(HTTP_SPANS[class]).len(),
            });
            out.push(handle);
        }
        out.push(Metric::span_median("server.codec_us", ledger, "server.codec", 1e6, "us"));
        let mut all: Vec<f64> = (0..OP_SPANS.len()).flat_map(|c| self.merged(c, false)).collect();
        out.push(Metric::quantile_ms("server.p99_ms", &mut all, 99.0));
        out.push(Metric::count("server.served", self.served as f64, 1));
        out.push(Metric::count("server.rejected", self.rejected as f64, 1));
    }

    /// Traced and untraced HTTP timings per class, for the overhead ratio.
    pub fn timings(&self) -> Vec<Timings> {
        (0..OP_SPANS.len())
            .map(|c| Timings { untraced: self.merged(c, false), traced: self.merged(c, true) })
            .collect()
    }
}
