//! Served ops: an in-process `tm3270d` server on loopback, driven by
//! `Client` connections, one whole session per op.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::thread::JoinHandle;

use tm3270_core::MachineConfig;
use tm3270_harness::{SweepReport, SweepTelemetry};
use tm3270_obs::json;
use tm3270_session::{wire, Client, ServeReport, Server, ServerConfig, ShutdownHandle};

use crate::sim;
use crate::trace::{OpRecord, OpTrace};

/// The configuration every served session runs on.
pub const CONFIG: &str = "d";

/// What the server must answer for one kernel: the in-process run's
/// `stats` object and suite `cell`.
#[derive(Debug, Clone)]
pub struct Reference {
    stats: String,
    cell: String,
    instrs: u64,
    /// Simulated cycles to halt.
    pub cycles: u64,
}

/// In-process reference runs of `kernels` on config D.
pub fn references(kernels: &[usize]) -> Result<BTreeMap<&'static str, Reference>, String> {
    let config = MachineConfig::config_d();
    let mut refs = BTreeMap::new();
    for &k in kernels {
        let out = sim::direct_op(k, &config, &mut OpTrace::begin(false))?;
        refs.insert(
            out.kernel,
            Reference {
                stats: wire::stats_json(&out.stats),
                cell: wire::cell_json(out.kernel, config.name, &out.stats),
                instrs: out.stats.instrs,
                cycles: out.stats.cycles,
            },
        );
    }
    Ok(refs)
}

/// A running server and its serving thread.
#[derive(Debug)]
pub struct Served {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ServeReport>>,
    telemetry: Option<SweepTelemetry>,
    /// Worker threads owning sessions.
    pub workers: usize,
}

impl Served {
    /// Binds a loopback server with `workers` workers (telemetry
    /// attached when `observe`) and starts serving.
    pub fn start(workers: usize, observe: bool) -> Result<Served, String> {
        let telemetry = observe.then(SweepTelemetry::new);
        let mut config = ServerConfig::new().workers(workers);
        if let Some(tel) = &telemetry {
            config = config.observe(tel);
        }
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Served {
            addr,
            handle,
            thread,
            telemetry,
            workers,
        })
    }

    /// Opens one client connection.
    pub fn connect(&self, capture: usize) -> Result<Conn, String> {
        Ok(Conn {
            client: Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?,
            next_id: 1,
            created: 0,
            bytes: 0,
            capture,
            payloads: Vec::new(),
        })
    }

    /// Shuts the server down and checks that `ServeReport.sessions`
    /// equals the sessions the clients created. Returns the server's
    /// telemetry report when one was attached.
    pub fn stop(self, created: u64) -> Result<Option<SweepReport>, String> {
        self.handle.shutdown();
        let report = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))?;
        if report.sessions != created {
            return Err(format!(
                "server reports {} sessions, clients created {created}",
                report.sessions
            ));
        }
        Ok(self.telemetry.map(|t| t.report()))
    }
}

/// One client connection and its byte and capture bookkeeping.
#[derive(Debug)]
pub struct Conn {
    client: Client,
    next_id: u64,
    /// Sessions this connection created.
    pub created: u64,
    /// Frame bytes moved both ways, headers included.
    pub bytes: u64,
    capture: usize,
    /// Captured request payloads.
    pub payloads: Vec<String>,
}

/// Length of a frame header (magic, version, payload length).
const FRAME_HEADER: u64 = 12;

impl Conn {
    /// One request through `Client::request`, inside span `span`. The
    /// body is built and freed inside the span too: for a restore it is
    /// a multi-megabyte string.
    fn call(
        &mut self,
        t: &mut OpTrace,
        span: &'static str,
        body: impl FnOnce() -> String,
    ) -> Result<String, String> {
        let id = self.next_id;
        self.next_id += 1;
        let capture = self.capture > 0 && t.enabled();
        let (sent, payload, reply) = t.span(span, || {
            let body = body();
            let reply = self.client.request(&body);
            // The client frames `body` as {"id":N,<body>}.
            let payload = capture.then(|| format!("{{\"id\":{id},{body}}}"));
            (body.len() + id.to_string().len() + 8, payload, reply)
        });
        let reply = reply.map_err(|e| format!("{span}: {e}"))?;
        self.bytes += 2 * FRAME_HEADER + (sent + reply.len()) as u64;
        if let Some(payload) = payload {
            self.capture -= 1;
            self.payloads.push(payload);
        }
        Ok(reply)
    }

    fn create(&mut self, t: &mut OpTrace) -> Result<u64, String> {
        let body = || format!("\"op\":\"create\",\"config\":{}", json::string(CONFIG));
        let reply = self.call(t, "session.create", body)?;
        self.created += 1;
        json::u64_field(&reply, "session").ok_or_else(|| "create reply without session".into())
    }

    fn load(&mut self, t: &mut OpTrace, sid: u64, kernel: &str) -> Result<u64, String> {
        let body = || {
            format!(
                "\"op\":\"load\",\"session\":{sid},\"workload\":{}",
                json::string(kernel)
            )
        };
        let reply = self.call(t, "session.load", body)?;
        json::u64_field(&reply, "budget").ok_or_else(|| "load reply without budget".into())
    }

    /// Runs for `budget` cycles; returns the reply, its slice count and
    /// the client-side latency.
    fn run(&mut self, t: &mut OpTrace, sid: u64, budget: u64) -> Result<Run, String> {
        let body = || format!("\"op\":\"run\",\"session\":{sid},\"budget\":{budget}");
        let start = std::time::Instant::now();
        let reply = self.call(t, "session.run", body)?;
        let ns = start.elapsed().as_nanos() as u64;
        let slices = json::u64_field(&reply, "slices").ok_or("run reply without slices")?;
        Ok(Run {
            halted: reply.contains("\"halted\":true"),
            reply,
            slices,
            ns,
            span: t.last("session.run"),
            sid,
        })
    }

    fn simple(
        &mut self,
        t: &mut OpTrace,
        span: &'static str,
        op: &str,
        sid: u64,
    ) -> Result<String, String> {
        self.call(t, span, || format!("\"op\":\"{op}\",\"session\":{sid}"))
    }
}

/// One served run request.
#[derive(Debug)]
struct Run {
    halted: bool,
    reply: String,
    slices: u64,
    ns: u64,
    span: Option<usize>,
    sid: u64,
}

/// The `stats` and `cell` objects of a halted run's reply, which ends
/// `"stats":{..},"cell":{..}}`.
fn stats_and_cell(reply: &str) -> Option<(&str, &str)> {
    let s = reply.find(",\"stats\":")? + ",\"stats\":".len();
    let c = reply.find(",\"cell\":")?;
    let cell = reply.get(c + ",\"cell\":".len()..reply.len() - 1)?;
    Some((reply.get(s..c)?, cell))
}

/// The served run must halt with the in-process run's exact stats and
/// cell.
fn check_final(run: &Run, kernel: &str, reference: &Reference) -> Result<(), String> {
    if !run.halted {
        return Err(format!("{kernel}: run did not halt"));
    }
    let (stats, cell) = stats_and_cell(&run.reply)
        .ok_or_else(|| format!("{kernel}: run reply without stats/cell"))?;
    if stats != reference.stats {
        return Err(format!(
            "{kernel}: served stats {stats} != in-process {}",
            reference.stats
        ));
    }
    if cell != reference.cell {
        return Err(format!(
            "{kernel}: served cell {cell} != in-process {}",
            reference.cell
        ));
    }
    Ok(())
}

/// What one served op measured.
#[derive(Debug, Default)]
pub struct ServeOut {
    /// Client-side latency of the op's run requests.
    pub run_ns: u64,
    /// Simulated instructions the op's runs executed.
    pub instrs: u64,
    /// Slice counts of the op's run requests.
    pub slices: Vec<u64>,
    /// `(span index, session id)` of each traced run, for attaching the
    /// server-side run time once the server's telemetry is read.
    pub runs: Vec<(usize, u64)>,
}

impl ServeOut {
    fn add(&mut self, run: &Run) {
        self.run_ns += run.ns;
        self.slices.push(run.slices);
        if let Some(span) = run.span {
            self.runs.push((span, run.sid));
        }
    }
}

/// One whole session: create → load → run to halt → verify → close.
pub fn session_op(
    conn: &mut Conn,
    kernel: &str,
    reference: &Reference,
    t: &mut OpTrace,
) -> Result<ServeOut, String> {
    let sid = conn.create(t)?;
    let budget = conn.load(t, sid, kernel)?;
    let run = conn.run(t, sid, budget)?;
    t.span("bench.check", || check_final(&run, kernel, reference))?;
    conn.simple(t, "session.verify", "verify", sid)?;
    conn.simple(t, "session.close", "close", sid)?;
    let mut out = ServeOut {
        instrs: reference.instrs,
        ..ServeOut::default()
    };
    out.add(&run);
    Ok(out)
}

/// One checkpointed session: run to cycle `cut` → `snapshot` → restore
/// into a second session → run to halt → verify → close both. The
/// restored run must end with the uninterrupted run's stats.
pub fn checkpoint_op(
    conn: &mut Conn,
    kernel: &str,
    cut: u64,
    reference: &Reference,
    t: &mut OpTrace,
) -> Result<ServeOut, String> {
    let first = conn.create(t)?;
    let budget = conn.load(t, first, kernel)?;
    let partial = conn.run(t, first, cut)?;
    if partial.halted {
        return Err(format!(
            "{kernel}: halted before the checkpoint at cycle {cut}"
        ));
    }
    let reply = conn.simple(t, "session.snapshot", "snapshot", first)?;
    let hex = t
        .span("bench.check", || json::string_field(&reply, "snapshot"))
        .ok_or("snapshot reply without payload")?;
    t.span("bench.check", || drop(reply));
    let second = conn.create(t)?;
    conn.load(t, second, kernel)?;
    conn.call(t, "session.restore", || {
        format!("\"op\":\"restore\",\"session\":{second},\"snapshot\":\"{hex}\"")
    })?;
    t.span("bench.check", || drop(hex));
    let run = conn.run(t, second, budget)?;
    t.span("bench.check", || check_final(&run, kernel, reference))?;
    conn.simple(t, "session.verify", "verify", second)?;
    conn.simple(t, "session.close", "close", first)?;
    conn.simple(t, "session.close", "close", second)?;
    let mut out = ServeOut {
        instrs: reference.instrs,
        ..ServeOut::default()
    };
    out.add(&partial);
    out.add(&run);
    Ok(out)
}

/// Attaches each traced run's server-side wall time (from the server's
/// telemetry, keyed by session id) as a `server.run` child of its
/// `session.run` span.
/// The server stamps its wall time on another thread after queueing the
/// reply, so it may exceed the client's latency by that skew; it is
/// clipped to the client span.
pub fn attach_server_runs(op: &mut OpRecord, runs: &[(usize, u64)], server_us: &HashMap<u64, u64>) {
    for &(span, sid) in runs {
        if let Some(&us) = server_us.get(&sid) {
            let ns = (us * 1_000).min(op.spans[span].ns());
            op.add_child(span, "server.run", ns);
        }
    }
}

/// Server-side run wall time per session id. Each session here runs
/// exactly once, so its id keys one sample.
pub fn server_run_us(report: &SweepReport) -> HashMap<u64, u64> {
    report
        .jobs
        .iter()
        .map(|j| (j.id as u64, j.wall_us))
        .collect()
}
