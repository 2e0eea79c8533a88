//! The generator lanes: pace the schedule, execute each operation through
//! the public client types, and check every reply.
//!
//! A lane is one OS thread and strictly sequential.  In the open-loop
//! phase it sleeps until an operation is due and times it **from the due
//! instant**, so time spent queued behind a slow predecessor counts; in the
//! warm-up and the closed-loop phase it issues the next operation as soon
//! as the previous one completes.

use crate::building::{
    access_host, room_name, serial_of, store_key, template_of, user_name, value_bytes, Building,
    DeviceKind, User, STORE_NS, VALUE_BYTES,
};
use crate::schedule::{
    Action, Class, DeviceCmd, LaneGen, LoginMethod, Op, MEDIA_FRAME_BYTES, STORE_BATCH_VALUE_BYTES,
};
use crate::sink::SinkState;
use crate::trace::Tracer;
use ace_core::prelude::*;
use ace_core::protocol::{hex_decode, hex_encode};
use ace_directory::{ShardMap, ShardedAsdClient};
use ace_security::keys::KeyPair;
use ace_store::{ShardedStoreClient, StoreError, StorePlacement};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An operation that has not completed this long after it was due is a
/// failure, whatever happens later.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a user waits for the workspace before pressing again.
const SHOW_WAIT: Duration = Duration::from_millis(400);
/// Pause before re-pressing a finger the scanner bounced.
const REPRESS_PAUSE: Duration = Duration::from_millis(20);
const MAX_REPRESSES: u32 = 3;

/// Why an operation is not a verified completion.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// No answer, an error, or an answer too late: counted in `failed`.
    Failed(String),
    /// An answer, and not the right one: counted in `failed` and, on every
    /// workload, an output-check violation.
    Wrong(String),
}

/// Transport errors arrive as text through `?`; wrong answers are named
/// where they are found.
impl From<String> for Fault {
    fn from(why: String) -> Fault {
        Fault::Failed(why)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warm,
    Open,
    Closed,
}

/// One completed (or failed) operation as the lane saw it.  Times are
/// seconds since the run's epoch (the start of warm-up).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub phase: Phase,
    pub class: Class,
    pub kind: &'static str,
    pub room: u8,
    pub device: Option<DeviceKind>,
    pub due_s: f64,
    pub start_s: f64,
    pub end_s: f64,
    pub ok: bool,
}

impl Sample {
    /// Due → completion.  In the closed loop `due == start`.
    pub fn latency_us(&self) -> f64 {
        (self.end_s - self.due_s) * 1e6
    }
    /// Due → actually sent: queueing behind the lane's earlier operations
    /// plus the sleep overshoot.
    pub fn lateness_us(&self) -> f64 {
        (self.start_s - self.due_s) * 1e6
    }
}

/// What a lane needs from the building; all clones, so lanes hold no
/// reference into the structure the disturbance script mutates.
#[derive(Clone)]
pub struct LaneEnv {
    pub net: SimNet,
    pub admin: KeyPair,
    pub users: Arc<Vec<User>>,
    pub sink: Arc<SinkState>,
    pub shard_map: ShardMap,
    pub placement: StorePlacement,
    pub cache: Arc<ResolutionCache>,
    pub breaker: Arc<BreakerRegistry>,
    /// Registry all client-side counters of both lanes live in
    /// (`pool.*`, `link.*`, `resolve.*`, `breaker.*`).
    pub client_metrics: Arc<MetricsRegistry>,
    pub user_pools: Vec<Arc<LinkPool>>,
    pub media_addr: Addr,
    pub aud_addr: Addr,
    pub fiu: Vec<Addr>,
    pub ibutton: Vec<Addr>,
}

impl LaneEnv {
    pub fn of(building: &Building) -> LaneEnv {
        LaneEnv {
            net: building.env.net.clone(),
            admin: building.env.admin,
            users: Arc::clone(&building.users),
            sink: Arc::clone(&building.sink_state),
            shard_map: building.directory.map.clone(),
            placement: building.store.placement.clone(),
            cache: Arc::clone(&building.resolution_cache),
            breaker: Arc::clone(&building.breaker),
            client_metrics: Arc::clone(&building.client_metrics),
            user_pools: building.user_pools.clone(),
            media_addr: building.media.addr().clone(),
            aud_addr: building.env.addr_of("aud").expect("aud exists"),
            fiu: building
                .rooms
                .iter()
                .map(|r| r.fiu.addr().clone())
                .collect(),
            ibutton: building
                .rooms
                .iter()
                .map(|r| r.ibutton.addr().clone())
                .collect(),
        }
    }

    fn pool_for(&self, identity: KeyPair) -> Arc<LinkPool> {
        Arc::new(LinkPool::with_metrics(
            &self.net,
            "core",
            identity,
            &self.client_metrics,
        ))
    }
}

/// A roaming user's client-side state: their own link pool (primed at
/// set-up) and failover clients bound to the devices of the room they are
/// in.
struct Session {
    pool: Arc<LinkPool>,
    room: Option<u8>,
    devices: HashMap<DeviceKind, FailoverClient>,
}

/// The last acknowledged state of a store key, as its single writer knows
/// it.  A write whose outcome is unknown (it failed after it may have
/// reached a replica) leaves a second acceptable value until the next
/// acknowledged write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyState {
    pub version: u32,
    pub len: usize,
    pub maybe: Option<(u32, usize)>,
}

impl KeyState {
    const PRELOADED: KeyState = KeyState {
        version: 0,
        len: VALUE_BYTES,
        maybe: None,
    };

    pub fn accepts(&self, key: u32, data: &[u8]) -> bool {
        let is = |(version, len): (u32, usize)| data == value_bytes(key, version, len);
        is((self.version, self.len)) || self.maybe.is_some_and(is)
    }
}

/// Counters of one lane that end-of-run verification needs.
#[derive(Debug, Default, Clone)]
pub struct LaneTallies {
    pub accepted_presses: u64,
    pub represses: u64,
    pub denied_as_expected: u64,
    /// Fan-out answers that left out a device that is registered.
    pub partial_lookups: u64,
    /// Accepted presses after which the workspace never appeared.
    pub lost_chains: u64,
}

pub struct Lane {
    pub id: usize,
    env: LaneEnv,
    pub tracer: Tracer,
    /// Whether the open phase records spans.
    trace: bool,
    epoch: Instant,
    fiu: Vec<Option<ServiceClient>>,
    ibutton: Vec<Option<ServiceClient>>,
    sessions: HashMap<u32, Session>,
    /// The lane's directory client: what is in a room is looked up by the
    /// access point on behalf of whoever walks in.
    directory: ShardedAsdClient,
    intruders: HashMap<u32, Arc<LinkPool>>,
    store: Option<ShardedStoreClient>,
    media: Option<ServiceClient>,
    // What this lane has been told is true, for inline and final checks.
    pub last_room: HashMap<u32, u8>,
    pub device_last: HashMap<(DeviceKind, u8), DeviceCmd>,
    pub keys: HashMap<u32, KeyState>,
    pub pushed: Vec<u32>,
    pub tallies: LaneTallies,
    pub samples: Vec<Sample>,
    pub ledger: Ledger,
}

/// What went wrong in a lane: the first few messages of either sort, and
/// how many wrong answers there were in all.
#[derive(Debug, Default)]
pub struct Ledger {
    pub failures: Vec<String>,
    pub wrong: Vec<String>,
    pub wrong_total: u64,
}

impl Ledger {
    /// Messages of a sort a lane keeps.
    const KEPT: usize = 20;

    pub fn note(&mut self, op: u32, kind: &str, fault: &Fault) {
        let (list, why) = match fault {
            Fault::Failed(why) => (&mut self.failures, why),
            Fault::Wrong(why) => {
                self.wrong_total += 1;
                (&mut self.wrong, why)
            }
        };
        if list.len() < Ledger::KEPT {
            list.push(format!("op {op} {kind}: {why}"));
        }
    }
}

/// Outcome of executing one action.
struct Done {
    kind: &'static str,
    room: u8,
    device: Option<DeviceKind>,
    result: Result<(), Fault>,
}

impl Lane {
    pub fn new(id: usize, env: LaneEnv, trace: bool, epoch: Instant) -> Lane {
        let rooms = env.fiu.len();
        let directory = ShardedAsdClient::new(env.pool_for(env.admin), env.shard_map.clone());
        Lane {
            id,
            directory,
            env,
            tracer: Tracer::new(false, epoch),
            trace,
            epoch,
            fiu: (0..rooms).map(|_| None).collect(),
            ibutton: (0..rooms).map(|_| None).collect(),
            sessions: HashMap::new(),
            intruders: HashMap::new(),
            store: None,
            media: None,
            last_room: HashMap::new(),
            device_last: HashMap::new(),
            keys: HashMap::new(),
            pushed: Vec::new(),
            tallies: LaneTallies::default(),
            samples: Vec::new(),
            ledger: Ledger::default(),
        }
    }

    fn secs(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn record(&mut self, phase: Phase, op: &Op, due: Instant, start: Instant, done: Done) {
        let end = Instant::now();
        let timed_out = end.saturating_duration_since(due) > OP_TIMEOUT;
        let result = match done.result {
            Ok(()) if timed_out => Err(Fault::Failed(format!(
                "completed {:.0} ms after it was due",
                end.saturating_duration_since(due).as_secs_f64() * 1e3
            ))),
            other => other,
        };
        if let Err(fault) = &result {
            self.ledger.note(op.id, done.kind, fault);
        }
        self.tracer
            .root(op.id, done.kind, due, start, end, result.is_ok());
        self.samples.push(Sample {
            phase,
            class: op.action.class(),
            kind: done.kind,
            room: done.room,
            device: done.device,
            due_s: self.secs(due),
            start_s: self.secs(start),
            end_s: self.secs(end),
            ok: result.is_ok(),
        });
    }

    /// Warm-up: `ops` back to back, due times ignored, nothing measured.
    pub fn run_warm(&mut self, ops: &[Op]) {
        for op in ops {
            let start = Instant::now();
            let done = self.execute(op);
            self.record(Phase::Warm, op, start, start, done);
        }
    }

    /// Open loop: every operation of `ops` at its due time after `from`.
    /// The only phase that records spans.
    pub fn run_open(&mut self, ops: &[Op], from: Instant) {
        self.tracer.enabled = self.trace;
        for op in ops {
            let due = from + Duration::from_micros(op.due_us);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let start = Instant::now();
            let done = self.execute(op);
            self.record(Phase::Open, op, due, start, done);
        }
        self.tracer.enabled = false;
    }

    /// Closed loop: operations back to back until `until`; those started
    /// before `measure_from` are the lead-in and count as warm-up.
    pub fn run_closed(&mut self, gen: &mut LaneGen, measure_from: Instant, until: Instant) {
        loop {
            let start = Instant::now();
            if start >= until {
                return;
            }
            let phase = if start < measure_from {
                Phase::Warm
            } else {
                Phase::Closed
            };
            let op = gen.next_op();
            let done = self.execute(&op);
            self.record(phase, &op, start, start, done);
        }
    }

    fn execute(&mut self, op: &Op) -> Done {
        match &op.action {
            Action::Login { user, room, method } => Done {
                kind: match method {
                    LoginMethod::Finger => "login.finger",
                    LoginMethod::IButton => "login.ibutton",
                    LoginMethod::UnknownFinger => "login.unknown",
                },
                room: *room,
                device: None,
                result: self.login(op.id, *user, *room, *method),
            },
            Action::Device {
                user,
                room,
                kind,
                entered,
                cmd,
                check_status,
            } => Done {
                kind: if *entered {
                    "device.cold"
                } else {
                    "device.warm"
                },
                room: *room,
                device: Some(*kind),
                result: self.device(op.id, *user, *room, *kind, *cmd, *check_status),
            },
            Action::Intruder { user, room, kind } => Done {
                kind: "device.denied",
                room: *room,
                device: Some(*kind),
                result: self.intruder(op.id, *user, *room, *kind),
            },
            Action::Get { key } => Done {
                kind: "store.get",
                room: 0,
                device: None,
                result: self.get(op.id, *key),
            },
            Action::Put { key } => Done {
                kind: "store.put",
                room: 0,
                device: None,
                result: self.put(op.id, *key),
            },
            Action::PutMany { keys } => Done {
                kind: "store.put_many",
                room: 0,
                device: None,
                result: self.put_many(op.id, keys),
            },
            Action::MediaPush { seq } => Done {
                kind: "store.push",
                room: 0,
                device: None,
                result: self.push(op.id, *seq),
            },
        }
    }

    // -- login ---------------------------------------------------------------

    fn login(&mut self, op: u32, user: u32, room: u8, method: LoginMethod) -> Result<(), Fault> {
        let r = room as usize;
        let cmd = match method {
            LoginMethod::Finger => {
                CmdLine::new("press").arg("template", Value::Str(template_of(user as usize)))
            }
            LoginMethod::UnknownFinger => {
                CmdLine::new("press").arg("template", Value::Str(format!("fp_x{user:05}")))
            }
            LoginMethod::IButton => {
                CmdLine::new("touch").arg("serial", Value::Str(serial_of(user as usize)))
            }
        };
        let ap = access_host(r);
        for attempt in 0..=MAX_REPRESSES {
            let (slot, addr) = match method {
                LoginMethod::IButton => (&mut self.ibutton[r], &self.env.ibutton[r]),
                _ => (&mut self.fiu[r], &self.env.fiu[r]),
            };
            // The device interrupt, delivered from the access host itself.
            if slot.is_none() {
                let mut client = ServiceClient::connect(
                    &self.env.net,
                    &ap.as_str().into(),
                    addr.clone(),
                    &self.env.admin,
                )
                .map_err(|e| format!("connect {addr}: {e}"))?;
                client.set_timeout(OP_TIMEOUT);
                *slot = Some(client);
            }
            let token = self.tracer.begin();
            let reply = slot.as_mut().expect("connected above").call(&cmd);
            self.tracer.end(token, op, "identity.press");
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    *slot = None;
                    return Err(format!("press at {addr}: {e}").into());
                }
            };
            if method != LoginMethod::UnknownFinger && identified_in(&reply) {
                // Whoever the scanner named, the cascade is under way and a
                // workspace will come up for it.
                self.tallies.accepted_presses += 1;
            }
            match press_verdict(&reply, method, user)? {
                Pressed::Nobody if method == LoginMethod::UnknownFinger => return Ok(()),
                Pressed::Nobody => {
                    // The scanner (or the AUD behind it) bounced an enrolled
                    // finger: the user presses again.
                    self.tallies.represses += 1;
                    if attempt < MAX_REPRESSES {
                        std::thread::sleep(REPRESS_PAUSE);
                    }
                    continue;
                }
                Pressed::TheUser => {}
            }
            let token = self.tracer.begin();
            let shown = await_workspace(&self.env.sink, self.id, user, &ap);
            self.tracer.end(token, op, "notify.chain");
            if shown {
                self.last_room.insert(user, room);
                return Ok(());
            }
            // Identified, but the workspace never appeared (an event of the
            // cascade was lost): the user presses again.
            self.tallies.lost_chains += 1;
            self.tallies.represses += 1;
        }
        Err(Fault::Failed("workspace never shown".into()))
    }

    // -- devices -------------------------------------------------------------

    fn device(
        &mut self,
        op: u32,
        user: u32,
        room: u8,
        kind: DeviceKind,
        cmd: DeviceCmd,
        check_status: bool,
    ) -> Result<(), Fault> {
        let env = &self.env;
        let identity = env.users[user as usize].key;
        let session = self.sessions.entry(user).or_insert_with(|| Session {
            pool: Arc::clone(&env.user_pools[user as usize]),
            room: None,
            devices: HashMap::new(),
        });
        if session.room != Some(room) {
            // Walked into another room: hang up on the devices left behind
            // (the pool keeps their resumption tickets) and discover what
            // this room offers — a class+room query, so a fan-out over
            // every directory shard.
            if let Some(old) = session.room {
                for k in [DeviceKind::Camera, DeviceKind::Projector] {
                    session.pool.evict(&Building::device_addr(k, old as usize));
                }
            }
            session.devices.clear();
            // A directory replica that has just been respawned answers
            // class/room queries from whatever renewals have repaired so
            // far, i.e. incompletely; asking again rotates to its peers.
            let wanted =
                [DeviceKind::Camera, DeviceKind::Projector].map(|k| k.daemon_name(room as usize));
            let mut missing = None;
            for _ in 0..crate::building::REPLICATION {
                let token = self.tracer.begin();
                let found =
                    self.directory
                        .lookup(None, Some("Device"), Some(&room_name(room as usize)));
                self.tracer.end(token, op, "directory.lookup_fanout");
                let found = found.map_err(|e| format!("room lookup: {e}"))?;
                missing = wanted
                    .iter()
                    .find(|name| !found.iter().any(|e| &e.name == *name));
                if missing.is_none() {
                    break;
                }
                self.tallies.partial_lookups += 1;
            }
            if let Some(name) = missing {
                return Err(format!("directory does not list {name}").into());
            }
            session.room = Some(room);
        }
        let name = kind.daemon_name(room as usize);
        let fresh = !session.devices.contains_key(&kind);
        let client = session.devices.entry(kind).or_insert_with(|| {
            let replicas = env.shard_map.replicas_for(&name).to_vec();
            FailoverClient::bind(
                env.net.clone(),
                "core",
                identity,
                replicas[0].clone(),
                name.as_str(),
            )
            .with_directory_replicas(replicas)
            .with_pool(Arc::clone(&session.pool))
            .with_resolution_cache(Arc::clone(&env.cache))
            .with_breaker(Arc::clone(&env.breaker))
            .with_retry_window(OP_TIMEOUT)
            // The stock policy sleeps 50 ms before its first retry.  After a
            // device swap every user in the room pays that once, and in a
            // lane the sleeps of forty users queue up behind each other —
            // seconds of delay that independent users would never see.  A
            // 2 ms first retry keeps what the swap costs a user visible
            // without the generator multiplying it.
            .with_policy(
                RetryPolicy::new(Duration::from_millis(2)).with_cap(Duration::from_millis(200)),
            )
        });
        let line = match cmd {
            DeviceCmd::PtzMove { x, y, zoom } => CmdLine::new("ptzMove")
                .arg("x", x)
                .arg("y", y)
                .arg("zoom", zoom),
            DeviceCmd::ProjInput { source } => CmdLine::new("projInput").arg("source", source),
        };
        // Absolute moves and input selection are safe to repeat, so a reply
        // lost to a restart is retried against the fresh resolution.
        let token = self.tracer.begin();
        let reply = client.call_idempotent(&line);
        self.tracer.end(
            token,
            op,
            if fresh {
                "failover.first_call"
            } else {
                "failover.call"
            },
        );
        let reply = reply.map_err(|e| format!("{name}: {e}"))?;
        if matches!(cmd, DeviceCmd::PtzMove { .. }) {
            // A camera echoes where it went; the reply has the fields of
            // its status.
            status_matches(kind, &reply, cmd)
                .map_err(|why| Fault::Wrong(format!("{name} moved wrong: {why}")))?;
        }
        self.device_last.insert((kind, room), cmd);
        if check_status {
            let addr = Building::device_addr(kind, room as usize);
            let token = self.tracer.begin();
            let link = session.pool.checkout(&addr);
            self.tracer.end(token, op, "pool.checkout");
            let mut link = link.map_err(|e| format!("checkout {addr}: {e}"))?;
            let token = self.tracer.begin();
            let status = link.call(&status_cmd(kind));
            self.tracer.end(token, op, "device.status");
            let status = status.map_err(|e| format!("{name} status: {e}"))?;
            status_matches(kind, &status, cmd)
                .map_err(|why| Fault::Wrong(format!("{name}: {why}")))?;
        }
        Ok(())
    }

    fn intruder(&mut self, op: u32, user: u32, room: u8, kind: DeviceKind) -> Result<(), Fault> {
        let env = &self.env;
        let pool = self
            .intruders
            .entry(user)
            .or_insert_with(|| env.pool_for(env.users[user as usize].key));
        let addr = Building::device_addr(kind, room as usize);
        let line = match kind {
            DeviceKind::Camera => CmdLine::new("ptzMove").arg("x", 90.0),
            DeviceKind::Projector => CmdLine::new("projInput").arg("source", "intruder"),
        };
        // A device that is down or mid-swap (`building_day`) refuses the
        // connection or asks to be tried again; someone without a credential
        // tries again too, and must still be denied once it answers.
        let give_up = Instant::now() + OP_TIMEOUT;
        let token = self.tracer.begin();
        let outcome = loop {
            let outcome = pool.checkout(&addr).and_then(|mut link| link.call(&line));
            let try_again = match &outcome {
                Err(ClientError::Link(_)) => true,
                Err(ClientError::Service { code, .. }) => code.is_retryable(),
                _ => false,
            };
            if !try_again || Instant::now() > give_up {
                break outcome;
            }
            pool.evict(&addr);
            std::thread::sleep(REPRESS_PAUSE);
        };
        self.tracer.end(token, op, "device.denied_call");
        match outcome {
            Err(ClientError::Service {
                code: ErrorCode::Denied,
                ..
            }) => {
                self.tallies.denied_as_expected += 1;
                Ok(())
            }
            Ok(_) => Err(Fault::Wrong(format!(
                "{} obeyed a user without a credential",
                kind.daemon_name(room as usize)
            ))),
            Err(e) => Err(format!("expected a denial, got {e}").into()),
        }
    }

    // -- store ---------------------------------------------------------------

    fn store(&mut self) -> &mut ShardedStoreClient {
        let env = &self.env;
        let id = self.id;
        self.store.get_or_insert_with(|| {
            // One writer identity per lane: versions are `(n, writer)`.
            let identity = env.users[env.users.len() - 1 - id].key;
            ShardedStoreClient::new(
                env.net.clone(),
                "core",
                identity,
                env.pool_for(identity),
                env.placement.clone(),
            )
        })
    }

    fn key_state(&self, key: u32) -> KeyState {
        self.keys.get(&key).copied().unwrap_or(KeyState::PRELOADED)
    }

    fn get(&mut self, op: u32, key: u32) -> Result<(), Fault> {
        let name = store_key(key as usize);
        let token = self.tracer.begin();
        let got = self.store().get(STORE_NS, &name);
        self.tracer.end(token, op, "store.get");
        check_get(key, self.key_state(key), got)
    }

    /// Record a write's outcome: acknowledged writes become the truth, a
    /// failed one stays a possibility.
    fn note_write(&mut self, key: u32, version: u32, len: usize, acked: bool) {
        let mut state = self.key_state(key);
        if acked {
            state = KeyState {
                version,
                len,
                maybe: None,
            };
        } else {
            state.maybe = Some((version, len));
        }
        self.keys.insert(key, state);
    }

    fn next_version(&self, key: u32) -> u32 {
        let state = self.key_state(key);
        state.version.max(state.maybe.map_or(0, |(v, _)| v)) + 1
    }

    fn put(&mut self, op: u32, key: u32) -> Result<(), Fault> {
        let name = store_key(key as usize);
        let version = self.next_version(key);
        let data = value_bytes(key, version, VALUE_BYTES);
        let token = self.tracer.begin();
        let put = self.store().put(STORE_NS, &name, &data);
        self.tracer.end(token, op, "store.put");
        self.note_write(key, version, VALUE_BYTES, put.is_ok());
        put.map(|_| ())
            .map_err(|e| format!("put {name}: {e}").into())
    }

    fn put_many(&mut self, op: u32, keys: &[u32]) -> Result<(), Fault> {
        let versions: Vec<u32> = keys.iter().map(|&k| self.next_version(k)).collect();
        let items: Vec<(String, Vec<u8>)> = keys
            .iter()
            .zip(&versions)
            .map(|(&k, &v)| {
                (
                    store_key(k as usize),
                    value_bytes(k, v, STORE_BATCH_VALUE_BYTES),
                )
            })
            .collect();
        let token = self.tracer.begin();
        let put = self.store().put_many(STORE_NS, &items);
        self.tracer.end(token, op, "store.put_many");
        for (&k, &v) in keys.iter().zip(&versions) {
            self.note_write(k, v, STORE_BATCH_VALUE_BYTES, put.is_ok());
        }
        put.map(|_| ()).map_err(|e| format!("put_many: {e}").into())
    }

    pub fn media_stream(lane: usize) -> String {
        format!("cam{lane}")
    }

    pub fn media_frame(lane: usize, seq: u32) -> Vec<u8> {
        value_bytes(0xffff_0000 | lane as u32, seq, MEDIA_FRAME_BYTES)
    }

    fn push(&mut self, op: u32, seq: u32) -> Result<(), Fault> {
        if self.media.is_none() {
            let mut client = ServiceClient::connect(
                &self.env.net,
                &"core".into(),
                self.env.media_addr.clone(),
                &self.env.admin,
            )
            .map_err(|e| format!("connect media store: {e}"))?;
            client.set_timeout(OP_TIMEOUT);
            self.media = Some(client);
        }
        let cmd = CmdLine::new("push")
            .arg("stream", Lane::media_stream(self.id))
            .arg("seq", seq as i64)
            .arg("data", hex_encode(&Lane::media_frame(self.id, seq)));
        let token = self.tracer.begin();
        let mut reply = self.media.as_mut().expect("connected above").call(&cmd);
        // Admission control may shed a frame (`E_BUSY`) when both lanes
        // push at once behind a slow write; the frame was not stored, so
        // the recorder offers it again, as the error code asks.
        for _ in 0..5 {
            match &reply {
                Err(ClientError::Service { code, .. }) if code.is_retryable() => {
                    std::thread::sleep(Duration::from_millis(5));
                    reply = self.media.as_mut().expect("connected above").call(&cmd);
                }
                _ => break,
            }
        }
        self.tracer.end(token, op, "store.ingest");
        match reply {
            Ok(reply) if reply.get_bool("stored") == Some(true) => {
                self.pushed.push(seq);
                Ok(())
            }
            Ok(reply) => Err(Fault::Wrong(format!(
                "push {seq}: unexpected reply {}",
                reply.to_wire()
            ))),
            Err(e) => {
                if matches!(e, ClientError::Link(_)) {
                    self.media = None;
                }
                Err(format!("push {seq}: {e}").into())
            }
        }
    }

    /// Lease and quorum counters of this lane's store client, and how many
    /// of its writes committed on fewer than all replicas.
    pub fn store_stats(&mut self) -> Option<(ace_store::ShardedStats, u64)> {
        let store = self.store.as_mut()?;
        let degraded = (0..store.placement().group_count())
            .map(|g| store.group_client(g).stats().degraded_writes)
            .sum();
        Some((store.stats(), degraded))
    }

    // -- end-of-run sweeps (run on the lane's own clients) ---------------------

    /// Read every key this lane wrote back and compare with the last
    /// acknowledged value; returns violations.
    pub fn sweep_store(&mut self) -> Vec<String> {
        let mut touched: Vec<u32> = self.keys.keys().copied().collect();
        touched.sort_unstable();
        let mut bad = Vec::new();
        for key in touched {
            let name = store_key(key as usize);
            let state = self.key_state(key);
            match self.store().get(STORE_NS, &name) {
                Ok(data) if state.accepts(key, &data) => {}
                Ok(data) => bad.push(format!(
                    "sweep: {name} holds {} bytes, not acknowledged version {}",
                    data.len(),
                    state.version
                )),
                Err(StoreError::NotFound) => bad.push(format!("sweep: {name} is gone")),
                Err(e) => bad.push(format!("sweep: get {name}: {e}")),
            }
        }
        bad
    }

    /// Fetch up to `samples` pushed frames back through `mediaGet`.
    pub fn sweep_media(&mut self, samples: usize) -> Vec<String> {
        let mut bad = Vec::new();
        let step = (self.pushed.len() / samples.max(1)).max(1);
        let seqs: Vec<u32> = self.pushed.iter().copied().step_by(step).collect();
        for seq in seqs {
            let Some(client) = self.media.as_mut() else {
                break;
            };
            let reply = client.call(
                &CmdLine::new("mediaGet")
                    .arg("stream", Lane::media_stream(self.id))
                    .arg("seq", seq as i64),
            );
            match reply {
                Ok(r)
                    if r.get_text("data").and_then(hex_decode)
                        == Some(Lane::media_frame(self.id, seq)) => {}
                Ok(_) => bad.push(format!("media frame {seq} read back different")),
                Err(e) => bad.push(format!("mediaGet {seq}: {e}")),
            }
        }
        bad
    }
}

fn identified_in(reply: &CmdLine) -> bool {
    reply.get_bool("identified").unwrap_or(false)
}

/// Whom a scanner's reply names.
#[derive(Debug, PartialEq, Eq)]
enum Pressed {
    TheUser,
    /// `identified=false`: right for an unknown finger, a bounce for an
    /// enrolled one.
    Nobody,
}

/// Check a `press` / `touch` reply against who pressed.
fn press_verdict(reply: &CmdLine, method: LoginMethod, user: u32) -> Result<Pressed, Fault> {
    if !identified_in(reply) {
        return Ok(Pressed::Nobody);
    }
    let named = reply.get_text("username");
    if method == LoginMethod::UnknownFinger {
        Err(Fault::Wrong(format!(
            "unknown finger identified as {named:?}"
        )))
    } else if named != Some(user_name(user as usize).as_str()) {
        Err(Fault::Wrong(format!(
            "{} identified as {named:?}",
            user_name(user as usize)
        )))
    } else {
        Ok(Pressed::TheUser)
    }
}

/// Check what a `get` of `key` returned against its single writer's record.
/// Every key the schedule reads was preloaded, so "not found" is as wrong
/// as a stale value.
pub(crate) fn check_get(
    key: u32,
    state: KeyState,
    got: Result<Vec<u8>, StoreError>,
) -> Result<(), Fault> {
    let name = store_key(key as usize);
    match got {
        Ok(data) if state.accepts(key, &data) => Ok(()),
        Ok(data) => Err(Fault::Wrong(format!(
            "get {name} returned {} bytes that are not version {} ({} bytes)",
            data.len(),
            state.version,
            state.len
        ))),
        Err(StoreError::NotFound) => Err(Fault::Wrong(format!("get {name}: not found"))),
        Err(e) => Err(format!("get {name}: {e}").into()),
    }
}

/// Wait for `user`'s `workspaceReady` at `access_host`.  Anything else in
/// the lane's inbox is the late twin of an earlier re-press.
fn await_workspace(sink: &SinkState, lane: usize, user: u32, access_host: &str) -> bool {
    let deadline = Instant::now() + SHOW_WAIT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match sink.next(lane, left) {
            Some(event) if event.user == user && event.access_host == access_host => return true,
            Some(_) => {}
            None => return false,
        }
    }
}

pub fn status_cmd(kind: DeviceKind) -> CmdLine {
    CmdLine::new(match kind {
        DeviceKind::Camera => "ptzStatus",
        DeviceKind::Projector => "projStatus",
    })
}

/// Does a status reply show the device where `cmd` put it?
pub fn status_matches(kind: DeviceKind, status: &CmdLine, cmd: DeviceCmd) -> Result<(), String> {
    match (kind, cmd) {
        (DeviceKind::Camera, DeviceCmd::PtzMove { x, y, zoom }) => {
            let got = (
                status.get_f64("x"),
                status.get_f64("y"),
                status.get_f64("zoom"),
            );
            if got == (Some(x), Some(y), Some(zoom)) {
                Ok(())
            } else {
                Err(format!("status {got:?} after {cmd:?}"))
            }
        }
        (DeviceKind::Projector, DeviceCmd::ProjInput { source }) => {
            if status.get_text("input") == Some(source) {
                Ok(())
            } else {
                Err(format!(
                    "input {:?} after {cmd:?}",
                    status.get_text("input")
                ))
            }
        }
        _ => Err(format!("{cmd:?} is not a {kind:?} command")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrong<T: std::fmt::Debug>(outcome: Result<T, Fault>) -> bool {
        matches!(outcome, Err(Fault::Wrong(_)))
    }

    #[test]
    fn a_wrong_reply_is_told_from_a_missing_one() {
        // A stale read, a vanished key and a transport error.
        let state = KeyState {
            version: 2,
            len: VALUE_BYTES,
            maybe: None,
        };
        assert_eq!(
            check_get(7, state, Ok(value_bytes(7, 2, VALUE_BYTES))),
            Ok(())
        );
        assert!(wrong(check_get(
            7,
            state,
            Ok(value_bytes(7, 1, VALUE_BYTES))
        )));
        assert!(wrong(check_get(7, state, Err(StoreError::NotFound))));
        assert!(matches!(
            check_get(7, state, Err(StoreError::AllReplicasDown)),
            Err(Fault::Failed(_))
        ));
        // A write of unknown outcome leaves both versions acceptable.
        let unsure = KeyState {
            maybe: Some((3, VALUE_BYTES)),
            ..state
        };
        assert_eq!(
            check_get(7, unsure, Ok(value_bytes(7, 3, VALUE_BYTES))),
            Ok(())
        );

        // The scanner names the wrong user, or names anyone for a finger
        // nobody enrolled; a bounce is neither.
        let named = |user: usize| {
            CmdLine::new("ok")
                .arg("identified", true)
                .arg("username", Value::Str(user_name(user)))
        };
        let bounce = CmdLine::new("ok").arg("identified", false);
        assert_eq!(
            press_verdict(&named(4), LoginMethod::Finger, 4),
            Ok(Pressed::TheUser)
        );
        assert!(wrong(press_verdict(&named(5), LoginMethod::Finger, 4)));
        assert!(wrong(press_verdict(
            &named(5),
            LoginMethod::UnknownFinger,
            9
        )));
        assert_eq!(
            press_verdict(&bounce, LoginMethod::IButton, 4),
            Ok(Pressed::Nobody)
        );
        assert_eq!(
            press_verdict(&bounce, LoginMethod::UnknownFinger, 9),
            Ok(Pressed::Nobody)
        );

        // A camera that went elsewhere than told.
        let told = DeviceCmd::PtzMove {
            x: 30.0,
            y: 0.0,
            zoom: 2.0,
        };
        let at = |x: f64| {
            CmdLine::new("ok")
                .arg("x", x)
                .arg("y", 0.0)
                .arg("zoom", 2.0)
        };
        assert!(status_matches(DeviceKind::Camera, &at(30.0), told).is_ok());
        assert!(status_matches(DeviceKind::Camera, &at(-30.0), told).is_err());
    }
}
