//! Seeded schedules: what each generator lane sends, and when.
//!
//! Everything here is a pure function of `(workload, seed)`.  No type in
//! this module can reach the system under test, so the system only ever
//! receives inputs that `acebench gen` can print beforehand.
//!
//! The population is split between the two generator lanes by parity —
//! users, rooms and store keys with an even index belong to lane 0, odd to
//! lane 1 — so each user, device and key has exactly one writer and every
//! reply can be checked against that lane's own record of what it sent.

use crate::building::{roam_range, DeviceKind, CRED_USERS, ROOMS, STORE_KEYS, USERS};
use crate::sink::LANES;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt::Write as _;

/// The four workloads; names are part of the benchmark's contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LoginRush,
    DeviceRoam,
    StoreMixed,
    BuildingDay,
}

/// Offered open-loop rates in operations per second, both lanes together.
/// Frozen after one calibration against measured closed-loop capacity (see
/// the README's calibration record); a change here is a benchmark change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    pub login: f64,
    pub device: f64,
    pub store: f64,
}

impl Rates {
    pub fn total(&self) -> f64 {
        self.login + self.device + self.store
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LoginRush,
        Workload::DeviceRoam,
        Workload::StoreMixed,
        Workload::BuildingDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LoginRush => "login_rush",
            Workload::DeviceRoam => "device_roam",
            Workload::StoreMixed => "store_mixed",
            Workload::BuildingDay => "building_day",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations of the warm-up at the contract's run length, both lanes
    /// together.  Counted, not timed, so every run enters the measured
    /// phases with the same history whatever the box's speed: every user
    /// has logged in about five times (`login_rush`), three in four
    /// (user, device, preset) decisions are cached (`device_roam`), the hot
    /// keys hold read leases (`store_mixed`).
    pub fn warm_ops(self) -> usize {
        match self {
            Workload::LoginRush => 5_000,
            Workload::DeviceRoam => 30_000,
            Workload::StoreMixed => 6_000,
            Workload::BuildingDay => 16_000,
        }
    }

    pub fn rates(self) -> Rates {
        let (login, device, store) = match self {
            Workload::LoginRush => (500.0, 0.0, 0.0),
            Workload::DeviceRoam => (0.0, 2500.0, 0.0),
            Workload::StoreMixed => (0.0, 0.0, 500.0),
            Workload::BuildingDay => (150.0, 600.0, 300.0),
        };
        Rates {
            login,
            device,
            store,
        }
    }
}

/// Operation classes, the unit latency is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Login,
    Device,
    Store,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoginMethod {
    Finger,
    IButton,
    /// A finger no scanner has enrolled; must come back `identified=false`.
    UnknownFinger,
}

/// What a credentialed user tells a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceCmd {
    PtzMove { x: f64, y: f64, zoom: f64 },
    ProjInput { source: &'static str },
}

pub const STORE_BATCH_KEYS: usize = 16;
pub const STORE_BATCH_VALUE_BYTES: usize = 256;
pub const MEDIA_FRAME_BYTES: usize = 8192;

#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    Login {
        user: u32,
        room: u8,
        method: LoginMethod,
    },
    Device {
        user: u32,
        room: u8,
        kind: DeviceKind,
        /// First operation after walking into `room`: directory lookup,
        /// resolution and dial are all on the clock.
        entered: bool,
        cmd: DeviceCmd,
        /// Also read the device's status back and compare.
        check_status: bool,
    },
    /// A user without a credential tries a device; must be denied.
    Intruder {
        user: u32,
        room: u8,
        kind: DeviceKind,
    },
    Get {
        key: u32,
    },
    Put {
        key: u32,
    },
    PutMany {
        keys: [u32; STORE_BATCH_KEYS],
    },
    MediaPush {
        seq: u32,
    },
}

impl Action {
    pub fn class(&self) -> Class {
        match self {
            Action::Login { .. } => Class::Login,
            Action::Device { .. } | Action::Intruder { .. } => Class::Device,
            Action::Get { .. }
            | Action::Put { .. }
            | Action::PutMany { .. }
            | Action::MediaPush { .. } => Class::Store,
        }
    }
}

/// One scheduled operation.  `due_us` counts from the start of the open
/// phase and is 0 in the phases that issue back to back.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub id: u32,
    pub due_us: u64,
    pub action: Action,
}

/// Draws from a fixed multiset in shuffled rounds, so every `len` draws
/// hold exactly the configured mix.  Compared with independent draws this
/// removes the run-to-run variance of the mix itself (which would show up
/// in bytes and CPU per operation) while keeping the order unpredictable.
struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(mix: &[(T, usize)]) -> Deck<T> {
        let cards: Vec<T> = mix
            .iter()
            .flat_map(|&(card, count)| std::iter::repeat_n(card, count))
            .collect();
        assert!(!cards.is_empty(), "empty deck");
        let next = cards.len();
        Deck { cards, next }
    }

    /// Put the cards dealt so far back: the next draw shuffles a full deck.
    fn gather(&mut self) {
        self.next = self.cards.len();
    }

    fn draw(&mut self, rng: &mut SmallRng) -> T {
        if self.next == self.cards.len() {
            self.cards.shuffle(rng);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Inverse-CDF sampler of a Zipf distribution over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Weight of the lecture hall against each room of a user's wing when they
/// pick where to go next: occupancy in a real building is skewed, and the
/// hot rooms are where a device swap is seen by someone.
const HALL_WEIGHT: usize = 3;
/// Non-credentialed users `CRED_USERS..CRED_USERS + INTRUDERS` are the
/// ones that try devices anyway.
pub const INTRUDERS: usize = 8;

#[derive(Clone, Copy)]
enum StoreKind {
    Get,
    Put,
    PutMany,
    Push,
}

struct Roamer {
    /// Where this user may go, the hall repeated [`HALL_WEIGHT`] times.
    choices: Vec<u8>,
    room: u8,
    stay_left: u32,
}

/// The operation stream of one lane.
pub struct LaneGen {
    lane: usize,
    rng: SmallRng,
    next_id: u32,
    lane_rate: f64,
    classes: Deck<Class>,
    // login
    login_methods: Deck<LoginMethod>,
    unknown_seq: u32,
    // device
    roamers: Vec<Roamer>,
    rooms: Vec<u8>,
    device_ops: Deck<bool>,
    stays: Deck<u32>,
    status_checks: Deck<bool>,
    // store
    store_kinds: Deck<StoreKind>,
    zipf: Zipf,
    media_seq: u32,
}

fn mix_seed(seed: u64, lane: usize) -> u64 {
    // SplitMix-style finalizer so neighbouring seeds give unrelated lanes.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl LaneGen {
    pub fn new(workload: Workload, seed: u64, lane: usize) -> LaneGen {
        assert!(lane < LANES);
        let rates = workload.rates();
        // Class deck in the ratio of the rates (rates are multiples of 50).
        let share = |r: f64| (r / 50.0).round() as usize;
        let class_mix: Vec<(Class, usize)> = [
            (Class::Login, share(rates.login)),
            (Class::Device, share(rates.device)),
            (Class::Store, share(rates.store)),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect();
        let rooms: Vec<u8> = (0..ROOMS as u8)
            .filter(|r| *r as usize % LANES == lane)
            .collect();
        let mut rng = SmallRng::seed_from_u64(mix_seed(seed, lane));
        let roamers = (0..CRED_USERS / LANES)
            .map(|slot| {
                let range = roam_range(slot * LANES + lane);
                let choices: Vec<u8> = std::iter::repeat_n(range[0] as u8, HALL_WEIGHT)
                    .chain(range[1..].iter().map(|&r| r as u8))
                    .collect();
                Roamer {
                    room: *choices.choose(&mut rng).expect("range"),
                    choices,
                    stay_left: 0,
                }
            })
            .collect();
        LaneGen {
            lane,
            rng,
            next_id: 0,
            lane_rate: rates.total() / LANES as f64,
            classes: Deck::new(&class_mix),
            login_methods: Deck::new(&[
                (LoginMethod::Finger, 88),
                (LoginMethod::IButton, 10),
                (LoginMethod::UnknownFinger, 2),
            ]),
            unknown_seq: 0,
            roamers,
            rooms,
            device_ops: Deck::new(&[(false, 99), (true, 1)]),
            stays: Deck::new(&[1, 2, 3, 4, 5, 6, 7, 8, 9].map(|n| (n, 1))),
            status_checks: Deck::new(&[(false, 19), (true, 1)]),
            // 2 batches in 500 operations, not the 15 a bulk loader would
            // want: `put_many` pulls a full-keyspace digest from every
            // replica it touches and blocks its lane that long.
            store_kinds: Deck::new(&[
                (StoreKind::Get, 300),
                (StoreKind::Put, 183),
                (StoreKind::PutMany, 2),
                (StoreKind::Push, 15),
            ]),
            zipf: Zipf::new(STORE_KEYS / LANES, 0.9),
            media_seq: 0,
        }
    }

    fn lane_user(&mut self, population: usize) -> u32 {
        let slot = self.rng.gen_range(0..population / LANES);
        (slot * LANES + self.lane) as u32
    }

    fn zipf_key(&mut self) -> u32 {
        (self.zipf.sample(&mut self.rng) * LANES + self.lane) as u32
    }

    fn login(&mut self) -> Action {
        let method = self.login_methods.draw(&mut self.rng);
        let user = match method {
            LoginMethod::UnknownFinger => {
                self.unknown_seq += 1;
                self.unknown_seq * LANES as u32 + self.lane as u32
            }
            _ => self.lane_user(USERS),
        };
        Action::Login {
            user,
            room: self.rng.gen_range(0..ROOMS) as u8,
            method,
        }
    }

    fn device(&mut self) -> Action {
        let kind = if self.rng.gen_bool(0.5) {
            DeviceKind::Camera
        } else {
            DeviceKind::Projector
        };
        if self.device_ops.draw(&mut self.rng) {
            let slot = self.rng.gen_range(0..INTRUDERS / LANES);
            return Action::Intruder {
                user: (CRED_USERS + slot * LANES + self.lane) as u32,
                room: *self.rooms.choose(&mut self.rng).expect("rooms"),
                kind,
            };
        }
        let slot = self.rng.gen_range(0..self.roamers.len());
        let entered = self.roamers[slot].stay_left == 0;
        if entered {
            // Walk to a different room and stay for 1..=9 operations
            // (mean 5, so about one operation in five is an arrival).
            let roamer = &mut self.roamers[slot];
            let current = roamer.room;
            while roamer.room == current {
                roamer.room = *roamer.choices.choose(&mut self.rng).expect("range");
            }
            roamer.stay_left = self.stays.draw(&mut self.rng);
        }
        self.roamers[slot].stay_left -= 1;
        let cmd = match kind {
            // Six presets, not a free pan/tilt/zoom: a device's decision
            // cache is keyed by principal *and argument values*, so every
            // distinct (user, arguments) pair is a KeyNote evaluation plus
            // an AuthDB fetch the first time.  With few presets the warm-up
            // sees most pairs and the measured phases run in the steady
            // state a building that has been up for a day is in.
            DeviceKind::Camera => DeviceCmd::PtzMove {
                x: *[-30.0, 0.0, 30.0].choose(&mut self.rng).expect("x"),
                y: 0.0,
                zoom: *[1.0, 2.0].choose(&mut self.rng).expect("zoom"),
            },
            DeviceKind::Projector => DeviceCmd::ProjInput {
                source: ["workspace", "camera", "laptop", "dvd"]
                    .choose(&mut self.rng)
                    .expect("source"),
            },
        };
        Action::Device {
            user: (slot * LANES + self.lane) as u32,
            room: self.roamers[slot].room,
            kind,
            entered,
            cmd,
            check_status: self.status_checks.draw(&mut self.rng),
        }
    }

    fn store(&mut self) -> Action {
        match self.store_kinds.draw(&mut self.rng) {
            StoreKind::Get => Action::Get {
                key: self.zipf_key(),
            },
            StoreKind::Put => Action::Put {
                key: self.zipf_key(),
            },
            StoreKind::PutMany => {
                let mut keys = [u32::MAX; STORE_BATCH_KEYS];
                for i in 0..STORE_BATCH_KEYS {
                    let mut key = self.zipf_key();
                    while keys[..i].contains(&key) {
                        key = self.zipf_key();
                    }
                    keys[i] = key;
                }
                Action::PutMany { keys }
            }
            StoreKind::Push => {
                self.media_seq += 1;
                Action::MediaPush {
                    seq: self.media_seq,
                }
            }
        }
    }

    /// The next operation of this lane.
    pub fn next_op(&mut self) -> Op {
        let action = match self.classes.draw(&mut self.rng) {
            Class::Login => self.login(),
            Class::Device => self.device(),
            Class::Store => self.store(),
        };
        self.next_id += 1;
        Op {
            id: self.next_id * LANES as u32 + self.lane as u32,
            due_us: 0,
            action,
        }
    }

    /// The next `count` operations, for a phase that issues back to back.
    pub fn take(&mut self, count: usize) -> Vec<Op> {
        (0..count).map(|_| self.next_op()).collect()
    }

    /// The operations of an open phase of `span_us`: as many as the lane's
    /// rate sends in that time, at arrival times drawn uniformly over the
    /// span and sorted — a Poisson process given its count.  The bursts
    /// and lulls are a Poisson stream's; the count, and through the decks
    /// the mix, are the same for every seed, so the seed moves which users
    /// and keys are touched and when, not how much work a phase holds.
    /// For the same reason the phase starts on full decks, wherever in a
    /// round the operations before it stopped.
    pub fn take_span(&mut self, span_us: u64) -> Vec<Op> {
        self.classes.gather();
        self.login_methods.gather();
        self.device_ops.gather();
        self.stays.gather();
        self.status_checks.gather();
        self.store_kinds.gather();
        let count = (self.lane_rate * span_us as f64 / 1e6).round() as usize;
        let mut due: Vec<u64> = (0..count).map(|_| self.rng.gen_range(0..span_us)).collect();
        due.sort_unstable();
        due.into_iter()
            .map(|due_us| Op {
                due_us,
                ..self.next_op()
            })
            .collect()
    }
}

/// `acebench gen`: the schedule as text, one operation per line — per lane
/// the `warm_ops` untimed operations of the warm-up, the timed stream of
/// the open-loop phase, then the first `closed_ops` of the untimed stream
/// the closed-loop phase consumes.
pub fn dump(
    workload: Workload,
    seed: u64,
    warm_ops: usize,
    open_us: u64,
    closed_ops: usize,
) -> String {
    let mut out = String::new();
    let rates = workload.rates();
    let _ = writeln!(
        out,
        "# workload={} seed={seed} warm_ops={warm_ops} open_us={open_us} rates login={} device={} store={} ops/s",
        workload.name(),
        rates.login,
        rates.device,
        rates.store
    );
    for lane in 0..LANES {
        let mut gen = LaneGen::new(workload, seed, lane);
        for op in gen.take(warm_ops / LANES) {
            let _ = writeln!(out, "lane={lane} id={} warm {:?}", op.id, op.action);
        }
        for op in gen.take_span(open_us) {
            let _ = writeln!(
                out,
                "lane={lane} id={} due_us={} {:?}",
                op.id, op.due_us, op.action
            );
        }
        for op in gen.take(closed_ops) {
            let _ = writeln!(out, "lane={lane} id={} closed {:?}", op.id, op.action);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_schedules_and_different_seeds_differ() {
        for workload in Workload::ALL {
            let a = dump(workload, 7, 100, 500_000, 200);
            let b = dump(workload, 7, 100, 500_000, 200);
            let c = dump(workload, 8, 100, 500_000, 200);
            assert!(a.lines().count() > 100, "{} is too short", workload.name());
            assert_eq!(a, b, "{} is not a function of its seed", workload.name());
            assert_ne!(a, c, "{} ignores its seed", workload.name());
        }
    }

    #[test]
    fn lanes_own_disjoint_users_rooms_and_keys() {
        for workload in Workload::ALL {
            for lane in 0..LANES {
                let mut gen = LaneGen::new(workload, 3, lane);
                for op in gen.take_span(2_000_000) {
                    let owned = |i: u32| i as usize % LANES == lane;
                    match op.action {
                        Action::Login { user, .. } => assert!(owned(user)),
                        Action::Device { user, room, .. } | Action::Intruder { user, room, .. } => {
                            assert!(owned(user) && owned(room as u32))
                        }
                        Action::Get { key } | Action::Put { key } => assert!(owned(key)),
                        Action::PutMany { keys } => {
                            assert!(keys.iter().all(|&k| owned(k)));
                            let mut sorted = keys.to_vec();
                            sorted.sort_unstable();
                            sorted.dedup();
                            assert_eq!(sorted.len(), STORE_BATCH_KEYS, "batch repeats a key");
                        }
                        Action::MediaPush { .. } => {}
                    }
                }
            }
        }
    }

    #[test]
    fn offered_rate_and_mix_match_the_constants() {
        let mut gen = LaneGen::new(Workload::BuildingDay, 11, 0);
        let ops = gen.take_span(20_000_000);
        let want = Workload::BuildingDay.rates().total() / LANES as f64 * 20.0;
        assert_eq!(ops.len() as f64, want, "the count is the rate's, exactly");
        assert!(ops.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(ops.last().unwrap().due_us < 20_000_000);
        // Poisson arrivals: gaps spread like an exponential's (mean = sd).
        let gaps: Vec<f64> = ops
            .windows(2)
            .map(|w| (w[1].due_us - w[0].due_us) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((sd / mean - 1.0).abs() < 0.1, "gap sd/mean {}", sd / mean);
        let share = |class| {
            ops.iter().filter(|o| o.action.class() == class).count() as f64 / ops.len() as f64
        };
        assert!((share(Class::Login) - 150.0 / 1050.0).abs() < 0.005);
        assert!((share(Class::Store) - 300.0 / 1050.0).abs() < 0.005);
        let entered = ops
            .iter()
            .filter(|o| matches!(o.action, Action::Device { entered: true, .. }))
            .count() as f64;
        let device = ops
            .iter()
            .filter(|o| o.action.class() == Class::Device)
            .count() as f64;
        assert!(
            (entered / device - 0.2).abs() < 0.01,
            "cold share {}",
            entered / device
        );
        let batches = ops
            .iter()
            .filter(|o| matches!(o.action, Action::PutMany { .. }))
            .count();
        assert_eq!(batches, 12, "2 in 500 of the 3,000 store operations");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(1000, 0.9);
        let mut rng = SmallRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let top10 = draws.iter().filter(|&&r| r < 10).count() as f64 / draws.len() as f64;
        assert!(top10 > 0.2 && top10 < 0.5, "top-10 share {top10}");
    }
}
