//! Shared wire vocabulary of the ACE framework services.
//!
//! The daemon startup sequence (Fig. 9) has every daemon talk to three
//! framework services — the Room Database, the ACE Service Directory, and
//! the Network Logger — before it begins its own work.  Both sides of those
//! conversations (the daemons in `crates/directory` and the startup code in
//! this crate) need the same command definitions, so they live here.
//!
//! Also defines the built-in commands every ACE daemon understands
//! (`ping`, `describe`, `shutdown`, `addNotification`, `removeNotification`,
//! §2.5).

use crate::client::ClientError;
use ace_lang::{ArgType, CmdLine, CmdSpec, ErrorCode, Semantics};
use ace_security::hash::fnv64;

/// Well-known port of the ACE Service Directory ("the location of which is
/// known to all ACE daemons", §2.4).
pub const ASD_PORT: u16 = 5000;
/// Well-known port of the Room Database.
pub const ROOMDB_PORT: u16 = 5001;
/// Well-known port of the Network Logger.
pub const LOGGER_PORT: u16 = 5002;

/// The argument an error reply to a *cast* carries: `cast=<n>` names the
/// n-th cast read on that session as the one that did not run.  A reply
/// without it answers a call.
pub const CAST_ARG: &str = "cast";

/// Verbs admitted on the daemon's **priority lane**: the control, health,
/// lease, and upgrade plane that must keep answering while bulk traffic is
/// being shed.  Everything else rides the bounded bulk lane and may be
/// refused with `E_BUSY` under overload.
pub fn is_priority_verb(name: &str) -> bool {
    matches!(
        name,
        // Health / liveness.
        "ping" | "describe" | "aceStats"
        // Control plane.
        | "shutdown" | "aceUpgrade"
        // Lease / registration plane (ASD + Room DB verbs).
        | "register" | "renewLease" | "removeService"
        | "roomRegister" | "roomRemove"
    )
}

/// Built-in commands of every service daemon.  Service-specific semantics
/// inherit from this set (the root of the Fig. 6 hierarchy).
pub fn base_semantics() -> Semantics {
    Semantics::new()
        .with(CmdSpec::new("ping", "liveness probe; replies ok"))
        .with(CmdSpec::new(
            "describe",
            "list the commands this service understands",
        ))
        .with(CmdSpec::new("shutdown", "gracefully stop this daemon"))
        .with(
            CmdSpec::new(
                "addNotification",
                "register to be notified when a command/event executes here",
            )
            .required("cmd", ArgType::Word, "command or event name to listen for")
            .required("service", ArgType::Word, "name of the service to notify")
            .required("host", ArgType::Word, "host of the service to notify")
            .required("port", ArgType::Int, "port of the service to notify")
            .required(
                "notifyCmd",
                ArgType::Word,
                "command to invoke on the notified service",
            ),
        )
        .with(
            CmdSpec::new("removeNotification", "deregister a notification")
                .required("cmd", ArgType::Word, "command or event name")
                .required("service", ArgType::Word, "service that was to be notified"),
        )
        .with(
            CmdSpec::new(
                "aceStats",
                "unified metrics snapshot: counters, gauges, latency quantiles",
            )
            .optional(
                "prefix",
                ArgType::Str,
                "only metrics whose name starts with this prefix",
            ),
        )
        .with(
            CmdSpec::new(
                "aceUpgrade",
                "live-upgrade control: quiesce (drain + snapshot), abort",
            )
            .required("phase", ArgType::Word, "quiesce | abort"),
        )
}

/// Commands understood by the ACE Service Directory (§2.4).
pub fn asd_semantics() -> Semantics {
    Semantics::new()
        .inheriting(&base_semantics())
        .with(
            CmdSpec::new("register", "register a service; replies with a lease")
                .required("name", ArgType::Word, "unique service name")
                .required("host", ArgType::Word, "host the service runs on")
                .required("port", ArgType::Int, "port the service listens on")
                .required("room", ArgType::Word, "room the service lives in")
                .required("class", ArgType::Str, "service class (hierarchy path)")
                .optional(
                    "incarnation",
                    ArgType::Int,
                    "spawn generation; older incarnations are fenced out",
                ),
        )
        .with(
            CmdSpec::new("renewLease", "renew a registration lease")
                .required("name", ArgType::Word, "registered service name")
                .optional(
                    "incarnation",
                    ArgType::Int,
                    "spawn generation; older incarnations are fenced out",
                ),
        )
        .with(
            CmdSpec::new("removeService", "deregister a service on shutdown").required(
                "name",
                ArgType::Word,
                "registered service name",
            ),
        )
        .with(
            CmdSpec::new("lookup", "find services; replies with matches")
                .optional("name", ArgType::Word, "exact service name")
                .optional("class", ArgType::Str, "service class to match")
                .optional("room", ArgType::Word, "restrict to one room"),
        )
        .with(CmdSpec::new(
            "listServices",
            "list all currently registered service names",
        ))
        .with(CmdSpec::new(
            "shardMap",
            "the directory shard map: replica addresses per shard",
        ))
}

/// Commands understood by the Room Database (§4.11).
pub fn roomdb_semantics() -> Semantics {
    Semantics::new()
        .inheriting(&base_semantics())
        .with(
            CmdSpec::new("roomRegister", "place a service within a room")
                .required("service", ArgType::Word, "service name")
                .required("host", ArgType::Word, "host name")
                .required("port", ArgType::Int, "service port")
                .required("room", ArgType::Word, "room name")
                .optional("x", ArgType::Float, "position in the room (metres)")
                .optional("y", ArgType::Float, "position in the room (metres)")
                .optional("z", ArgType::Float, "position in the room (metres)"),
        )
        .with(
            CmdSpec::new("roomRemove", "remove a service from its room").required(
                "service",
                ArgType::Word,
                "service name",
            ),
        )
        .with(
            CmdSpec::new("roomServices", "list services within a room").required(
                "room",
                ArgType::Word,
                "room name",
            ),
        )
        .with(
            CmdSpec::new("roomInfo", "room metadata: building, dimensions").required(
                "room",
                ArgType::Word,
                "room name",
            ),
        )
        .with(
            CmdSpec::new("defineRoom", "create or update a room definition")
                .required("room", ArgType::Word, "room name")
                .required("building", ArgType::Word, "building name")
                .optional("width", ArgType::Float, "room width (metres)")
                .optional("depth", ArgType::Float, "room depth (metres)")
                .optional("height", ArgType::Float, "room height (metres)"),
        )
        .with(CmdSpec::new("listRooms", "list all defined rooms"))
}

/// Commands understood by the Network Logger (§4.14).
pub fn logger_semantics() -> Semantics {
    Semantics::new()
        .inheriting(&base_semantics())
        .with(
            CmdSpec::new("log", "append one activity record")
                .required("level", ArgType::Word, "info | warn | error | security")
                .required("msg", ArgType::Str, "the record text")
                .optional("service", ArgType::Word, "originating service")
                .optional("host", ArgType::Word, "originating host"),
        )
        .with(
            CmdSpec::new("tail", "return the most recent records")
                .optional("count", ArgType::Int, "how many records (default 10)")
                .optional("level", ArgType::Word, "filter by level"),
        )
        .with(CmdSpec::new("logStats", "record counts by level"))
}

/// Commands a scale-out persistent-store replica understands on top of
/// its basic `psPut`/`psGet` plane: snapshot shipping for rebuilds
/// (`psSnapFetch`), per-shard read leases, and the shard
/// placement map (the store analog of the directory's `shardMap`).
pub fn store_scaleout_semantics() -> Semantics {
    Semantics::new()
        .with(
            CmdSpec::new(
                "psSnapFetch",
                "fetch the replica's current snapshot in chunks (offset 0 cuts a fresh one)",
            )
            .required("offset", ArgType::Int, "byte offset into the snapshot")
            .optional("chunk", ArgType::Int, "max chunk bytes (default 32768)"),
        )
        .with(
            CmdSpec::new("psLeaseGrant", "grant/renew the shard read lease")
                .required("holder", ArgType::Str, "leaseholder address host:port")
                .required("epoch", ArgType::Int, "lease epoch (newer wins)")
                .required("ttlMs", ArgType::Int, "lease duration in milliseconds"),
        )
        .with(
            CmdSpec::new("psLeaseRevoke", "revoke the shard read lease if held")
                .required("holder", ArgType::Str, "leaseholder address host:port")
                .required("epoch", ArgType::Int, "lease epoch being revoked"),
        )
        .with(
            CmdSpec::new(
                "psGetLeased",
                "read a key served only by the live leaseholder",
            )
            .required("ns", ArgType::Word, "namespace")
            .required("key", ArgType::Str, "key")
            .optional(
                "version",
                ArgType::Int,
                "version of the value the asker holds",
            )
            .optional(
                "writer",
                ArgType::Str,
                "its writer: if that exact value is held, the answer is `same=true`",
            ),
        )
        .with(CmdSpec::new(
            "psPlacement",
            "the store placement map: replica addresses per shard group",
        ))
}

/// The hex word — the text form of binary data (multi-line KeyNote
/// credential text, sealed snapshots, binary payloads) inside a command.
/// The codec lives with the language, next to the blob value it is the
/// text form of.
pub use ace_lang::{hex_decode, hex_encode};

/// Seal a behavior state snapshot for its trip from the quiesce reply to
/// the replacement.
///
/// The payload is a command line (the same vocabulary state travels in on
/// the wire), framed with its kind and an FNV-1a checksum so that a torn
/// or bit-flipped blob is *refused* at restore time rather than half
/// applied — a live upgrade must never seed the replacement incarnation
/// with corrupt state.  The result is a link frame: the state rides in it
/// as a blob, byte for byte, not as a hex word twice its size.
pub fn seal_snapshot(kind: &str, state: CmdLine) -> Vec<u8> {
    let inner = state.to_wire().into_bytes();
    let crc = fnv64(&inner);
    CmdLine::new("snapshot")
        .arg("kind", ace_lang::Value::Word(kind.to_string()))
        .arg("crc", ace_lang::Value::Word(format!("x{crc:016x}")))
        .arg("data", inner)
        .to_frame()
}

/// Open a sealed snapshot, verifying kind and checksum.  Any framing,
/// kind, or integrity mismatch refuses the whole snapshot.
pub fn open_snapshot(kind: &str, bytes: &[u8]) -> Result<CmdLine, String> {
    let outer =
        CmdLine::parse_frame(bytes).map_err(|e| format!("snapshot frame does not parse: {e}"))?;
    if outer.name() != "snapshot" {
        return Err(format!("not a snapshot frame: `{}`", outer.name()));
    }
    match outer.get_text("kind") {
        Some(k) if k == kind => {}
        Some(k) => return Err(format!("snapshot kind mismatch: got `{k}`, want `{kind}`")),
        None => return Err("snapshot frame missing kind".to_string()),
    }
    let crc = outer
        .get_text("crc")
        .and_then(|w| u64::from_str_radix(w.strip_prefix('x').unwrap_or(w), 16).ok())
        .ok_or_else(|| "snapshot frame missing checksum".to_string())?;
    let inner = outer
        .get_blob("data")
        .ok_or_else(|| "snapshot frame missing payload".to_string())?;
    if fnv64(&inner) != crc {
        return Err("snapshot checksum mismatch (torn or corrupted)".to_string());
    }
    let inner_text =
        std::str::from_utf8(&inner).map_err(|_| "snapshot payload is not text".to_string())?;
    CmdLine::parse(inner_text).map_err(|e| format!("snapshot payload does not parse: {e}"))
}

/// A directory entry as returned by ASD `lookup` replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEntry {
    pub name: String,
    pub addr: ace_net::Addr,
    pub class: String,
    pub room: String,
}

/// Encode entries as the `services={{name,host,port,class,room},…}` array
/// carried in `lookup` replies.  All cells are quoted strings so every row
/// is homogeneous per the grammar (a bare `1234` would re-lex as an
/// integer).
pub fn entries_to_value(entries: &[ServiceEntry]) -> ace_lang::Value {
    use ace_lang::Scalar;
    ace_lang::Value::Array(
        entries
            .iter()
            .map(|e| {
                vec![
                    Scalar::Str(e.name.clone()),
                    Scalar::Str(e.addr.host.to_string()),
                    Scalar::Str(e.addr.port.to_string()),
                    Scalar::Str(e.class.clone()),
                    Scalar::Str(e.room.clone()),
                ]
            })
            .collect(),
    )
}

/// Decode a `services=` array back into entries.  Malformed rows are
/// rejected wholesale (`None`) — a half-decoded directory is worse than an
/// error.
pub fn entries_from_value(value: &ace_lang::Value) -> Option<Vec<ServiceEntry>> {
    let rows = match value {
        // An empty array encodes as `{}`, which re-parses as an empty
        // vector — treat it as zero rows.
        v if v.as_vector().is_some_and(|s| s.is_empty()) => return Some(Vec::new()),
        v => v.as_array()?,
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != 5 {
            return None;
        }
        let cell = |i: usize| row[i].as_text();
        let port: u16 = cell(2)?.parse().ok()?;
        out.push(ServiceEntry {
            name: cell(0)?.to_string(),
            addr: ace_net::Addr::new(cell(1)?, port),
            class: cell(3)?.to_string(),
            room: cell(4)?.to_string(),
        });
    }
    Some(out)
}

/// The ASD `lookup` command (Fig. 7): any combination of filters.
pub fn lookup_cmd(name: Option<&str>, class: Option<&str>, room: Option<&str>) -> CmdLine {
    let mut cmd = CmdLine::new("lookup");
    for (arg, filter) in [("name", name), ("class", class), ("room", room)] {
        if let Some(f) = filter {
            cmd.push_arg(arg, f);
        }
    }
    cmd
}

/// The entries a `lookup` reply carries.
pub fn entries_from_reply(reply: &CmdLine) -> Result<Vec<ServiceEntry>, ClientError> {
    reply
        .get("services")
        .and_then(entries_from_value)
        .ok_or(ClientError::Service {
            code: ErrorCode::Internal,
            msg: "malformed lookup reply".into(),
        })
}

/// The ASD `register` command (Fig. 9 step 3), stamped with the
/// registrant's spawn generation.
pub fn register_cmd(entry: &ServiceEntry, incarnation: u64) -> CmdLine {
    CmdLine::new("register")
        .arg("name", entry.name.as_str())
        .arg("host", entry.addr.host.as_str())
        .arg("port", entry.addr.port)
        .arg("room", entry.room.as_str())
        .arg("class", entry.class.as_str())
        .arg("incarnation", incarnation)
}

/// One Network Logger `log` record; `origin` is the `(service, host)` a
/// daemon signs its records with.
pub fn log_cmd(level: &str, msg: impl Into<String>, origin: Option<(&str, &str)>) -> CmdLine {
    let mut cmd = CmdLine::new("log")
        .arg("level", level)
        .arg("msg", ace_lang::Value::Str(msg.into()));
    if let Some((service, host)) = origin {
        cmd.push_arg("service", service);
        cmd.push_arg("host", host);
    }
    cmd
}

/// The `addNotification` subscription (§2.5): when `event` executes on the
/// receiving daemon, invoke `notify_cmd` on `listener` at `addr`.
pub fn subscribe_cmd(
    event: &str,
    listener: &str,
    addr: &ace_net::Addr,
    notify_cmd: &str,
) -> CmdLine {
    CmdLine::new("addNotification")
        .arg("cmd", event)
        .arg("service", listener)
        .arg("host", addr.host.as_str())
        .arg("port", addr.port)
        .arg("notifyCmd", notify_cmd)
}

/// Encode notification registrations as a
/// `notifications={{cmd,service,host,port,notifyCmd},…}` array — carried in
/// `aceUpgrade quiesce` replies so a replacement incarnation keeps every
/// listener the old one had.
pub fn registrations_to_value(rows: &[(String, crate::notify::Registration)]) -> ace_lang::Value {
    use ace_lang::Scalar;
    ace_lang::Value::Array(
        rows.iter()
            .map(|(cmd, r)| {
                vec![
                    Scalar::Str(cmd.clone()),
                    Scalar::Str(r.service.clone()),
                    Scalar::Str(r.addr.host.to_string()),
                    Scalar::Str(r.addr.port.to_string()),
                    Scalar::Str(r.notify_cmd.clone()),
                ]
            })
            .collect(),
    )
}

/// Decode a `notifications=` array back into registrations.  Malformed rows
/// reject the whole value (`None`) — better to restart with no listeners
/// than with a half-decoded registry.
pub fn registrations_from_value(
    value: &ace_lang::Value,
) -> Option<Vec<(String, crate::notify::Registration)>> {
    let rows = match value {
        v if v.as_vector().is_some_and(|s| s.is_empty()) => return Some(Vec::new()),
        v => v.as_array()?,
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != 5 {
            return None;
        }
        let cell = |i: usize| row[i].as_text();
        let port: u16 = cell(3)?.parse().ok()?;
        out.push((
            cell(0)?.to_string(),
            crate::notify::Registration {
                service: cell(1)?.to_string(),
                addr: ace_net::Addr::new(cell(2)?, port),
                notify_cmd: cell(4)?.to_string(),
            },
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_lang::CmdLine;

    #[test]
    fn entries_roundtrip() {
        let entries = vec![
            ServiceEntry {
                name: "cam1".into(),
                addr: ace_net::Addr::new("bar", 1234),
                class: "PTZCamera".into(),
                room: "hawk".into(),
            },
            ServiceEntry {
                name: "proj".into(),
                addr: ace_net::Addr::new("tube", 99),
                class: "Projector".into(),
                room: "hawk".into(),
            },
        ];
        let v = entries_to_value(&entries);
        assert_eq!(entries_from_value(&v), Some(entries.clone()));
        // And the value survives the wire.
        let cmd = CmdLine::new("ok").arg("services", v);
        let back = CmdLine::parse(&cmd.to_wire()).unwrap();
        assert_eq!(
            entries_from_value(back.get("services").unwrap()),
            Some(entries)
        );
    }

    #[test]
    fn entries_empty_roundtrip() {
        let v = entries_to_value(&[]);
        assert_eq!(entries_from_value(&v), Some(vec![]));
    }

    #[test]
    fn entries_reject_malformed() {
        use ace_lang::{Scalar, Value};
        let bad = Value::Array(vec![vec![Scalar::Word("only".into())]]);
        assert_eq!(entries_from_value(&bad), None);
        assert_eq!(entries_from_value(&Value::Int(1)), None);
    }

    #[test]
    fn base_commands_validate() {
        let sem = base_semantics();
        sem.validate(&CmdLine::new("ping")).unwrap();
        sem.validate(
            &CmdLine::new("addNotification")
                .arg("cmd", "ptzMove")
                .arg("service", "recorder")
                .arg("host", "bar")
                .arg("port", 1234)
                .arg("notifyCmd", "onPtzMove"),
        )
        .unwrap();
    }

    #[test]
    fn asd_inherits_base() {
        let sem = asd_semantics();
        sem.validate(&CmdLine::new("ping")).unwrap();
        sem.validate(
            &CmdLine::new("register")
                .arg("name", "foo")
                .arg("host", "bar")
                .arg("port", 1234)
                .arg("room", "hawk")
                .arg("class", "ACEService"),
        )
        .unwrap();
        assert!(sem.validate(&CmdLine::new("register")).is_err());
    }

    #[test]
    fn lookup_args_optional() {
        let sem = asd_semantics();
        sem.validate(&CmdLine::new("lookup")).unwrap();
        sem.validate(&CmdLine::new("lookup").arg("class", "PTZCamera"))
            .unwrap();
    }

    #[test]
    fn roomdb_and_logger_validate() {
        roomdb_semantics()
            .validate(
                &CmdLine::new("roomRegister")
                    .arg("service", "foo")
                    .arg("host", "bar")
                    .arg("port", 1)
                    .arg("room", "hawk"),
            )
            .unwrap();
        logger_semantics()
            .validate(
                &CmdLine::new("log")
                    .arg("level", "info")
                    .arg("msg", "service foo started"),
            )
            .unwrap();
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let state = CmdLine::new("asdState").arg("lease", 300).arg(
            "services",
            entries_to_value(&[ServiceEntry {
                name: "cam1".into(),
                addr: ace_net::Addr::new("bar", 1234),
                class: "PTZCamera".into(),
                room: "hawk".into(),
            }]),
        );
        let sealed = seal_snapshot("asd", state.clone());
        let opened = open_snapshot("asd", &sealed).unwrap();
        assert_eq!(opened.to_wire(), state.to_wire());
    }

    #[test]
    fn snapshot_kind_is_fenced() {
        let sealed = seal_snapshot("asd", CmdLine::new("asdState"));
        assert!(open_snapshot("roomdb", &sealed).is_err());
    }

    #[test]
    fn snapshot_refuses_torn_and_flipped_bytes() {
        let sealed = seal_snapshot("asd", CmdLine::new("asdState").arg("lease", 300));
        // Torn write: any truncation refuses.
        for cut in 1..sealed.len() {
            assert!(
                open_snapshot("asd", &sealed[..cut]).is_err(),
                "accepted a snapshot torn at byte {cut}"
            );
        }
        // Bit flip: corrupt every byte in turn.
        for i in 0..sealed.len() {
            let mut bent = sealed.clone();
            bent[i] ^= 0x04;
            assert!(
                open_snapshot("asd", &bent).is_err(),
                "accepted a snapshot with byte {i} flipped"
            );
        }
    }
}
