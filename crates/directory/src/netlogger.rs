//! The ACE Network Logger service (§4.14).
//!
//! "This service simply stores service activity information within a set of
//! logging files … to record what kinds of activities are present within an
//! ACE system and to serve as a history" for security auditing and
//! debugging.  Records live in a bounded ring; `tail` and `logStats` expose
//! them to administrators.

use ace_core::prelude::*;
use ace_core::protocol;
use ace_core::Counter;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// One activity record.
#[derive(Debug, Clone)]
pub struct LogRecord {
    pub seq: u64,
    pub level: String,
    pub service: String,
    pub host: String,
    pub msg: String,
    pub at: Instant,
}

/// One typed event record: a parsed command line of fields, not free text.
/// Services send these when they have something to record (the logger
/// keeps what it is told; a daemon's metrics are pulled with `aceStats`,
/// never pushed here); `queryEvents` retrieves them per service.
#[derive(Debug, Clone)]
pub struct EventRecord {
    pub seq: u64,
    pub service: String,
    pub kind: String,
    pub host: String,
    /// The decoded payload — e.g. a `stats` command whose `counters` /
    /// `gauges` / `histograms` arrays parse via `StatsReport::from_cmdline`.
    pub fields: CmdLine,
    pub at: Instant,
}

/// Default per-service retention bound for typed event records.
pub const DEFAULT_EVENTS_PER_SERVICE: usize = 256;

/// The Network Logger behavior.
pub struct NetLogger {
    records: VecDeque<LogRecord>,
    capacity: usize,
    next_seq: u64,
    /// Typed events, bounded per originating service so one chatty daemon
    /// cannot evict everyone else's history.
    events: HashMap<String, VecDeque<EventRecord>>,
    events_per_service: usize,
    next_event_seq: u64,
    /// Ring evictions, i.e. history lost to bounded retention.  Mirrored
    /// into the daemon's metrics as `shed.records` / `shed.events` so a
    /// flood that outruns the rings is visible, never silent.
    records_shed: u64,
    events_shed: u64,
    shed_records_counter: Option<Arc<Counter>>,
    shed_events_counter: Option<Arc<Counter>>,
}

impl NetLogger {
    /// A logger retaining the most recent `capacity` records.
    pub fn new(capacity: usize) -> NetLogger {
        NetLogger {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_seq: 0,
            events: HashMap::new(),
            events_per_service: DEFAULT_EVENTS_PER_SERVICE,
            next_event_seq: 0,
            records_shed: 0,
            events_shed: 0,
            shed_records_counter: None,
            shed_events_counter: None,
        }
    }

    /// Override the per-service typed-event retention bound.
    pub fn with_event_capacity(mut self, per_service: usize) -> NetLogger {
        self.events_per_service = per_service.max(1);
        self
    }
}

impl Default for NetLogger {
    fn default() -> Self {
        NetLogger::new(10_000)
    }
}

fn records_to_value(records: &[&LogRecord]) -> Value {
    Value::Array(
        records
            .iter()
            .map(|r| {
                vec![
                    Scalar::Str(r.seq.to_string()),
                    Scalar::Str(r.level.clone()),
                    Scalar::Str(r.service.clone()),
                    Scalar::Str(r.host.clone()),
                    Scalar::Str(r.msg.clone()),
                ]
            })
            .collect(),
    )
}

/// The `queryEvents` reply: rows `{seq, service, kind, host, length}` and,
/// beside them as one `data=` blob, each event's fields in wire form, end to
/// end — the batch row form both planes use ([`protocol::pack_values`]).
fn events_reply(events: &[&EventRecord]) -> Reply {
    let wires: Vec<String> = events.iter().map(|e| e.fields.to_wire()).collect();
    let (rows, data) = protocol::pack_values(events.iter().zip(&wires).map(|(e, wire)| {
        let row = vec![
            Scalar::Str(e.seq.to_string()),
            Scalar::Str(e.service.clone()),
            Scalar::Str(e.kind.clone()),
            Scalar::Str(e.host.clone()),
        ];
        (row, wire.as_bytes())
    }));
    Reply::ok_with(|c| {
        c.arg("count", rows.len() as i64)
            .arg("events", Value::Array(rows))
            .arg("data", data)
    })
}

/// One decoded `queryEvents` row: `(seq, service, kind, host, fields)`.
pub type EventRow = (u64, String, String, String, CmdLine);

/// Decode a `queryEvents` reply into [`EventRow`]s.  `None` unless every row
/// and every event's fields take apart exactly.
pub fn events_from_reply(reply: &CmdLine) -> Option<Vec<EventRow>> {
    let rows = match reply.get("events")? {
        // An empty array encodes as `{}`, which re-parses as an empty
        // vector — treat it as zero rows.
        v if v.as_vector().is_some_and(|s| s.is_empty()) => return Some(Vec::new()),
        v => v.as_array()?,
    };
    let data = reply.get_blob("data")?;
    protocol::unpack_values(rows, &data, 4)?
        .into_iter()
        .map(|(row, fields)| {
            let cell = |i: usize| row[i].as_text();
            Some((
                cell(0)?.parse().ok()?,
                cell(1)?.to_string(),
                cell(2)?.to_string(),
                cell(3)?.to_string(),
                CmdLine::parse(std::str::from_utf8(fields).ok()?).ok()?,
            ))
        })
        .collect()
}

/// One decoded `tail` row: `(seq, level, service, host, msg)`.
pub type LogRow = (u64, String, String, String, String);

/// Decode a `records=` array of a `tail` reply into [`LogRow`] tuples.
pub fn records_from_value(value: &Value) -> Option<Vec<LogRow>> {
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
        out.push((
            cell(0)?.parse().ok()?,
            cell(1)?.to_string(),
            cell(2)?.to_string(),
            cell(3)?.to_string(),
            cell(4)?.to_string(),
        ));
    }
    Some(out)
}

impl ServiceBehavior for NetLogger {
    fn semantics(&self) -> Semantics {
        protocol::logger_semantics()
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, from: &ClientInfo) -> Reply {
        match cmd.name() {
            "log" => {
                let record = LogRecord {
                    seq: self.next_seq,
                    level: req_text!(cmd, "level").to_string(),
                    service: cmd.get_text("service").unwrap_or("-").to_string(),
                    host: cmd
                        .get_text("host")
                        .unwrap_or(from.addr.host.as_str())
                        .to_string(),
                    msg: req_text!(cmd, "msg").to_string(),
                    at: ctx.net().clock().now(),
                };
                self.next_seq += 1;
                if self.records.len() == self.capacity {
                    self.records.pop_front();
                    self.records_shed += 1;
                    self.shed_records_counter
                        .get_or_insert_with(|| ctx.metrics().counter("shed.records"))
                        .incr();
                }
                self.records.push_back(record);
                Reply::ok_with(|c| c.arg("seq", (self.next_seq - 1) as i64))
            }
            "tail" => {
                let count = cmd.get_int("count").unwrap_or(10).max(0) as usize;
                let level = cmd.get_text("level");
                let matches: Vec<&LogRecord> = self
                    .records
                    .iter()
                    .rev()
                    .filter(|r| level.is_none_or(|l| r.level == l))
                    .take(count)
                    .collect();
                // Oldest-first in the reply.
                let ordered: Vec<&LogRecord> = matches.into_iter().rev().collect();
                Reply::ok_with(|c| {
                    c.arg("count", ordered.len() as i64)
                        .arg("records", records_to_value(&ordered))
                })
            }
            "event" => {
                let service = req_text!(cmd, "service").to_string();
                let kind = req_text!(cmd, "kind").to_string();
                let Some(bytes) = cmd.get_blob("data") else {
                    return Reply::err(ErrorCode::Semantics, "data is not a blob");
                };
                let Ok(wire) = std::str::from_utf8(&bytes) else {
                    return Reply::err(ErrorCode::Semantics, "data is not valid UTF-8");
                };
                let fields = match CmdLine::parse(wire) {
                    Ok(fields) => fields,
                    Err(e) => {
                        return Reply::err(
                            ErrorCode::Semantics,
                            format!("data does not parse as a command line: {e}"),
                        )
                    }
                };
                let record = EventRecord {
                    seq: self.next_event_seq,
                    service: service.clone(),
                    kind,
                    host: cmd
                        .get_text("host")
                        .unwrap_or(from.addr.host.as_str())
                        .to_string(),
                    fields,
                    at: ctx.net().clock().now(),
                };
                self.next_event_seq += 1;
                let ring = self.events.entry(service).or_default();
                if ring.len() == self.events_per_service {
                    ring.pop_front();
                    self.events_shed += 1;
                    self.shed_events_counter
                        .get_or_insert_with(|| ctx.metrics().counter("shed.events"))
                        .incr();
                }
                ring.push_back(record);
                Reply::ok_with(|c| c.arg("seq", (self.next_event_seq - 1) as i64))
            }
            "queryEvents" => {
                let service = req_text!(cmd, "service");
                let kind = cmd.get_text("kind");
                let count = cmd.get_int("count").unwrap_or(10).max(0) as usize;
                let matches: Vec<&EventRecord> = self
                    .events
                    .get(service)
                    .map(|ring| {
                        ring.iter()
                            .rev()
                            .filter(|e| kind.is_none_or(|k| e.kind == k))
                            .take(count)
                            .collect()
                    })
                    .unwrap_or_default();
                // Oldest-first in the reply.
                let ordered: Vec<&EventRecord> = matches.into_iter().rev().collect();
                events_reply(&ordered)
            }
            "logStats" => {
                let mut info = 0i64;
                let mut warn = 0i64;
                let mut error = 0i64;
                let mut security = 0i64;
                for r in &self.records {
                    match r.level.as_str() {
                        "info" => info += 1,
                        "warn" => warn += 1,
                        "error" => error += 1,
                        "security" => security += 1,
                        _ => {}
                    }
                }
                let events_retained: usize = self.events.values().map(VecDeque::len).sum();
                Reply::ok_with(|c| {
                    c.arg("total", self.next_seq as i64)
                        .arg("retained", self.records.len() as i64)
                        .arg("info", info)
                        .arg("warn", warn)
                        .arg("error", error)
                        .arg("security", security)
                        .arg("eventsTotal", self.next_event_seq as i64)
                        .arg("eventsRetained", events_retained as i64)
                        .arg("recordsShed", self.records_shed as i64)
                        .arg("eventsShed", self.events_shed as i64)
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// Typed client for the Network Logger.
pub struct LoggerClient {
    client: ServiceClient,
}

impl LoggerClient {
    pub fn connect(
        net: &SimNet,
        from_host: &HostId,
        logger: Addr,
        identity: &ace_security::keys::KeyPair,
    ) -> Result<LoggerClient, ClientError> {
        Ok(LoggerClient {
            client: ServiceClient::connect(net, from_host, logger, identity)?,
        })
    }

    /// Append one record.
    pub fn log(&mut self, level: &str, msg: &str) -> Result<(), ClientError> {
        self.client.call_ok(&protocol::log_cmd(level, msg, None))
    }

    /// The most recent records, oldest first.
    pub fn tail(&mut self, count: usize, level: Option<&str>) -> Result<Vec<LogRow>, ClientError> {
        let mut cmd = CmdLine::new("tail").arg("count", count as i64);
        if let Some(l) = level {
            cmd.push_arg("level", l);
        }
        let reply = self.client.call(&cmd)?;
        reply
            .get("records")
            .and_then(records_from_value)
            .ok_or(ClientError::Service {
                code: ErrorCode::Internal,
                msg: "malformed tail reply".into(),
            })
    }

    /// Push one typed event; `fields` travels in wire form, as a blob.
    pub fn event(
        &mut self,
        service: &str,
        kind: &str,
        fields: &CmdLine,
    ) -> Result<(), ClientError> {
        self.client.call_ok(
            &CmdLine::new("event")
                .arg("service", service)
                .arg("kind", kind)
                .arg("data", fields.to_wire().into_bytes()),
        )
    }

    /// The most recent events for `service`, oldest first.
    pub fn query_events(
        &mut self,
        service: &str,
        kind: Option<&str>,
        count: usize,
    ) -> Result<Vec<EventRow>, ClientError> {
        let mut cmd = CmdLine::new("queryEvents")
            .arg("service", service)
            .arg("count", count as i64);
        if let Some(k) = kind {
            cmd.push_arg("kind", k);
        }
        let reply = self.client.call(&cmd)?;
        events_from_reply(&reply).ok_or(ClientError::Service {
            code: ErrorCode::Internal,
            msg: "malformed queryEvents reply".into(),
        })
    }

    /// `(total ever, retained, info, warn, error, security)` counts.
    pub fn stats(&mut self) -> Result<(u64, u64, u64, u64, u64, u64), ClientError> {
        let reply = self.client.call(&CmdLine::new("logStats"))?;
        let g = |k: &str| reply.get_int(k).unwrap_or(0) as u64;
        Ok((
            g("total"),
            g("retained"),
            g("info"),
            g("warn"),
            g("error"),
            g("security"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, service: &str, fields: CmdLine) -> EventRecord {
        EventRecord {
            seq,
            service: service.into(),
            kind: "stats".into(),
            host: "core".into(),
            fields,
            at: ace_net::Clock::real().now(),
        }
    }

    /// Rows and fields travel in the one batch row form and come back as
    /// they went — through the frame, through the text form (where the blob
    /// is a hex word), and with no rows at all.
    #[test]
    fn query_events_rows_round_trip_in_the_batch_row_form() {
        let events = [
            record(
                3,
                "aud",
                CmdLine::new("stats").arg("msg", Value::Str("a line; with a semicolon".into())),
            ),
            record(
                4,
                "wss",
                CmdLine::new("stats")
                    .arg("n", 7)
                    .arg("raw", vec![0u8, b';', 0xff]),
            ),
            record(9, "aud", CmdLine::new("stats")),
        ];
        let refs: Vec<&EventRecord> = events.iter().collect();
        let reply = events_reply(&refs).into_result().unwrap();
        let expected: Vec<EventRow> = events
            .iter()
            .map(|e| {
                let fields = CmdLine::parse(&e.fields.to_wire()).unwrap();
                (
                    e.seq,
                    e.service.clone(),
                    e.kind.clone(),
                    e.host.clone(),
                    fields,
                )
            })
            .collect();
        let framed = CmdLine::parse_frame(&reply.to_frame()).unwrap();
        assert_eq!(events_from_reply(&framed), Some(expected.clone()));
        let text = CmdLine::parse(&reply.to_wire()).unwrap();
        assert_eq!(events_from_reply(&text), Some(expected));

        let none = events_reply(&[]).into_result().unwrap();
        let none = CmdLine::parse_frame(&none.to_frame()).unwrap();
        assert_eq!(events_from_reply(&none), Some(Vec::new()));

        // Lengths that do not use up the blob exactly: no rows.
        let mut short = reply.clone();
        short.set_arg("data", vec![b'x']);
        assert_eq!(events_from_reply(&short), None);
    }
}
