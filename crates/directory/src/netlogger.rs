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
use std::collections::VecDeque;
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

/// The Network Logger behavior.
pub struct NetLogger {
    records: VecDeque<LogRecord>,
    capacity: usize,
    next_seq: u64,
    /// Ring evictions, i.e. history lost to bounded retention.  Mirrored
    /// into the daemon's metrics as `shed.records` so a flood that outruns
    /// the ring is visible, never silent.
    records_shed: u64,
    shed_records_counter: Option<Arc<Counter>>,
}

impl NetLogger {
    /// A logger retaining the most recent `capacity` records.
    pub fn new(capacity: usize) -> NetLogger {
        NetLogger {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_seq: 0,
            records_shed: 0,
            shed_records_counter: None,
        }
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
                Reply::ok_with(|c| {
                    c.arg("total", self.next_seq as i64)
                        .arg("retained", self.records.len() as i64)
                        .arg("info", info)
                        .arg("warn", warn)
                        .arg("error", error)
                        .arg("security", security)
                        .arg("recordsShed", self.records_shed as i64)
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
