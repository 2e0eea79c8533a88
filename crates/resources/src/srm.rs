//! The System Resource Monitor — SRM (§4.2, Fig. 11).
//!
//! "Serves as the resource monitor for all the machines running in an ACE
//! environment … it communicates with all HRMs below it in order to monitor
//! all computing resources at a system wide level thus allowing for uniform
//! allocation and distribution of ACE system resources."
//!
//! The SRM polls every HRM it finds in the ASD.  `bestHost` answers
//! placement queries and *optimistically* charges the expected load to its
//! cache so a burst of placements between polls doesn't herd onto one host.

use crate::hrm::{report_from_reply, ResourceReport};
use ace_core::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The SRM behavior.
pub struct Srm {
    poll_interval: Duration,
    last_poll: Option<Instant>,
    cache: HashMap<String, ResourceReport>,
    polls: u64,
}

impl Srm {
    pub fn new(poll_interval: Duration) -> Srm {
        Srm {
            poll_interval,
            last_poll: None,
            cache: HashMap::new(),
            polls: 0,
        }
    }

    fn poll(&mut self, ctx: &mut ServiceCtx) {
        let Ok(hrms) = ctx.lookup(None, Some("HRM"), None) else {
            return;
        };
        let mut fresh = HashMap::with_capacity(hrms.len());
        for entry in hrms {
            if let Ok(reply) = ctx.call(&entry.addr, &CmdLine::new("getResources")) {
                if let Some(report) = report_from_reply(&reply) {
                    fresh.insert(report.host.clone(), report);
                }
            }
        }
        self.cache = fresh;
        self.polls += 1;
        self.last_poll = Some(ctx.net().clock().now());
    }

    fn poll_if_due(&mut self, ctx: &mut ServiceCtx) {
        let now = ctx.net().clock().now();
        let due = self
            .last_poll
            .is_none_or(|t| now.saturating_duration_since(t) >= self.poll_interval);
        if due {
            self.poll(ctx);
        }
    }
}

impl Default for Srm {
    fn default() -> Self {
        Srm::new(Duration::from_millis(200))
    }
}

fn reports_to_value(reports: &[&ResourceReport]) -> Value {
    Value::Array(
        reports
            .iter()
            .map(|r| {
                vec![
                    Scalar::Str(r.host.clone()),
                    Scalar::Str(r.cpu_bogomips.to_string()),
                    Scalar::Str(r.load.to_string()),
                    Scalar::Str(r.mem_total_mb.to_string()),
                    Scalar::Str(r.mem_used_mb.to_string()),
                    Scalar::Str(r.apps.to_string()),
                ]
            })
            .collect(),
    )
}

/// One per-host resource row: `(host, cpu, load, mem_total, mem_used, apps)`.
pub type SystemRow = (String, f64, f64, i64, i64, i64);

/// Decode a `systemResources` reply into per-host [`SystemRow`] rows.
pub fn system_rows_from_value(value: &Value) -> Option<Vec<SystemRow>> {
    let rows = match value {
        v if v.as_vector().is_some_and(|s| s.is_empty()) => return Some(Vec::new()),
        v => v.as_array()?,
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != 6 {
            return None;
        }
        let cell = |i: usize| row[i].as_text();
        out.push((
            cell(0)?.to_string(),
            cell(1)?.parse().ok()?,
            cell(2)?.parse().ok()?,
            cell(3)?.parse().ok()?,
            cell(4)?.parse().ok()?,
            cell(5)?.parse().ok()?,
        ));
    }
    Some(out)
}

impl ServiceBehavior for Srm {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(CmdSpec::new(
                "systemResources",
                "resource reports for every known host",
            ))
            .with(
                CmdSpec::new("bestHost", "host with the most free capacity")
                    .optional(
                        "expectedLoad",
                        ArgType::Float,
                        "load the caller is about to place (charged optimistically)",
                    )
                    .optional("expectedMem", ArgType::Int, "memory the caller will use"),
            )
            .with(CmdSpec::new("refresh", "force an immediate HRM poll"))
    }

    fn on_start(&mut self, ctx: &mut ServiceCtx) {
        self.poll(ctx);
    }

    fn on_tick(&mut self, ctx: &mut ServiceCtx) {
        self.poll_if_due(ctx);
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "systemResources" => {
                self.poll_if_due(ctx);
                let mut reports: Vec<&ResourceReport> = self.cache.values().collect();
                reports.sort_by(|a, b| a.host.cmp(&b.host));
                Reply::ok_with(|c| {
                    c.arg("count", reports.len() as i64)
                        .arg("hosts", reports_to_value(&reports))
                        .arg("polls", self.polls as i64)
                })
            }
            "bestHost" => {
                self.poll_if_due(ctx);
                let best = self
                    .cache
                    .values()
                    .max_by(|a, b| {
                        a.capacity_score()
                            .partial_cmp(&b.capacity_score())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|r| r.host.clone());
                match best {
                    Some(host) => {
                        // Charge the expected load so back-to-back
                        // placements spread out even between polls.
                        let load = cmd.get_f64("expectedLoad").unwrap_or(0.0);
                        let mem = cmd.get_int("expectedMem").unwrap_or(0);
                        if let Some(r) = self.cache.get_mut(&host) {
                            r.load += load;
                            r.mem_used_mb += mem;
                            r.apps += 1;
                        }
                        Reply::ok_with(|c| c.arg("host", host))
                    }
                    None => Reply::err(ErrorCode::Unavailable, "no hosts known"),
                }
            }
            "refresh" => {
                self.poll(ctx);
                Reply::ok_with(|c| c.arg("hosts", self.cache.len() as i64))
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}
