//! The ACE Fingerprint Identification Unit service — FIU (§4.8).
//!
//! "A simple controller interface for the Sony fingerprint identification
//! unit model FIU-001/500 … loading its tables of known fingerprints,
//! querying it for identification of user fingerprints, and serving as an
//! interface to other ACE services wishing to identify someone and/or
//! receive identification notifications."
//!
//! The Sony hardware is substituted by [`ScannerDevice`]: an enrolled-
//! template matcher with a quality threshold and configurable false-accept/
//! false-reject error injection.  A physical finger press arrives as the
//! `press` command (the environment's stand-in for the device interrupt);
//! successful identification fires the `userIdentified` event that the ID
//! Monitor listens for (Scenario 2).

use crate::aud::find_user;
use ace_core::prelude::*;
use std::collections::HashMap;

/// The simulated fingerprint scanner hardware.
#[derive(Debug)]
pub struct ScannerDevice {
    /// Enrolled template id → enrolment quality in `[0, 1]`.
    templates: HashMap<String, f64>,
    /// Minimum match score to accept.
    threshold: f64,
    /// Probability a matching press is wrongly rejected.
    false_reject: f64,
    /// Probability a non-enrolled press is wrongly accepted as a random
    /// enrolled template.
    false_accept: f64,
}

impl Default for ScannerDevice {
    fn default() -> Self {
        ScannerDevice {
            templates: HashMap::new(),
            threshold: 0.6,
            false_reject: 0.0,
            false_accept: 0.0,
        }
    }
}

/// Outcome of one press against the device.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanOutcome {
    /// Matched this enrolled template with this score.
    Match { template: String, score: f64 },
    /// No enrolled template matched.
    NoMatch,
}

impl ScannerDevice {
    /// A device with error injection (for the robustness experiments).
    pub fn with_error_rates(false_reject: f64, false_accept: f64) -> ScannerDevice {
        ScannerDevice {
            false_reject,
            false_accept,
            ..ScannerDevice::default()
        }
    }

    /// Load one template into the device table.
    pub fn enroll(&mut self, template: &str, quality: f64) {
        self.templates
            .insert(template.to_string(), quality.clamp(0.0, 1.0));
    }

    /// Remove a template.
    pub fn unenroll(&mut self, template: &str) -> bool {
        self.templates.remove(template).is_some()
    }

    /// Number of enrolled templates.
    pub fn enrolled(&self) -> usize {
        self.templates.len()
    }

    /// Match a pressed finger (identified by its template id, with a press
    /// quality in `[0, 1]`) against the table.
    pub fn scan(&self, template: &str, press_quality: f64) -> ScanOutcome {
        if let Some(enrolled_quality) = self.templates.get(template) {
            let score = enrolled_quality * press_quality.clamp(0.0, 1.0);
            if score >= self.threshold && rand::random::<f64>() >= self.false_reject {
                return ScanOutcome::Match {
                    template: template.to_string(),
                    score,
                };
            }
            return ScanOutcome::NoMatch;
        }
        if self.false_accept > 0.0 && rand::random::<f64>() < self.false_accept {
            if let Some((t, q)) = self.templates.iter().next() {
                return ScanOutcome::Match {
                    template: t.clone(),
                    score: *q,
                };
            }
        }
        ScanOutcome::NoMatch
    }
}

/// The FIU service behavior.
pub struct Fiu {
    device: ScannerDevice,
}

impl Fiu {
    pub fn new(device: ScannerDevice) -> Fiu {
        Fiu { device }
    }
}

impl ServiceBehavior for Fiu {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("enrollTemplate", "load a fingerprint template")
                    .required("template", ArgType::Str, "template id")
                    .optional("quality", ArgType::Float, "enrolment quality (default 0.9)"),
            )
            .with(
                CmdSpec::new("unenrollTemplate", "remove a template").required(
                    "template",
                    ArgType::Str,
                    "template id",
                ),
            )
            .with(
                CmdSpec::new("press", "a finger pressed the scanner (device event)")
                    .required("template", ArgType::Str, "template id of the finger")
                    .optional("quality", ArgType::Float, "press quality (default 1.0)"),
            )
            .with(
                CmdSpec::new("verify", "match a template without firing events")
                    .required("template", ArgType::Str, "template id")
                    .optional("quality", ArgType::Float, "press quality"),
            )
            .with(CmdSpec::new("scannerStatus", "device status"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "enrollTemplate" => {
                let template = req_text!(cmd, "template");
                let quality = cmd.get_f64("quality").unwrap_or(0.9);
                self.device.enroll(template, quality);
                Reply::ok()
            }
            "unenrollTemplate" => {
                let template = req_text!(cmd, "template");
                if self.device.unenroll(template) {
                    Reply::ok()
                } else {
                    Reply::err(ErrorCode::NotFound, "template not enrolled")
                }
            }
            "verify" => {
                let template = req_text!(cmd, "template");
                let quality = cmd.get_f64("quality").unwrap_or(1.0);
                match self.device.scan(template, quality) {
                    ScanOutcome::Match { score, .. } => {
                        Reply::ok_with(|c| c.arg("matched", true).arg("score", score))
                    }
                    ScanOutcome::NoMatch => Reply::ok_with(|c| c.arg("matched", false)),
                }
            }
            "press" => {
                let template = req_text!(cmd, "template").to_string();
                let quality = cmd.get_f64("quality").unwrap_or(1.0);
                match self.device.scan(&template, quality) {
                    ScanOutcome::Match { template, score } => {
                        // Resolve the template to a user via the AUD.
                        let query = CmdLine::new("findByFingerprint")
                            .arg("template", Value::Str(template.clone()));
                        match find_user(ctx, &query) {
                            Err(unavailable) => unavailable,
                            Ok(Some(username)) => {
                                ctx.log(
                                    "info",
                                    format!("identified {username} (score {score:.2})"),
                                );
                                let room = ctx.room().to_string();
                                let host = ctx.host().to_string();
                                // Scenario 2: positive identification flows
                                // to listeners (the ID Monitor).
                                ctx.fire_event(
                                    CmdLine::new("userIdentified")
                                        .arg("username", username.as_str())
                                        .arg("room", room.as_str())
                                        .arg("accessHost", host.as_str())
                                        .arg("device", ctx.name())
                                        .arg("score", score),
                                );
                                Reply::ok_with(|c| {
                                    c.arg("identified", true).arg("username", username)
                                })
                            }
                            Ok(None) => {
                                ctx.log(
                                    "security",
                                    format!("matched template {template} has no ACE user"),
                                );
                                ctx.fire_event(
                                    CmdLine::new("identificationFailed")
                                        .arg("device", ctx.name())
                                        .arg("reason", "no_user"),
                                );
                                Reply::ok_with(|c| c.arg("identified", false))
                            }
                        }
                    }
                    ScanOutcome::NoMatch => {
                        ctx.log("security", "fingerprint press did not match");
                        ctx.fire_event(
                            CmdLine::new("identificationFailed")
                                .arg("device", ctx.name())
                                .arg("reason", "no_match"),
                        );
                        Reply::ok_with(|c| c.arg("identified", false))
                    }
                }
            }
            "scannerStatus" => Reply::ok_with(|c| {
                c.arg("enrolled", self.device.enrolled() as i64)
                    .arg("threshold", self.device.threshold)
            }),
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enroll_and_match() {
        let mut d = ScannerDevice::default();
        d.enroll("fp_john", 0.9);
        assert_eq!(
            d.scan("fp_john", 1.0),
            ScanOutcome::Match {
                template: "fp_john".into(),
                score: 0.9
            }
        );
        assert_eq!(d.scan("fp_jane", 1.0), ScanOutcome::NoMatch);
    }

    #[test]
    fn poor_press_quality_rejected() {
        let mut d = ScannerDevice::default();
        d.enroll("fp", 0.9);
        // 0.9 * 0.5 = 0.45 < 0.6 threshold.
        assert_eq!(d.scan("fp", 0.5), ScanOutcome::NoMatch);
    }

    #[test]
    fn false_reject_injection() {
        let mut d = ScannerDevice::with_error_rates(1.0, 0.0);
        d.enroll("fp", 1.0);
        assert_eq!(d.scan("fp", 1.0), ScanOutcome::NoMatch);
    }

    #[test]
    fn false_accept_injection() {
        let mut d = ScannerDevice::with_error_rates(0.0, 1.0);
        d.enroll("fp_real", 1.0);
        assert!(matches!(
            d.scan("fp_stranger", 1.0),
            ScanOutcome::Match { .. }
        ));
    }

    #[test]
    fn unenroll() {
        let mut d = ScannerDevice::default();
        d.enroll("fp", 1.0);
        assert!(d.unenroll("fp"));
        assert!(!d.unenroll("fp"));
        assert_eq!(d.scan("fp", 1.0), ScanOutcome::NoMatch);
    }
}
