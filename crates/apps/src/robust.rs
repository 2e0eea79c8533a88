//! Robust applications: state checkpointing over the persistent store.
//!
//! "This type of service utilizes a straightforward object-oriented
//! namespace approach to storing application and program state information
//! and forms the basis for supporting restart and robust applications"
//! (§6).  [`RobustCounter`] is that approach: its state serializes into the
//! `appstate` namespace under its own name, through its daemon's own
//! [`LinkPool`](ace_core::LinkPool); on (re)start it loads its last
//! checkpoint and resumes — the E19 recovery path.

use ace_core::prelude::*;
use ace_store::{StoreClient, StoreError};

/// Namespace used for application state.
pub const APPSTATE_NS: &str = "appstate";

/// A demonstration robust service: a counter whose value survives crashes.
///
/// Every mutation checkpoints; `on_start` restores.  Run under an
/// [`ace_core::Supervisor`] whose respawn factory spawns a fresh
/// `RobustCounter`, a crash→expiry→relaunch cycle comes back with the exact
/// pre-crash count (E19).
pub struct RobustCounter {
    count: i64,
    replicas: Vec<Addr>,
    store: Option<StoreClient>,
    /// The last checkpoint has been read, or the store said there is none.
    /// Until then every verb loads it first, so a count served from a
    /// store that could not be read never overwrites the saved one.
    loaded: bool,
    recovered: bool,
}

impl RobustCounter {
    pub fn new(replicas: Vec<Addr>) -> RobustCounter {
        RobustCounter {
            count: 0,
            replicas,
            store: None,
            loaded: false,
            recovered: false,
        }
    }

    fn store(&mut self, ctx: &ServiceCtx) -> &mut StoreClient {
        self.store.get_or_insert_with(|| {
            StoreClient::new(
                ctx.net().clone(),
                ctx.host().clone(),
                *ctx.identity(),
                self.replicas.clone(),
            )
            .with_pool(ctx.pool())
        })
    }

    /// Read the last checkpoint unless it is loaded already.  Only
    /// `NotFound` means "no checkpoint"; any other error leaves the count
    /// unloaded.
    fn load(&mut self, ctx: &ServiceCtx) -> Result<(), StoreError> {
        if self.loaded {
            return Ok(());
        }
        match self.store(ctx).get(APPSTATE_NS, ctx.name()) {
            Ok(state) => {
                if let Ok(count) = std::str::from_utf8(&state).unwrap_or("").parse() {
                    self.count = count;
                    self.recovered = true;
                    ctx.log("info", format!("recovered state: count={count}"));
                }
            }
            Err(StoreError::NotFound) => {}
            Err(e) => return Err(e),
        }
        self.loaded = true;
        Ok(())
    }

    fn save(&mut self, ctx: &ServiceCtx) {
        let state = self.count.to_string();
        if let Err(e) = self
            .store(ctx)
            .put(APPSTATE_NS, ctx.name(), state.as_bytes())
        {
            ctx.log("error", format!("checkpoint failed: {e}"));
        }
    }
}

impl ServiceBehavior for RobustCounter {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(CmdSpec::new("increment", "add to the counter").optional(
                "by",
                ArgType::Int,
                "amount (default 1)",
            ))
            .with(CmdSpec::new("read", "current value and recovery flag"))
    }

    fn on_start(&mut self, ctx: &mut ServiceCtx) {
        if let Err(e) = self.load(ctx) {
            ctx.log("warn", format!("state load failed: {e}"));
        }
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        if let Err(e) = self.load(ctx) {
            return Reply::err(ErrorCode::Unavailable, format!("state not loaded: {e}"));
        }
        match cmd.name() {
            "increment" => {
                self.count += cmd.get_int("by").unwrap_or(1);
                self.save(ctx);
                Reply::ok_with(|c| c.arg("value", self.count))
            }
            "read" => {
                Reply::ok_with(|c| c.arg("value", self.count).arg("recovered", self.recovered))
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}
