//! File storage for media streams: the sink end of the Fig. 13 pipeline.
//!
//! "It takes the raw video stream from the camera, converts it to a format
//! such as MPEG, and sends it to the file manager service for storage."
//! This service is that file manager: a push-stream sink that writes each
//! frame into the persistent store (namespace `media`, key
//! `<stream>/<seq>`), so recordings inherit the store's three-replica
//! redundancy and survive the recorder's own crash.

use ace_core::prelude::*;
use ace_core::protocol::{hex_decode, hex_encode};
use ace_store::{StoreClient, StoreError};

/// The file-storage behavior.
pub struct FileStorage {
    replicas: Vec<Addr>,
    store: Option<StoreClient>,
    stored: u64,
}

impl FileStorage {
    pub fn new(replicas: Vec<Addr>) -> FileStorage {
        FileStorage {
            replicas,
            store: None,
            stored: 0,
        }
    }

    fn store(&mut self, ctx: &ServiceCtx) -> &mut StoreClient {
        if self.store.is_none() {
            self.store = Some(
                StoreClient::new(
                    ctx.net().clone(),
                    ctx.host().clone(),
                    *ctx.identity(),
                    self.replicas.clone(),
                )
                .with_pool(ctx.pool()),
            );
        }
        self.store.as_mut().expect("just created")
    }

    fn frame_key(stream: &str, seq: i64) -> String {
        format!("{stream}/{seq:08}")
    }
}

impl ServiceBehavior for FileStorage {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(ace_media::stream::push_spec())
            .with(
                CmdSpec::new("mediaList", "stored frame keys of a stream").required(
                    "stream",
                    ArgType::Word,
                    "stream name",
                ),
            )
            .with(
                CmdSpec::new("mediaGet", "fetch one stored frame")
                    .required("stream", ArgType::Word, "stream name")
                    .required("seq", ArgType::Int, "frame sequence number"),
            )
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "push" => {
                let stream = req_text!(cmd, "stream").to_string();
                let seq = req_int!(cmd, "seq");
                let Some(data) = hex_decode(req_text!(cmd, "data")) else {
                    return Reply::err(ErrorCode::Semantics, "data is not valid hex");
                };
                let key = Self::frame_key(&stream, seq);
                match self.store(ctx).put("media", &key, &data) {
                    Ok(_) => {
                        self.stored += 1;
                        Reply::ok_with(|c| c.arg("stored", true))
                    }
                    // A refused frame is counted by the shell:
                    // `cmd.errors.push.E_UNAVAILABLE`.
                    Err(e) => {
                        ctx.log("error", format!("media store failed for {key}: {e}"));
                        Reply::err(ErrorCode::Unavailable, e.to_string())
                    }
                }
            }
            "mediaList" => {
                let stream = req_text!(cmd, "stream");
                match self.store(ctx).list("media") {
                    Ok(keys) => {
                        let prefix = format!("{stream}/");
                        let matches: Vec<Scalar> = keys
                            .into_iter()
                            .filter(|k| k.starts_with(&prefix))
                            .map(Scalar::Str)
                            .collect();
                        Reply::ok_with(|c| {
                            c.arg("count", matches.len() as i64)
                                .arg("keys", Value::Vector(matches))
                        })
                    }
                    Err(e) => Reply::err(ErrorCode::Unavailable, e.to_string()),
                }
            }
            "mediaGet" => {
                let stream = req_text!(cmd, "stream");
                let seq = req_int!(cmd, "seq");
                let key = Self::frame_key(stream, seq);
                match self.store(ctx).get("media", &key) {
                    Ok(data) => Reply::ok_with(|c| c.arg("data", hex_encode(&data))),
                    Err(StoreError::NotFound) => {
                        Reply::err(ErrorCode::NotFound, format!("no frame {key}"))
                    }
                    Err(e) => Reply::err(ErrorCode::Unavailable, e.to_string()),
                }
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        ctx.metrics()
            .gauge("storage.stored")
            .set(self.stored as i64);
    }
}
