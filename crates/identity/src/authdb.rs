//! The ACE Authorization Database service (§4.10, Fig. 10).
//!
//! "A database interface service that stores user and client service
//! authorization assertions … utilized by ACE services to lookup certificate
//! assertions for users and other services attempting to execute specific
//! commands.  These assertions are passed onto KeyNote."
//!
//! Credentials are stored (and indexed by every licensee principal they
//! mention) as their canonical text, and cross the wire as blobs: one
//! `text=` per `storeCredential`, and per `fetchCredentials` reply one
//! `credentials=` holding the texts end to end beside `sizes={…}`, their
//! lengths in order — or, when nothing names the licensee, `count=0` alone.
//! (A text client writes the blob as its hex word.)

use ace_core::client::DEFAULT_CALL_TIMEOUT;
use ace_core::prelude::*;
use ace_core::CredentialSource;
use ace_security::keynote::{ActionEnv, Assertion};
use std::collections::HashMap;
use std::sync::Arc;

/// The Authorization Database behavior.
#[derive(Default)]
pub struct AuthDb {
    /// id → credential text.
    credentials: HashMap<String, String>,
    /// licensee principal → credential ids mentioning it.
    by_licensee: HashMap<String, Vec<String>>,
}

impl AuthDb {
    pub fn new() -> AuthDb {
        AuthDb::default()
    }

    /// Keep `text` — the verified `assertion`, as stored — under a new `id`.
    fn insert(&mut self, id: String, text: String, assertion: &Assertion) {
        for principal in assertion.licensees.principals() {
            self.by_licensee
                .entry(principal.to_string())
                .or_default()
                .push(id.clone());
        }
        self.credentials.insert(id, text);
    }

    /// The `fetchCredentials` reply for `licensee`: `count=0` alone when
    /// nothing names it (most principals, most of the time).
    fn fetch(&self, licensee: &str) -> Reply {
        let Some(ids) = self.by_licensee.get(licensee) else {
            return Reply::ok_with(|c| c.arg("count", 0));
        };
        let mut sizes = Vec::with_capacity(ids.len());
        let mut texts = Vec::new();
        for text in ids.iter().filter_map(|id| self.credentials.get(id)) {
            sizes.push(Scalar::Int(text.len() as i64));
            texts.extend_from_slice(text.as_bytes());
        }
        Reply::ok_with(|c| {
            c.arg("count", sizes.len() as i64)
                .arg("sizes", Value::Vector(sizes))
                .arg("credentials", texts)
        })
    }

    /// `removeCredential`: forget `id` and its index entries, which are
    /// under the licensees of the stored text and nowhere else.
    fn remove(&mut self, id: &str) -> Reply {
        let Some(text) = self.credentials.remove(id) else {
            return Reply::err(ErrorCode::NotFound, format!("no credential {id}"));
        };
        let assertion = Assertion::parse(&text).expect("stored texts parsed when stored");
        for principal in assertion.licensees.principals() {
            if let Some(ids) = self.by_licensee.get_mut(principal) {
                ids.retain(|i| i != id);
                if ids.is_empty() {
                    self.by_licensee.remove(principal);
                }
            }
        }
        Reply::ok()
    }
}

impl ServiceBehavior for AuthDb {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("storeCredential", "store a signed KeyNote credential")
                    .required("id", ArgType::Word, "unique credential id")
                    .required("text", ArgType::Blob, "credential text"),
            )
            .with(
                CmdSpec::new("fetchCredentials", "credentials naming a licensee").required(
                    "licensee",
                    ArgType::Str,
                    "principal to fetch for",
                ),
            )
            .with(
                CmdSpec::new("removeCredential", "delete a credential").required(
                    "id",
                    ArgType::Word,
                    "credential id",
                ),
            )
            .with(CmdSpec::new("listCredentials", "all credential ids"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "storeCredential" => {
                let id = req_text!(cmd, "id").to_string();
                let Some(bytes) = cmd.get_blob("text") else {
                    return Reply::err(ErrorCode::Semantics, "text is not a blob");
                };
                let Ok(text) = String::from_utf8(bytes.into_owned()) else {
                    return Reply::err(ErrorCode::Semantics, "credential is not UTF-8");
                };
                // Validate structure *and* signature at the door: the DB
                // never serves forged credentials.
                let assertion = match Assertion::parse(&text) {
                    Ok(a) => a,
                    Err(e) => return Reply::err(ErrorCode::Semantics, e.to_string()),
                };
                if let Err(e) = assertion.verify() {
                    ctx.log("security", format!("rejected credential {id}: {e}"));
                    return Reply::err(ErrorCode::Denied, e.to_string());
                }
                if self.credentials.contains_key(&id) {
                    return Reply::err(ErrorCode::BadState, format!("id {id} already stored"));
                }
                self.insert(id, text, &assertion);
                Reply::ok()
            }
            "fetchCredentials" => self.fetch(req_text!(cmd, "licensee")),
            "removeCredential" => self.remove(req_text!(cmd, "id")),
            "listCredentials" => {
                let mut ids: Vec<Scalar> = self
                    .credentials
                    .keys()
                    .map(|id| Scalar::Str(id.clone()))
                    .collect();
                ids.sort_by(|a, b| match (a, b) {
                    (Scalar::Str(x), Scalar::Str(y)) => x.cmp(y),
                    _ => std::cmp::Ordering::Equal,
                });
                Reply::ok_with(|c| c.arg("ids", Value::Vector(ids)))
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// Typed client for the Authorization Database.
pub struct AuthDbClient {
    client: ServiceClient,
}

impl AuthDbClient {
    pub fn connect(
        net: &SimNet,
        from_host: &HostId,
        authdb: Addr,
        identity: &ace_security::keys::KeyPair,
    ) -> Result<AuthDbClient, ClientError> {
        Ok(AuthDbClient {
            client: ServiceClient::connect(net, from_host, authdb, identity)?,
        })
    }

    /// Store a signed credential under `id`.
    pub fn store(&mut self, id: &str, credential: &Assertion) -> Result<(), ClientError> {
        self.client.call_ok(
            &CmdLine::new("storeCredential")
                .arg("id", id)
                .arg("text", credential.to_text().into_bytes()),
        )
    }

    /// Fetch all credentials naming `licensee`.
    pub fn fetch_for(&mut self, licensee: &str) -> Result<Vec<Assertion>, ClientError> {
        let reply = self.client.call(&fetch_cmd(licensee))?;
        // A reply that does not add up carries no credentials: no authority
        // is ever read out of a frame that cannot be taken apart exactly.
        Ok(credentials_from_reply(&reply).unwrap_or_default())
    }

    /// Delete a credential.
    pub fn remove(&mut self, id: &str) -> Result<(), ClientError> {
        self.client
            .call_ok(&CmdLine::new("removeCredential").arg("id", id))
    }

    /// All credential ids.
    pub fn list(&mut self) -> Result<Vec<String>, ClientError> {
        let reply = self.client.call(&CmdLine::new("listCredentials"))?;
        Ok(reply
            .get_vector("ids")
            .map(|v| {
                v.iter()
                    .filter_map(|s| s.as_text().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default())
    }
}

/// The `fetchCredentials` command for `licensee`.
fn fetch_cmd(licensee: &str) -> CmdLine {
    CmdLine::new("fetchCredentials").arg("licensee", Value::Str(licensee.into()))
}

/// Take a `fetchCredentials` reply apart: `count=0` is no credentials,
/// anything else is `credentials` cut at `sizes`.  `None` unless the sizes
/// use up the blob exactly; a text that does not parse as an assertion is
/// skipped.
fn credentials_from_reply(reply: &CmdLine) -> Option<Vec<Assertion>> {
    if reply.get_int("count") == Some(0) {
        return Some(Vec::new());
    }
    let texts = reply.get_blob("credentials")?;
    let mut rest: &[u8] = &texts;
    let mut out = Vec::new();
    for size in reply.get_vector("sizes")? {
        let Scalar::Int(size) = size else { return None };
        let (text, tail) = rest.split_at_checked(usize::try_from(*size).ok()?)?;
        rest = tail;
        if let Some(a) = std::str::from_utf8(text)
            .ok()
            .and_then(|t| Assertion::parse(t).ok())
        {
            out.push(a);
        }
    }
    rest.is_empty().then_some(out)
}

/// A [`CredentialSource`] backed by a remote Authorization Database — the
/// exact Fig. 10 flow: for each command, the guarded service fetches the
/// requester's credentials from the AuthDB and hands them to KeyNote, each
/// fetch one [`LinkPool::call`] (which redials an AuthDB that restarted).
pub struct RemoteCredentials {
    pool: Arc<LinkPool>,
    authdb: Addr,
}

impl RemoteCredentials {
    pub fn new(
        net: SimNet,
        from_host: HostId,
        authdb: Addr,
        identity: ace_security::keys::KeyPair,
    ) -> RemoteCredentials {
        RemoteCredentials {
            pool: Arc::new(LinkPool::new(&net, from_host, identity)),
            authdb,
        }
    }
}

impl CredentialSource for RemoteCredentials {
    fn credentials_for(&self, principal: &str, _env: &ActionEnv) -> Vec<Assertion> {
        // AuthDB unreachable, or an answer that does not add up: no extra
        // authority.
        self.pool
            .call(&self.authdb, &fetch_cmd(principal), DEFAULT_CALL_TIMEOUT)
            .ok()
            .and_then(|reply| credentials_from_reply(&reply))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_security::keynote::Licensees;
    use ace_security::keys::KeyPair;

    /// A database of `n` credentials `c<i>`, each licensing `user<i>` alone.
    fn database(n: usize) -> AuthDb {
        let admin = KeyPair::generate(&mut rand::thread_rng());
        let mut db = AuthDb::new();
        for i in 0..n {
            let to = Licensees::Principal(format!("user{i}"));
            let credential = Assertion::new(admin.principal(), to, "room == \"hawk\"")
                .and_then(|a| a.sign(&admin))
                .unwrap();
            db.insert(format!("c{i}"), credential.to_text(), &credential);
        }
        db
    }

    #[test]
    fn removal_touches_only_the_credentials_own_licensees() {
        let mut db = database(1000);
        let mut expected = db.by_licensee.clone();
        assert_eq!(expected.remove("user500"), Some(vec!["c500".to_string()]));

        assert!(db.remove("c500").is_ok());
        assert_eq!(
            db.by_licensee, expected,
            "no other list moved, no empty one left"
        );
        let reply = db.fetch("user500");
        assert_eq!(reply.result().unwrap().get_int("count"), Some(0));
        // An empty answer is still a well-formed one, in either form.
        let empty = reply.result().unwrap();
        assert_eq!(credentials_from_reply(empty), Some(vec![]));
        let as_text = CmdLine::parse(&empty.to_wire()).unwrap();
        assert_eq!(credentials_from_reply(&as_text), Some(vec![]));
        assert!(!db.remove("c500").is_ok(), "already gone");
    }

    #[test]
    fn a_credential_shared_by_two_licensees_leaves_both_lists() {
        let admin = KeyPair::generate(&mut rand::thread_rng());
        let mut db = database(2);
        let both = Licensees::Or(vec![
            Licensees::Principal("user0".into()),
            Licensees::Principal("guest".into()),
        ]);
        let shared = Assertion::new(admin.principal(), both, "true")
            .and_then(|a| a.sign(&admin))
            .unwrap();
        db.insert("shared".into(), shared.to_text(), &shared);
        assert_eq!(db.by_licensee["user0"], ["c0", "shared"]);

        assert!(db.remove("shared").is_ok());
        assert_eq!(db.by_licensee["user0"], ["c0"]);
        assert!(!db.by_licensee.contains_key("guest"));
    }

    #[test]
    fn fetch_reply_is_cut_at_its_sizes_or_not_at_all() {
        let admin = KeyPair::generate(&mut rand::thread_rng());
        let mut db = database(1);
        let second = Assertion::new(
            admin.principal(),
            Licensees::Principal("user0".into()),
            "true",
        )
        .and_then(|a| a.sign(&admin))
        .unwrap();
        db.insert("again".into(), second.to_text(), &second);

        let reply = db.fetch("user0").into_result().unwrap();
        let fetched = credentials_from_reply(&reply).unwrap();
        assert_eq!(fetched.len(), 2);
        assert_eq!(fetched[1], second);
        // The text form of the same reply reads the same.
        let text = CmdLine::parse(&reply.to_wire()).unwrap();
        assert_eq!(credentials_from_reply(&text), Some(fetched));

        // Sizes that fall short of, or run past, the blob: no credentials.
        let texts = reply.get_blob("credentials").unwrap().into_owned();
        for sizes in [vec![1], vec![texts.len() as i64, 1], vec![-1]] {
            let sizes = sizes.into_iter().map(Scalar::Int).collect();
            let bad = CmdLine::new("ok")
                .arg("sizes", Value::Vector(sizes))
                .arg("credentials", texts.clone());
            assert_eq!(credentials_from_reply(&bad), None);
        }
    }
}
