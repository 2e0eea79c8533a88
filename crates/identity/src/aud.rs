//! The ACE User Database service — AUD (§4.7, Fig. 12).
//!
//! "An ACE interface to a database of valid ACE users and their pertinent
//! information": username, password, full name, identification numbers
//! (fingerprint template, iButton serial), and public key.  The AUD also
//! tracks each user's *current location*, updated by the ID Monitor as
//! users identify themselves around the building (Scenario 2).

use ace_core::prelude::*;
use ace_security::hash::fnv64;
use std::collections::HashMap;

/// One registered ACE user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserRecord {
    pub username: String,
    pub fullname: String,
    /// Salted hash of the password (never the password itself).
    pub password_hash: u64,
    /// Principal string of the user's public key.
    pub public_key: String,
    /// Enrolled fingerprint template id, if any.
    pub fingerprint: Option<String>,
    /// iButton serial number, if any.
    pub ibutton: Option<String>,
    /// Last place the user identified (room, access host).
    pub location: Option<(String, String)>,
}

/// Where the AUD is, as the identification daemons (FIU, iButton reader,
/// ID Monitor) ask before each use: `ctx` holds the answer for a lease and
/// forgets it when a call to that address fails, so an AUD that moved is
/// found again.
pub(crate) fn aud_addr(ctx: &mut ServiceCtx) -> Option<Addr> {
    ctx.lookup_one("aud").ok().flatten().map(|entry| entry.addr)
}

/// Ask the AUD whose identifier this is (`findByFingerprint`,
/// `findByIButton`).  `Ok(None)` is the AUD's own `E_NOTFOUND` and nothing
/// else: an AUD that cannot be found, reached or made to answer is not a
/// stranger at the door.  The identification did not happen, and `Err` is
/// the `E_UNAVAILABLE` the device answers with — no failure event, no
/// security record.
pub(crate) fn find_user(ctx: &mut ServiceCtx, query: &CmdLine) -> Result<Option<String>, Reply> {
    let unavailable = |why: String| Reply::err(ErrorCode::Unavailable, why);
    let aud = aud_addr(ctx).ok_or_else(|| unavailable("no AUD to ask".into()))?;
    match ctx.call(&aud, query) {
        Ok(reply) => Ok(reply.get_text("username").map(str::to_string)),
        Err(ClientError::Service {
            code: ErrorCode::NotFound,
            ..
        }) => Ok(None),
        Err(e) => Err(unavailable(format!("cannot ask the AUD: {e}"))),
    }
}

/// Hash a password with the username as salt.
pub fn password_hash(username: &str, password: &str) -> u64 {
    fnv64(format!("aud:{username}:{password}").as_bytes())
}

/// The AUD behavior.
#[derive(Default)]
pub struct UserDb {
    users: HashMap<String, UserRecord>,
    by_fingerprint: HashMap<String, String>,
    by_ibutton: HashMap<String, String>,
}

impl UserDb {
    pub fn new() -> UserDb {
        UserDb::default()
    }
}

fn user_reply(user: &UserRecord) -> Reply {
    let (room, host) = user
        .location
        .clone()
        .unwrap_or_else(|| (String::new(), String::new()));
    let fingerprint = user.fingerprint.clone().unwrap_or_default();
    let ibutton = user.ibutton.clone().unwrap_or_default();
    Reply::ok_with(move |c| {
        c.arg("username", user.username.as_str())
            .arg("fullname", Value::Str(user.fullname.clone()))
            .arg("publicKey", Value::Str(user.public_key.clone()))
            .arg("fingerprint", Value::Str(fingerprint))
            .arg("ibutton", Value::Str(ibutton))
            .arg("room", Value::Str(room))
            .arg("host", Value::Str(host))
    })
}

impl ServiceBehavior for UserDb {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .with(
                CmdSpec::new("addUser", "register a new ACE user")
                    .required("username", ArgType::Word, "unique login name")
                    .required("fullname", ArgType::Str, "display name")
                    .required("password", ArgType::Str, "initial password")
                    .required("publicKey", ArgType::Str, "user's public-key principal")
                    .optional("fingerprint", ArgType::Str, "fingerprint template id")
                    .optional("ibutton", ArgType::Str, "iButton serial number"),
            )
            .with(CmdSpec::new("getUser", "fetch a user record").required(
                "username",
                ArgType::Word,
                "login name",
            ))
            .with(CmdSpec::new("removeUser", "delete a user record").required(
                "username",
                ArgType::Word,
                "login name",
            ))
            .with(
                CmdSpec::new("checkPassword", "verify a password")
                    .required("username", ArgType::Word, "login name")
                    .required("password", ArgType::Str, "candidate password"),
            )
            .with(
                CmdSpec::new("setLocation", "record where a user identified")
                    .required("username", ArgType::Word, "login name")
                    .required("room", ArgType::Word, "room of identification")
                    .required("host", ArgType::Word, "access host"),
            )
            .with(
                CmdSpec::new("getLocation", "last known user location").required(
                    "username",
                    ArgType::Word,
                    "login name",
                ),
            )
            .with(
                CmdSpec::new("findByFingerprint", "user owning a template").required(
                    "template",
                    ArgType::Str,
                    "fingerprint template id",
                ),
            )
            .with(
                CmdSpec::new("findByIButton", "user owning a serial").required(
                    "serial",
                    ArgType::Str,
                    "iButton serial number",
                ),
            )
            .with(CmdSpec::new("listUsers", "all usernames"))
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "addUser" => {
                let username = req_text!(cmd, "username").to_string();
                if self.users.contains_key(&username) {
                    return Reply::err(
                        ErrorCode::BadState,
                        format!("user {username} already exists"),
                    );
                }
                let record = UserRecord {
                    username: username.clone(),
                    fullname: req_text!(cmd, "fullname").to_string(),
                    password_hash: password_hash(&username, req_text!(cmd, "password")),
                    public_key: req_text!(cmd, "publicKey").to_string(),
                    fingerprint: cmd.get_text("fingerprint").map(str::to_string),
                    ibutton: cmd.get_text("ibutton").map(str::to_string),
                    location: None,
                };
                if let Some(fp) = &record.fingerprint {
                    self.by_fingerprint.insert(fp.clone(), username.clone());
                }
                if let Some(ib) = &record.ibutton {
                    self.by_ibutton.insert(ib.clone(), username.clone());
                }
                self.users.insert(username.clone(), record);
                ctx.log("info", format!("user {username} registered"));
                // Scenario 1: the workspace server watches `userAdded` to
                // provision a default workspace for every new user.
                ctx.fire_event(CmdLine::new("userAdded").arg("username", username.as_str()));
                Reply::ok()
            }
            "getUser" => {
                let username = req_text!(cmd, "username");
                match self.users.get(username) {
                    Some(user) => user_reply(user),
                    None => Reply::err(ErrorCode::NotFound, format!("no user {username}")),
                }
            }
            "removeUser" => {
                let username = req_text!(cmd, "username");
                match self.users.remove(username) {
                    Some(record) => {
                        if let Some(fp) = &record.fingerprint {
                            self.by_fingerprint.remove(fp);
                        }
                        if let Some(ib) = &record.ibutton {
                            self.by_ibutton.remove(ib);
                        }
                        Reply::ok()
                    }
                    None => Reply::err(ErrorCode::NotFound, format!("no user {username}")),
                }
            }
            "checkPassword" => {
                let username = req_text!(cmd, "username");
                let password = req_text!(cmd, "password");
                match self.users.get(username) {
                    Some(user) if user.password_hash == password_hash(username, password) => {
                        Reply::ok()
                    }
                    Some(_) => Reply::err(ErrorCode::Denied, "bad password"),
                    None => Reply::err(ErrorCode::NotFound, format!("no user {username}")),
                }
            }
            "setLocation" => {
                let username = req_text!(cmd, "username");
                let room = req_text!(cmd, "room").to_string();
                let host = req_text!(cmd, "host").to_string();
                match self.users.get_mut(username) {
                    Some(user) => {
                        user.location = Some((room, host));
                        Reply::ok()
                    }
                    None => Reply::err(ErrorCode::NotFound, format!("no user {username}")),
                }
            }
            "getLocation" => {
                let username = req_text!(cmd, "username");
                match self.users.get(username) {
                    Some(user) => match &user.location {
                        Some((room, host)) => Reply::ok_with(|c| {
                            c.arg("room", room.as_str()).arg("host", host.as_str())
                        }),
                        None => Reply::err(ErrorCode::NotFound, "user has no known location"),
                    },
                    None => Reply::err(ErrorCode::NotFound, format!("no user {username}")),
                }
            }
            "findByFingerprint" => {
                let template = req_text!(cmd, "template");
                match self.by_fingerprint.get(template) {
                    Some(username) => Reply::ok_with(|c| c.arg("username", username.as_str())),
                    None => Reply::err(ErrorCode::NotFound, "unknown fingerprint"),
                }
            }
            "findByIButton" => {
                let serial = req_text!(cmd, "serial");
                match self.by_ibutton.get(serial) {
                    Some(username) => Reply::ok_with(|c| c.arg("username", username.as_str())),
                    None => Reply::err(ErrorCode::NotFound, "unknown iButton"),
                }
            }
            "listUsers" => {
                let mut names: Vec<Scalar> =
                    self.users.keys().map(|n| Scalar::Str(n.clone())).collect();
                names.sort_by(|a, b| match (a, b) {
                    (Scalar::Str(x), Scalar::Str(y)) => x.cmp(y),
                    _ => std::cmp::Ordering::Equal,
                });
                Reply::ok_with(|c| c.arg("users", Value::Vector(names)))
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }
}

/// Typed client for the AUD.
pub struct UserDbClient {
    client: ServiceClient,
}

/// Decoded user fields from a `getUser` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserInfo {
    pub username: String,
    pub fullname: String,
    pub public_key: String,
    pub fingerprint: Option<String>,
    pub ibutton: Option<String>,
    pub location: Option<(String, String)>,
}

impl UserDbClient {
    pub fn connect(
        net: &SimNet,
        from_host: &HostId,
        aud: Addr,
        identity: &ace_security::keys::KeyPair,
    ) -> Result<UserDbClient, ClientError> {
        Ok(UserDbClient {
            client: ServiceClient::connect(net, from_host, aud, identity)?,
        })
    }

    /// Register a user.
    #[allow(clippy::too_many_arguments)]
    pub fn add_user(
        &mut self,
        username: &str,
        fullname: &str,
        password: &str,
        public_key: &str,
        fingerprint: Option<&str>,
        ibutton: Option<&str>,
    ) -> Result<(), ClientError> {
        let mut cmd = CmdLine::new("addUser")
            .arg("username", username)
            .arg("fullname", Value::Str(fullname.into()))
            .arg("password", Value::Str(password.into()))
            .arg("publicKey", Value::Str(public_key.into()));
        if let Some(fp) = fingerprint {
            cmd.push_arg("fingerprint", Value::Str(fp.into()));
        }
        if let Some(ib) = ibutton {
            cmd.push_arg("ibutton", Value::Str(ib.into()));
        }
        self.client.call_ok(&cmd)
    }

    /// Fetch a user record.
    pub fn get_user(&mut self, username: &str) -> Result<UserInfo, ClientError> {
        let r = self
            .client
            .call(&CmdLine::new("getUser").arg("username", username))?;
        let opt = |v: Option<&str>| v.filter(|s| !s.is_empty()).map(str::to_string);
        let room = opt(r.get_text("room"));
        let host = opt(r.get_text("host"));
        Ok(UserInfo {
            username: r.get_text("username").unwrap_or(username).to_string(),
            fullname: r.get_text("fullname").unwrap_or("").to_string(),
            public_key: r.get_text("publicKey").unwrap_or("").to_string(),
            fingerprint: opt(r.get_text("fingerprint")),
            ibutton: opt(r.get_text("ibutton")),
            location: room.zip(host),
        })
    }

    /// Does the password match?
    pub fn check_password(&mut self, username: &str, password: &str) -> Result<bool, ClientError> {
        match self.client.call_ok(
            &CmdLine::new("checkPassword")
                .arg("username", username)
                .arg("password", Value::Str(password.into())),
        ) {
            Ok(()) => Ok(true),
            Err(ClientError::Service {
                code: ErrorCode::Denied,
                ..
            }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Record a user's location.
    pub fn set_location(
        &mut self,
        username: &str,
        room: &str,
        host: &str,
    ) -> Result<(), ClientError> {
        self.client.call_ok(
            &CmdLine::new("setLocation")
                .arg("username", username)
                .arg("room", room)
                .arg("host", host),
        )
    }

    /// Last known `(room, host)`.
    pub fn get_location(
        &mut self,
        username: &str,
    ) -> Result<Option<(String, String)>, ClientError> {
        match self
            .client
            .call(&CmdLine::new("getLocation").arg("username", username))
        {
            Ok(r) => Ok(Some((
                r.get_text("room").unwrap_or("").to_string(),
                r.get_text("host").unwrap_or("").to_string(),
            ))),
            Err(ClientError::Service {
                code: ErrorCode::NotFound,
                ..
            }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Owner of a fingerprint template.
    pub fn find_by_fingerprint(&mut self, template: &str) -> Result<Option<String>, ClientError> {
        match self
            .client
            .call(&CmdLine::new("findByFingerprint").arg("template", Value::Str(template.into())))
        {
            Ok(r) => Ok(r.get_text("username").map(str::to_string)),
            Err(ClientError::Service {
                code: ErrorCode::NotFound,
                ..
            }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Owner of an iButton serial.
    pub fn find_by_ibutton(&mut self, serial: &str) -> Result<Option<String>, ClientError> {
        match self
            .client
            .call(&CmdLine::new("findByIButton").arg("serial", Value::Str(serial.into())))
        {
            Ok(r) => Ok(r.get_text("username").map(str::to_string)),
            Err(ClientError::Service {
                code: ErrorCode::NotFound,
                ..
            }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// All usernames.
    pub fn list_users(&mut self) -> Result<Vec<String>, ClientError> {
        let r = self.client.call(&CmdLine::new("listUsers"))?;
        Ok(r.get_vector("users")
            .map(|v| {
                v.iter()
                    .filter_map(|s| s.as_text().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default())
    }

    /// The raw client (for notifications).
    pub fn raw(&mut self) -> &mut ServiceClient {
        &mut self.client
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn password_hash_is_salted() {
        assert_ne!(
            password_hash("alice", "secret"),
            password_hash("bob", "secret")
        );
        assert_eq!(
            password_hash("alice", "secret"),
            password_hash("alice", "secret")
        );
    }
}
