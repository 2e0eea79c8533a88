//! The canonical ACE environment: every service of the paper, assembled.
//!
//! Builds the building of Fig. 18: framework tier (ASD, Room DB, Logger),
//! identity tier (AUD, AuthDB, FIU, iButton, ID Monitor), resource tier
//! (HRM/HAL per host, SRM/SAL), workspace tier (VNC hosts, WSS), persistent
//! store cluster, and the conference-room devices — fully wired so the §7
//! scenarios run end-to-end.

use crate::devices::{CameraModel, Projector, PtzCamera};
use ace_core::prelude::*;
use ace_core::SpawnError;
use ace_directory::{bootstrap, Framework, RoomDbClient};
use ace_identity::{AuthDb, Fiu, IButtonReader, IdMonitor, ScannerDevice, UserDb, UserDbClient};
use ace_resources::{spawn_host_services, spawn_system_services, HostProfile};
use ace_security::keys::KeyPair;
use ace_store::{spawn_store_cluster, StoreClient, StoreCluster};
use ace_workspace::{wire_wss, VncHost, Wss};
use std::collections::HashMap;
use std::time::Duration;

/// Tuning of the built environment.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// ASD lease duration.
    pub lease: Duration,
    /// Store anti-entropy interval.
    pub store_sync: Duration,
    /// Compute hosts (each gets HRM/HAL; the first two also VNC hosts and
    /// the first three the store replicas).
    pub compute_hosts: Vec<String>,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            lease: Duration::from_secs(10),
            store_sync: Duration::from_millis(200),
            compute_hosts: vec!["bar".into(), "tube".into(), "rod".into()],
        }
    }
}

/// The assembled environment.
pub struct AceEnvironment {
    pub net: SimNet,
    pub fw: Framework,
    pub store: Option<StoreCluster>,
    /// All service daemons by name.
    pub daemons: HashMap<String, DaemonHandle>,
    /// The administrator identity (fully trusted in examples/scenarios).
    pub admin: KeyPair,
    /// The tuning the environment was built with (rolling upgrades rebuild
    /// replacement behaviors from it).
    pub config: EnvConfig,
    pub(crate) teardown_order: Vec<String>,
}

impl AceEnvironment {
    /// Build the canonical environment.
    pub fn build(config: EnvConfig) -> Result<AceEnvironment, SpawnError> {
        let net = SimNet::new();
        net.add_host("core");
        net.add_host("podium"); // the conference-room access point
        for h in &config.compute_hosts {
            net.add_host(h.as_str());
        }

        let fw = bootstrap(&net, "core", config.lease)?;
        let admin = KeyPair::generate(&mut rand::thread_rng());
        let mut daemons: HashMap<String, DaemonHandle> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let add = |daemons: &mut HashMap<String, DaemonHandle>,
                   order: &mut Vec<String>,
                   handle: DaemonHandle| {
            order.push(handle.name().to_string());
            daemons.insert(handle.name().to_string(), handle);
        };

        // Resource tier.
        for h in &config.compute_hosts {
            let (hrm, hal) = spawn_host_services(&net, &fw, h, HostProfile::default())?;
            add(&mut daemons, &mut order, hrm);
            add(&mut daemons, &mut order, hal);
        }
        let (srm, sal) = spawn_system_services(&net, &fw, "core")?;
        add(&mut daemons, &mut order, srm);
        add(&mut daemons, &mut order, sal);

        // Persistent store on the first three compute hosts.
        let store_hosts: Vec<&str> = config
            .compute_hosts
            .iter()
            .take(3)
            .map(String::as_str)
            .collect();
        let store = if store_hosts.len() == 3 {
            Some(spawn_store_cluster(
                &net,
                &fw,
                &store_hosts,
                config.store_sync,
            )?)
        } else {
            None
        };

        // Identity tier.
        add(
            &mut daemons,
            &mut order,
            Daemon::spawn(
                &net,
                fw.service_config("aud", "Service.Database.User", "machineroom", "core", 5200),
                Box::new(UserDb::new()),
            )?,
        );
        add(
            &mut daemons,
            &mut order,
            Daemon::spawn(
                &net,
                fw.service_config(
                    "authdb",
                    "Service.Database.Authorization",
                    "machineroom",
                    "core",
                    5400,
                ),
                Box::new(AuthDb::new()),
            )?,
        );
        add(
            &mut daemons,
            &mut order,
            Daemon::spawn(
                &net,
                fw.service_config(
                    "idmonitor",
                    "Service.IDMonitor",
                    "machineroom",
                    "core",
                    5301,
                ),
                Box::new(IdMonitor::new()),
            )?,
        );

        // Workspace tier: VNC hosts on the first two compute hosts.
        for h in config.compute_hosts.iter().take(2) {
            add(
                &mut daemons,
                &mut order,
                Daemon::spawn(
                    &net,
                    fw.service_config(
                        &format!("vnc_{h}"),
                        "Service.VNCHost",
                        "machineroom",
                        h,
                        5500,
                    ),
                    Box::new(VncHost::new()),
                )?,
            );
        }
        add(
            &mut daemons,
            &mut order,
            Daemon::spawn(
                &net,
                fw.service_config(
                    "wss",
                    "Service.WorkspaceServer",
                    "machineroom",
                    "core",
                    5600,
                ),
                Box::new(Wss::new()),
            )?,
        );

        // Conference room "hawk": identification devices + camera + projector.
        add(
            &mut daemons,
            &mut order,
            Daemon::spawn(
                &net,
                fw.service_config("fiu_hawk", "Service.Device.FIU", "hawk", "podium", 5300),
                Box::new(Fiu::new(ScannerDevice::default())),
            )?,
        );
        add(
            &mut daemons,
            &mut order,
            Daemon::spawn(
                &net,
                fw.service_config(
                    "ibutton_hawk",
                    "Service.Device.IButton",
                    "hawk",
                    "podium",
                    5310,
                ),
                Box::new(IButtonReader::new()),
            )?,
        );
        let camera_host = config
            .compute_hosts
            .first()
            .cloned()
            .unwrap_or_else(|| "core".into());
        add(
            &mut daemons,
            &mut order,
            Daemon::spawn(
                &net,
                fw.service_config(
                    "camera_hawk",
                    CameraModel::Vcc4.class_path(),
                    "hawk",
                    camera_host.as_str(),
                    5320,
                ),
                Box::new(PtzCamera::new(CameraModel::Vcc4)),
            )?,
        );
        add(
            &mut daemons,
            &mut order,
            Daemon::spawn(
                &net,
                fw.service_config(
                    "projector_hawk",
                    Projector::CLASS,
                    "hawk",
                    camera_host.as_str(),
                    5321,
                ),
                Box::new(Projector::new()),
            )?,
        );

        let env = AceEnvironment {
            net,
            fw,
            store,
            daemons,
            admin,
            config,
            teardown_order: order,
        };

        // Wiring (Fig. 18): ID Monitor listens to the identification
        // devices; the WSS listens to the AUD and the ID Monitor.
        IdMonitor::subscribe_to_devices(
            &env.net,
            &env.daemons["idmonitor"],
            &[&env.daemons["fiu_hawk"], &env.daemons["ibutton_hawk"]],
            &env.admin,
        )
        .map_err(|error| SpawnError::Register {
            step: "idmonitor wiring",
            error,
        })?;
        wire_wss(
            &env.net,
            &env.daemons["wss"],
            &env.daemons["aud"],
            Some(&env.daemons["idmonitor"]),
            &env.admin,
        )
        .map_err(|error| SpawnError::Register {
            step: "wss wiring",
            error,
        })?;

        // Seed the floor plan.
        let mut roomdb = RoomDbClient::connect(
            &env.net,
            &"core".into(),
            env.fw.roomdb_addr.clone(),
            &env.admin,
        )
        .map_err(|error| SpawnError::Register {
            step: "floor plan",
            error,
        })?;
        roomdb
            .define_room("hawk", "nichols", (8.0, 6.0, 3.0))
            .map_err(|error| SpawnError::Register {
                step: "floor plan",
                error,
            })?;

        Ok(env)
    }

    /// Address of a named service.
    pub fn addr_of(&self, name: &str) -> Option<Addr> {
        self.daemons.get(name).map(|d| d.addr().clone())
    }

    /// Connect a client (as the admin) to a named service.
    pub fn client(&self, name: &str) -> Result<ServiceClient, ClientError> {
        self.client_as(name, &self.admin)
    }

    /// Connect a client with a specific identity.
    pub fn client_as(&self, name: &str, identity: &KeyPair) -> Result<ServiceClient, ClientError> {
        let addr = self.addr_of(name).ok_or(ClientError::Service {
            code: ErrorCode::NotFound,
            msg: format!("no daemon {name}"),
        })?;
        ServiceClient::connect(&self.net, &"core".into(), addr, identity)
    }

    /// Register an ACE user end-to-end: AUD record plus fingerprint
    /// enrolment on the room scanner (Scenario 1's administrator steps).
    pub fn register_user(
        &self,
        username: &str,
        fullname: &str,
        password: &str,
        user_key: &KeyPair,
        fingerprint: Option<&str>,
        ibutton: Option<&str>,
    ) -> Result<(), ClientError> {
        let mut aud = UserDbClient::connect(
            &self.net,
            &"core".into(),
            self.addr_of("aud").expect("aud exists"),
            &self.admin,
        )?;
        aud.add_user(
            username,
            fullname,
            password,
            &user_key.principal(),
            fingerprint,
            ibutton,
        )?;
        if let Some(template) = fingerprint {
            let mut fiu = self.client("fiu_hawk")?;
            fiu.call_ok(
                &CmdLine::new("enrollTemplate")
                    .arg("template", Value::Str(template.into()))
                    .arg("quality", 0.95),
            )?;
        }
        Ok(())
    }

    /// A user presses their finger on the hawk-room scanner (Scenario 2).
    pub fn press_finger(&self, template: &str) -> Result<CmdLine, ClientError> {
        let mut fiu = self.client("fiu_hawk")?;
        fiu.call(&CmdLine::new("press").arg("template", Value::Str(template.into())))
    }

    /// The hosts both sharded planes spread their replicas over.
    fn compute_hosts(&self) -> Vec<HostId> {
        self.config
            .compute_hosts
            .iter()
            .map(|h| HostId::from(h.as_str()))
            .collect()
    }

    /// Bring up a sharded, replicated directory plane on the environment's
    /// compute hosts (ports 5900+), for workloads whose registration or
    /// lookup volume outgrows the single bootstrap ASD.  The plane uses
    /// the environment's lease duration; callers route through
    /// [`ace_directory::ShardedAsdClient`] (the framework tier keeps using
    /// the bootstrap ASD).
    pub fn spawn_sharded_directory(
        &self,
        shards: usize,
        replication: usize,
    ) -> Result<ace_directory::ShardedDirectory, SpawnError> {
        ace_directory::spawn_sharded_asd(
            &self.net,
            &self.compute_hosts(),
            shards,
            replication,
            self.config.lease,
            5900,
        )
    }

    /// A store client over the environment's replica cluster.
    pub fn store_client(&self, identity: KeyPair) -> Option<StoreClient> {
        self.store.as_ref().map(|cluster| {
            StoreClient::new(self.net.clone(), "core", identity, cluster.addrs.clone())
        })
    }

    /// Graceful teardown in reverse spawn order.
    pub fn shutdown(mut self) {
        for name in self.teardown_order.iter().rev() {
            if let Some(handle) = self.daemons.remove(name) {
                handle.shutdown();
            }
        }
        if let Some(store) = self.store.take() {
            store.shutdown();
        }
        self.fw.shutdown();
    }
}

impl std::fmt::Debug for AceEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AceEnvironment({} daemons + framework)",
            self.daemons.len()
        )
    }
}
