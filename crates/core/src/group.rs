//! One replica group: the one place a replica is started, respawned and
//! handed to a [`Supervisor`](crate::Supervisor), on every plane.
//!
//! The directory's shards and the store's groups (and the store's
//! framework cluster) are the same shape: replica `i` listens at
//! `addrs[i]`, is built by a [`Recipe`] of its own, and restarts by one
//! discipline — what still runs of it is crashed first (its goodbye would
//! remove its successor's registration), and the successor starts at the
//! next incarnation over what its predecessor left behind.  A plane says
//! only what a start is: which behaviour, over which state.
//!
//! Every start writes the replica it started back into the group, whoever
//! made it: the group's own respawn, or a Supervisor's factory
//! ([`ReplicaGroup::respawn_fn`]) on the Supervisor's thread.  The factory
//! writes to a record the group shares with it, and the group reads it at
//! its next `&mut` use ([`ReplicaGroup::sync`]), so a later respawn crashes
//! the replica that actually runs and starts above it.

use crate::daemon::{DaemonHandle, SpawnError};
use crate::supervise::{Respawn, RespawnFn};
use ace_net::{Addr, SimNet};
use parking_lot::Mutex;
use std::sync::Arc;

/// How one replica is built, owned so a respawn factory can outlive the
/// group's borrow.
pub trait Recipe: Clone + Send + 'static {
    /// What the group keeps of a running replica.
    type Replica: Replica;

    /// Start the replica at incarnation `at`.  Incarnation 0 is its first
    /// start; above 0 it restarts over what it left behind and rejoins its
    /// live peers.  The note, if any, rides into the Supervisor's restart
    /// log line.
    fn start(&self, net: &SimNet, at: u64) -> Result<(Self::Replica, Option<String>), SpawnError>;
}

/// A running replica: its daemon, and whatever else a plane keeps beside it.
/// A clone is the same replica (the daemon handle is shared).
pub trait Replica: Clone + Send + 'static {
    /// The replica's daemon.
    fn handle(&self) -> &DaemonHandle;
    /// The daemon alone, as a Supervisor's factory hands it over.
    fn into_handle(self) -> DaemonHandle;
}

impl Replica for DaemonHandle {
    fn handle(&self) -> &DaemonHandle {
        self
    }
    fn into_handle(self) -> DaemonHandle {
        self
    }
}

impl<T: Clone + Send + 'static> Replica for (DaemonHandle, T) {
    fn handle(&self) -> &DaemonHandle {
        &self.0
    }
    fn into_handle(self) -> DaemonHandle {
        self.0
    }
}

/// One replica group.  It derefs to `replicas`.
pub struct ReplicaGroup<R: Recipe> {
    /// Each replica as it runs, index-aligned with `addrs`: as of the
    /// group's last `&mut` use, which reads what a Supervisor's factory
    /// started since ([`ReplicaGroup::sync`]).
    pub replicas: Vec<R::Replica>,
    /// Where each replica listens.
    pub addrs: Vec<Addr>,
    members: Vec<R>,
    /// Each member's replica at the highest incarnation started, shared
    /// with the factories [`ReplicaGroup::respawn_fn`] hands out.
    latest: Arc<Mutex<Vec<R::Replica>>>,
}

impl<R: Recipe> ReplicaGroup<R> {
    /// Start replica `i` at `addrs[i]` from `recipe(i, addr)`, each at
    /// incarnation 0.
    pub fn spawn(
        net: &SimNet,
        addrs: &[Addr],
        mut recipe: impl FnMut(usize, &Addr) -> R,
    ) -> Result<ReplicaGroup<R>, SpawnError> {
        let members: Vec<R> = (0..addrs.len()).map(|i| recipe(i, &addrs[i])).collect();
        let start = |member: &R| member.start(net, 0).map(|(replica, _)| replica);
        let replicas: Vec<R::Replica> = members.iter().map(start).collect::<Result<_, _>>()?;
        Ok(ReplicaGroup {
            latest: Arc::new(Mutex::new(replicas.clone())),
            replicas,
            addrs: addrs.to_vec(),
            members,
        })
    }

    /// Bring `replicas` and the record the factories share to the same
    /// replica per member: the one started at the higher incarnation.  A
    /// factory writes what it starts to the record; a live upgrade writes
    /// its fresh handle into `replicas` and syncs after.
    pub fn sync(&mut self) {
        let mut latest = self.latest.lock();
        for (mine, shared) in self.replicas.iter_mut().zip(latest.iter_mut()) {
            if shared.handle().incarnation() > mine.handle().incarnation() {
                *mine = shared.clone();
            } else {
                *shared = mine.clone();
            }
        }
    }

    /// Replica `i` as it was last started, by the group or by a
    /// Supervisor's factory: what `replicas[i]` is after the next
    /// [`ReplicaGroup::sync`].
    pub fn current(&self, i: usize) -> R::Replica {
        self.latest.lock()[i].clone()
    }

    /// What replica `i` is built from.
    pub fn member(&self, i: usize) -> &R {
        &self.members[i]
    }

    /// What replica `i` is built from, to change before its next start (a
    /// rebuild hands it the fresh storage it shipped into).
    pub fn member_mut(&mut self, i: usize) -> &mut R {
        &mut self.members[i]
    }

    /// Restart replica `i` over what it left behind, at the next
    /// incarnation.
    pub fn respawn(&mut self, net: &SimNet, i: usize) -> Result<(), SpawnError> {
        self.respawn_with(net, i, R::start)
    }

    /// [`ReplicaGroup::respawn`] by a start of the plane's own, over state
    /// it brought along (a store rebuild's shipped disk): what still runs
    /// of replica `i` is crashed, then `start` brings it back at the next
    /// incarnation.
    pub fn respawn_with(
        &mut self,
        net: &SimNet,
        i: usize,
        start: impl FnOnce(&R, &SimNet, u64) -> Result<(R::Replica, Option<String>), SpawnError>,
    ) -> Result<(), SpawnError> {
        self.sync();
        let mut latest = self.latest.lock();
        let replaced = latest[i].handle();
        replaced.crash();
        let (replica, _) = start(&self.members[i], net, replaced.incarnation() + 1)?;
        latest[i] = replica;
        drop(latest);
        self.sync();
        Ok(())
    }

    /// The Supervisor's factory for replica `i`: each call starts it as
    /// [`ReplicaGroup::respawn`] does, one incarnation above the replica
    /// the group last started, and writes what it started back into the
    /// group.
    pub fn respawn_fn(&self, i: usize) -> RespawnFn {
        let member = self.members[i].clone();
        let latest = Arc::clone(&self.latest);
        Box::new(move |net: &SimNet| {
            let mut latest = latest.lock();
            let at = latest[i].handle().incarnation() + 1;
            let (replica, note) = member.start(net, at)?;
            latest[i] = replica.clone();
            let handle = replica.into_handle();
            Ok(Respawn { handle, note })
        })
    }

    /// Gracefully stop every replica.
    pub fn shutdown(mut self) {
        self.sync();
        for replica in self.replicas {
            replica.handle().shutdown();
        }
    }
}

impl<R: Recipe> std::ops::Deref for ReplicaGroup<R> {
    type Target = [R::Replica];
    fn deref(&self) -> &Self::Target {
        &self.replicas
    }
}

impl<'a, R: Recipe> IntoIterator for &'a ReplicaGroup<R> {
    type Item = &'a R::Replica;
    type IntoIter = std::slice::Iter<'a, R::Replica>;
    fn into_iter(self) -> Self::IntoIter {
        self.replicas.iter()
    }
}
