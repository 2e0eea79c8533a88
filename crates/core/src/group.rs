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

use crate::daemon::{DaemonHandle, SpawnError};
use crate::supervise::{Respawn, RespawnFn};
use ace_net::{Addr, SimNet};

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
pub trait Replica {
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

impl<T> Replica for (DaemonHandle, T) {
    fn handle(&self) -> &DaemonHandle {
        &self.0
    }
    fn into_handle(self) -> DaemonHandle {
        self.0
    }
}

/// One replica group.  It derefs to `replicas`.
pub struct ReplicaGroup<R: Recipe> {
    /// Each replica as it runs, index-aligned with `addrs`.
    pub replicas: Vec<R::Replica>,
    /// Where each replica listens.
    pub addrs: Vec<Addr>,
    members: Vec<R>,
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
        Ok(ReplicaGroup {
            replicas: members.iter().map(start).collect::<Result<_, _>>()?,
            addrs: addrs.to_vec(),
            members,
        })
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
        let replaced = self.replicas[i].handle();
        replaced.crash();
        let (replica, _) = start(&self.members[i], net, replaced.incarnation() + 1)?;
        self.replicas[i] = replica;
        Ok(())
    }

    /// The Supervisor's factory for replica `i`: each call starts it as
    /// [`ReplicaGroup::respawn`] does, one incarnation above the last.
    pub fn respawn_fn(&self, i: usize) -> RespawnFn {
        let member = self.members[i].clone();
        let mut incarnation = self.replicas[i].handle().incarnation();
        Box::new(move |net: &SimNet| {
            let (replica, note) = member.start(net, incarnation + 1)?;
            incarnation += 1;
            let handle = replica.into_handle();
            Ok(Respawn { handle, note })
        })
    }

    /// Gracefully stop every replica.
    pub fn shutdown(self) {
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
