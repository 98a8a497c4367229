//! Versioned shard snapshots: the consistent cuts that make sharded
//! execution survivable.
//!
//! The resilient compiler ([`crate::shard::run_sharded_resilient`]) inserts
//! snapshot barriers into the deterministic step tape at fixed tape
//! indices. Because every pair-exchange is *contained within a single
//! step* (send + receive of the same step tag), a barrier at tape index
//! `s` has no in-flight messages crossing it: the set of shards deposited
//! for one version is a consistent global cut by construction. Each rank
//! deposits a bitwise copy of its shard when it reaches the barrier; a
//! version is **complete** once all ranks have deposited, and recovery
//! only ever restores complete versions — a version the dying rank never
//! reached simply stays partial and is ignored.
//!
//! The store is in-memory first (restore must be fast — it is on the
//! recovery critical path) with an optional on-disk mirror of raw
//! little-endian `f64` pairs per shard, so a checkpoint survives the
//! coordinator process too.
//!
//! A cut costs one shard copy per rank, and after warm-up no allocation:
//! each rank copies into a buffer recycled from a pruned version, outside
//! the store mutex. A rank never owns more than `keep + 1` buffers; when a
//! rank runs that far ahead of the slowest one, it recycles its oldest
//! deposit outside the newest complete cut instead. That version then
//! cannot be (or stay) complete, which recovery tolerates: it restores the
//! newest complete cut only.
//! [`SnapshotStore::allocations`] and [`SnapshotStore::bytes_copied`]
//! count both costs.

use nwq_common::{Error, Result, C64};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// One restored consistent cut: the tape can be replayed from
/// `resume_step` with these shards as the initial state.
#[derive(Clone, Debug)]
pub struct RestoredCut {
    /// Snapshot version (0-based, in tape order).
    pub version: usize,
    /// Tape index of the snapshot barrier itself.
    pub step: usize,
    /// Tape index execution resumes from (the step after the barrier).
    pub resume_step: usize,
    /// One bitwise shard copy per rank.
    pub shards: Vec<Vec<C64>>,
}

struct Slot {
    step: usize,
    shards: Vec<Option<Vec<C64>>>,
    deposited: usize,
}

struct Inner {
    slots: BTreeMap<usize, Slot>,
    /// Per rank: buffers of pruned versions, reused by its next deposits.
    spare: Vec<Vec<Vec<C64>>>,
    allocations: u64,
    bytes_copied: u64,
}

impl Inner {
    fn newest_complete(&self, n_ranks: usize) -> Option<(&usize, &Slot)> {
        self.slots
            .iter()
            .rev()
            .find(|(_, s)| s.deposited == n_ranks)
    }

    /// A buffer for `rank`'s next deposit: a spare one; else a fresh one
    /// while the rank owns fewer than `cap`; else its deposit in the
    /// oldest version that is not the newest complete cut.
    fn take_buffer(&mut self, rank: usize, cap: usize, n_ranks: usize) -> Vec<C64> {
        if let Some(buf) = self.spare[rank].pop() {
            return buf;
        }
        let owned = self.slots.values().filter(|s| s.shards[rank].is_some());
        if owned.count() >= cap {
            let newest = self.newest_complete(n_ranks).map(|(&v, _)| v);
            let oldest = self
                .slots
                .iter_mut()
                .find(|(v, s)| Some(**v) != newest && s.shards[rank].is_some());
            if let Some((_, slot)) = oldest {
                slot.deposited -= 1;
                return slot.shards[rank].take().expect("found by is_some");
            }
        }
        self.allocations += 1;
        Vec::new()
    }

    /// Drops every version older than the newest `keep` complete ones —
    /// partial ones too: recovery restores the newest complete cut, so
    /// they can never be read — and keeps their buffers for reuse.
    fn prune(&mut self, keep: usize, n_ranks: usize) {
        let oldest_kept = self
            .slots
            .iter()
            .rev()
            .filter(|(_, s)| s.deposited == n_ranks)
            .nth(keep - 1)
            .map(|(&v, _)| v);
        let Some(oldest_kept) = oldest_kept else {
            return;
        };
        let kept = self.slots.split_off(&oldest_kept);
        for slot in std::mem::replace(&mut self.slots, kept).into_values() {
            for (rank, buf) in slot.shards.into_iter().enumerate() {
                self.spare[rank].extend(buf);
            }
        }
    }
}

/// Versioned, rank-indexed shard snapshot store shared by all workers of a
/// resilient run (and across its recovery generations).
pub struct SnapshotStore {
    n_ranks: usize,
    /// Complete versions kept in memory (older ones are pruned so a long
    /// tape doesn't hold every historical cut).
    keep: usize,
    dir: Option<PathBuf>,
    inner: Mutex<Inner>,
}

impl SnapshotStore {
    /// A store for `n_ranks` shards keeping the newest `keep` complete
    /// versions in memory, optionally mirroring each deposit to `dir`.
    pub fn new(n_ranks: usize, keep: usize, dir: Option<PathBuf>) -> Self {
        SnapshotStore {
            n_ranks,
            keep: keep.max(1),
            dir,
            inner: Mutex::new(Inner {
                slots: BTreeMap::new(),
                spare: vec![Vec::new(); n_ranks],
                allocations: 0,
                bytes_copied: 0,
            }),
        }
    }

    fn lock(&self) -> Result<MutexGuard<'_, Inner>> {
        self.inner.lock().map_err(|_| poisoned())
    }

    /// Deposits rank `rank`'s shard for snapshot `version` taken at tape
    /// index `step`. Re-deposits during replay overwrite bitwise-identical
    /// data (the tape is deterministic), so idempotence is free.
    pub fn deposit(&self, version: usize, step: usize, rank: usize, shard: &[C64]) -> Result<()> {
        if let Some(dir) = &self.dir {
            write_shard_file(dir, version, rank, shard)?;
        }
        let mut buf = self.lock()?.take_buffer(rank, self.keep + 1, self.n_ranks);
        // The copy is the one cost of a cut that scales with the shard; no
        // other rank waits on it.
        buf.clear();
        buf.extend_from_slice(shard);
        let mut guard = self.lock()?;
        let inner = &mut *guard;
        inner.bytes_copied += std::mem::size_of_val(shard) as u64;
        let slot = inner.slots.entry(version).or_insert_with(|| Slot {
            step,
            shards: (0..self.n_ranks).map(|_| None).collect(),
            deposited: 0,
        });
        if slot.step != step {
            let opened = slot.step;
            inner.spare[rank].push(buf);
            return Err(Error::Backend(format!(
                "snapshot v{version}: rank {rank} deposited at step {step}, \
                 but the version was opened at step {opened}"
            )));
        }
        match slot.shards[rank].replace(buf) {
            Some(old) => inner.spare[rank].push(old),
            None => slot.deposited += 1,
        }
        if slot.deposited == self.n_ranks {
            nwq_telemetry::counter_add("resilience.shard_snapshots", 1);
            inner.prune(self.keep, self.n_ranks);
        }
        Ok(())
    }

    /// Shard buffers allocated so far: at most `n_ranks × (keep + 1)`
    /// over the store's life, however many cuts it takes.
    pub fn allocations(&self) -> u64 {
        self.lock().map(|inner| inner.allocations).unwrap_or(0)
    }

    /// Shard bytes copied into the store so far: one shard per deposit.
    pub fn bytes_copied(&self) -> u64 {
        self.lock().map(|inner| inner.bytes_copied).unwrap_or(0)
    }

    /// The newest complete consistent cut, cloned out for respawning
    /// workers. `None` means recovery must restart from the zero state.
    pub fn last_complete(&self) -> Result<Option<RestoredCut>> {
        let inner = self.lock()?;
        let Some((&version, slot)) = inner.newest_complete(self.n_ranks) else {
            return Ok(None);
        };
        let shards = slot
            .shards
            .iter()
            .map(|s| s.as_ref().expect("complete slot has all shards").clone())
            .collect();
        Ok(Some(RestoredCut {
            version,
            step: slot.step,
            resume_step: slot.step + 1,
            shards,
        }))
    }

    /// Number of complete versions currently held in memory.
    pub fn complete_in_memory(&self) -> usize {
        self.lock()
            .map(|inner| {
                inner
                    .slots
                    .values()
                    .filter(|s| s.deposited == self.n_ranks)
                    .count()
            })
            .unwrap_or(0)
    }
}

fn poisoned() -> Error {
    Error::Backend("snapshot store mutex poisoned by a panicking worker".into())
}

fn shard_path(dir: &Path, version: usize, rank: usize) -> PathBuf {
    dir.join(format!("snap_v{version}_r{rank}.bin"))
}

fn write_shard_file(dir: &Path, version: usize, rank: usize, shard: &[C64]) -> Result<()> {
    std::fs::create_dir_all(dir)
        .map_err(|e| Error::Backend(format!("snapshot dir {}: {e}", dir.display())))?;
    let mut bytes = Vec::with_capacity(shard.len() * 16);
    for a in shard {
        bytes.extend_from_slice(&a.re.to_le_bytes());
        bytes.extend_from_slice(&a.im.to_le_bytes());
    }
    let path = shard_path(dir, version, rank);
    std::fs::write(&path, bytes)
        .map_err(|e| Error::Backend(format!("snapshot write {}: {e}", path.display())))
}

/// Reads one on-disk shard mirror back (raw little-endian `f64` pairs);
/// the round trip is bitwise.
pub fn read_shard_file(dir: &Path, version: usize, rank: usize) -> Result<Vec<C64>> {
    let path = shard_path(dir, version, rank);
    let bytes = std::fs::read(&path)
        .map_err(|e| Error::Backend(format!("snapshot read {}: {e}", path.display())))?;
    if bytes.len() % 16 != 0 {
        return Err(Error::Backend(format!(
            "snapshot {}: truncated ({} bytes)",
            path.display(),
            bytes.len()
        )));
    }
    let mut shard = Vec::with_capacity(bytes.len() / 16);
    for chunk in bytes.chunks_exact(16) {
        let re = f64::from_le_bytes(chunk[..8].try_into().expect("8-byte chunk"));
        let im = f64::from_le_bytes(chunk[8..].try_into().expect("8-byte chunk"));
        shard.push(C64::new(re, im));
    }
    Ok(shard)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_of(rank: usize, len: usize) -> Vec<C64> {
        (0..len)
            .map(|i| C64::new(rank as f64 + 0.125 * i as f64, -(i as f64) / 3.0))
            .collect()
    }

    #[test]
    fn partial_versions_are_never_restored() {
        let store = SnapshotStore::new(2, 2, None);
        store.deposit(0, 5, 0, &shard_of(0, 4)).unwrap();
        assert!(store.last_complete().unwrap().is_none());
        store.deposit(0, 5, 1, &shard_of(1, 4)).unwrap();
        let cut = store.last_complete().unwrap().expect("complete");
        assert_eq!((cut.version, cut.step, cut.resume_step), (0, 5, 6));
        assert_eq!(cut.shards[1], shard_of(1, 4));
    }

    #[test]
    fn newest_complete_wins_and_old_versions_are_pruned() {
        let store = SnapshotStore::new(2, 1, None);
        for v in 0..3 {
            store.deposit(v, 10 * v + 1, 0, &shard_of(v, 4)).unwrap();
            store
                .deposit(v, 10 * v + 1, 1, &shard_of(v + 8, 4))
                .unwrap();
        }
        // A newer partial version must not shadow the complete one.
        store.deposit(3, 31, 0, &shard_of(99, 4)).unwrap();
        let cut = store.last_complete().unwrap().expect("complete");
        assert_eq!(cut.version, 2);
        assert_eq!(cut.shards[0], shard_of(2, 4));
        assert_eq!(store.complete_in_memory(), 1);
    }

    #[test]
    fn buffers_are_recycled_and_capped_per_rank() {
        let store = SnapshotStore::new(2, 1, None);
        // Ranks in step: allocation stops at 2 ranks × (keep 1 + 1).
        for v in 0..10 {
            for r in 0..2 {
                store.deposit(v, v, r, &shard_of(v + r, 4)).unwrap();
            }
        }
        assert_eq!(store.allocations(), 4);
        assert_eq!(store.bytes_copied(), 10 * 2 * 4 * 16);
        assert_eq!(
            store.last_complete().unwrap().unwrap().shards[1],
            shard_of(10, 4)
        );
        // Rank 0 runs five cuts ahead: it recycles its own deposits
        // instead of allocating, and the newest complete cut survives.
        for v in 10..15 {
            store.deposit(v, v, 0, &shard_of(v, 4)).unwrap();
        }
        assert_eq!(store.allocations(), 4);
        assert_eq!(store.last_complete().unwrap().unwrap().version, 9);
        // Rank 1 catches up: the cut where rank 0's deposit survived
        // completes, and every older version is pruned.
        for v in 10..15 {
            store.deposit(v, v, 1, &shard_of(v + 1, 4)).unwrap();
        }
        let cut = store.last_complete().unwrap().unwrap();
        assert_eq!(cut.version, 14);
        assert_eq!(cut.shards, vec![shard_of(14, 4), shard_of(15, 4)]);
        assert_eq!(store.complete_in_memory(), 1);
        assert_eq!(store.allocations(), 4);
    }

    #[test]
    fn redeposit_is_idempotent() {
        let store = SnapshotStore::new(2, 2, None);
        store.deposit(0, 3, 0, &shard_of(0, 4)).unwrap();
        store.deposit(0, 3, 1, &shard_of(1, 4)).unwrap();
        // Replay after recovery re-reaches the barrier with identical data.
        store.deposit(0, 3, 0, &shard_of(0, 4)).unwrap();
        let cut = store.last_complete().unwrap().expect("complete");
        assert_eq!(cut.shards[0], shard_of(0, 4));
        // Same version at a different step is a desync, not a replay.
        assert!(store.deposit(0, 4, 0, &shard_of(0, 4)).is_err());
    }

    #[test]
    fn on_disk_mirror_round_trips_bitwise() {
        let dir = std::env::temp_dir().join(format!("nwq-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(2, 2, Some(dir.clone()));
        let shard = vec![
            C64::new(0.1, -0.0),
            C64::new(f64::MIN_POSITIVE, 1.0 / 3.0),
            C64::new(-2.5e-17, 0.0),
            C64::new(1.0, -1.0),
        ];
        store.deposit(4, 9, 1, &shard).unwrap();
        let back = read_shard_file(&dir, 4, 1).unwrap();
        assert_eq!(back.len(), shard.len());
        for (a, b) in back.iter().zip(&shard) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
