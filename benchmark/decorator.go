package main

import (
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/shard"
)

// Span names of the decorated backend calls.
const (
	spanGather  = "backend.gather"
	spanCommit  = "backend.commit"
	spanSyncWAL = "backend.syncwal"
	spanSeal    = "backend.seal"
	spanCompact = "backend.compact"
)

// timedBackend is a timing decorator around one shard's partition: it is
// handed to shard.Group through shard.Config.Backends, so the per-shard
// Gather and Commit of a Group.Resolve become real child spans of the
// span the harness opened around that Resolve. It changes no argument
// and no result.
type timedBackend struct {
	inner shard.Backend
	rec   *recorder
}

func (t *timedBackend) Len() int    { return t.inner.Len() }
func (t *timedBackend) Blocks() int { return t.inner.Blocks() }

func (t *timedBackend) Gather(keys []string, incs []float64, bi int, nb float64, maxWeighted int, dst []incremental.ShardCand) []incremental.ShardCand {
	id := t.rec.child(spanGather)
	out := t.inner.Gather(keys, incs, bi, nb, maxWeighted, dst)
	t.rec.end(id)
	if id >= 0 {
		t.rec.gathered.Add(int64(len(out)))
	}
	return out
}

func (t *timedBackend) Commit(id entity.ID, p entity.Profile, keys []string) error {
	sp := t.rec.child(spanCommit)
	err := t.inner.Commit(id, p, keys)
	t.rec.end(sp)
	t.rec.sinceSeal.Add(1)
	return err
}

func (t *timedBackend) Snapshot() *incremental.PartitionSnapshot { return t.inner.Snapshot() }

// diskBackend is what a disk partition offers beyond shard.Backend.
type diskBackend interface {
	shard.Backend
	shard.Maintainer
	Close() error
}

// timedDiskBackend decorates a disk partition: the coordinator finds the
// Maintainer methods (and Close) on it exactly as on the partition.
type timedDiskBackend struct {
	timedBackend
	disk diskBackend
}

func (t *timedDiskBackend) PendingBytes() int { return t.disk.PendingBytes() }

func (t *timedDiskBackend) Seal(checkpoint uint64, size int) error {
	sp := t.rec.child(spanSeal)
	err := t.disk.Seal(checkpoint, size)
	t.rec.end(sp)
	t.rec.sinceSeal.Store(0)
	return err
}

// MaybeCompact runs on the actor after the sealing resolve was answered,
// so its span is a root: it is on no resolve's blocking path, it only
// delays the shard's next call.
func (t *timedDiskBackend) MaybeCompact() (bool, error) {
	sp := t.rec.begin(spanCompact, -1, -1)
	ran, err := t.disk.MaybeCompact()
	t.rec.end(sp)
	return ran, err
}

func (t *timedDiskBackend) SyncWAL() error {
	sp := t.rec.child(spanSyncWAL)
	err := t.disk.SyncWAL()
	t.rec.end(sp)
	return err
}

func (t *timedDiskBackend) DiskStats() shard.DiskStats { return t.disk.DiskStats() }
func (t *timedDiskBackend) Close() error               { return t.disk.Close() }
