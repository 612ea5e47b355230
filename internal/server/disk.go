// Out-of-core serving mode: with Config.DiskDir set the index behind the
// façade is the internal/diskindex LSM store — memtable + delta segments
// + background compaction — served through the shard coordinator at any
// shard count (including 1). Answers are bit-identical to the in-memory
// configurations; what changes is that /v1/admin/snapshot becomes a
// checkpoint (seal the memtables, commit manifests) instead of a file
// write, and a restart recovers the newest checkpoint every shard can
// prove instead of starting empty.
package server

import (
	"fmt"

	"metablocking/internal/diskindex"
	"metablocking/internal/incremental"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// diskMode reports whether the server serves the out-of-core index.
func (s *Server) diskMode() bool { return s.cfg.DiskDir != "" }

// newDiskIndex recovers cfg.DiskDir and serves it: the directory's
// newest consistent checkpoint becomes the starting state, new arrivals
// land in memtables, and the coordinator checkpoints whenever a shard's
// memtable exceeds cfg.MemtableBudget. A directory holding data under a
// different resolver configuration is refused — serving it under other
// weights would silently change answers.
func newDiskIndex(cfg Config) (*shard.Group, error) {
	layout, err := store.RecoverDiskDir(cfg.DiskDir, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if layout.Checkpoint > 0 && layout.Cfg != cfg.Resolver {
		layout.Close()
		return nil, fmt.Errorf("server: disk dir %s holds checkpoint %d under config %+v, serving config is %+v",
			cfg.DiskDir, layout.Checkpoint, layout.Cfg, cfg.Resolver)
	}
	return diskGroup(cfg, layout, nil)
}

// diskGroup builds the shard group over disk-backed partitions, either
// adopting the layout's recovered segments (snap nil) or replaying a
// snapshot into fresh memtables over the same directory lineage (snap
// non-nil — the reload path; the layout's recovered segments are
// dropped, its file numbering and checkpoint high-water mark kept).
func diskGroup(cfg Config, layout *store.DiskLayout, snap *incremental.Snapshot) (*shard.Group, error) {
	rcfg := cfg.Resolver
	if snap != nil {
		rcfg = snap.Config
		layout.Close() // reload replaces the contents; keep only the lineage
	}
	parts := make([]*diskindex.Partition, layout.Shards)
	for k, state := range layout.Shard {
		st := state
		if snap != nil {
			st = &store.DiskShardState{Dir: state.Dir, NextSeq: state.NextSeq, NextGen: state.NextGen,
				NextWal: state.NextWal, WALs: state.WALs}
		}
		p, err := diskindex.Open(diskindex.Options{
			Config:       rcfg,
			Shards:       layout.Shards,
			Index:        k,
			State:        st,
			Checkpoint:   layout.Checkpoint,
			Size:         layout.Size,
			CacheBytes:   cfg.DiskCacheBytes,
			CompactAfter: cfg.DiskCompactAfter,
			Metrics:      cfg.metrics,
			WAL:          !cfg.WALDisabled,
			// Reload replays a snapshot against the pre-reload lineage;
			// logging those commits before the post-reload checkpoint
			// exists would poison recovery, so the log opens at the first
			// seal instead.
			WALDefer: snap != nil,
			Fault:    cfg.fault,
		})
		if err != nil {
			layout.Close()
			return nil, err
		}
		parts[k] = p
	}
	scfg := shardConfig(cfg)
	scfg.Resolver = rcfg
	scfg.Shards = layout.Shards
	scfg.Checkpoint = layout.MaxCheckpoint
	scfg.Backends = func(k int) (shard.Backend, error) { return parts[k], nil }
	if snap != nil {
		return shard.FromSnapshot(snap, scfg)
	}
	// Replay the write-ahead tail before the block-count scan: replayed
	// commits land in the memtables like any other arrival, so the
	// restored coordinator sees them in its size and block counts and
	// resumes ID assignment after them.
	size, err := diskindex.ReplayWAL(parts, layout)
	if err != nil {
		for _, p := range parts {
			p.Close()
		}
		return nil, err
	}
	blockSize := make(map[string]int)
	for _, p := range parts {
		p.AddBlockCounts(blockSize)
	}
	return shard.Restored(scfg, size, blockSize)
}

// diskReload is Reload for the out-of-core index: the directory's next
// lineage adopts the snapshot's contents. The old index must be fully
// closed BEFORE the directory is re-scanned — its actors may still be
// compacting — so unlike the in-memory reload this swap briefly leaves
// no serving index; admitted requests wait on s.mu either way. If the
// rebuilt group cannot be produced, the directory (which a failed
// rebuild never modified) is reopened as it was; the reload reports its
// error either way.
func (s *Server) diskReload(snap *incremental.Snapshot) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index.Close()
	g, err := s.rebuildDisk(snap)
	if err != nil {
		if fb, ferr := newDiskIndex(s.cfg); ferr == nil {
			s.index = fb
		} else {
			// Last resort: never serve a nil index. An empty in-memory
			// group keeps the process answering (and /readyz honest
			// about size 0) while the operator repairs the directory.
			s.index, _ = shard.New(shardConfig(s.cfg))
		}
		return 0, err
	}
	s.index = g
	n := g.Size()
	s.breaker.reset()
	s.generation.Add(1) // outstanding resume cursors die with the old index
	s.metrics.Counter(CtrReloads).Inc()
	s.metrics.Gauge(GaugeProfiles).Set(int64(n))
	return n, nil
}

// rebuildDisk replays snap over the directory's next lineage and
// checkpoints it durable. A checkpoint failure (e.g. disk full) keeps
// the group — its in-memory answers are correct — and is surfaced as a
// metric, not a failed reload; the next checkpoint retries the same id.
func (s *Server) rebuildDisk(snap *incremental.Snapshot) (*shard.Group, error) {
	layout, err := store.RecoverDiskDir(s.cfg.DiskDir, s.cfg.Shards)
	if err != nil {
		return nil, err
	}
	g, err := diskGroup(s.cfg, layout, snap)
	if err != nil {
		return nil, err
	}
	if err := g.Checkpoint(); err != nil {
		s.metrics.Text(TextLastError).Set(err.Error())
	}
	return g, nil
}

// Checkpoint seals every shard's memtable and commits manifests under
// the next checkpoint id — the disk-mode durability point behind
// /v1/admin/snapshot. Returns the profile count made durable. In memory
// there is nothing to seal: it fails, and the generation (hence every
// resume cursor) is left alone.
func (s *Server) Checkpoint() (int, error) {
	if !s.diskMode() {
		return 0, fmt.Errorf("server: checkpoint: not serving a disk-backed index")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.index.Checkpoint(); err != nil {
		return 0, err
	}
	// A checkpoint reshapes the on-disk postings the gather path serves
	// from; cursors cut before it cannot prove their frontier is still
	// exact, so the generation advances and they are refused.
	s.generation.Add(1)
	s.metrics.Counter(CtrSnapshots).Inc()
	return s.index.Size(), nil
}
