// Package diskindex is the out-of-core shard backend: an LSM-flavored
// posting store that keeps recent commits in an in-memory memtable and
// everything older in immutable, paged, CRC-guarded segment files
// (internal/store), so the resolver serves collections larger than the
// memtable budget — ROADMAP item 1's scale regime.
//
// The write path is the classic LSM shape, cut to this repo's
// single-writer actor model:
//
//   - Commit appends to the memtable: per-token postings.Builders plus
//     the batch's profiles and key lists. O(1) per key, all in RAM.
//   - Seal — triggered by the coordinator's checkpoint, which is also
//     all /v1/admin/snapshot does in disk mode — streams the memtable
//     into a new segment file and commits a manifest naming the shard's
//     full segment list. Manifest-written-last makes the checkpoint the
//     crash-consistency point: a kill at any instant leaves the previous
//     manifest pointing at untouched files.
//   - MaybeCompact, run by the shard actor off the request path, merges
//     every sealed segment into one once enough deltas pile up. The merge
//     streams: sorted token dictionaries zip together and raw varint
//     posting bytes splice with postings.RebaseVarint — no decode, no
//     full-index materialization.
//
// The read path keeps exactly the small state in RAM — the
// incremental.ScanCount kernel (one cell per local slot, the |B_j| key
// count included) and the segments' token dictionaries — while posting
// members and profiles stay on disk behind a byte-budgeted page LRU.
// Gather only locates and decodes member lists; accumulation and
// weighting are the kernel the in-memory incremental.Partition runs, fed
// each token's members segment-by-segment in ascending-ID order (IDs
// only grow across seals, so segment order is ID order), so the two back
// ends cannot disagree on a weight. The partition returns every weighted
// neighbor unpruned — a superset the coordinator's exact merge kernels
// reduce to the identical answer.
//
// Gather and the other read accessors cannot return errors through the
// shard.Backend contract; an I/O failure or a page that fails its CRC
// panics with a descriptive error, which the owning actor recovers into
// a typed per-resolve error (internal/par) — the same containment path
// as any other shard failure.
package diskindex

import (
	"fmt"
	"path/filepath"
	"sort"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
	"metablocking/internal/obs"
	"metablocking/internal/postings"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// Metric names registered on the partition's obs.Metrics. Counters are
// additive across shards.
const (
	CtrSeals       = "diskindex.seals"
	CtrCompactions = "diskindex.compactions"
	CtrPageReads   = "diskindex.page_reads"
	CtrCacheHits   = "diskindex.cache_hits"
	CtrWalAppends  = "diskindex.wal_appends"
	CtrWalSyncs    = "diskindex.wal_syncs"
	// CtrWalReplayed / CtrWalTruncated describe the last recovery:
	// acknowledged records replayed on top of the checkpoint, and frames
	// dropped as torn, undecodable, or beyond the contiguous run.
	CtrWalReplayed  = "diskindex.wal_replayed"
	CtrWalTruncated = "diskindex.wal_truncated"
)

// Options parameterizes one shard's disk-backed partition.
type Options struct {
	// Config is the resolver configuration stamped into every manifest.
	Config incremental.Config
	// Shards and Index place the partition in the hash layout.
	Shards int
	Index  int
	// State is the shard's recovered directory state from
	// store.RecoverDiskDir — segments to adopt (may be empty for a fresh
	// shard) and the next safe file numbers.
	State *store.DiskShardState
	// Checkpoint is the recovered checkpoint id (layout.Checkpoint).
	Checkpoint uint64
	// Size is the recovered global resolver size (layout.Size).
	Size int
	// CacheBytes budgets the page cache. Default 8 MiB.
	CacheBytes int
	// CompactAfter is the sealed-segment count that triggers background
	// compaction. Default 4; minimum 2.
	CompactAfter int
	// WAL enables the per-shard write-ahead log: every Commit is framed
	// and pushed to the OS before it is acknowledged, so a crash between
	// checkpoints loses nothing acknowledged (see store/wal.go).
	WAL bool
	// WALDefer delays log creation until the first Seal — the reload
	// path's mode, where the partition starts by replaying a snapshot
	// that only the *next* checkpoint makes durable; logging those
	// commits against the recovered checkpoint would corrupt recovery if
	// that checkpoint never commits.
	WALDefer bool
	// Fault injects failures at the shard.<k>.wal.* sites. Nil means no
	// injection.
	Fault *fault.Injector
	// Metrics receives the diskindex.* counters. Nil means a private
	// registry.
	Metrics *obs.Metrics
}

// Partition is one disk-backed hash-shard of the incremental index. It
// implements shard.Backend and shard.Maintainer; like every partition it
// is single-writer — the owning shard actor serializes all access.
type Partition struct {
	cfg    incremental.Config
	shards int
	index  int
	dir    string

	// Sealed tier: immutable segments in ascending MinSeq (= ascending
	// ID range) order, plus the lineage counters.
	segs        []*store.Segment
	sealedSlots int
	checkpoint  uint64
	lastSize    int
	nextSeq     uint64
	nextGen     uint64

	// Memtable: unsealed commits.
	mem         map[string]*postings.Builder
	memProfiles []entity.Profile
	memKeys     [][]string
	memBytes    int

	// RAM-resident read state for every local slot, sealed or not.
	scan *incremental.ScanCount

	cache *pageCache

	// members is the posting-decode scratch, reused across gathers.
	members []entity.ID

	compactAfter int
	seals        int64
	compactions  int64

	// Write-ahead log state (see wal.go). wal is nil when the WAL is
	// disabled or deferred; staleWals are directory leftovers from before
	// this open, kept until a manifest covers their records.
	fault      *fault.Injector
	walEnabled bool
	wal        *store.WalWriter
	staleWals  []string
	nextWal    uint64
	walBuf     []byte

	walAppends     int64
	walReplayed    int64
	walTruncated   int64
	walSyncs       int64
	walSyncLastNs  int64
	walSyncTotalNs int64

	siteWalAppend string
	siteWalSync   string
	siteWalRotate string

	ctrSeals        *obs.Counter
	ctrCompactions  *obs.Counter
	ctrWalAppends   *obs.Counter
	ctrWalSyncs     *obs.Counter
	ctrWalReplayed  *obs.Counter
	ctrWalTruncated *obs.Counter
}

// Open builds the partition over a recovered shard directory, adopting
// its segments and loading the RAM tier (key counts) from their indexes
// — no posting page is read until the first gather touches it.
func Open(opts Options) (*Partition, error) {
	if opts.State == nil {
		return nil, fmt.Errorf("diskindex: nil shard state")
	}
	if opts.Config.Scheme == core.EJS {
		return nil, incremental.ErrUnsupportedScheme
	}
	if opts.Config.MaxBlockSize == 0 {
		opts.Config.MaxBlockSize = 1000
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 8 << 20
	}
	if opts.CompactAfter <= 0 {
		opts.CompactAfter = 4
	}
	if opts.CompactAfter < 2 {
		opts.CompactAfter = 2
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewMetrics()
	}
	p := &Partition{
		cfg:          opts.Config,
		shards:       opts.Shards,
		index:        opts.Index,
		dir:          opts.State.Dir,
		segs:         opts.State.Segments,
		checkpoint:   opts.Checkpoint,
		lastSize:     opts.Size,
		nextSeq:      opts.State.NextSeq,
		nextGen:      opts.State.NextGen,
		mem:          make(map[string]*postings.Builder),
		scan:         incremental.NewScanCount(opts.Config.Scheme, opts.Shards),
		compactAfter: opts.CompactAfter,
		cache: newPageCache(opts.CacheBytes,
			metrics.Counter(CtrPageReads), metrics.Counter(CtrCacheHits)),
		fault:           opts.Fault,
		walEnabled:      opts.WAL,
		staleWals:       opts.State.WALs,
		nextWal:         opts.State.NextWal,
		siteWalAppend:   shard.WalAppendSite(opts.Index),
		siteWalSync:     shard.WalSyncSite(opts.Index),
		siteWalRotate:   shard.WalRotateSite(opts.Index),
		ctrSeals:        metrics.Counter(CtrSeals),
		ctrCompactions:  metrics.Counter(CtrCompactions),
		ctrWalAppends:   metrics.Counter(CtrWalAppends),
		ctrWalSyncs:     metrics.Counter(CtrWalSyncs),
		ctrWalReplayed:  metrics.Counter(CtrWalReplayed),
		ctrWalTruncated: metrics.Counter(CtrWalTruncated),
	}
	for _, seg := range p.segs {
		meta := seg.Meta()
		if meta.Shard != p.index || meta.Shards != p.shards {
			return nil, fmt.Errorf("diskindex: segment %s labeled shard %d/%d, partition is %d/%d",
				seg.Path(), meta.Shard, meta.Shards, p.index, p.shards)
		}
		if meta.FirstSlot != p.sealedSlots {
			return nil, fmt.Errorf("diskindex: segment %s starts at slot %d, expected %d",
				seg.Path(), meta.FirstSlot, p.sealedSlots)
		}
		for _, n := range seg.KeyCounts() {
			p.scan.AddSlot(int(n))
		}
		p.sealedSlots += meta.Profiles
	}
	if p.walEnabled && !opts.WALDefer {
		if err := p.openWal(p.checkpoint, p.lastSize); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// slots returns the local profile count, sealed plus memtable.
func (p *Partition) slots() int { return p.sealedSlots + len(p.memProfiles) }

// Len implements shard.Backend.
func (p *Partition) Len() int { return p.slots() }

// Blocks implements shard.Backend: distinct block keys across the
// sealed segments and the memtable. Sealed dictionaries can overlap each
// other and the memtable, so this merges the sorted token lists.
func (p *Partition) Blocks() int {
	toks := make(map[string]struct{})
	for _, seg := range p.segs {
		for _, t := range seg.Tokens() {
			toks[t] = struct{}{}
		}
	}
	for t := range p.mem {
		toks[t] = struct{}{}
	}
	return len(toks)
}

// fail panics with a diskindex-labeled error; the shard actor recovers
// it into a per-resolve error (see the package comment).
func fail(err error) {
	panic(fmt.Errorf("diskindex: %w", err))
}

// Gather implements shard.Backend: each live key's members — every
// sealed segment's page slice, then the memtable — are fed to the
// ScanCount kernel. maxWeighted is ignored — every weighted neighbor is
// returned, a superset the coordinator's exact top-K merge prunes to
// the identical result.
func (p *Partition) Gather(keys []string, incs []float64, bi int, nb float64, _ int, dst []incremental.ShardCand) []incremental.ShardCand {
	p.scan.Begin()
	for ki, k := range keys {
		inc := incs[ki]
		if inc == incremental.SkipKey {
			continue
		}
		for _, seg := range p.segs {
			ti, ok := seg.FindToken(k)
			if !ok {
				continue
			}
			ref := seg.Ref(ti)
			page, err := p.cache.page(seg, ref.Page)
			if err != nil {
				fail(err)
			}
			enc := page[ref.Off : ref.Off+ref.Len]
			p.members = postings.AppendDecoded(p.members[:0], enc, int(ref.Count))
			p.scan.Scan(ki, inc, p.members)
		}
		if b := p.mem[k]; b != nil {
			p.members = b.AppendTo(p.members[:0])
			p.scan.Scan(ki, inc, p.members)
		}
	}
	return p.scan.Weigh(bi, nb, 0, dst)
}

// Commit implements shard.Backend: the profile and its keys join the
// memtable.
func (p *Partition) Commit(id entity.ID, prof entity.Profile, keys []string) error {
	if incremental.ShardOf(id, p.shards) != p.index {
		return fmt.Errorf("diskindex: profile %d committed to shard %d of %d, belongs on %d",
			id, p.index, p.shards, incremental.ShardOf(id, p.shards))
	}
	if slot := int(id) / p.shards; slot != p.slots() {
		return fmt.Errorf("diskindex: profile %d arrives at shard %d slot %d, expected slot %d",
			id, p.index, slot, p.slots())
	}
	prof.ID = id
	var kept []string
	if len(keys) > 0 {
		kept = make([]string, len(keys))
		copy(kept, keys)
	}
	// Log before state: the record reaches the OS before the memtable
	// mutates, so an append failure leaves nothing to acknowledge and a
	// crash after acknowledgment always finds the record on disk.
	if p.wal != nil {
		if err := p.fault.Check(p.siteWalAppend); err != nil {
			return err
		}
		p.walBuf = store.AppendWalRecord(p.walBuf[:0], store.WalRecord{ID: id, Profile: prof, Keys: kept})
		if err := p.wal.Append(p.walBuf); err != nil {
			return err
		}
		p.walAppends++
		p.ctrWalAppends.Inc()
	}
	p.memProfiles = append(p.memProfiles, prof)
	p.memKeys = append(p.memKeys, kept)
	p.scan.AddSlot(len(keys))
	for _, k := range keys {
		b := p.mem[k]
		if b == nil {
			b = new(postings.Builder)
			p.mem[k] = b
		}
		b.Append(id)
	}
	p.memBytes += estimateBytes(prof, kept)
	return nil
}

// estimateBytes approximates one commit's memtable footprint: profile
// strings, key strings, and per-entry bookkeeping. The estimate only
// drives the seal trigger; it need not be exact.
func estimateBytes(p entity.Profile, keys []string) int {
	n := 64
	for _, a := range p.Attributes {
		n += len(a.Name) + len(a.Value) + 32
	}
	for _, k := range keys {
		n += len(k) + 24
	}
	return n
}

// PendingBytes implements shard.Maintainer.
func (p *Partition) PendingBytes() int { return p.memBytes }

// Seal implements shard.Maintainer: stream the memtable into a new
// segment (when non-empty), then commit a manifest under the
// coordinator's checkpoint id — the durability point. On any error the
// previous manifest and its files are untouched.
//
// The write-ahead log rotates inside the same protocol: the next log
// generation — bound to the (checkpoint, size) about to commit — is
// created *before* the manifest, and the manifest commit's retention
// sweep deletes the superseded log. A crash before the manifest leaves
// the old log matching the old checkpoint (full replay); a crash after
// leaves the new, empty log matching the new one. If the manifest
// commit fails, the new log is discarded and the old one stays live, so
// later commits keep extending the lineage recovery will actually load.
func (p *Partition) Seal(checkpoint uint64, size int) error {
	// Rotate unconditionally, even when the live log holds no records: a
	// log is bound to the checkpoint it extends, and once this seal
	// commits, an old-bound log's later appends would be discarded by
	// recovery's lineage check. (The fuzzer found exactly that: empty
	// shard at checkpoint N, commits after it, crash — lost.)
	var newWal *store.WalWriter
	if p.walEnabled {
		if err := p.fault.Check(p.siteWalRotate); err != nil {
			return err
		}
		w, err := store.CreateWal(filepath.Join(p.dir, store.WalFileName(p.nextWal)),
			store.WalMetaFor(p.cfg, p.index, p.shards, checkpoint, size))
		if err != nil {
			return err
		}
		newWal = w
	}
	abort := func(err error) error {
		if newWal != nil {
			newWal.Remove()
		}
		return err
	}
	if len(p.memProfiles) > 0 {
		seq := p.nextSeq
		meta := store.SegmentMeta{
			Shard:     p.index,
			Shards:    p.shards,
			MinSeq:    seq,
			Seq:       seq,
			FirstSlot: p.sealedSlots,
			Profiles:  len(p.memProfiles),
		}
		toks := make([]string, 0, len(p.mem))
		for t := range p.mem {
			toks = append(toks, t)
		}
		sort.Strings(toks)
		src := store.SegmentSource{
			Tokens: func(emit func(tok string, enc []byte, count, last int32) error) error {
				for _, t := range toks {
					b := p.mem[t]
					if err := emit(t, b.Bytes(), int32(b.Len()), b.Last()); err != nil {
						return err
					}
				}
				return nil
			},
			Profiles: func(emit func(prof entity.Profile, keys []string) error) error {
				for i := range p.memProfiles {
					if err := emit(p.memProfiles[i], p.memKeys[i]); err != nil {
						return err
					}
				}
				return nil
			},
		}
		path := filepath.Join(p.dir, store.SegmentFileName(seq))
		if err := store.WriteSegment(path, meta, src); err != nil {
			return abort(err)
		}
		seg, err := store.OpenSegment(path, false)
		if err != nil {
			return abort(err)
		}
		p.segs = append(p.segs, seg)
		p.sealedSlots += len(p.memProfiles)
		p.nextSeq++
		clear(p.mem)
		p.memProfiles = p.memProfiles[:0]
		p.memKeys = p.memKeys[:0]
		p.memBytes = 0
	}
	keep := p.liveWalName(newWal)
	if err := p.commitManifest(checkpoint, size, keep...); err != nil {
		return abort(err)
	}
	if newWal != nil {
		if p.wal != nil {
			p.wal.Close() // its file is gone — the sweep just reclaimed it
		}
		p.wal = newWal
		p.nextWal++
	}
	// Everything the stale logs held is inside the manifest now; the
	// sweep deleted the files.
	p.staleWals = nil
	p.seals++
	p.ctrSeals.Inc()
	return nil
}

// liveWalName is the keep-set for a manifest-commit sweep: the log that
// stays authoritative after the commit (a just-rotated generation or
// the current one).
func (p *Partition) liveWalName(pending *store.WalWriter) []string {
	if pending != nil {
		return []string{pending.Name()}
	}
	if p.wal != nil {
		return []string{p.wal.Name()}
	}
	return nil
}

// commitManifest writes the manifest naming the current segment list and
// advances the lineage counters, then applies the retention sweep —
// which also reclaims every write-ahead log not named in keepWals.
func (p *Partition) commitManifest(checkpoint uint64, size int, keepWals ...string) error {
	names := make([]string, len(p.segs))
	for i, seg := range p.segs {
		names[i] = filepath.Base(seg.Path())
	}
	m := store.DiskManifest{
		Scheme:         int(p.cfg.Scheme),
		K:              p.cfg.K,
		MaxBlockSize:   p.cfg.MaxBlockSize,
		MinTokenLength: p.cfg.MinTokenLength,
		Shard:          p.index,
		Shards:         p.shards,
		Checkpoint:     checkpoint,
		Size:           size,
		LocalGen:       p.nextGen,
		Segments:       names,
	}
	if err := store.SaveDiskManifest(p.dir, m); err != nil {
		return err
	}
	p.nextGen++
	p.checkpoint = checkpoint
	p.lastSize = size
	store.SweepShardDir(p.dir, checkpoint, keepWals...)
	return nil
}

// MaybeCompact implements shard.Maintainer: once CompactAfter sealed
// deltas accumulate, merge them all into one segment and commit a
// manifest for it under the same checkpoint. The merge streams token and
// profile data segment-by-segment; the pre-compaction manifest survives
// the sweep (same checkpoint), so a later corruption of the merged file
// falls back to the un-merged generation.
func (p *Partition) MaybeCompact() (bool, error) {
	if len(p.segs) < p.compactAfter || p.checkpoint == 0 {
		return false, nil
	}
	seq := p.nextSeq
	meta := store.SegmentMeta{
		Shard:     p.index,
		Shards:    p.shards,
		MinSeq:    p.segs[0].Meta().MinSeq,
		Seq:       seq,
		FirstSlot: p.segs[0].Meta().FirstSlot,
		Profiles:  p.sealedSlots - p.segs[0].Meta().FirstSlot,
	}
	path := filepath.Join(p.dir, store.SegmentFileName(seq))
	if err := store.WriteSegment(path, meta, p.mergeSource()); err != nil {
		return false, err
	}
	merged, err := store.OpenSegment(path, false)
	if err != nil {
		return false, err
	}
	old := p.segs
	p.segs = []*store.Segment{merged}
	p.nextSeq++
	// Keep the live log and any stale ones: a compaction manifest covers
	// only sealed slots, and the stale logs may hold memtable records a
	// WAL-disabled open replayed but has not resealed yet.
	keep := append(p.liveWalName(nil), p.staleWals...)
	if err := p.commitManifest(p.checkpoint, p.lastSize, keep...); err != nil {
		// The merged file is orphaned (no manifest names it); the sealed
		// state is unchanged. Fall back to the old segment set.
		merged.Close()
		p.segs = old
		return false, err
	}
	for _, seg := range old {
		p.cache.dropSegment(seg)
		seg.Close()
	}
	p.compactions++
	p.ctrCompactions.Inc()
	return true, nil
}

// mergeSource streams the union of every sealed segment: tokens zip
// together in dictionary order with their raw posting bytes spliced by
// RebaseVarint (segments cover disjoint ascending ID ranges), profiles
// chain in slot order. Bounded memory: one posting list and one profile
// chunk at a time.
func (p *Partition) mergeSource() store.SegmentSource {
	segs := p.segs
	return store.SegmentSource{
		Tokens: func(emit func(tok string, enc []byte, count, last int32) error) error {
			heads := make([]int, len(segs))
			pages := make([]segPage, len(segs))
			var enc []byte
			for {
				tok := ""
				found := false
				for si, seg := range segs {
					if heads[si] >= len(seg.Tokens()) {
						continue
					}
					if t := seg.Tokens()[heads[si]]; !found || t < tok {
						tok, found = t, true
					}
				}
				if !found {
					return nil
				}
				enc = enc[:0]
				var count int32
				var last int32 = -1
				for si, seg := range segs {
					if heads[si] >= len(seg.Tokens()) || seg.Tokens()[heads[si]] != tok {
						continue
					}
					ref := seg.Ref(heads[si])
					raw, err := pages[si].bytes(seg, ref)
					if err != nil {
						return err
					}
					if count == 0 {
						enc = append(enc, raw...)
					} else {
						enc = postings.RebaseVarint(enc, last, raw)
					}
					count += ref.Count
					last = ref.Last
					heads[si]++
				}
				if err := emit(tok, enc, count, last); err != nil {
					return err
				}
			}
		},
		Profiles: func(emit func(prof entity.Profile, keys []string) error) error {
			var scratch []byte
			for _, seg := range segs {
				for ci := 0; ci < seg.ProfileChunks(); ci++ {
					var profiles []entity.Profile
					var keys [][]string
					var err error
					profiles, keys, scratch, err = seg.ReadProfileChunk(ci, scratch)
					if err != nil {
						return err
					}
					for i := range profiles {
						if err := emit(profiles[i], keys[i]); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
	}
}

// segPage caches one segment's current page during a merge — tokens are
// packed in dictionary order, so reads walk pages sequentially.
type segPage struct {
	idx int32
	buf []byte
	ok  bool
}

func (sp *segPage) bytes(seg *store.Segment, ref store.TokenRef) ([]byte, error) {
	if !sp.ok || sp.idx != ref.Page {
		var err error
		if sp.buf, err = seg.ReadPage(int(ref.Page), sp.buf); err != nil {
			return nil, err
		}
		sp.idx, sp.ok = ref.Page, true
	}
	return sp.buf[ref.Off : ref.Off+ref.Len], nil
}

// DiskStats implements shard.Maintainer.
func (p *Partition) DiskStats() shard.DiskStats {
	st := shard.DiskStats{
		Segments:       len(p.segs),
		MemtableBytes:  p.memBytes,
		Checkpoint:     p.checkpoint,
		Seals:          p.seals,
		Compactions:    p.compactions,
		PageReads:      p.cache.reads,
		CacheHits:      p.cache.hits,
		WalAppends:     p.walAppends,
		WalReplayed:    p.walReplayed,
		WalTruncated:   p.walTruncated,
		WalSyncs:       p.walSyncs,
		WalSyncLastNs:  p.walSyncLastNs,
		WalSyncTotalNs: p.walSyncTotalNs,
	}
	if p.wal != nil {
		st.WalBytes = p.wal.Bytes()
	}
	return st
}

// AddBlockCounts folds the partition's per-token member counts into the
// coordinator's global block-cardinality map — what Restored groups need
// instead of replaying every commit.
func (p *Partition) AddBlockCounts(m map[string]int) {
	for _, seg := range p.segs {
		toks := seg.Tokens()
		for ti := range toks {
			m[toks[ti]] += int(seg.Ref(ti).Count)
		}
	}
	for t, b := range p.mem {
		m[t] += b.Len()
	}
}

// Snapshot implements shard.Backend: the canonical in-memory segment,
// read back from the sealed files' profile pages plus the memtable. Shapes
// match incremental.Partition.Snapshot exactly (nil for empty profile
// lists and key lists) so DeepEqual equivalence holds across backends.
func (p *Partition) Snapshot() *incremental.PartitionSnapshot {
	s := &incremental.PartitionSnapshot{
		BlocksOf: make([][]string, 0, p.slots()),
	}
	var scratch []byte
	for _, seg := range p.segs {
		for ci := 0; ci < seg.ProfileChunks(); ci++ {
			profiles, keys, sc, err := seg.ReadProfileChunk(ci, scratch)
			if err != nil {
				fail(err)
			}
			scratch = sc
			s.Profiles = append(s.Profiles, profiles...)
			s.BlocksOf = append(s.BlocksOf, keys...)
		}
	}
	s.Profiles = append(s.Profiles, p.memProfiles...)
	for _, keys := range p.memKeys {
		s.BlocksOf = append(s.BlocksOf, append([]string(nil), keys...))
	}
	return s
}

// Close releases the open segment files and the write-ahead log,
// syncing the log first so a graceful shutdown is durable under every
// sync policy.
func (p *Partition) Close() error {
	var firstErr error
	if p.wal != nil {
		if err := p.wal.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := p.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		p.wal = nil
	}
	for _, seg := range p.segs {
		if err := seg.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.segs = nil
	return firstErr
}
