// Sharded building blocks of the incremental index.
//
// A Partition is one hash-shard of a Resolver: it holds the profiles whose
// IDs hash to it (ShardOf), the shard's members of every block, and its
// own ScanCount kernel; block members are plain ID lists the kernel
// scans in place, under interned block ids (see Partition). Partitions
// know nothing about each other — the global statistics every weighting
// scheme needs (block cardinalities for ARCS and Block Purging, the
// distinct-block count for ECBS, the arriving profile's key count) are
// computed once by a coordinator (internal/shard.Group) and passed into
// Gather, so a candidate's weight comes out bit-identical to the
// single-index Resolver: the per-candidate accumulation order, the float
// operations and the operand values are all the same.
//
// The coordinator reconstructs the serial resolver's global behavior from
// the per-partition results with the merge kernels below:
//
//   - MergeTopK folds per-shard bounded top-K heaps into the global top-K.
//     The candidate ranking (weight descending, ID ascending) is a strict
//     total order — IDs are distinct — so local-then-global selection
//     picks exactly the set a single global heap would.
//   - MergeAboveMean re-sorts the union of all shards' neighbors into the
//     serial resolver's discovery order (first-key index, then ID) before
//     summing the mean, so the float threshold is bit-identical too.
package incremental

import (
	"cmp"
	"fmt"
	"slices"

	"metablocking/internal/core"
	"metablocking/internal/entity"
)

// Resolve is Add with shard.Group.Resolve's signature, for reference replays.
func (r *Resolver) Resolve(p entity.Profile) (BatchResult, error) {
	id, cands := r.Add(p)
	return BatchResult{ID: id, Candidates: cands}, nil
}

// Close matches shard.Group.Close; a Resolver owns no goroutines.
func (r *Resolver) Close() error { return nil }

// ShardOf maps an entity ID to its home shard. IDs are dense arrival
// indexes, so modular placement is a perfect hash: shards stay within one
// profile of each other and the local slot of an ID is id/shards.
func ShardOf(id entity.ID, shards int) int { return int(id) % shards }

// SkipKey marks a block key the coordinator has ruled out of a gather —
// no block exists yet, or Block Purging dropped it — in the per-key
// increment slice passed to Gather.
const SkipKey = float64(-1)

// KeyIncrements fills incs with the per-key ScanCount increment of one
// arrival, exactly as the serial resolver derives it from its own index:
// SkipKey for keys with no block or with more than maxBlockSize members
// (global cardinality), 1/‖b‖ for ARCS (the cardinality counting the
// arriving profile), 1 otherwise. blockSize must report global sizes.
func KeyIncrements(incs []float64, keys []string, blockSize func(string) int, scheme core.Scheme, maxBlockSize int) []float64 {
	incs = incs[:0]
	for _, k := range keys {
		n := blockSize(k)
		if n == 0 || n > maxBlockSize {
			incs = append(incs, SkipKey)
			continue
		}
		inc := 1.0
		if scheme == core.ARCS {
			nc := int64(n+1) * int64(n) / 2
			inc = 1 / float64(nc)
		}
		incs = append(incs, inc)
	}
	return incs
}

// Partition is one hash-shard of the incremental index: profiles with
// ShardOf(id) == index live here, stored at local slot id/shards. It is a
// single-writer structure like Resolver — internal/shard gives each
// partition of a multi-shard group its own actor goroutine, and runs a
// one-shard group's partition on the caller's goroutine.
//
// The partition interns its block keys: the first member a key gains on
// this shard gives it a dense block id, and everything past the gather's
// one map lookup per key works on ids. A block's members are a plain
// ascending []entity.ID that ScanCount.Scan reads in place, and a
// profile's key list is a []int32 of block ids — 4 bytes per reference
// instead of a 16-byte string header. Unlike the serial Resolver's
// delta+varint lists, nothing is decoded per gather.
type Partition struct {
	shards int // total shard count (for slot arithmetic)
	index  int // this partition's shard number

	// profiles[slot] is the profile with global ID slot*shards+index.
	profiles []entity.Profile
	// blockID interns every block key with a member on this shard.
	blockID map[string]int32
	// members[b] lists block b's member GLOBAL IDs owned by this shard,
	// ascending: commits arrive in ascending global-ID order.
	members [][]entity.ID
	// blocksOf[slot] lists the block ids of the profile at slot, in its
	// key order; their count is the slot's |B_j| in the kernel.
	blocksOf [][]int32

	// scan is the shard's ScanCount kernel, one slot per profile, grown
	// by Commit.
	scan *ScanCount
}

// NewPartition returns shard index of shards for the given scheme.
func NewPartition(scheme core.Scheme, shards, index int) *Partition {
	return &Partition{
		shards:  shards,
		index:   index,
		blockID: make(map[string]int32),
		scan:    NewScanCount(scheme, shards),
	}
}

// LoadPartition builds shard index of shards from a validated snapshot at
// its final size. A first pass interns every key, writes the block ids of
// all key lists into one arena and counts each block's members; the
// second allocates every member list once at its final length and fills
// it. Key lists are capped slices of the arena, so none can grow into a
// neighbor's ids.
func LoadPartition(s *Snapshot, shards, index int) *Partition {
	n := (len(s.Profiles) - index + shards - 1) / shards
	t := NewPartition(s.Config.Scheme, shards, index)
	t.profiles = make([]entity.Profile, 0, n)
	t.blocksOf = make([][]int32, 0, n)
	t.scan.cells = make([]scanSlot, 0, n)
	refs := 0
	for i := index; i < len(s.Profiles); i += shards {
		refs += len(s.BlocksOf[i])
	}
	arena := make([]int32, refs)
	var counts []int32
	for i := index; i < len(s.Profiles); i += shards {
		p, keys := s.Profiles[i], s.BlocksOf[i]
		p.ID = entity.ID(i)
		t.profiles = append(t.profiles, p)
		t.scan.AddSlot(len(keys))
		ids := arena[:len(keys):len(keys)]
		arena = arena[len(keys):]
		for j, k := range keys {
			b, added := t.intern(k)
			if added {
				counts = append(counts, 0)
			}
			counts[b]++
			ids[j] = b
		}
		t.blocksOf = append(t.blocksOf, ids)
	}
	t.members = make([][]entity.ID, len(counts))
	for b, c := range counts {
		t.members[b] = make([]entity.ID, 0, c)
	}
	for slot, ids := range t.blocksOf {
		t.addMember(entity.ID(slot*shards+index), ids)
	}
	return t
}

// intern returns key k's block id, assigning the next one to a new key
// and reporting whether it did.
func (t *Partition) intern(k string) (b int32, added bool) {
	b, ok := t.blockID[k]
	if !ok {
		b = int32(len(t.blockID))
		t.blockID[k] = b
	}
	return b, !ok
}

// addMember appends id to the member list of each of blocks. IDs must
// arrive in ascending order and a profile's keys must be distinct; like
// postings.Builder, a non-ascending append panics.
func (t *Partition) addMember(id entity.ID, blocks []int32) {
	for _, b := range blocks {
		m := t.members[b]
		if n := len(m); n > 0 && id <= m[n-1] {
			panic(fmt.Sprintf("incremental: block member %d appended after %d", id, m[n-1]))
		}
		t.members[b] = append(m, id)
	}
}

// LastWeighed returns how many neighbors the last Gather weighed before
// its local top-K; over all shards it sums to Resolver.LastWeighed.
func (t *Partition) LastWeighed() int { return len(t.scan.neighbors) }

// Len returns the number of profiles homed on this partition.
func (t *Partition) Len() int { return len(t.profiles) }

// Blocks returns the number of distinct block keys with at least one
// member on this partition.
func (t *Partition) Blocks() int { return len(t.blockID) }

// Profile returns the partition-homed profile with the given global ID.
func (t *Partition) Profile(id entity.ID) *entity.Profile {
	return &t.profiles[int(id)/t.shards]
}

// Gather runs the ScanCount accumulation for one arrival over this
// shard's slices of the keyed blocks and returns every local neighbor
// with its weight and first-key discovery index, appended to dst (which
// may be a reused buffer; the result aliases it). incs carries the
// coordinator-computed per-key increment (SkipKey to skip); bi, nb and
// maxWeighted are ScanCount.Weigh's.
func (t *Partition) Gather(keys []string, incs []float64, bi int, nb float64, maxWeighted int, dst []ShardCand) []ShardCand {
	t.scan.Begin()
	for ki, k := range keys {
		inc := incs[ki]
		if inc == SkipKey {
			continue
		}
		if b, ok := t.blockID[k]; ok {
			t.scan.Scan(ki, inc, t.members[b])
		}
	}
	return t.scan.Weigh(bi, nb, maxWeighted, dst)
}

// Commit homes a newly assigned profile on this partition: the profile and
// its block ids are appended, and its global ID joins the shard's slice
// of each keyed block. The caller (the coordinator's second phase)
// guarantees IDs arrive in ascending order and ShardOf(id) == index; keys
// are not retained, so the caller may reuse its buffer.
func (t *Partition) Commit(id entity.ID, p entity.Profile, keys []string) error {
	if ShardOf(id, t.shards) != t.index {
		return fmt.Errorf("incremental: profile %d committed to shard %d of %d, belongs on %d",
			id, t.index, t.shards, ShardOf(id, t.shards))
	}
	if slot := int(id) / t.shards; slot != len(t.profiles) {
		return fmt.Errorf("incremental: profile %d arrives at shard %d slot %d, expected slot %d",
			id, t.index, slot, len(t.profiles))
	}
	p.ID = id
	t.profiles = append(t.profiles, p)
	t.scan.AddSlot(len(keys))
	var ids []int32
	if len(keys) > 0 {
		ids = make([]int32, len(keys))
		for j, k := range keys {
			b, added := t.intern(k)
			if added {
				t.members = append(t.members, nil)
			}
			ids[j] = b
		}
	}
	t.blocksOf = append(t.blocksOf, ids)
	t.addMember(id, ids)
	return nil
}

// PartitionSnapshot is one shard's slice of a resolver snapshot, which
// MergeSnapshots folds into the global one: the shard's profiles in slot
// order and their key lists. Like Snapshot it carries no token index;
// the shard's posting lists are the inverse of BlocksOf.
type PartitionSnapshot struct {
	Profiles []entity.Profile
	BlocksOf [][]string
}

// Snapshot deep-copies the partition's state, mapping block ids back to
// their keys.
func (t *Partition) Snapshot() *PartitionSnapshot {
	names := make([]string, len(t.blockID))
	for k, b := range t.blockID {
		names[b] = k
	}
	s := &PartitionSnapshot{
		Profiles: append([]entity.Profile(nil), t.profiles...),
		BlocksOf: make([][]string, len(t.blocksOf)),
	}
	for i, ids := range t.blocksOf {
		if len(ids) == 0 {
			continue
		}
		keys := make([]string, len(ids))
		for j, b := range ids {
			keys[j] = names[b]
		}
		s.BlocksOf[i] = keys
	}
	return s
}

// MergeSnapshots folds the partitions of a group, segs[k] being shard
// k's, into the canonical global snapshot: profiles and their key lists
// re-interleaved into arrival order. The result is identical to the
// snapshot a single-index Resolver over the same arrivals would produce —
// shard count does not leak into the artifact, which internal/store
// writes once and any serving shape loads.
func MergeSnapshots(cfg Config, segs []*PartitionSnapshot) *Snapshot {
	if cfg.MaxBlockSize == 0 {
		cfg.MaxBlockSize = 1000
	}
	shards := len(segs)
	n := 0
	for _, seg := range segs {
		n += len(seg.Profiles)
	}
	snap := &Snapshot{
		Config: cfg,
		// Matching Resolver.Snapshot's shapes (nil Profiles on an empty
		// index, non-nil BlocksOf) keeps reflect.DeepEqual equivalence.
		BlocksOf: make([][]string, n),
	}
	if n > 0 {
		snap.Profiles = make([]entity.Profile, n)
	}
	for k, seg := range segs {
		for slot, p := range seg.Profiles {
			id := slot*shards + k
			snap.Profiles[id] = p
			snap.BlocksOf[id] = seg.BlocksOf[slot]
		}
	}
	return snap
}

// Merger holds the coordinator-side scratch of the cross-shard merge
// kernels, reused across arrivals. The zero value is ready to use; not
// safe for concurrent use.
type Merger struct {
	heap  candHeap
	union []ShardCand
}

// TopK folds per-shard gather results into the global top-K under the
// candidate ranking, returning a freshly allocated slice sorted
// heaviest-first. Each input list need only contain its shard's top K —
// any candidate in the global top-K outranks at least as many candidates
// globally as within its own shard, so it survives local pruning. The
// ranking is strict (IDs are distinct), which makes the merge independent
// of input order: ties in weight break deterministically by ascending ID.
func (m *Merger) TopK(k int, lists [][]ShardCand) []Candidate {
	m.heap.reset(k)
	for _, list := range lists {
		for _, c := range list {
			m.heap.offer(c.Candidate)
		}
	}
	if len(m.heap.cs) == 0 {
		return nil
	}
	out := make([]Candidate, len(m.heap.cs))
	copy(out, m.heap.cs)
	sortCandidates(out)
	return out
}

// AboveMean applies the serial resolver's mean-weight pruning to the
// union of per-shard gather results. The inputs are re-sorted into the
// serial discovery order — ascending (FirstKey, ID): every neighbor first
// discovered at key ki precedes every neighbor first discovered later,
// and neighbors sharing a first key were appended in ascending-ID order
// because posting lists are ascending — and the mean is a single
// left-to-right sum over that order, so the threshold is bit-identical to
// the single-index computation.
func (m *Merger) AboveMean(lists [][]ShardCand) []Candidate {
	all := m.union[:0]
	for _, list := range lists {
		all = append(all, list...)
	}
	m.union = all
	if len(all) == 0 {
		return nil
	}
	slices.SortFunc(all, func(a, b ShardCand) int {
		if c := cmp.Compare(a.FirstKey, b.FirstKey); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	var sum float64
	for _, c := range all {
		sum += c.Weight
	}
	mean := sum / float64(len(all))
	kept := 0
	for _, c := range all {
		if c.Weight >= mean {
			kept++
		}
	}
	out := make([]Candidate, 0, kept)
	for _, c := range all {
		if c.Weight >= mean {
			out = append(out, c.Candidate)
		}
	}
	sortCandidates(out)
	return out
}
