// Package incremental adapts Enhanced Meta-blocking to Incremental Entity
// Resolution — the future-work direction the paper closes with (§7).
//
// A Resolver maintains a growing, schema-agnostic Token Blocking index.
// Every arriving profile is blocked immediately and compared only against
// a pruned set of candidate neighbors, derived from the same weighted
// co-occurrence signal meta-blocking uses: the resolver scans the new
// profile's blocks with the ScanCount technique of Algorithm 3, weights
// each co-occurring profile, and keeps either the top-K candidates
// (cardinality pruning, CNP-style) or the ones at or above the mean weight
// (weight pruning, WNP-style). Oversized blocks are ignored while
// gathering candidates, mirroring Block Purging.
//
// The index stores every block's member list as a delta+varint posting
// list (IDs arrive in ascending order, so the deltas are small), decoded
// into a reused scratch buffer during candidate collection; together with
// the epoch-stamped ScanCount cells and the bounded top-K heap this keeps
// the per-arrival work allocation-free apart from the returned candidates.
package incremental

import (
	"fmt"
	"math"
	"slices"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/postings"
)

// ErrUnsupportedScheme is returned by NewResolver for weighting schemes the
// incremental setting cannot maintain (currently EJS, whose global node
// degrees change with every arriving profile). It wraps the shared
// core.ErrUnsupportedScheme sentinel — the one the public metablocking
// package aliases — so errors.Is matches across layers.
var ErrUnsupportedScheme = fmt.Errorf("incremental: EJS needs global node degrees; use ARCS, CBS, ECBS or JS: %w", core.ErrUnsupportedScheme)

// Config tunes the incremental resolver.
type Config struct {
	// Scheme weights candidate edges. ARCS, CBS, ECBS and JS are
	// supported; EJS requires global node degrees, which an incremental
	// setting cannot maintain cheaply.
	Scheme core.Scheme
	// K, when positive, keeps the top-K weighted candidates per arriving
	// profile (cardinality pruning). When zero, candidates at or above
	// the mean weight of the neighborhood are kept (weight pruning).
	K int
	// MaxBlockSize ignores blocks with more members when collecting
	// candidates — the incremental analogue of Block Purging. Zero
	// defaults to 1000.
	MaxBlockSize int
	// MinTokenLength drops shorter tokens at blocking time.
	MinTokenLength int
}

// Candidate is a pruned comparison suggestion for a newly added profile.
type Candidate struct {
	ID     entity.ID
	Weight float64
}

// scanCell interleaves one entity's ScanCount epoch stamp and accumulator
// so a block scan touches one cache line per member instead of two.
type scanCell struct {
	epoch  int64
	common float64
}

// Resolver incrementally blocks profiles and emits pruned candidate
// comparisons. It is the serial reference that shard.Group, the serving
// index, is pinned bit-identical to, and cmd/stream and the public API
// run it. It is not safe for concurrent use: callers must serialize
// Add/AddBatch and fence reads (Size, Profile, Snapshot) from mutations.
type Resolver struct {
	cfg Config

	profiles []entity.Profile
	// blocks maps token → the delta+varint posting list of member profile
	// IDs; arrival order is ascending ID order, so every list encodes.
	blocks map[string]*postings.Builder
	// blocksOf[i] lists the tokens (block keys) of profile i.
	blocksOf [][]string

	// ScanCount scratch, grown on demand.
	cells []scanCell
	epoch int64

	// Per-call scratch, reused across arrivals; never retained in results.
	neighbors []entity.ID
	members   []entity.ID
	cands     []Candidate
	keyer     Keyer
	topk      candHeap
}

// Keyer extracts a profile's distinct tokens in first-appearance order —
// its prospective block keys — behind reusable scratch. The coordinator
// of a sharded index (internal/shard) uses its own Keyer so the keys it
// scatters are byte-identical to the ones a single-index Resolver would
// derive. The zero value is ready to use; not safe for concurrent use.
type Keyer struct {
	// MinTokenLength drops shorter tokens, like Config.MinTokenLength.
	MinTokenLength int

	seen   map[string]struct{}
	keyBuf []string
	tokBuf []string
}

// Keys returns the profile's distinct block keys in first-appearance
// order. The returned slice is scratch, overwritten by the next call.
func (ky *Keyer) Keys(p entity.Profile) []string {
	if ky.seen == nil {
		ky.seen = make(map[string]struct{})
	}
	clear(ky.seen)
	keys := ky.keyBuf[:0]
	for _, a := range p.Attributes {
		ky.tokBuf = entity.AppendTokens(ky.tokBuf[:0], a.Value)
		for _, tok := range ky.tokBuf {
			if len(tok) < ky.MinTokenLength {
				continue
			}
			if _, ok := ky.seen[tok]; ok {
				continue
			}
			ky.seen[tok] = struct{}{}
			keys = append(keys, tok)
		}
	}
	ky.keyBuf = keys
	return keys
}

// NewResolver validates the configuration and returns an empty resolver.
func NewResolver(cfg Config) (*Resolver, error) {
	if cfg.Scheme == core.EJS {
		return nil, ErrUnsupportedScheme
	}
	if cfg.MaxBlockSize == 0 {
		cfg.MaxBlockSize = 1000
	}
	return &Resolver{
		cfg:    cfg,
		blocks: make(map[string]*postings.Builder),
		keyer:  Keyer{MinTokenLength: cfg.MinTokenLength},
	}, nil
}

// Size returns the number of profiles resolved so far.
func (r *Resolver) Size() int { return len(r.profiles) }

// Profile returns a previously added profile.
func (r *Resolver) Profile(id entity.ID) *entity.Profile { return &r.profiles[id] }

// Add blocks the profile, assigns it the next ID, and returns the pruned
// candidate comparisons against the profiles added before it, heaviest
// first. A profile with no co-occurring predecessors yields no candidates.
func (r *Resolver) Add(p entity.Profile) (entity.ID, []Candidate) {
	id := entity.ID(len(r.profiles))
	p.ID = id
	r.profiles = append(r.profiles, p)
	r.cells = append(r.cells, scanCell{})

	scratch := r.tokenKeys(p)
	var keys []string
	if len(scratch) > 0 {
		keys = make([]string, len(scratch))
		copy(keys, scratch)
	}
	r.blocksOf = append(r.blocksOf, keys)

	// Gather weighted candidates from the profile's blocks BEFORE adding
	// it to them (candidates are strictly older profiles).
	candidates := r.collect(keys, -1)
	appendPostings(r.blocks, id, keys)
	return id, candidates
}

// appendPostings appends id to the posting list of each of its keys. IDs
// must arrive in ascending order and a profile's keys must be distinct:
// postings.Builder panics on a non-ascending append.
func appendPostings(blocks map[string]*postings.Builder, id entity.ID, keys []string) {
	for _, k := range keys {
		b := blocks[k]
		if b == nil {
			b = new(postings.Builder)
			blocks[k] = b
		}
		b.Append(id)
	}
}

// Peek computes the pruned candidates the profile would receive from Add,
// without mutating the index: no ID is assigned, no block gains a member.
// It is the serial reference of shard.Group.Peek, the read-only resolve
// behind the serving layer's degraded mode. Like Add it is not safe for
// concurrent use (it shares the ScanCount scratch). The error is always
// nil; the signature is the group's, whose shards can fail.
func (r *Resolver) Peek(p entity.Profile) ([]Candidate, error) {
	return r.collect(r.tokenKeys(p), -1), nil
}

// PeekExcluding is the read-only resume gather behind budget-aware
// streaming (internal/budget): it recomputes the candidates an
// ALREADY-COMMITTED profile received from its own Resolve, by removing
// that profile's contribution from the index's statistics. p must be the
// same profile that was committed as exclude — same attribute content,
// hence the same block keys — which lets the compensation be exact: every
// block named by p's keys is known to contain exclude, so its effective
// cardinality is one less (restoring ARCS increments and Block Purging
// decisions), exclude itself is skipped during the scan, and blocks whose
// only member is exclude are discounted from the ECBS block count. When
// no other profile was committed in between, the result is bit-identical
// to the candidate list the original Resolve returned.
func (r *Resolver) PeekExcluding(p entity.Profile, exclude entity.ID) ([]Candidate, error) {
	if int(exclude) < 0 || int(exclude) >= len(r.profiles) {
		return nil, fmt.Errorf("incremental: excluded profile %d of %d", exclude, len(r.profiles))
	}
	return r.collect(r.tokenKeys(p), exclude), nil
}

// LastWeighed returns how many neighbors the most recent
// Add/Peek/Resolve weighed before pruning — the serial reference of the
// weighed counts the shard coordinator's gather hook reports.
func (r *Resolver) LastWeighed() int { return len(r.neighbors) }

// tokenKeys returns the distinct tokens of the profile, in
// first-appearance order — its prospective block keys. The returned slice
// is scratch, overwritten by the next tokenKeys call.
func (r *Resolver) tokenKeys(p entity.Profile) []string {
	return r.keyer.Keys(p)
}

// collect runs the ScanCount accumulation over the blocks named by keys
// and applies the local pruning criterion. A non-negative exclude is the
// resume path (see PeekExcluding): that profile is already a member of
// every keyed block, so each block's effective cardinality is decremented
// before purging and increment derivation, the profile itself is skipped
// during the scan, and its singleton blocks are discounted from the ECBS
// block count — restoring the statistics of the index state its own
// Resolve ran against.
func (r *Resolver) collect(keys []string, exclude entity.ID) []Candidate {
	r.epoch++
	epoch := r.epoch
	cells := r.cells
	neighbors := r.neighbors[:0]
	for _, k := range keys {
		b := r.blocks[k]
		if b == nil {
			continue
		}
		n := b.Len()
		if exclude >= 0 {
			n--
		}
		if n <= 0 || n > r.cfg.MaxBlockSize {
			continue
		}
		inc := 1.0
		if r.cfg.Scheme == core.ARCS {
			// The block is about to gain the new profile; its
			// cardinality for this comparison counts the new member.
			nc := int64(n+1) * int64(n) / 2
			inc = 1 / float64(nc)
		}
		r.members = b.AppendTo(r.members[:0])
		for _, j := range r.members {
			if j == exclude {
				continue
			}
			c := &cells[j]
			if c.epoch != epoch {
				c.epoch = epoch
				c.common = inc
				neighbors = append(neighbors, j)
			} else {
				c.common += inc
			}
		}
	}
	r.neighbors = neighbors
	if len(neighbors) == 0 {
		return nil
	}
	nb := float64(len(r.blocks)) + 1
	if exclude >= 0 {
		for _, k := range keys {
			if b := r.blocks[k]; b != nil && b.Len() == 1 {
				nb--
			}
		}
	}
	if r.cfg.K > 0 {
		return r.topK(len(keys), nb, neighbors)
	}
	return r.aboveMean(len(keys), nb, neighbors)
}

// topK keeps the K heaviest candidates with a bounded min-heap ordered by
// the same total order sortCandidates sorts by (weight descending, ID
// ascending). The order is strict — neighbor IDs are distinct — so the
// selected set, and after the final sort the returned slice, is identical
// to sorting all candidates and truncating.
func (r *Resolver) topK(bi int, nb float64, neighbors []entity.ID) []Candidate {
	r.topk.reset(r.cfg.K)
	for _, j := range neighbors {
		r.topk.offer(Candidate{ID: j, Weight: r.weight(bi, nb, j)})
	}
	out := make([]Candidate, len(r.topk.cs))
	copy(out, r.topk.cs)
	sortCandidates(out)
	return out
}

// aboveMean keeps the candidates at or above the mean neighborhood weight.
// The mean is a single left-to-right sum over the neighbors in discovery
// order — the same accumulation order as weighting each candidate in turn,
// so thresholds are bit-stable across scratch reuse.
func (r *Resolver) aboveMean(bi int, nb float64, neighbors []entity.ID) []Candidate {
	cands := r.cands[:0]
	var sum float64
	for _, j := range neighbors {
		c := Candidate{ID: j, Weight: r.weight(bi, nb, j)}
		cands = append(cands, c)
		sum += c.Weight
	}
	r.cands = cands
	mean := sum / float64(len(cands))
	kept := 0
	for _, c := range cands {
		if c.Weight >= mean {
			kept++
		}
	}
	out := make([]Candidate, 0, kept)
	for _, c := range cands {
		if c.Weight >= mean {
			out = append(out, c)
		}
	}
	sortCandidates(out)
	return out
}

// weight evaluates the configured scheme for a new profile with bi block
// keys and an older profile j. nb is the ECBS block-count term, derived
// once per collect (possibly exclusion-compensated) from the current
// block statistics.
func (r *Resolver) weight(bi int, nb float64, j entity.ID) float64 {
	common := r.cells[j].common
	bj := len(r.blocksOf[j])
	switch r.cfg.Scheme {
	case core.ARCS, core.CBS:
		return common
	case core.ECBS:
		return common * math.Log(nb/float64(bi)) * math.Log(nb/float64(bj))
	case core.JS:
		return common / (float64(bi) + float64(bj) - common)
	default:
		return common
	}
}

// BatchResult pairs one arrival of an AddBatch call with its assigned ID
// and pruned candidates.
type BatchResult struct {
	ID         entity.ID
	Candidates []Candidate
}

// AddBatch adds the profiles in order under one index pass and returns one
// result per profile. It is semantically identical to calling Add for each
// profile in sequence — earlier batch members become candidates of later
// ones — but amortizes the per-arrival overhead, which is what lets a
// serving layer coalesce many concurrent requests into a single writer
// turn. An empty batch returns nil.
func (r *Resolver) AddBatch(ps []entity.Profile) []BatchResult {
	if len(ps) == 0 {
		return nil
	}
	out := make([]BatchResult, len(ps))
	for i, p := range ps {
		id, cands := r.Add(p)
		out[i] = BatchResult{ID: id, Candidates: cands}
	}
	return out
}

// Snapshot is a self-contained, restorable copy of a resolver's state: the
// configuration, the profiles in arrival order, and each profile's block
// keys, so a restore does not re-tokenize. The token index is the inverse
// of BlocksOf and is derived on restore. internal/store persists it as
// the "resolver" artifact; the serving layer hot-swaps shard groups
// built from one.
type Snapshot struct {
	Config   Config
	Profiles []entity.Profile
	// Blocks optionally maps token → member profile IDs in arrival order.
	// Nothing in this package or internal/store sets it or persists it; a
	// caller that builds a snapshot by hand may, and Validate then requires
	// it to be exactly the inverse of BlocksOf.
	Blocks map[string][]entity.ID
	// BlocksOf lists the tokens (block keys) of each profile.
	BlocksOf [][]string
}

// Validate checks one key list per profile and, when Blocks is set, that
// it is exactly the inverse of BlocksOf: its members are in range,
// strictly ascending and name the block among their keys (Blocks ⊆
// inverse), and it holds as many memberships as the key lists (so ⊆ is
// =, and no key is listed twice for one profile). FromSnapshot,
// shard.FromSnapshot and store.WriteResolver all call it.
func (s *Snapshot) Validate() error {
	if len(s.BlocksOf) != len(s.Profiles) {
		return fmt.Errorf("incremental: snapshot has %d profiles but %d block-key lists",
			len(s.Profiles), len(s.BlocksOf))
	}
	if s.Blocks == nil {
		return nil
	}
	refs, members := 0, 0
	for _, keys := range s.BlocksOf {
		refs += len(keys)
	}
	for k, ids := range s.Blocks {
		for i, id := range ids {
			if int(id) < 0 || int(id) >= len(s.BlocksOf) || i > 0 && id <= ids[i-1] {
				return fmt.Errorf("incremental: snapshot block %q member %d out of range or order", k, id)
			}
			if !slices.Contains(s.BlocksOf[id], k) {
				return fmt.Errorf("incremental: snapshot block %q lists profile %d, whose keys do not name it", k, id)
			}
		}
		members += len(ids)
	}
	if members != refs {
		return fmt.Errorf("incremental: snapshot blocks hold %d memberships, its key lists %d", members, refs)
	}
	return nil
}

// Snapshot deep-copies the resolver's state. The caller may persist or
// mutate the copy while the resolver keeps resolving.
func (r *Resolver) Snapshot() *Snapshot {
	s := &Snapshot{
		Config:   r.cfg,
		Profiles: append([]entity.Profile(nil), r.profiles...),
		BlocksOf: make([][]string, len(r.blocksOf)),
	}
	for i, keys := range r.blocksOf {
		s.BlocksOf[i] = append([]string(nil), keys...)
	}
	return s
}

// FromSnapshot validates a snapshot and rebuilds a resolver from it,
// appending each profile to its keys' posting lists in ID order. The
// snapshot's data is copied out, so the caller may reuse it. Restoring n
// profiles costs O(index size) encoding but no re-tokenization.
func FromSnapshot(s *Snapshot) (*Resolver, error) {
	if s == nil {
		return nil, fmt.Errorf("incremental: nil snapshot")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r, err := NewResolver(s.Config)
	if err != nil {
		return nil, err
	}
	n := len(s.Profiles)
	r.profiles = append([]entity.Profile(nil), s.Profiles...)
	r.blocksOf = make([][]string, n)
	for i, keys := range s.BlocksOf {
		r.blocksOf[i] = append([]string(nil), keys...)
		appendPostings(r.blocks, entity.ID(i), keys)
	}
	r.cells = make([]scanCell, n)
	return r, nil
}

// sortCandidates orders cs heaviest-first under the candidate ranking.
func sortCandidates(cs []Candidate) {
	slices.SortFunc(cs, func(a, b Candidate) int {
		switch {
		case outranks(a, b):
			return -1
		case outranks(b, a):
			return 1
		}
		return 0
	})
}

// candHeap is a bounded min-heap under the candidate ranking (weight
// descending, ID ascending): the root is the weakest retained candidate,
// evicted when a stronger one arrives.
type candHeap struct {
	cs []Candidate
	k  int
}

func (h *candHeap) reset(k int) {
	h.cs = h.cs[:0]
	h.k = k
}

// outranks reports whether a is retained in preference to b — the
// candidate ranking, a strict total order because IDs are distinct.
func outranks(a, b Candidate) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return a.ID < b.ID
}

func (h *candHeap) offer(c Candidate) {
	if len(h.cs) < h.k {
		h.cs = append(h.cs, c)
		h.up(len(h.cs) - 1)
		return
	}
	if !outranks(c, h.cs[0]) {
		return
	}
	h.cs[0] = c
	h.down(0)
}

func (h *candHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !outranks(h.cs[p], h.cs[i]) {
			break
		}
		h.cs[p], h.cs[i] = h.cs[i], h.cs[p]
		i = p
	}
}

func (h *candHeap) down(i int) {
	n := len(h.cs)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if rt := l + 1; rt < n && outranks(h.cs[m], h.cs[rt]) {
			m = rt
		}
		if !outranks(h.cs[i], h.cs[m]) {
			return
		}
		h.cs[i], h.cs[m] = h.cs[m], h.cs[i]
		i = m
	}
}
