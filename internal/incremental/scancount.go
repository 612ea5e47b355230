package incremental

import (
	"math"
	"math/bits"

	"metablocking/internal/core"
	"metablocking/internal/entity"
)

// ShardCand is one weighted neighbor reported by a partition: the
// candidate plus the index of the first gather key whose block contains
// it, which is what lets the coordinator reconstruct the serial
// resolver's discovery order across shards.
type ShardCand struct {
	Candidate
	FirstKey int32
}

// ScanCount is the Optimized Edge Weighting kernel of one hash-shard
// (paper §4.2, Algorithm 3): the epoch-stamped accumulation of an
// arrival's co-occurrence counts over the shard's local slots, and the
// per-scheme weight of every neighbor it discovered. Every shard back end
// — the in-memory Partition here, the paged internal/diskindex partition —
// owns one and only decides where a key's member list comes from, so a
// candidate's weight, its first-key discovery index and the order
// neighbors are reported in cannot differ between back ends.
//
// One gather is Begin, then Scan for each live key in key order (once per
// member list when a key's members are split, in ascending-ID order), then
// Weigh. Not safe for concurrent use.
type ScanCount struct {
	scheme core.Scheme
	// Local slot id/shards is id·mul >> shift, exact for every int32 id ≥ 0
	// (Granlund–Montgomery): a multiply, not a division, per scanned member.
	mul   uint64
	shift uint

	// cells[slot] belongs to the profile with local slot id/shards.
	cells []scanSlot
	epoch int64

	// Per-gather scratch, reused across gathers.
	neighbors []entity.ID
	topk      candHeap
}

// scanSlot is one local slot's accumulator: a scanCell plus the index of
// the gather key that first discovered the slot's entity and the entity's
// own key count — the |B_j| term of ECBS and JS — packed together so
// weighing a neighbor touches the cache line its scan already loaded.
type scanSlot struct {
	epoch    int64
	common   float64
	firstKey int32
	keyCount int32
}

// NewScanCount returns an empty kernel for one shard of a shards-way hash
// layout. The scheme must be one NewResolver accepts.
func NewScanCount(scheme core.Scheme, shards int) *ScanCount {
	shift := 31 + uint(bits.Len(uint(shards-1)))
	return &ScanCount{scheme: scheme, shift: shift, mul: (1<<shift + uint64(shards) - 1) / uint64(shards)}
}

// AddSlot appends the next local slot, whose profile has keyCount block
// keys.
func (s *ScanCount) AddSlot(keyCount int) {
	s.cells = append(s.cells, scanSlot{keyCount: int32(keyCount)})
}

// Begin starts a gather: the previous gather's counts expire with its
// epoch, without touching a cell.
func (s *ScanCount) Begin() {
	s.epoch++
	s.neighbors = s.neighbors[:0]
}

// Scan folds one member list of gather key ki into the counts, adding inc
// per member. Members are global IDs homed on this shard.
func (s *ScanCount) Scan(ki int, inc float64, members []entity.ID) {
	epoch, cells, mul, shift, neighbors := s.epoch, s.cells, s.mul, s.shift, s.neighbors
	for _, j := range members {
		c := &cells[uint64(j)*mul>>shift]
		if c.epoch != epoch {
			c.epoch = epoch
			c.common = inc
			c.firstKey = int32(ki)
			neighbors = append(neighbors, j)
		} else {
			c.common += inc
		}
	}
	s.neighbors = neighbors
}

// Weigh returns every neighbor scanned since Begin, in discovery order,
// with its weight and first-key index, appended to dst[:0]. bi is the
// arrival's distinct-key count and nb the ECBS block-count term — the
// global quantities a shard cannot know. maxWeighted, when positive,
// prunes the result to the local top-K under the candidate ranking; the
// order and FirstKey fields of a pruned result are meaningless (top-K
// selection never needs discovery order).
func (s *ScanCount) Weigh(bi int, nb float64, maxWeighted int, dst []ShardCand) []ShardCand {
	dst = dst[:0]
	if maxWeighted > 0 {
		s.topk.reset(maxWeighted)
		for _, j := range s.neighbors {
			s.topk.offer(Candidate{ID: j, Weight: s.weight(bi, nb, &s.cells[uint64(j)*s.mul>>s.shift])})
		}
		for _, c := range s.topk.cs {
			dst = append(dst, ShardCand{Candidate: c})
		}
		return dst
	}
	for _, j := range s.neighbors {
		c := &s.cells[uint64(j)*s.mul>>s.shift]
		dst = append(dst, ShardCand{
			Candidate: Candidate{ID: j, Weight: s.weight(bi, nb, c)},
			FirstKey:  c.firstKey,
		})
	}
	return dst
}

// weight evaluates the scheme for the arriving profile against the
// neighbor accumulated in c — the same expressions, in the same operand
// order, as Resolver.weight.
func (s *ScanCount) weight(bi int, nb float64, c *scanSlot) float64 {
	common := c.common
	bj := int(c.keyCount)
	switch s.scheme {
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
