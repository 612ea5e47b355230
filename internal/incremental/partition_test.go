package incremental

import (
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
)

// TestPartitionGatherAllocFree: once its scratch has grown, a gather
// reads member lists in place and writes into the caller's reused dst, so
// it allocates nothing — with the full neighbor list and with a local
// top-K alike.
func TestPartitionGatherAllocFree(t *testing.T) {
	profiles := datagen.D1D(0.05).Collection.Profiles
	part := NewPartition(core.JS, 1, 0)
	var ky Keyer
	blockSize := map[string]int{}
	for i, p := range profiles {
		keys := ky.Keys(p)
		if err := part.Commit(entity.ID(i), p, keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			blockSize[k]++
		}
	}
	keys := append([]string(nil), ky.Keys(profiles[7])...)
	incs := KeyIncrements(nil, keys, func(k string) int { return blockSize[k] }, core.JS, 1000)
	nb := float64(len(blockSize)) + 1
	for _, maxWeighted := range []int{0, 5} {
		dst := part.Gather(keys, incs, len(keys), nb, maxWeighted, nil)
		if len(dst) == 0 {
			t.Fatalf("maxWeighted=%d: profile 7 gathered no neighbor", maxWeighted)
		}
		allocs := testing.AllocsPerRun(100, func() {
			dst = part.Gather(keys, incs, len(keys), nb, maxWeighted, dst)
		})
		if allocs != 0 {
			t.Errorf("maxWeighted=%d: a warm gather allocates %.1f times", maxWeighted, allocs)
		}
	}
}
