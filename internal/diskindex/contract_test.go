package diskindex

import (
	"reflect"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/store"
)

// TestBackendContract drives one commit/gather script through the
// in-memory and the disk-backed partition of the same shard and requires
// the raw gather results — before any coordinator merge — to be equal
// element for element: ID, weight bits, FirstKey and order. The script
// seals four times and compacts once (at the third seal), so gathers run
// against an empty index, a memtable alone, one, two and three-into-one
// sealed segments, and at the end a compacted segment plus a delta under
// a non-empty memtable. MaxBlockSize is small enough that SkipKey keys occur.
func TestBackendContract(t *testing.T) {
	const shards, index, maxBlockSize = 2, 1, 12
	profiles := testProfiles(t, 160)
	sealAt := map[int]bool{40: true, 80: true, 120: true, 140: true}
	for _, scheme := range []core.Scheme{core.ARCS, core.CBS, core.ECBS, core.JS} {
		mem := incremental.NewPartition(scheme, shards, index)
		disk, err := Open(Options{
			Config:       incremental.Config{Scheme: scheme, MaxBlockSize: maxBlockSize},
			Shards:       shards,
			Index:        index,
			State:        &store.DiskShardState{Dir: t.TempDir()},
			CompactAfter: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer disk.Close()

		keyer := incremental.Keyer{}
		blockSize := map[string]int{}
		var incs []float64
		var memOut, diskOut []incremental.ShardCand
		skipped := 0
		for i, prof := range profiles {
			if sealAt[i] {
				if err := disk.Seal(uint64(i), i); err != nil {
					t.Fatal(err)
				}
				if _, err := disk.MaybeCompact(); err != nil {
					t.Fatal(err)
				}
			}
			keys := keyer.Keys(prof)
			incs = incremental.KeyIncrements(incs, keys, func(k string) int { return blockSize[k] }, scheme, maxBlockSize)
			for _, inc := range incs {
				if inc == incremental.SkipKey {
					skipped++
				}
			}
			nb := float64(len(blockSize)) + 1
			memOut = mem.Gather(keys, incs, len(keys), nb, 0, memOut)
			diskOut = disk.Gather(keys, incs, len(keys), nb, 0, diskOut)
			if !reflect.DeepEqual(memOut, diskOut) {
				t.Fatalf("%v arrival %d: back ends disagree\n mem  %+v\n disk %+v", scheme, i, memOut, diskOut)
			}
			id := entity.ID(i*shards + index)
			if err := mem.Commit(id, prof, keys); err != nil {
				t.Fatal(err)
			}
			if err := disk.Commit(id, prof, keys); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				blockSize[k]++
			}
		}
		st := disk.DiskStats()
		if st.Seals != 4 || st.Compactions != 1 || st.Segments != 2 || st.MemtableBytes == 0 {
			t.Fatalf("%v: script shape drifted: %+v", scheme, st)
		}
		if skipped == 0 || len(memOut) == 0 {
			t.Fatalf("%v: script never skipped a key (%d) or found no neighbors (%d)", scheme, skipped, len(memOut))
		}
	}
}
