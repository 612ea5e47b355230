package shard_test

import (
	"fmt"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/diskindex"
	"metablocking/internal/incremental"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// TestOnGatherHookObservesEveryShard pins the early-emit hook: one call
// per live shard per gather, and the weighed counts of one resolve sum to
// the neighbors the serial Resolver weighed (LastWeighed) — not to the
// length of a partition's local top-K — for memory and disk shards, with
// and without cardinality pruning.
func TestOnGatherHookObservesEveryShard(t *testing.T) {
	profiles := datagen.D1D(0.2).Collection.Profiles[:300]
	for _, disk := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			for _, k := range []int{0, 5} {
				name := fmt.Sprintf("disk=%v/shards=%d/k=%d", disk, shards, k)
				rcfg := incremental.Config{Scheme: core.JS, K: k}
				serial, err := incremental.NewResolver(rcfg)
				if err != nil {
					t.Fatal(err)
				}
				type obsv struct{ shard, weighed int }
				var seen []obsv
				cfg := shard.Config{
					Resolver: rcfg,
					Shards:   shards,
					OnGather: func(s, weighed int) { seen = append(seen, obsv{s, weighed}) },
				}
				g := hookGroup(t, cfg, disk)
				sum, want := 0, 0
				for i, p := range profiles {
					seen = seen[:0]
					if _, err := g.Resolve(p); err != nil {
						t.Fatalf("%s: resolve %d: %v", name, i, err)
					}
					serial.Resolve(p)
					if len(seen) != shards {
						t.Fatalf("%s: resolve %d: %d observations, want %d", name, i, len(seen), shards)
					}
					weighed := 0
					for _, o := range seen {
						if o.shard < 0 || o.shard >= shards || o.weighed < 0 {
							t.Fatalf("%s: bad observation %+v", name, o)
						}
						weighed += o.weighed
					}
					if weighed != serial.LastWeighed() {
						t.Fatalf("%s: resolve %d: hook reports %d weighed, serial %d", name, i, weighed, serial.LastWeighed())
					}
					sum += weighed
					want += serial.LastWeighed()
				}
				if sum != want || want == 0 {
					t.Fatalf("%s: Σ weighed %d, serial %d", name, sum, want)
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// hookGroup builds an empty group: in-memory partitions, or disk
// partitions over a fresh directory.
func hookGroup(t *testing.T, cfg shard.Config, disk bool) *shard.Group {
	t.Helper()
	if !disk {
		g, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	layout, err := store.RecoverDiskDir(t.TempDir(), cfg.Shards)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*diskindex.Partition, layout.Shards)
	for k, state := range layout.Shard {
		parts[k], err = diskindex.Open(diskindex.Options{
			Config: cfg.Resolver,
			Shards: layout.Shards,
			Index:  k,
			State:  state,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg.Backends = func(k int) (shard.Backend, error) { return parts[k], nil }
	g, err := shard.Restored(cfg, 0, make(map[string]int))
	if err != nil {
		t.Fatal(err)
	}
	return g
}
