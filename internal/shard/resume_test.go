package shard

import (
	"reflect"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/incremental"
)

// TestPeekExcludingReproducesResolve is the sharded twin of the
// single-index resume-gather test: immediately after a resolve commits,
// PeekExcluding(profile, id) must reproduce the resolve's candidate list
// bit-identically at every shard count — the coordinator compensates the
// global block sizes, the ECBS block count and the home shard's reply
// for the committed profile's own contribution.
func TestPeekExcludingReproducesResolve(t *testing.T) {
	ds := datagen.D1D(0.1)
	profiles := ds.Collection.Profiles[:300]
	configs := []incremental.Config{
		{Scheme: core.JS, K: 5},
		{Scheme: core.ARCS, K: 5},
		{Scheme: core.ECBS},
		{Scheme: core.CBS, K: 5, MaxBlockSize: 7},
	}
	for _, shards := range []int{1, 4} {
		for _, rcfg := range configs {
			g, err := New(Config{Resolver: rcfg, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for i := range profiles {
				res, err := g.Resolve(profiles[i])
				if err != nil {
					t.Fatalf("shards=%d %+v: resolve %d: %v", shards, rcfg, i, err)
				}
				got, err := g.PeekExcluding(profiles[i], res.ID)
				if err != nil {
					t.Fatalf("shards=%d %+v: PeekExcluding(%d): %v", shards, rcfg, res.ID, err)
				}
				if !reflect.DeepEqual(got, res.Candidates) {
					t.Fatalf("shards=%d %+v: profile %d: resume gather diverged\n got %v\nwant %v",
						shards, rcfg, res.ID, got, res.Candidates)
				}
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPeekExcludingRejectsUnknownID(t *testing.T) {
	g, err := New(Config{Resolver: incremental.Config{Scheme: core.JS, K: 5}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	p := datagen.D1D(0.1).Collection.Profiles[0]
	if _, err := g.Resolve(p); err != nil {
		t.Fatal(err)
	}
	if _, err := g.PeekExcluding(p, 7); err == nil {
		t.Fatal("out-of-range exclude accepted")
	}
}
