package shard

import (
	"fmt"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/incremental"
)

// BenchmarkGroupPeek times the read-only gather of an in-memory group —
// key derivation, per-shard ScanCount over every keyed member list, the
// exact top-K merge — on a d2-like index (the serving benchmark's
// terse-plus-verbose Zipf shape, JS, K = 10) of 10 000 profiles, built
// outside the timer. Each op peeks one of 500 held-out profiles;
// weighed/op is the mean count of neighbors the shards weighed over one
// untimed pass of all 500, which no layout change may move.
func BenchmarkGroupPeek(b *testing.B) {
	const preload, held = 10000, 500
	n := preload + held
	profiles := datagen.Generate(datagen.Config{
		Name: "d2-like", Seed: 1, Size1: n - n/2, Size2: n / 2, Duplicates: n * 2 / 5,
		Vocabulary: n * 3 / 2, ZipfS: 1.1, CoreTokens: 6,
		Source1: datagen.SourceConfig{AttributeNames: 4, AttributesPerProfile: 4,
			TokensPerProfile: 7, NoiseRate: 0.13, FillerRate: 0.70},
		Source2: datagen.SourceConfig{AttributeNames: 7, AttributesPerProfile: 7,
			TokensPerProfile: 32, NoiseRate: 0.13, FillerRate: 0.55},
	}).Collection.Profiles
	serial, err := incremental.NewResolver(incremental.Config{Scheme: core.JS, K: 10})
	if err != nil {
		b.Fatal(err)
	}
	serial.AddBatch(profiles[:preload])
	snap := serial.Snapshot()
	peeks := profiles[preload:]
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			weighed := 0
			g, err := FromSnapshot(snap, Config{Shards: shards, OnGather: func(_, w int) { weighed += w }})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			for _, p := range peeks {
				if _, err := g.Peek(p); err != nil {
					b.Fatal(err)
				}
			}
			perPeek := float64(weighed) / held
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Peek(peeks[i%held]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perPeek, "weighed/op")
		})
	}
}
