package metablocking

// Benchmarks for the extension subsystems (DESIGN.md extensions table):
// incremental resolution, supervised meta-blocking, progressive
// scheduling, MinHash blocking and automatic purging.

import (
	"testing"

	"metablocking/internal/blocking"
	"metablocking/internal/core"
	"metablocking/internal/incremental"
	"metablocking/internal/progressive"
	"metablocking/internal/supervised"
)

// BenchmarkIncrementalResolver streams profiles through the incremental
// resolver, reporting per-arrival cost.
func BenchmarkIncrementalResolver(b *testing.B) {
	d := benchDatasets(b)["D1C"]
	profiles := d.ds.Collection.Profiles
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := incremental.NewResolver(incremental.Config{Scheme: core.JS, K: 10})
		if err != nil {
			b.Fatal(err)
		}
		for p := range profiles {
			r.Add(profiles[p])
		}
	}
}

// BenchmarkSupervised measures the full supervised run: feature
// extraction, training and classification.
func BenchmarkSupervised(b *testing.B) {
	d := benchDatasets(b)["D1C"]
	for i := 0; i < b.N; i++ {
		if _, err := supervised.Run(d.filtered, d.ds.GroundTruth, supervised.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgressiveSchedule measures building the weight-descending
// comparison schedule.
func BenchmarkProgressiveSchedule(b *testing.B) {
	d := benchDatasets(b)["D2D"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := progressive.NewScheduler(d.filtered, core.ARCS)
		if s.Len() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// BenchmarkMinHashBlocking measures LSH blocking against Token Blocking.
func BenchmarkMinHashBlocking(b *testing.B) {
	d := benchDatasets(b)["D1C"]
	b.Run("minhash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blocking.MinHashBlocking{}.Build(d.ds.Collection)
		}
	})
	b.Run("token", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blocking.TokenBlocking{}.Build(d.ds.Collection)
		}
	})
}
