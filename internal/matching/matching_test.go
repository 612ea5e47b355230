package matching

import (
	"reflect"
	"testing"

	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

func TestJaccardSimilarity(t *testing.T) {
	mk := func(value string) entity.Profile {
		var p entity.Profile
		p.Add("v", value)
		return p
	}
	c := entity.NewDirty([]entity.Profile{
		mk("a b c"),
		mk("b c d"),
		mk("x y"),
		mk(""),
	})
	m := NewJaccardMatcher(c, 0.5)
	if got := m.Similarity(0, 1); got != 0.5 {
		t.Errorf("sim(0,1) = %v, want 0.5 (2 common of 4 union)", got)
	}
	if got := m.Similarity(0, 2); got != 0 {
		t.Errorf("sim(0,2) = %v, want 0", got)
	}
	if got := m.Similarity(0, 3); got != 0 {
		t.Errorf("sim with empty profile = %v, want 0", got)
	}
	if got := m.Similarity(0, 0); got != 1 {
		t.Errorf("self similarity = %v, want 1", got)
	}
	if !m.Match(0, 1) || m.Match(0, 2) {
		t.Error("Match threshold misapplied")
	}
}

func TestJaccardSymmetry(t *testing.T) {
	c := paperexample.Collection()
	m := NewJaccardMatcher(c, 0.2)
	for a := entity.ID(0); int(a) < c.Size(); a++ {
		for b := a + 1; int(b) < c.Size(); b++ {
			if m.Similarity(a, b) != m.Similarity(b, a) {
				t.Fatalf("similarity not symmetric for (%d,%d)", a, b)
			}
		}
	}
}

func TestJaccardSeparatesDuplicatesOnExample(t *testing.T) {
	c := paperexample.Collection()
	m := NewJaccardMatcher(c, 0)
	gt := paperexample.GroundTruth()
	// Every duplicate pair must be more similar than the average
	// non-duplicate pair.
	var dupSum, nonSum float64
	var dupN, nonN int
	for a := entity.ID(0); int(a) < c.Size(); a++ {
		for b := a + 1; int(b) < c.Size(); b++ {
			s := m.Similarity(a, b)
			if gt.Contains(a, b) {
				dupSum += s
				dupN++
			} else {
				nonSum += s
				nonN++
			}
		}
	}
	if dupSum/float64(dupN) <= nonSum/float64(nonN) {
		t.Fatalf("duplicates (%v) not more similar than non-duplicates (%v)",
			dupSum/float64(dupN), nonSum/float64(nonN))
	}
}

func TestCluster(t *testing.T) {
	got := Cluster(6, []entity.Pair{
		{A: 0, B: 1},
		{A: 1, B: 2}, // transitive: {0,1,2}
		{A: 4, B: 5},
	})
	want := [][]entity.ID{{0, 1, 2}, {4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Cluster = %v, want %v", got, want)
	}
}

func TestClusterNoMatches(t *testing.T) {
	if got := Cluster(3, nil); len(got) != 0 {
		t.Fatalf("Cluster with no matches = %v", got)
	}
}

func TestClusterDeterministicOrder(t *testing.T) {
	a := Cluster(8, []entity.Pair{{A: 6, B: 7}, {A: 0, B: 3}, {A: 1, B: 2}})
	b := Cluster(8, []entity.Pair{{A: 1, B: 2}, {A: 6, B: 7}, {A: 0, B: 3}})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("cluster output depends on match order")
	}
}
