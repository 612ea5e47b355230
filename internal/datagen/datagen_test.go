package datagen

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"metablocking/internal/blocking"
	"metablocking/internal/blockproc"
	"metablocking/internal/entity"
)

func small(seed int64) Config {
	return Config{
		Name:       "small",
		Seed:       seed,
		Size1:      200,
		Size2:      300,
		Duplicates: 150,
		Vocabulary: 2000,
		CoreTokens: 5,
		Source1: SourceConfig{
			AttributeNames: 4, AttributesPerProfile: 3,
			TokensPerProfile: 7, NoiseRate: 0.1, FillerRate: 0.7,
		},
		Source2: SourceConfig{
			AttributeNames: 6, AttributesPerProfile: 4,
			TokensPerProfile: 9, NoiseRate: 0.1, FillerRate: 0.7,
		},
	}
}

func TestGenerateSizes(t *testing.T) {
	d := Generate(small(1))
	c := d.Collection
	if c.Task != entity.CleanClean {
		t.Fatalf("Task = %v", c.Task)
	}
	if c.Split != 200 || c.Size() != 500 {
		t.Fatalf("sizes: split=%d total=%d", c.Split, c.Size())
	}
	if d.GroundTruth.Size() != 150 {
		t.Fatalf("|D(E)| = %d, want 150", d.GroundTruth.Size())
	}
}

func TestGroundTruthIsValid(t *testing.T) {
	d := Generate(small(2))
	if err := d.GroundTruth.Validate(d.Collection); err != nil {
		t.Fatal(err)
	}
	dirty := d.ToDirty("smallD")
	if err := dirty.GroundTruth.Validate(dirty.Collection); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(small(3)), Generate(small(3))
	if !reflect.DeepEqual(a.Collection.Profiles, b.Collection.Profiles) {
		t.Fatal("same seed produced different profiles")
	}
	if !reflect.DeepEqual(a.GroundTruth.Pairs(), b.GroundTruth.Pairs()) {
		t.Fatal("same seed produced different ground truth")
	}
	c := Generate(small(4))
	if reflect.DeepEqual(a.Collection.Profiles, c.Collection.Profiles) {
		t.Fatal("different seeds produced identical profiles")
	}
}

func TestDuplicatesShareTokens(t *testing.T) {
	// The whole premise of redundancy-positive blocking: duplicates must
	// usually share at least one token. Require ≥ 90% here (the paper's
	// datasets exceed 98% after purging, checked in TestPresetsShape).
	d := Generate(small(5))
	shared := 0
	for _, p := range d.GroundTruth.Pairs() {
		a := d.Collection.Profile(p.A).TokenSet()
		b := d.Collection.Profile(p.B).TokenSet()
		for tok := range a {
			if _, ok := b[tok]; ok {
				shared++
				break
			}
		}
	}
	if frac := float64(shared) / float64(d.GroundTruth.Size()); frac < 0.9 {
		t.Fatalf("only %.2f of duplicate pairs share a token", frac)
	}
}

func TestSchemaHeterogeneity(t *testing.T) {
	// The two sources must not share attribute names (schema-agnostic
	// methods are the point of the paper).
	d := Generate(small(6))
	c := d.Collection
	names1 := make(map[string]struct{})
	for i := 0; i < c.Split; i++ {
		for _, a := range c.Profiles[i].Attributes {
			names1[a.Name] = struct{}{}
		}
	}
	for i := c.Split; i < c.Size(); i++ {
		for _, a := range c.Profiles[i].Attributes {
			if _, ok := names1[a.Name]; ok {
				t.Fatalf("attribute name %q appears in both sources", a.Name)
			}
		}
	}
}

func TestToDirtyPreservesGroundTruth(t *testing.T) {
	d := Generate(small(7))
	dirty := d.ToDirty("d")
	if dirty.Collection.Task != entity.Dirty {
		t.Fatal("not dirty")
	}
	if !reflect.DeepEqual(d.GroundTruth.Pairs(), dirty.GroundTruth.Pairs()) {
		t.Fatal("ground truth changed")
	}
	if dirty.Collection.Size() != d.Collection.Size() {
		t.Fatal("profile count changed")
	}
}

// TestPresetsShape verifies, at reduced scale, the relative dataset
// characteristics the experiments rely on (DESIGN.md §5): near-perfect
// blocking recall, PQ ≪ 0.01, and the BPE ordering D2 > D3 > D1.
func TestPresetsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset shape check is slow")
	}
	const scale = 0.15
	bpe := make(map[string]float64)
	for _, d := range AllDatasets(scale) {
		blocks := blockproc.BlockPurging{}.Apply(blocking.TokenBlocking{}.Build(d.Collection))
		det := blocks.DetectedDuplicates(d.GroundTruth)
		pc := float64(det) / float64(d.GroundTruth.Size())
		if pc < 0.95 {
			t.Errorf("%s: PC = %.3f, want ≥ 0.95", d.Name, pc)
		}
		pq := float64(det) / float64(blocks.Comparisons())
		if pq > 0.02 {
			t.Errorf("%s: PQ = %.4f, want ≪ 0.01-ish", d.Name, pq)
		}
		bpe[d.Name] = blocks.BPE()
	}
	if !(bpe["D2C"] > bpe["D3C"] && bpe["D3C"] > bpe["D1C"]) {
		t.Errorf("clean BPE ordering broken: %v", bpe)
	}
	if !(bpe["D2D"] > bpe["D3D"] && bpe["D3D"] > bpe["D1D"]) {
		t.Errorf("dirty BPE ordering broken: %v", bpe)
	}
}

func TestScaled(t *testing.T) {
	if scaled(100, 0.5) != 50 || scaled(100, 0) != 100 || scaled(1, 0.001) != 1 {
		t.Fatal("scaled() broken")
	}
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if ValidScale(s) {
			t.Errorf("ValidScale(%v) = true", s)
		}
	}
	if !ValidScale(0.001) || !ValidScale(1) {
		t.Error("ValidScale rejects a positive finite scale")
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for duplicates > source size")
		}
	}()
	Generate(Config{Name: "bad", Size1: 5, Size2: 10, Duplicates: 7, Vocabulary: 100, CoreTokens: 3})
}

// renderDataset serializes a dataset — every profile attribute-by-
// attribute plus the ground truth — to one byte string, so determinism is
// checked at full fidelity rather than through DeepEqual's tolerance for
// aliasing differences.
func renderDataset(d Dataset) []byte {
	var sb strings.Builder
	sb.WriteString(d.Name)
	fmt.Fprintf(&sb, "|%v|%d|%d\n", d.Collection.Task, d.Collection.Split, d.Collection.Size())
	for i := range d.Collection.Profiles {
		sb.WriteString(d.Collection.Profiles[i].String())
		sb.WriteByte('\n')
	}
	for _, p := range d.GroundTruth.Pairs() {
		fmt.Fprintf(&sb, "%d-%d\n", p.A, p.B)
	}
	return []byte(sb.String())
}

// TestSeedByteIdentical: generation is a pure function of the config —
// the same seed reproduces the dataset byte for byte (profiles, attribute
// order, ground truth), and different seeds do not.
func TestSeedByteIdentical(t *testing.T) {
	a := renderDataset(Generate(small(42)))
	b := renderDataset(Generate(small(42)))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different datasets")
	}
	if bytes.Equal(a, renderDataset(Generate(small(43)))) {
		t.Fatal("different seeds produced identical datasets")
	}
	// The presets — the fixtures experiments and benchmarks cite — are
	// deterministic end to end, including the dirty derivation.
	p1 := renderDataset(D1D(0.02))
	p2 := renderDataset(D1D(0.02))
	if !bytes.Equal(p1, p2) {
		t.Fatal("preset D1D(0.02) is not reproducible")
	}
}
