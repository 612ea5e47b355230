package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/paperexample"
)

func testSnapshot(t *testing.T) *incremental.Snapshot {
	t.Helper()
	r, err := incremental.NewResolver(incremental.Config{Scheme: core.JS, K: 5, MaxBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	r.AddBatch(paperexample.Collection().Profiles)
	return r.Snapshot()
}

func TestResolverRoundTrip(t *testing.T) {
	want := testSnapshot(t)
	var buf bytes.Buffer
	if err := WriteResolver(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResolver(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("snapshot differs after round trip")
	}
	// And the restored snapshot rebuilds a working resolver.
	r, err := incremental.FromSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 6 {
		t.Fatalf("restored resolver size = %d, want 6", r.Size())
	}
}

func TestResolverDeterministicBytes(t *testing.T) {
	snap := testSnapshot(t)
	var a, b bytes.Buffer
	if err := WriteResolver(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteResolver(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same snapshot serialized to different bytes")
	}
}

func TestResolverFileHelpers(t *testing.T) {
	want := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "resolver.snap")
	if err := SaveResolverFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAnyResolverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file round trip differs")
	}
	if _, err := LoadAnyResolverFile(filepath.Join(t.TempDir(), "missing.snap")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v, want not-exist", err)
	}
}

func TestResolverVersionMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBody(&buf, resolverKind, resolverVersion+1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := readResolver(buf.Bytes()); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("future version: %v, want ErrVersionMismatch", err)
	}
}

func TestResolverKindMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writePairs(&buf, []entity.Pair{{A: 1, B: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := readResolver(buf.Bytes()); err == nil {
		t.Fatal("pairs artifact accepted as resolver snapshot")
	}
}

func TestResolverTruncatedRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResolver(&buf, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Cut the artifact at several depths: inside the header, between
	// header and payload, and inside the payload.
	for _, n := range []int{1, 5, len(whole) / 2, len(whole) - 1} {
		if n >= len(whole) {
			continue
		}
		if _, err := readResolver(whole[:n]); !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("truncation at %d/%d bytes: %v, want ErrCorruptArtifact", n, len(whole), err)
		}
	}
	if _, err := readResolver(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestWriterRefusesMalformedSnapshots: a snapshot whose key lists do not
// match its profiles, or whose optional Blocks is not their inverse, is
// an error from the writer — never a panic, never bytes that drop the
// disagreement.
func TestWriterRefusesMalformedSnapshots(t *testing.T) {
	short := testSnapshot(t)
	short.BlocksOf = short.BlocksOf[:len(short.BlocksOf)-1]
	skewed := testSnapshot(t)
	skewed.Blocks = map[string][]entity.ID{skewed.BlocksOf[0][0]: {0}}
	twice := testSnapshot(t)
	twice.BlocksOf[1] = append(twice.BlocksOf[1], twice.BlocksOf[1][0])
	for name, s := range map[string]*incremental.Snapshot{"short key lists": short, "skewed blocks": skewed, "key twice": twice} {
		var buf bytes.Buffer
		if err := WriteResolver(&buf, s); err == nil {
			t.Errorf("%s: written", name)
		}
	}
}

// TestReadResolverAllocs: decoding allocates a constant number of
// objects, not a few per profile — one string copy each for the key
// dictionary and the profiles, and one backing array per slice kind.
func TestReadResolverAllocs(t *testing.T) {
	r, err := incremental.NewResolver(incremental.Config{Scheme: core.JS, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	r.AddBatch(datagen.D1D(0.5).Collection.Profiles[:n])
	var buf bytes.Buffer
	if err := WriteResolver(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := readResolver(payload); err != nil {
			t.Fatal(err)
		}
	})
	// The gob envelope costs about 150, the body about ten; a
	// per-profile allocation would cost n more.
	if limit := float64(n / 4); allocs > limit {
		t.Fatalf("decoding %d profiles made %.0f allocations, want ≤ %.0f", n, allocs, limit)
	}
	t.Logf("decoding %d profiles: %.0f allocations", n, allocs)
}
