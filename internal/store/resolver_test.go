package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"metablocking/internal/core"
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
	got, err := ReadResolver(&buf)
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
	if err := writeArtifact(&buf, "resolver", resolverVersion+1, storedResolver{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResolver(&buf); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestResolverKindMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writePairs(&buf, []entity.Pair{{A: 1, B: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResolver(&buf); err == nil {
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
		if _, err := ReadResolver(bytes.NewReader(whole[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(whole))
		}
	}
	if _, err := ReadResolver(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Inconsistent member-list shape is rejected even at the right version.
	var bad bytes.Buffer
	if err := writeArtifact(&bad, "resolver", resolverVersion, storedResolver{
		BlockKeys:    []string{"a", "b"},
		BlockMembers: [][]entity.ID{{0}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResolver(&bad); err == nil {
		t.Fatal("mismatched key/member lists accepted")
	}
}
