package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/paperexample"
)

// bodySeeds are the snapshots the codec tests and the fuzz corpus start
// from: an empty index, the paper example, a profile with no keys, and
// non-ASCII values.
func bodySeeds(t testing.TB) map[string]*incremental.Snapshot {
	cfg := incremental.Config{Scheme: core.ARCS, K: 3, MaxBlockSize: 50, MinTokenLength: 2}
	seeds := map[string]*incremental.Snapshot{
		"empty": {Config: cfg, BlocksOf: [][]string{}},
	}
	for name, profiles := range map[string][]entity.Profile{
		"paper":     paperexample.Collection().Profiles,
		"no keys":   {{Attributes: []entity.Attribute{{Name: "n", Value: "a"}}}, {}},
		"non-ascii": {{Attributes: []entity.Attribute{{Name: "名前", Value: "Jürgen Müller"}, {Name: "ville", Value: "Zürich 東京"}}}, {Attributes: []entity.Attribute{{Name: "名前", Value: "jürgen 東京"}}}},
	} {
		r, err := incremental.NewResolver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.AddBatch(profiles)
		seeds[name] = r.Snapshot()
	}
	return seeds
}

// TestBodyRoundTrip: a body decodes to the snapshot it encodes,
// shapes included, and the decoded strings do not alias the input.
func TestBodyRoundTrip(t *testing.T) {
	for name, want := range bodySeeds(t) {
		body, err := appendResolverBody(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResolverBody(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: resolver body round trip differs:\n got %+v\nwant %+v", name, got, want)
		}
		clear(body)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded snapshot aliases the body", name)
		}
	}
}

// TestBodyCountsBoundedByInput: a count larger than the bytes left is
// refused before anything is allocated for it, at every count field.
func TestBodyCountsBoundedByInput(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	head := []byte{0, 0, 0, 0} // Scheme, K, MaxBlockSize, MinTokenLength
	for name, body := range map[string][]byte{
		"keys":       cat(head, huge, []byte{0}),
		"key bytes":  cat(head, []byte{0}, huge),
		"key length": cat(head, []byte{1, 3, 0x80, 0x01, 'x'}),
		"profiles":   cat(head, []byte{0, 0}, huge, []byte{0, 0}),
		"attributes": cat(head, []byte{0, 0, 1}, huge, []byte{0}),
		"references": cat(head, []byte{0, 0, 1, 0}, huge),
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := decodeResolverBody(body); !errors.Is(err, ErrCorruptArtifact) {
				t.Fatalf("%s: %v, want ErrCorruptArtifact", name, err)
			}
		})
		if allocs > 3 {
			t.Errorf("%s: refusing the count made %.0f allocations", name, allocs)
		}
	}
}

// TestBodyRefusesNonCanonical: bytes the encoder never writes are
// refused, so every body that decodes re-encodes to itself.
func TestBodyRefusesNonCanonical(t *testing.T) {
	s := &incremental.Snapshot{
		Profiles: []entity.Profile{{ID: 0}, {ID: 1}},
		BlocksOf: [][]string{{"b", "a"}, {"a"}},
	}
	good, err := appendResolverBody(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	// head(4) · keys 2, 4 bytes, "a", "b" · totals 2, 0, 3 ·
	// profile 0: ID 0, 0 attributes, 2 keys: 1, 0 · profile 1: ID 1 (zigzag 2), 0, 1 key: 0
	want := []byte{0, 0, 0, 0, 2, 4, 1, 'a', 1, 'b', 2, 0, 3, 0, 0, 2, 1, 0, 2, 0, 1, 0}
	if !bytes.Equal(good, want) {
		t.Fatalf("body = %v, want %v", good, want)
	}
	for name, body := range map[string][]byte{
		"overlong varint":  cat(good[:4], []byte{0x82, 0x00}, good[5:]),
		"keys unsorted":    cat(good[:6], []byte{1, 'b', 1, 'a'}, good[10:]),
		"key unreferenced": {0, 0, 0, 0, 1, 2, 1, 'a', 1, 0, 0, 0, 0, 0},
		"key twice":        cat(good[:16], []byte{1, 1}, good[18:]),
		"index past keys":  cat(good[:17], []byte{2}, good[18:]),
		"attribute total":  cat(good[:11], []byte{1}, good[12:]),
		"trailing byte":    cat(good, []byte{0}),
		"truncated":        good[:len(good)-1],
	} {
		if _, err := decodeResolverBody(body); !errors.Is(err, ErrCorruptArtifact) {
			t.Errorf("%s: %v, want ErrCorruptArtifact", name, err)
		}
	}
}

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// FuzzResolverBody: no input panics the body decoder; malformed input
// is refused as ErrCorruptArtifact; and any body that decodes re-encodes
// to exactly its own bytes.
func FuzzResolverBody(f *testing.F) {
	for _, s := range bodySeeds(f) {
		body, err := appendResolverBody(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if s, err := decodeResolverBody(body); err != nil {
			if !errors.Is(err, ErrCorruptArtifact) {
				t.Fatalf("resolver body: %v, want ErrCorruptArtifact", err)
			}
		} else if again, err := appendResolverBody(nil, s); err != nil || !bytes.Equal(again, body) {
			t.Fatalf("resolver body re-encodes to %v (%v), want %v", again, err, body)
		}
	})
}
