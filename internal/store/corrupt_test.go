package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
	"metablocking/internal/paperexample"
)

// classified asserts an error wraps one of the two artifact sentinels.
func classified(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: accepted", what)
	}
	if !errors.Is(err, ErrCorruptArtifact) && !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("%s: error %v wraps neither ErrCorruptArtifact nor ErrVersionMismatch", what, err)
	}
}

func saveGood(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "resolver.snap")
	if err := SaveResolverFile(path, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// TestContainerFraming: the atomic save wraps the artifact in the
// checksummed container, and a verified load round-trips it.
func TestContainerFraming(t *testing.T) {
	path, raw := saveGood(t)
	if !bytes.Equal(raw[:4], headMagic[:]) {
		t.Fatalf("file does not start with container magic: % x", raw[:4])
	}
	if !bytes.Equal(raw[len(raw)-4:], footMagic[:]) {
		t.Fatalf("file does not end with footer magic: % x", raw[len(raw)-4:])
	}
	got, err := LoadAnyResolverFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, testSnapshot(t)) {
		t.Fatal("container round trip differs")
	}
}

// TestBitFlipAlwaysDetected flips single bits across the artifact — header,
// payload and footer — and every flip must be classified, never yield a
// partial resolver.
func TestBitFlipAlwaysDetected(t *testing.T) {
	path, raw := saveGood(t)
	step := len(raw) / 64
	if step < 1 {
		step = 1
	}
	for off := 0; off < len(raw); off += step {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := LoadAnyResolverFile(path); err == nil {
			t.Fatalf("bit flip at offset %d accepted (snapshot %v)", off, snap != nil)
		} else {
			classified(t, err, "bit flip")
		}
	}
}

// TestTruncationAtEveryFooterBoundary cuts the file at every byte of the
// footer and at the header/payload boundaries; all must load as corrupt.
func TestTruncationAtEveryFooterBoundary(t *testing.T) {
	path, raw := saveGood(t)
	cuts := []int{0, 1, headerSize - 1, headerSize, headerSize + 1, len(raw) / 2}
	for n := len(raw) - footerSize - 1; n < len(raw); n++ {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadAnyResolverFile(path)
		classified(t, err, "truncation")
	}
}

// TestVersionMismatchClassified covers both version fences: the container
// version byte and the per-kind envelope version.
func TestVersionMismatchClassified(t *testing.T) {
	path, raw := saveGood(t)
	bad := append([]byte(nil), raw...)
	bad[4]++ // container version (little-endian low byte)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAnyResolverFile(path); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("container version bump: %v, want ErrVersionMismatch", err)
	}

	// A future artifact version inside a valid container.
	future := filepath.Join(t.TempDir(), "future.snap")
	err := saveFileAtomic(future, func(w io.Writer) error {
		return writeBody(w, resolverKind, resolverVersion+1, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAnyResolverFile(future); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("future artifact version: %v, want ErrVersionMismatch", err)
	}
}

// TestWrongKindClassified: a pairs artifact at a resolver path is corrupt,
// not a partial resolver.
func TestWrongKindClassified(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pairs-as-resolver.snap")
	err := saveFileAtomic(path, func(w io.Writer) error {
		return writePairs(w, []entity.Pair{{A: 1, B: 2}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAnyResolverFile(path); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("wrong kind: %v, want ErrCorruptArtifact", err)
	}
}

// TestRawGobWithoutContainerClassified: a bare gob artifact (the
// pre-container format, or any file that merely looks like one) is
// corrupt — nothing reaches the gob decoder unverified.
func TestRawGobWithoutContainerClassified(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raw.snap")
	var buf bytes.Buffer
	if err := WriteResolver(&buf, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAnyResolverFile(path); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("raw gob: %v, want ErrCorruptArtifact", err)
	}
}

// TestAtomicSaveSurvivesInjectedFaults arms each save-path fault site in
// turn; the failed save must leave the previous good artifact untouched at
// the final path and no temp debris behind.
func TestAtomicSaveSurvivesInjectedFaults(t *testing.T) {
	want := testSnapshot(t)
	for _, site := range []string{FaultSaveCreate, FaultSaveWrite, FaultSaveSync, FaultSaveRename} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "resolver.snap")
			if err := SaveResolverFile(path, want); err != nil {
				t.Fatal(err)
			}

			in := fault.New(1)
			in.Arm(site, fault.Spec{Times: 1})
			if site == FaultSaveWrite {
				in.Arm(site, fault.Spec{ShortWrite: 7, Times: 1})
			}
			SetInjector(in)
			defer SetInjector(nil)

			// Overwrite attempt fails at the armed site...
			err := SaveResolverFile(path, testSnapshotDoubled(t))
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("save with %s armed: %v, want injected failure", site, err)
			}
			// ...but the final path still holds the previous good artifact.
			got, err := LoadAnyResolverFile(path)
			if err != nil {
				t.Fatalf("previous artifact lost: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("previous artifact mutated by failed save")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.Contains(e.Name(), ".tmp-") {
					t.Fatalf("temp debris left behind: %s", e.Name())
				}
			}
		})
	}
}

// testSnapshotDoubled returns a well-formed snapshot distinguishable from
// testSnapshot: the paper example resolved twice over.
func testSnapshotDoubled(t *testing.T) *incremental.Snapshot {
	t.Helper()
	r, err := incremental.NewResolver(incremental.Config{Scheme: core.JS, K: 5, MaxBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	r.AddBatch(paperexample.Collection().Profiles)
	r.AddBatch(paperexample.Collection().Profiles)
	return r.Snapshot()
}

// TestVersionOneRefused: resolver artifacts no longer read are refused as
// a version mismatch, never decoded. resolver-v1.snap is a format-version-1
// artifact (a gob payload that stored the token index beside the key
// lists); sharded-v1.snap is a manifest of the retired manifest+segments
// layout, at the manifest version its last writer used, so it stands in
// for every such manifest still on disk. Both are kept in testdata as
// their writers wrote them.
func TestVersionOneRefused(t *testing.T) {
	for _, name := range []string{"resolver-v1.snap", "sharded-v1.snap"} {
		_, err := LoadAnyResolverFile(filepath.Join("testdata", name))
		if !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("%s: %v, want ErrVersionMismatch", name, err)
		}
	}
}

// TestInjectedLoadFault: the read-side site surfaces as a plain error so
// the serving layer's corrupt-load counter can observe it.
func TestInjectedLoadFault(t *testing.T) {
	path, _ := saveGood(t)
	in := fault.New(1)
	in.Arm(FaultLoadRead, fault.Spec{Times: 1})
	SetInjector(in)
	defer SetInjector(nil)
	if _, err := LoadAnyResolverFile(path); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("armed load = %v, want injected", err)
	}
	if _, err := LoadAnyResolverFile(path); err != nil {
		t.Fatalf("after budget: %v", err)
	}
}
