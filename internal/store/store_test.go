package store

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"metablocking/internal/blocking"
	"metablocking/internal/entity"
	"metablocking/internal/paperexample"
)

func TestBlocksRoundTrip(t *testing.T) {
	want := blocking.TokenBlocking{}.Build(paperexample.Collection())
	var buf bytes.Buffer
	if err := WriteBlocks(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlocks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("blocks differ after round trip")
	}
}

// writePairs writes an artifact of a kind the package does not load, the
// input of the kind-mismatch tests.
func writePairs(w io.Writer, pairs []entity.Pair) error {
	return writeArtifact(w, "pairs", 1, pairs)
}

func TestKindMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writePairs(&buf, []entity.Pair{{A: 1, B: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlocks(&buf); err == nil {
		t.Fatal("pairs artifact accepted as blocks")
	}
}

func TestCorruptInputRejected(t *testing.T) {
	if _, err := ReadBlocks(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBlocks(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestBlocksFileHelpers(t *testing.T) {
	want := blocking.TokenBlocking{}.Build(paperexample.Collection())
	path := filepath.Join(t.TempDir(), "blocks.bin")
	if err := SaveBlocksFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBlocksFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file round trip differs")
	}
	if _, err := LoadBlocksFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}
