// Sharded resolver artifacts: one checksummed segment file per shard
// plus a manifest committed last.
//
// Layout for a manifest at <path>, generation g with N shards:
//
//	<path>.g<g>.s0 … <path>.g<g>.s<N-1>   per-shard segments
//	<path>                                 manifest (written last)
//
// Every file — segments and manifest — rides on the PR-5 atomic
// checksummed container (saveFileAtomic / readFileVerified), so each is
// individually torn-write-proof. Crash consistency across files comes
// from generation numbering and manifest-last ordering: a new save
// writes fresh segments under a NEW generation (never touching the
// previous generation's files), fsyncs them, and only then atomically
// replaces the manifest. A crash at any instant leaves the old manifest
// pointing at the old, untouched segments; the half-written new
// generation is garbage that the next successful save sweeps. Only
// after the manifest commits are older generations deleted
// (best-effort).
package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"metablocking/internal/core"
	"metablocking/internal/incremental"
	"metablocking/internal/par"
)

// Segments carry the resolver artifact's body (body.go) and the manifest
// a gob value.
const (
	shardManifestVersion = 1
	shardSegmentVersion  = 2

	shardManifestKind = "resolver-shards"
	shardSegmentKind  = "resolver-shard"
)

// storedShardManifest is the gob payload of the manifest artifact: the
// resolver configuration, the shard count and the generation whose
// segment files are current.
type storedShardManifest struct {
	Scheme         int
	K              int
	MaxBlockSize   int
	MinTokenLength int
	Shards         int
	Generation     uint64
}

// segmentPath names shard k's segment file of the given generation.
func segmentPath(path string, gen uint64, k int) string {
	return path + ".g" + strconv.FormatUint(gen, 10) + ".s" + strconv.Itoa(k)
}

// SaveShardedResolverFile persists per-shard segments plus a manifest at
// path, crash-safely (see the package comment above). The segments are
// written in parallel — they are independent files — and the manifest
// only after every segment is durable.
func SaveShardedResolverFile(path string, cfg incremental.Config, segs []*incremental.PartitionSnapshot) error {
	if len(segs) == 0 {
		return fmt.Errorf("store: sharded save with no segments")
	}
	for i, seg := range segs {
		if seg == nil || seg.Shard != i || seg.Shards != len(segs) {
			return fmt.Errorf("store: segment %d of %d malformed", i, len(segs))
		}
	}
	gen := nextGeneration(path)
	errs := make([]error, len(segs))
	par.Ranges(len(segs), len(segs), func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			errs[k] = saveFileAtomic(segmentPath(path, gen, k), func(w io.Writer) error {
				return writeShardSegment(w, gen, segs[k])
			})
		}
	})
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("store: segment %d: %w", k, err)
		}
	}
	m := storedShardManifest{
		Scheme:         int(cfg.Scheme),
		K:              cfg.K,
		MaxBlockSize:   cfg.MaxBlockSize,
		MinTokenLength: cfg.MinTokenLength,
		Shards:         len(segs),
		Generation:     gen,
	}
	if err := saveFileAtomic(path, func(w io.Writer) error {
		return writeArtifact(w, shardManifestKind, shardManifestVersion, m)
	}); err != nil {
		return err
	}
	sweepGenerations(path, gen)
	return nil
}

func writeShardSegment(w io.Writer, gen uint64, seg *incremental.PartitionSnapshot) error {
	body, err := appendSegmentBody(nil, gen, seg)
	if err != nil {
		return err
	}
	return writeBody(w, shardSegmentKind, shardSegmentVersion, body)
}

// nextGeneration picks the generation for a new sharded save: one past
// the current manifest's if path holds one, otherwise one past the
// highest generation any leftover segment file carries (so a crashed
// half-save is never overwritten in place).
func nextGeneration(path string) uint64 {
	gen := uint64(0)
	if payload, err := readFileVerified(path); err == nil {
		var m storedShardManifest
		if readArtifact(bytes.NewReader(payload), shardManifestKind, shardManifestVersion, &m) == nil {
			gen = m.Generation
		}
	}
	matches, _ := filepath.Glob(path + ".g*.s*")
	for _, f := range matches {
		if g, ok := parseGeneration(path, f); ok && g > gen {
			gen = g
		}
	}
	return gen + 1
}

// parseGeneration extracts <g> from a "<path>.g<g>.s<k>" segment name.
func parseGeneration(path, file string) (uint64, bool) {
	suffix, ok := strings.CutPrefix(file, path+".g")
	if !ok {
		return 0, false
	}
	genStr, _, ok := strings.Cut(suffix, ".s")
	if !ok {
		return 0, false
	}
	g, err := strconv.ParseUint(genStr, 10, 64)
	return g, err == nil
}

// sweepGenerations removes segment files of generations other than keep.
// Best-effort: a leftover file is wasted disk, not a correctness hazard,
// because loads only read the generation the manifest names.
func sweepGenerations(path string, keep uint64) {
	matches, _ := filepath.Glob(path + ".g*.s*")
	for _, f := range matches {
		if g, ok := parseGeneration(path, f); ok && g != keep {
			os.Remove(f)
		}
	}
}

// LoadShardedResolverFile loads the manifest at path and every segment
// of its generation, verifying each file's checksum and the cross-file
// binding (shard number, shard count, generation stamped inside each
// segment must match the manifest). Failures classify under
// ErrCorruptArtifact / ErrVersionMismatch like every other artifact.
func LoadShardedResolverFile(path string) (incremental.Config, []*incremental.PartitionSnapshot, error) {
	var cfg incremental.Config
	payload, err := readFileVerified(path)
	if err != nil {
		return cfg, nil, err
	}
	var m storedShardManifest
	if err := readArtifact(bytes.NewReader(payload), shardManifestKind, shardManifestVersion, &m); err != nil {
		return cfg, nil, err
	}
	if m.Shards <= 0 {
		return cfg, nil, fmt.Errorf("store: manifest names %d shards: %w", m.Shards, ErrCorruptArtifact)
	}
	cfg = incremental.Config{
		Scheme:         core.Scheme(m.Scheme),
		K:              m.K,
		MaxBlockSize:   m.MaxBlockSize,
		MinTokenLength: m.MinTokenLength,
	}
	segs := make([]*incremental.PartitionSnapshot, m.Shards)
	n := 0
	for k := 0; k < m.Shards; k++ {
		seg, err := loadShardSegment(segmentPath(path, m.Generation, k), k, m)
		if err != nil {
			return cfg, nil, err
		}
		segs[k] = seg
		n += len(seg.Profiles)
	}
	// Profile IDs are dense and placed modulo the shard count, so shard k
	// of n profiles holds ⌈(n−k)/shards⌉ of them; anything else would not
	// merge into one arrival order.
	for k, seg := range segs {
		if want := (n - k + m.Shards - 1) / m.Shards; len(seg.Profiles) != want {
			return cfg, nil, fmt.Errorf("store: segment %d holds %d of %d profiles, want %d: %w",
				k, len(seg.Profiles), n, want, ErrCorruptArtifact)
		}
	}
	return cfg, segs, nil
}

func loadShardSegment(segPath string, k int, m storedShardManifest) (*incremental.PartitionSnapshot, error) {
	payload, err := readFileVerified(segPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("store: %s: segment missing: %w", segPath, ErrCorruptArtifact)
		}
		return nil, err
	}
	body, err := openBody(payload, shardSegmentKind, shardSegmentVersion)
	if err != nil {
		return nil, err
	}
	seg, gen, err := decodeSegmentBody(body)
	if err != nil {
		return nil, fmt.Errorf("store: %s: decoding %s: %w", segPath, shardSegmentKind, err)
	}
	if seg.Shard != k || seg.Shards != m.Shards || gen != m.Generation {
		return nil, fmt.Errorf("store: %s: segment labeled shard %d/%d gen %d, manifest wants %d/%d gen %d: %w",
			segPath, seg.Shard, seg.Shards, gen, k, m.Shards, m.Generation, ErrCorruptArtifact)
	}
	return seg, nil
}

// LoadAnyResolverFile loads a resolver artifact of any layout — a plain
// "resolver" snapshot, a sharded manifest+segments, or an out-of-core
// disk directory — and returns the canonical global snapshot, so callers
// can serve it at any shard count regardless of how it was written.
func LoadAnyResolverFile(path string) (*incremental.Snapshot, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		return LoadDiskDir(path)
	}
	payload, err := readFileVerified(path)
	if err != nil {
		return nil, err
	}
	kind, err := peekKind(payload)
	if err != nil {
		return nil, err
	}
	switch kind {
	case shardManifestKind:
		cfg, segs, err := LoadShardedResolverFile(path)
		if err != nil {
			return nil, err
		}
		return incremental.MergeSnapshots(cfg, segs), nil
	default:
		return readResolver(payload)
	}
}

// peekKind decodes just the gob envelope of an artifact payload.
func peekKind(payload []byte) (string, error) {
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env); err != nil {
		return "", fmt.Errorf("store: reading header: %v: %w", err, ErrCorruptArtifact)
	}
	return env.Kind, nil
}
