// Disk-directory layout of the out-of-core resolver: per-shard posting
// segments plus checkpoint manifests, and the recovery walk that picks
// the newest generation every shard can still prove.
//
// Layout for a root directory with N shards:
//
//	<root>/s<k>/seg-<seq>.seg        immutable posting segments (paged,
//	                                 CRC'd — see segment.go)
//	<root>/s<k>/manifest-<gen>       checkpoint manifests (checksummed
//	                                 container), written last
//
// Crash consistency is manifest-committed-last, like the sharded gob
// layout: a seal writes its new segment, fsyncs it, and only then
// atomically writes a new manifest naming the full segment list; a
// compaction writes the merged segment and then its manifest. A crash at
// any instant leaves the previous manifest pointing at untouched files.
//
// Cross-shard consistency comes from coordinator-assigned checkpoint
// ids: every shard seals at the same global resolver size under the same
// checkpoint number, and recovery loads the highest checkpoint every
// shard holds a fully verifiable manifest for. If shard k's newest
// generation is torn or bit-flipped, all shards fall back together to
// the previous checkpoint — a consistent, older index instead of a
// corrupt or skewed one. Retention keeps exactly what that fallback
// needs: every manifest of the current checkpoint (compaction adds a
// second one) plus the newest older-checkpoint manifest, and every
// segment one of those references.
package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
)

const (
	diskManifestKind    = "disk-manifest"
	diskManifestVersion = 1
)

// DiskManifest is one shard's checkpoint commit point: the resolver
// configuration, the lineage binding, and the segment files that make up
// the shard at this checkpoint.
type DiskManifest struct {
	Scheme         int
	K              int
	MaxBlockSize   int
	MinTokenLength int

	Shard  int
	Shards int
	// Checkpoint is the coordinator-assigned global checkpoint id; all
	// shards write the same id for one checkpoint.
	Checkpoint uint64
	// Size is the global resolver size (profiles across all shards) the
	// checkpoint sealed at.
	Size int
	// LocalGen is this shard's own monotonic manifest number — the file
	// name — advancing on every manifest write (seal or compaction).
	LocalGen uint64
	// Segments lists the shard's segment file names in ascending MinSeq
	// order; together they cover local slots [0, localCount(Size)).
	Segments []string
}

// Config returns the resolver configuration the manifest binds.
func (m *DiskManifest) Config() incremental.Config {
	return incremental.Config{
		Scheme:         core.Scheme(m.Scheme),
		K:              m.K,
		MaxBlockSize:   m.MaxBlockSize,
		MinTokenLength: m.MinTokenLength,
	}
}

// DiskShardDir names shard k's directory under root.
func DiskShardDir(root string, k int) string {
	return filepath.Join(root, "s"+strconv.Itoa(k))
}

// SegmentFileName names the segment file with the given seal sequence.
func SegmentFileName(seq uint64) string {
	return fmt.Sprintf("seg-%020d.seg", seq)
}

func manifestFileName(gen uint64) string {
	return fmt.Sprintf("manifest-%020d", gen)
}

func parseSegmentSeq(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".seg")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(s, 10, 64)
	return seq, err == nil
}

func parseManifestGen(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, "manifest-")
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(s, 10, 64)
	return gen, err == nil
}

// SaveDiskManifest atomically writes the manifest into dir under its
// LocalGen-derived name — the commit point of a seal or compaction.
func SaveDiskManifest(dir string, m DiskManifest) error {
	return saveFileAtomic(filepath.Join(dir, manifestFileName(m.LocalGen)), func(w io.Writer) error {
		return writeArtifact(w, diskManifestKind, diskManifestVersion, m)
	})
}

// LoadDiskManifest reads and verifies one manifest file.
func LoadDiskManifest(path string) (DiskManifest, error) {
	var m DiskManifest
	payload, err := readFileVerified(path)
	if err != nil {
		return m, err
	}
	if err := readArtifact(bytes.NewReader(payload), diskManifestKind, diskManifestVersion, &m); err != nil {
		return m, err
	}
	return m, nil
}

// localCount is how many of the first size global IDs are homed on shard
// k of shards — the profile count a shard's manifest must account for.
func localCount(size, shards, k int) int {
	if size <= k {
		return 0
	}
	return (size - k + shards - 1) / shards
}

// DiskShardState is one shard's recovered state: the chosen manifest and
// its opened segments (nil/empty for a fresh shard), plus the next safe
// file numbers, scanned past every file in the directory — even torn
// leftovers — so new writes never collide with old bytes.
type DiskShardState struct {
	Dir      string
	Manifest *DiskManifest
	Segments []*Segment
	NextSeq  uint64
	NextGen  uint64
	// WALs lists every write-ahead log file present in the directory
	// (ascending sequence); recovery replays the ones whose lineage meta
	// matches the chosen checkpoint and ignores the rest.
	WALs []string
	// NextWal is the next safe WAL rotation number.
	NextWal uint64
}

// CloseSegments closes any opened segments (for callers that recover
// only to inspect or rebuild, not to serve).
func (s *DiskShardState) CloseSegments() {
	for _, seg := range s.Segments {
		seg.Close()
	}
	s.Segments = nil
}

// DiskLayout is the recovered state of a whole out-of-core directory.
type DiskLayout struct {
	// Cfg is the resolver configuration the chosen manifests agree on;
	// meaningful only when Checkpoint > 0.
	Cfg incremental.Config
	// Shards is the directory's shard count.
	Shards int
	// Size is the global resolver size at the chosen checkpoint.
	Size int
	// Checkpoint is the loaded checkpoint id — the highest every shard
	// holds a verifiable manifest for; 0 means an empty index.
	Checkpoint uint64
	// MaxCheckpoint is the highest checkpoint id seen on any shard, valid
	// or not chosen; new checkpoints must start above it so abandoned
	// lineages can never shadow live ones.
	MaxCheckpoint uint64
	Shard         []*DiskShardState
}

// Close closes every shard's opened segments.
func (l *DiskLayout) Close() {
	for _, s := range l.Shard {
		s.CloseSegments()
	}
}

// shardCandidate is one verifiable manifest found during recovery.
type shardCandidate struct {
	gen      uint64
	manifest DiskManifest
}

// RecoverDiskDir opens (creating if absent) an out-of-core directory and
// recovers the newest consistent checkpoint. shards fixes the expected
// shard count; pass 0 to infer it from the directory (1 if fresh). A
// directory laid out for a different shard count is refused — segments
// partition IDs by id mod N, so reinterpreting them at another N would
// scramble the index.
//
// Per shard, manifests are walked newest-first and each is verified in
// full: container checksum, lineage binding, every referenced segment
// opened with a complete page-CRC scan, slot ranges chaining from 0 and
// summing to the manifest's size. The loaded checkpoint is the highest
// one every shard verified — so a torn or bit-flipped newest generation
// on any shard falls the whole index back to the previous checkpoint
// rather than erroring or serving a skewed view.
func RecoverDiskDir(root string, shards int) (*DiskLayout, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	existing := 0
	for {
		st, err := os.Stat(DiskShardDir(root, existing))
		if err != nil || !st.IsDir() {
			break
		}
		existing++
	}
	if shards <= 0 {
		shards = existing
		if shards == 0 {
			shards = 1
		}
	} else if existing > 0 && existing != shards {
		return nil, fmt.Errorf("store: %s is laid out for %d shards, not %d", root, existing, shards)
	}

	layout := &DiskLayout{Shards: shards, Shard: make([]*DiskShardState, shards)}
	cands := make([]map[uint64]shardCandidate, shards)
	for k := 0; k < shards; k++ {
		dir := DiskShardDir(root, k)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		state, cs, err := scanShardDir(dir, k, shards)
		if err != nil {
			return nil, err
		}
		layout.Shard[k] = state
		cands[k] = cs
		for ckpt := range cs {
			if ckpt > layout.MaxCheckpoint {
				layout.MaxCheckpoint = ckpt
			}
		}
	}

	// The loaded checkpoint is the highest id every shard can verify.
	chosen := uint64(0)
	for ckpt := range cands[0] {
		if ckpt <= chosen {
			continue
		}
		common := true
		for k := 1; k < shards; k++ {
			if _, ok := cands[k][ckpt]; !ok {
				common = false
				break
			}
		}
		if common {
			chosen = ckpt
		}
	}
	if chosen == 0 {
		return layout, nil
	}
	layout.Checkpoint = chosen
	for k := 0; k < shards; k++ {
		c := cands[k][chosen]
		m := c.manifest
		if k == 0 {
			layout.Cfg = m.Config()
			layout.Size = m.Size
		} else if m.Config() != layout.Cfg || m.Size != layout.Size {
			return nil, fmt.Errorf("store: shard %d manifest disagrees with shard 0 at checkpoint %d: %w",
				k, chosen, ErrCorruptArtifact)
		}
		state := layout.Shard[k]
		state.Manifest = &m
		// The candidate scan already page-verified these files; reopen
		// without the full scan (page CRCs still guard every later read).
		for _, name := range m.Segments {
			seg, err := OpenSegment(filepath.Join(state.Dir, name), false)
			if err != nil {
				layout.Close()
				return nil, err
			}
			state.Segments = append(state.Segments, seg)
		}
	}
	return layout, nil
}

// scanShardDir walks one shard directory: next safe file numbers from
// every file name present, and the verifiable manifest per checkpoint
// (newest LocalGen wins — a compacted manifest supersedes the seal it
// folded, and falls back to it if the merged segment is damaged).
func scanShardDir(dir string, k, shards int) (*DiskShardState, map[uint64]shardCandidate, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	state := &DiskShardState{Dir: dir}
	var gens []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentSeq(e.Name()); ok && seq >= state.NextSeq {
			state.NextSeq = seq + 1
		}
		if gen, ok := parseManifestGen(e.Name()); ok {
			gens = append(gens, gen)
			if gen >= state.NextGen {
				state.NextGen = gen + 1
			}
		}
		if seq, ok := parseWalSeq(e.Name()); ok {
			state.WALs = append(state.WALs, e.Name())
			if seq >= state.NextWal {
				state.NextWal = seq + 1
			}
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] > gens[b] })
	cands := make(map[uint64]shardCandidate)
	for _, gen := range gens {
		m, err := LoadDiskManifest(filepath.Join(dir, manifestFileName(gen)))
		if err != nil {
			continue // torn or bit-flipped: an older generation will serve
		}
		if m.Shard != k || m.Shards != shards || m.LocalGen != gen {
			continue
		}
		if !verifyManifestSegments(dir, m) {
			continue
		}
		if prev, ok := cands[m.Checkpoint]; !ok || gen > prev.gen {
			cands[m.Checkpoint] = shardCandidate{gen: gen, manifest: m}
		}
	}
	return state, cands, nil
}

// verifyManifestSegments fully verifies every segment a manifest names:
// page-CRC scan, lineage binding, slot ranges chaining from 0 and
// summing to the manifest's share of its global size.
func verifyManifestSegments(dir string, m DiskManifest) bool {
	nextSlot := 0
	for _, name := range m.Segments {
		seg, err := OpenSegment(filepath.Join(dir, name), true)
		if err != nil {
			return false
		}
		meta := seg.Meta()
		seg.Close()
		if meta.Shard != m.Shard || meta.Shards != m.Shards || meta.FirstSlot != nextSlot {
			return false
		}
		nextSlot += meta.Profiles
	}
	return nextSlot == localCount(m.Size, m.Shards, m.Shard)
}

// SweepShardDir applies the retention rule after a manifest commit: keep
// every manifest of the current checkpoint, keep the newest manifest of
// any older checkpoint (the recovery fallback), delete the rest —
// including abandoned higher-checkpoint lineages — and delete every
// segment file no kept manifest references. Write-ahead logs follow the
// same pass: any wal file not named in keepWals is superseded by the
// manifest that just committed and is deleted. Best-effort: leftover
// files are wasted disk, never a correctness hazard, because recovery
// only trusts what a manifest (or a matching-lineage log) proves.
func SweepShardDir(dir string, current uint64, keepWals ...string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type mf struct {
		gen  uint64
		m    DiskManifest
		ok   bool
		name string
	}
	var manifests []mf
	var segFiles []string
	for _, e := range entries {
		if gen, ok := parseManifestGen(e.Name()); ok {
			entry := mf{gen: gen, name: e.Name()}
			if m, err := LoadDiskManifest(filepath.Join(dir, e.Name())); err == nil && m.LocalGen == gen {
				entry.m, entry.ok = m, true
			}
			manifests = append(manifests, entry)
			continue
		}
		if _, ok := parseSegmentSeq(e.Name()); ok {
			segFiles = append(segFiles, e.Name())
		}
		if _, ok := parseWalSeq(e.Name()); ok {
			kept := false
			for _, keep := range keepWals {
				kept = kept || keep == e.Name()
			}
			if !kept {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	var fallback uint64 // newest gen with checkpoint below current
	haveFallback := false
	for _, e := range manifests {
		if e.ok && e.m.Checkpoint < current && (!haveFallback || e.gen > fallback) {
			fallback, haveFallback = e.gen, true
		}
	}
	referenced := make(map[string]bool)
	for _, e := range manifests {
		keep := e.ok && (e.m.Checkpoint == current || (haveFallback && e.gen == fallback))
		if !keep {
			os.Remove(filepath.Join(dir, e.name))
			continue
		}
		for _, name := range e.m.Segments {
			referenced[name] = true
		}
	}
	for _, name := range segFiles {
		if !referenced[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// LoadDiskDir materializes an out-of-core directory into the canonical
// in-memory snapshot — the bridge that lets a disk-backed index be
// reloaded into any serving shape, like the other two resolver layouts.
func LoadDiskDir(root string) (*incremental.Snapshot, error) {
	layout, err := RecoverDiskDir(root, 0)
	if err != nil {
		return nil, err
	}
	defer layout.Close()
	cfg := layout.Cfg
	if layout.Checkpoint == 0 {
		cfg = incremental.Config{}
	}
	segs := make([]*incremental.PartitionSnapshot, layout.Shards)
	for k, state := range layout.Shard {
		ps := &incremental.PartitionSnapshot{BlocksOf: make([][]string, 0)}
		var scratch []byte
		for _, seg := range state.Segments {
			for ci := 0; ci < seg.ProfileChunks(); ci++ {
				var profiles []entity.Profile
				var keys [][]string
				profiles, keys, scratch, err = seg.ReadProfileChunk(ci, scratch)
				if err != nil {
					return nil, err
				}
				ps.Profiles = append(ps.Profiles, profiles...)
				ps.BlocksOf = append(ps.BlocksOf, keys...)
			}
		}
		segs[k] = ps
	}
	// Replay the write-ahead tail on top of the checkpoint, exactly as a
	// serving reopen would: each record appends to its home shard in
	// ascending ID order, so the merged snapshot is bit-identical to the
	// never-crashed index.
	tail := RecoverWalTail(layout)
	if len(tail.Records) > 0 && layout.Checkpoint == 0 {
		cfg = tail.Cfg
	}
	for _, rec := range tail.Records {
		ps := segs[int(rec.ID)%layout.Shards]
		ps.Profiles = append(ps.Profiles, rec.Profile)
		ps.BlocksOf = append(ps.BlocksOf, append([]string(nil), rec.Keys...))
	}
	return incremental.MergeSnapshots(cfg, segs), nil
}
