// Paged posting segments — the on-disk unit of the out-of-core index.
//
// A segment is one shard's immutable batch of resolver state: every token
// the batch touched with its raw delta+varint posting bytes, plus the
// batch's profiles and their block-key lists, packed into CRC-guarded
// pages so readers can verify and load one page at a time instead of the
// whole file. The layout is:
//
//	header   magic "MBSG" + version              (8 bytes)
//	pages    posting pages, then profile pages   (CRC per page)
//	index    gob(segIndex)                       (token dictionary, page
//	                                              refs, key counts, meta)
//	footer   indexOff(8) indexLen(8) indexCRC(4) magic "MBSE"  (24 bytes)
//
// The footer-last layout makes torn writes detectable wherever they tear,
// like the artifact container; segments additionally checksum every page
// so a bit flip in one posting page is caught by the first read that
// touches it, not only by a whole-file scan. Files are written through
// AtomicWriteFile, so a crash mid-write never leaves a segment path with
// partial content.
//
// Posting lists are stored as the exact bytes postings.Builder holds
// (first element delta-coded from zero), which buys two things: sealing a
// memtable is a straight copy, and compaction splices consecutive
// segments' lists with postings.RebaseVarint instead of a decode/encode
// round trip. The token dictionary, page refs and per-profile key counts
// live in the index block, so opening a segment costs one index read and
// no page reads — the weight terms (|B_j|) every gather needs stay in
// RAM while members and profiles stay on disk.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"metablocking/internal/entity"
)

const (
	segmentFileVersion = 1
	segHeaderSize      = 8  // magic(4) + version(4)
	segFooterSize      = 24 // indexOff(8) + indexLen(8) + indexCRC(4) + magic(4)

	// segPageTarget is the soft posting-page size: a page closes when the
	// next list would push it past this. A single list larger than the
	// target gets a page of its own — lists never split across pages.
	segPageTarget = 32 << 10

	// ProfileChunkSize is how many profiles share one profile page.
	ProfileChunkSize = 64
)

var (
	segHeadMagic = [4]byte{'M', 'B', 'S', 'G'}
	segFootMagic = [4]byte{'M', 'B', 'S', 'E'}
)

// SegmentMeta binds a segment to its place in a shard's lineage.
type SegmentMeta struct {
	// Shard / Shards bind the file to one partition of one layout.
	Shard  int
	Shards int
	// MinSeq..Seq is the range of seal sequence numbers folded into this
	// file: equal for a fresh delta, widening as compaction merges.
	MinSeq uint64
	Seq    uint64
	// FirstSlot is the first local profile slot this segment covers;
	// segments of one manifest chain contiguously from slot 0.
	FirstSlot int
	// Profiles is the local profile count of the segment.
	Profiles int
}

// PageRef locates one CRC-guarded page inside the segment file.
type PageRef struct {
	Off int64
	Len int32
	CRC uint32
}

// TokenRef locates one token's posting bytes inside a page. Count is the
// number of IDs, Last the largest — what RebaseVarint needs to splice the
// next segment's list on without decoding this one.
type TokenRef struct {
	Page  int32
	Off   int32
	Len   int32
	Count int32
	Last  int32
}

// segIndex is the gob-encoded index block at the tail of every segment.
type segIndex struct {
	Meta   SegmentMeta
	Pages  []PageRef
	Tokens []string // ascending
	Refs   []TokenRef
	// ProfilePages lists the page index of each profile chunk, in slot
	// order; chunk i holds profiles [i*ProfileChunkSize, ...).
	ProfilePages []int32
	// KeyCounts[i] is the block-key count of local profile i — the |B_j|
	// weight term, kept in the index so gathers never page profiles in.
	KeyCounts []int32
}

// profileChunk is the gob payload of one profile page.
type profileChunk struct {
	Profiles []entity.Profile
	Keys     [][]string
}

// SegmentSource feeds WriteSegment. Both callbacks stream: nothing
// obliges the caller to materialize the whole segment in memory, which is
// what lets compaction merge arbitrarily large segments in bounded space.
type SegmentSource struct {
	// Tokens emits every token in strictly ascending order with its raw
	// delta+varint posting bytes, ID count and largest ID. enc need only
	// stay valid during the emit call.
	Tokens func(emit func(tok string, enc []byte, count, last int32) error) error
	// Profiles emits the segment's profiles in slot order with their
	// block-key lists. keys need only stay valid during the emit call.
	Profiles func(emit func(p entity.Profile, keys []string) error) error
}

// segmentWriter tracks the byte offset of everything written so page and
// index refs can be recorded while streaming.
type segmentWriter struct {
	w  io.Writer
	n  int64
	ix segIndex

	pageBuf  []byte
	chunk    profileChunk
	chunkBuf bytes.Buffer
}

func (sw *segmentWriter) write(p []byte) error {
	n, err := sw.w.Write(p)
	sw.n += int64(n)
	return err
}

// flushPage writes one CRC-guarded page and returns its page index.
func (sw *segmentWriter) flushPage(data []byte) (int32, error) {
	ref := PageRef{Off: sw.n, Len: int32(len(data)), CRC: crc32.Checksum(data, crcPoly)}
	if err := sw.write(data); err != nil {
		return 0, err
	}
	sw.ix.Pages = append(sw.ix.Pages, ref)
	return int32(len(sw.ix.Pages) - 1), nil
}

func (sw *segmentWriter) flushChunk() error {
	sw.chunkBuf.Reset()
	if err := gob.NewEncoder(&sw.chunkBuf).Encode(&sw.chunk); err != nil {
		return fmt.Errorf("store: encoding profile chunk: %w", err)
	}
	pg, err := sw.flushPage(sw.chunkBuf.Bytes())
	if err != nil {
		return err
	}
	sw.ix.ProfilePages = append(sw.ix.ProfilePages, pg)
	sw.chunk.Profiles = sw.chunk.Profiles[:0]
	sw.chunk.Keys = sw.chunk.Keys[:0]
	return nil
}

// WriteSegment streams one segment to path with the atomic write protocol:
// the file appears complete or not at all.
func WriteSegment(path string, meta SegmentMeta, src SegmentSource) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		sw := &segmentWriter{w: w}
		var header [segHeaderSize]byte
		copy(header[:4], segHeadMagic[:])
		binary.LittleEndian.PutUint32(header[4:], segmentFileVersion)
		if err := sw.write(header[:]); err != nil {
			return err
		}

		prevTok := ""
		if src.Tokens != nil {
			err := src.Tokens(func(tok string, enc []byte, count, last int32) error {
				if len(sw.ix.Tokens) > 0 && tok <= prevTok {
					return fmt.Errorf("store: segment tokens out of order: %q after %q", tok, prevTok)
				}
				prevTok = tok
				if len(sw.pageBuf) > 0 && len(sw.pageBuf)+len(enc) > segPageTarget {
					if _, err := sw.flushPage(sw.pageBuf); err != nil {
						return err
					}
					sw.pageBuf = sw.pageBuf[:0]
				}
				sw.ix.Tokens = append(sw.ix.Tokens, tok)
				sw.ix.Refs = append(sw.ix.Refs, TokenRef{
					Page:  int32(len(sw.ix.Pages)),
					Off:   int32(len(sw.pageBuf)),
					Len:   int32(len(enc)),
					Count: count,
					Last:  last,
				})
				sw.pageBuf = append(sw.pageBuf, enc...)
				return nil
			})
			if err != nil {
				return err
			}
		}
		if len(sw.pageBuf) > 0 {
			if _, err := sw.flushPage(sw.pageBuf); err != nil {
				return err
			}
		}

		if src.Profiles != nil {
			err := src.Profiles(func(p entity.Profile, keys []string) error {
				sw.chunk.Profiles = append(sw.chunk.Profiles, p)
				sw.chunk.Keys = append(sw.chunk.Keys, keys)
				sw.ix.KeyCounts = append(sw.ix.KeyCounts, int32(len(keys)))
				if len(sw.chunk.Profiles) == ProfileChunkSize {
					return sw.flushChunk()
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		if len(sw.chunk.Profiles) > 0 {
			if err := sw.flushChunk(); err != nil {
				return err
			}
		}
		if len(sw.ix.KeyCounts) != meta.Profiles {
			return fmt.Errorf("store: segment meta says %d profiles, source emitted %d",
				meta.Profiles, len(sw.ix.KeyCounts))
		}
		sw.ix.Meta = meta

		var ixBuf bytes.Buffer
		if err := gob.NewEncoder(&ixBuf).Encode(&sw.ix); err != nil {
			return fmt.Errorf("store: encoding segment index: %w", err)
		}
		indexOff := sw.n
		if err := sw.write(ixBuf.Bytes()); err != nil {
			return err
		}
		var footer [segFooterSize]byte
		binary.LittleEndian.PutUint64(footer[:8], uint64(indexOff))
		binary.LittleEndian.PutUint64(footer[8:16], uint64(ixBuf.Len()))
		binary.LittleEndian.PutUint32(footer[16:20], crc32.Checksum(ixBuf.Bytes(), crcPoly))
		copy(footer[20:], segFootMagic[:])
		return sw.write(footer[:])
	})
}

// Segment is an open, immutable posting segment. The index block lives in
// memory; pages are read (and CRC-verified) on demand. Safe for one
// reader at a time — the shard actor that owns the partition.
type Segment struct {
	path string
	f    *os.File
	ix   segIndex
}

// OpenSegment opens a segment, verifying the framing and the index
// checksum; with verify set it additionally reads and checks every page,
// which is what recovery does before trusting a generation. Failures
// classify under ErrCorruptArtifact / ErrVersionMismatch.
func OpenSegment(path string, verify bool) (*Segment, error) {
	if err := inj().Check(FaultLoadRead); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	seg, err := openSegment(path, f, verify)
	if err != nil {
		f.Close()
		return nil, err
	}
	return seg, nil
}

func openSegment(path string, f *os.File, verify bool) (*Segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < segHeaderSize+segFooterSize {
		return nil, fmt.Errorf("store: %s: segment truncated to %d bytes: %w", path, size, ErrCorruptArtifact)
	}
	var header [segHeaderSize]byte
	if _, err := f.ReadAt(header[:], 0); err != nil {
		return nil, fmt.Errorf("store: %s: reading segment header: %v: %w", path, err, ErrCorruptArtifact)
	}
	if !bytes.Equal(header[:4], segHeadMagic[:]) {
		return nil, fmt.Errorf("store: %s: not a posting segment: %w", path, ErrCorruptArtifact)
	}
	if v := binary.LittleEndian.Uint32(header[4:]); v != segmentFileVersion {
		return nil, fmt.Errorf("store: %s: segment version %d (want %d): %w", path, v, segmentFileVersion, ErrVersionMismatch)
	}
	var footer [segFooterSize]byte
	if _, err := f.ReadAt(footer[:], size-segFooterSize); err != nil {
		return nil, fmt.Errorf("store: %s: reading segment footer: %v: %w", path, err, ErrCorruptArtifact)
	}
	if !bytes.Equal(footer[20:], segFootMagic[:]) {
		return nil, fmt.Errorf("store: %s: segment footer magic missing (torn write): %w", path, ErrCorruptArtifact)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[:8]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:16]))
	if indexOff < segHeaderSize || indexLen < 0 || indexOff+indexLen != size-segFooterSize {
		return nil, fmt.Errorf("store: %s: segment index bounds [%d,+%d) inconsistent with size %d: %w",
			path, indexOff, indexLen, size, ErrCorruptArtifact)
	}
	ixBytes := make([]byte, indexLen)
	if _, err := f.ReadAt(ixBytes, indexOff); err != nil {
		return nil, fmt.Errorf("store: %s: reading segment index: %v: %w", path, err, ErrCorruptArtifact)
	}
	if crc := crc32.Checksum(ixBytes, crcPoly); crc != binary.LittleEndian.Uint32(footer[16:20]) {
		return nil, fmt.Errorf("store: %s: segment index checksum mismatch: %w", path, ErrCorruptArtifact)
	}
	seg := &Segment{path: path, f: f}
	if err := gob.NewDecoder(bytes.NewReader(ixBytes)).Decode(&seg.ix); err != nil {
		return nil, fmt.Errorf("store: %s: decoding segment index: %v: %w", path, err, ErrCorruptArtifact)
	}
	if err := seg.checkIndex(indexOff); err != nil {
		return nil, err
	}
	if verify {
		var buf []byte
		for i := range seg.ix.Pages {
			if buf, err = seg.ReadPage(i, buf); err != nil {
				return nil, err
			}
		}
	}
	return seg, nil
}

// checkIndex validates the decoded index's internal consistency so a
// corrupted (but checksum-colliding) or mislabeled index cannot drive
// out-of-bounds page reads later.
func (s *Segment) checkIndex(indexOff int64) error {
	ix := &s.ix
	bad := func(format string, args ...any) error {
		return fmt.Errorf("store: %s: segment index: %s: %w", s.path, fmt.Sprintf(format, args...), ErrCorruptArtifact)
	}
	if len(ix.Tokens) != len(ix.Refs) {
		return bad("%d tokens but %d refs", len(ix.Tokens), len(ix.Refs))
	}
	if ix.Meta.Profiles < 0 || len(ix.KeyCounts) != ix.Meta.Profiles {
		return bad("%d key counts for %d profiles", len(ix.KeyCounts), ix.Meta.Profiles)
	}
	wantChunks := (ix.Meta.Profiles + ProfileChunkSize - 1) / ProfileChunkSize
	if len(ix.ProfilePages) != wantChunks {
		return bad("%d profile pages for %d profiles", len(ix.ProfilePages), ix.Meta.Profiles)
	}
	for i, pg := range ix.Pages {
		if pg.Off < segHeaderSize || pg.Len < 0 || pg.Off+int64(pg.Len) > indexOff {
			return bad("page %d bounds [%d,+%d) outside data area", i, pg.Off, pg.Len)
		}
	}
	if !sort.StringsAreSorted(ix.Tokens) {
		return bad("token dictionary unsorted")
	}
	for i, ref := range ix.Refs {
		if ref.Page < 0 || int(ref.Page) >= len(ix.Pages) {
			return bad("token %q references page %d of %d", ix.Tokens[i], ref.Page, len(ix.Pages))
		}
		if ref.Off < 0 || ref.Len < 0 || ref.Off+ref.Len > ix.Pages[ref.Page].Len {
			return bad("token %q bytes [%d,+%d) outside page %d", ix.Tokens[i], ref.Off, ref.Len, ref.Page)
		}
		if ref.Count <= 0 {
			return bad("token %q has %d members", ix.Tokens[i], ref.Count)
		}
	}
	for i, pg := range ix.ProfilePages {
		if pg < 0 || int(pg) >= len(ix.Pages) {
			return bad("profile chunk %d references page %d of %d", i, pg, len(ix.Pages))
		}
	}
	return nil
}

// Meta returns the segment's lineage binding.
func (s *Segment) Meta() SegmentMeta { return s.ix.Meta }

// Path returns the file the segment was opened from.
func (s *Segment) Path() string { return s.path }

// Tokens returns the ascending token dictionary. Callers must not mutate.
func (s *Segment) Tokens() []string { return s.ix.Tokens }

// Ref returns token i's posting location.
func (s *Segment) Ref(i int) TokenRef { return s.ix.Refs[i] }

// FindToken binary-searches the dictionary.
func (s *Segment) FindToken(tok string) (int, bool) {
	i := sort.SearchStrings(s.ix.Tokens, tok)
	if i < len(s.ix.Tokens) && s.ix.Tokens[i] == tok {
		return i, true
	}
	return 0, false
}

// ReadPage reads page i into dst (grown as needed) and verifies its CRC,
// so a bit flip is caught by the first read that touches the page.
func (s *Segment) ReadPage(i int, dst []byte) ([]byte, error) {
	ref := s.ix.Pages[i]
	if cap(dst) < int(ref.Len) {
		dst = make([]byte, ref.Len)
	}
	dst = dst[:ref.Len]
	if _, err := s.f.ReadAt(dst, ref.Off); err != nil {
		return dst, fmt.Errorf("store: %s: reading page %d: %v: %w", s.path, i, err, ErrCorruptArtifact)
	}
	if crc := crc32.Checksum(dst, crcPoly); crc != ref.CRC {
		return dst, fmt.Errorf("store: %s: page %d checksum mismatch: %w", s.path, i, ErrCorruptArtifact)
	}
	return dst, nil
}

// KeyCounts returns the per-profile block-key counts (slot-relative).
// Callers must not mutate.
func (s *Segment) KeyCounts() []int32 { return s.ix.KeyCounts }

// ProfileChunks returns the number of profile pages.
func (s *Segment) ProfileChunks() int { return len(s.ix.ProfilePages) }

// ReadProfileChunk reads and decodes profile chunk i: the profiles and
// their block-key lists, in slot order. Empty key lists are normalized to
// nil so snapshots rebuilt from disk compare DeepEqual with in-memory
// ones.
func (s *Segment) ReadProfileChunk(i int, scratch []byte) ([]entity.Profile, [][]string, []byte, error) {
	scratch, err := s.ReadPage(int(s.ix.ProfilePages[i]), scratch)
	if err != nil {
		return nil, nil, scratch, err
	}
	var chunk profileChunk
	if err := gob.NewDecoder(bytes.NewReader(scratch)).Decode(&chunk); err != nil {
		return nil, nil, scratch, fmt.Errorf("store: %s: decoding profile chunk %d: %v: %w", s.path, i, err, ErrCorruptArtifact)
	}
	if len(chunk.Profiles) != len(chunk.Keys) {
		return nil, nil, scratch, fmt.Errorf("store: %s: profile chunk %d has %d profiles but %d key lists: %w",
			s.path, i, len(chunk.Profiles), len(chunk.Keys), ErrCorruptArtifact)
	}
	for j := range chunk.Keys {
		if len(chunk.Keys[j]) == 0 {
			chunk.Keys[j] = nil
		}
	}
	return chunk.Profiles, chunk.Keys, scratch, nil
}

// Close releases the underlying file.
func (s *Segment) Close() error { return s.f.Close() }
