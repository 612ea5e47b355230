package store

// The body of the "resolver" artifact (format version 2). After the
// artifact's gob envelope a body is plain bytes built from the
// write-ahead log's primitives — uvarints, zigzag varints and
// length-prefixed strings:
//
//	head      the resolver configuration: Scheme, K, MaxBlockSize and
//	          MinTokenLength
//	keys      uvarint count, uvarint byte length, then the distinct block
//	          keys as length-prefixed strings, strictly ascending
//	totals    uvarint profiles, attributes and key references
//	profiles  per profile: varint ID; uvarint n, then n (name, value)
//	          string pairs; uvarint m, then m uvarint key indices in the
//	          profile's own key order
//
// Only the Entity Index is stored — each profile's key list. The token
// index (block → members) is its inverse, derived on load by
// incremental.FromSnapshot and shard.FromSnapshot. The key dictionary is
// sorted, so a snapshot always encodes to the same bytes, and the decoder
// accepts only that one encoding: minimal varints, every key referenced,
// no key twice in one profile's list, no trailing byte. Every count is
// checked against the bytes left before anything is allocated for it.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
)

// appendResolverBody appends the body of a "resolver" artifact.
func appendResolverBody(dst []byte, s *incremental.Snapshot) ([]byte, error) {
	dst = binary.AppendVarint(dst, int64(s.Config.Scheme))
	dst = binary.AppendVarint(dst, int64(s.Config.K))
	dst = binary.AppendVarint(dst, int64(s.Config.MaxBlockSize))
	dst = binary.AppendVarint(dst, int64(s.Config.MinTokenLength))
	return appendIndex(dst, s.Profiles, s.BlocksOf)
}

// decodeResolverBody parses a "resolver" body. Its strings are sliced
// from two copies made here, so the snapshot never aliases body.
func decodeResolverBody(body []byte) (*incremental.Snapshot, error) {
	r := bodyReader{b: body}
	s := &incremental.Snapshot{}
	s.Config.Scheme = core.Scheme(r.varint())
	s.Config.K = int(r.varint())
	s.Config.MaxBlockSize = int(r.varint())
	s.Config.MinTokenLength = int(r.varint())
	if r.err != nil {
		return nil, r.err
	}
	var err error
	s.Profiles, s.BlocksOf, err = decodeIndex(body[r.off:])
	if err != nil {
		return nil, err
	}
	return s, nil
}

// appendIndex appends the key dictionary, the totals and the profiles.
// A key listed twice for one profile is refused: no token index holds a
// profile twice, and the decoder would refuse the bytes.
func appendIndex(dst []byte, profiles []entity.Profile, blocksOf [][]string) ([]byte, error) {
	if len(blocksOf) != len(profiles) {
		return nil, fmt.Errorf("store: %d profiles but %d block-key lists", len(profiles), len(blocksOf))
	}
	index := make(map[string]int)
	refs, attrs := 0, 0
	for i, keys := range blocksOf {
		refs += len(keys)
		attrs += len(profiles[i].Attributes)
		for _, k := range keys {
			index[k] = 0
		}
	}
	dict := make([]string, 0, len(index))
	for k := range index {
		dict = append(dict, k)
	}
	slices.Sort(dict)
	var keyBytes []byte
	for i, k := range dict {
		index[k] = i
		keyBytes = appendWalString(keyBytes, k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	dst = binary.AppendUvarint(dst, uint64(len(keyBytes)))
	dst = append(dst, keyBytes...)
	dst = binary.AppendUvarint(dst, uint64(len(profiles)))
	dst = binary.AppendUvarint(dst, uint64(attrs))
	dst = binary.AppendUvarint(dst, uint64(refs))
	// last[x] is one past the index of the last profile naming key x.
	last := make([]int, len(dict))
	for i, p := range profiles {
		dst = binary.AppendVarint(dst, int64(p.ID))
		dst = binary.AppendUvarint(dst, uint64(len(p.Attributes)))
		for _, a := range p.Attributes {
			dst = appendWalString(dst, a.Name)
			dst = appendWalString(dst, a.Value)
		}
		dst = binary.AppendUvarint(dst, uint64(len(blocksOf[i])))
		for _, k := range blocksOf[i] {
			x := index[k]
			if last[x] == i+1 {
				return nil, fmt.Errorf("store: profile %d lists block key %q twice", p.ID, k)
			}
			last[x] = i + 1
			dst = binary.AppendUvarint(dst, uint64(x))
		}
	}
	return dst, nil
}

// decodeIndex parses what appendIndex wrote. The key strings share one
// copy of the dictionary's bytes, and the attribute strings one copy of
// the profiles' bytes, so the long-lived token-keyed maps built from the
// keys do not pin attribute values. All attributes share one backing
// array and all key lists another, each profile's slice capped at its
// length. Shapes match a live snapshot's: nil Profiles for an empty
// index, nil Attributes and key lists where a profile has none.
func decodeIndex(b []byte) ([]entity.Profile, [][]string, error) {
	r := bodyReader{b: b}
	nkeys := r.count(1)
	size := r.count(1)
	if r.err != nil || nkeys > size {
		return nil, nil, ErrCorruptArtifact
	}
	d := bodyReader{b: b[r.off : r.off+size]}
	d.s = string(d.b)
	dict := make([]string, nkeys)
	for i := range dict {
		dict[i] = d.str()
		if i > 0 && dict[i-1] >= dict[i] {
			return nil, nil, ErrCorruptArtifact
		}
	}
	if d.err != nil || d.off != len(d.b) {
		return nil, nil, ErrCorruptArtifact
	}

	p := bodyReader{b: b[r.off+size:]}
	p.s = string(p.b)
	n := p.count(3) // ID, attribute count and key count: a byte each at least
	nattrs := p.count(2)
	nrefs := p.count(1)
	if p.err != nil {
		return nil, nil, p.err
	}
	var profiles []entity.Profile
	if n > 0 {
		profiles = make([]entity.Profile, n)
	}
	blocksOf := make([][]string, n)
	attrs := make([]entity.Attribute, nattrs)
	refs := make([]string, nrefs)
	// last[x] is one past the index of the last profile naming key x.
	last := make([]int, nkeys)
	for i := range profiles {
		prof := &profiles[i]
		id := p.varint()
		if id < math.MinInt32 || id > math.MaxInt32 {
			return nil, nil, ErrCorruptArtifact
		}
		prof.ID = entity.ID(id)
		if m := p.uvarint(); m > 0 {
			if m > uint64(len(attrs)) {
				return nil, nil, ErrCorruptArtifact
			}
			prof.Attributes = attrs[:m:m]
			attrs = attrs[m:]
			for j := range prof.Attributes {
				prof.Attributes[j] = entity.Attribute{Name: p.str(), Value: p.str()}
			}
		}
		if m := p.uvarint(); m > 0 {
			if m > uint64(len(refs)) {
				return nil, nil, ErrCorruptArtifact
			}
			keys := refs[:m:m]
			refs = refs[m:]
			for j := range keys {
				x := p.uvarint()
				if x >= uint64(nkeys) || last[x] == i+1 {
					return nil, nil, ErrCorruptArtifact
				}
				last[x] = i + 1
				keys[j] = dict[x]
			}
			blocksOf[i] = keys
		}
		if p.err != nil {
			return nil, nil, p.err
		}
	}
	if len(attrs) != 0 || len(refs) != 0 || p.off != len(p.b) || slices.Contains(last, 0) {
		return nil, nil, ErrCorruptArtifact
	}
	return profiles, blocksOf, nil
}

// bodyReader walks a body and slices its strings from s, a string copy
// of b made by the caller. The first malformed byte sets err, after
// which every read returns zero.
type bodyReader struct {
	b   []byte
	s   string
	off int
	err error
}

// uvarint reads a minimal uvarint: a longer encoding of the same value
// would not re-encode to the same bytes.
func (r *bodyReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || n > 1 && r.b[r.off+n-1] == 0 {
		r.err = ErrCorruptArtifact
		return 0
	}
	r.off += n
	return v
}

// varint reads a zigzag varint (binary.AppendVarint's encoding).
func (r *bodyReader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads a count of items that take at least min bytes each and
// refuses one the bytes left cannot hold.
func (r *bodyReader) count(min int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)-r.off)/uint64(min) {
		r.err = ErrCorruptArtifact
		return 0
	}
	return int(v)
}

// str reads a length-prefixed string, sliced from r.s.
func (r *bodyReader) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}
