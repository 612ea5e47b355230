// Package postings provides the ascending ID lists meta-blocking
// traverses: the delta+varint posting lists that hold a block's members in
// the serial incremental.Resolver and on disk, and the galloping
// (exponential-search) intersection primitives the Entity Index's flat
// block lists are compared with.
//
// A posting list stores each element as the unsigned LEB128 varint of its
// difference from the predecessor, so a sparse list costs one or two bytes
// per element instead of four. Lists decode into caller-provided scratch,
// so steady-state reads allocate nothing. A serving shard
// (incremental.Partition) does not use them: it scans plain []int32
// member lists in place, because the decode is a quarter of its gather
// and the bytes it saves are small against the rest of a shard.
package postings

import (
	"encoding/binary"
	"fmt"
)

// AppendDecoded appends the n values of a delta+varint encoding (a
// Builder's Bytes) to dst.
func AppendDecoded(dst []int32, enc []byte, n int) []int32 {
	prev := uint32(0)
	for i := 0; i < n; i++ {
		v, k := binary.Uvarint(enc)
		enc = enc[k:]
		prev += uint32(v)
		dst = append(dst, int32(prev))
	}
	return dst
}

// Builder is an append-only posting list for strictly ascending IDs — a
// growing token block of the incremental resolver or the disk index.
// Appending is O(1): one varint of the delta.
//
// The zero value is an empty list.
type Builder struct {
	enc  []byte
	last int32
	n    int32
}

// Append adds id to the list. It panics if id is not strictly greater than
// the last appended ID — posting lists are ascending by construction
// (entity IDs are assigned in arrival order); callers with unordered input
// must sort first.
func (b *Builder) Append(id int32) {
	if b.n > 0 && id <= b.last {
		panic(fmt.Sprintf("postings: non-ascending append %d after %d", id, b.last))
	}
	b.enc = binary.AppendUvarint(b.enc, uint64(uint32(id-b.last)))
	b.last = id
	b.n++
}

// Len returns the number of IDs in the list.
func (b *Builder) Len() int { return int(b.n) }

// Last returns the largest (most recently appended) ID, or -1 when empty.
func (b *Builder) Last() int32 {
	if b.n == 0 {
		return -1
	}
	return b.last
}

// AppendTo appends the decoded IDs to dst (decode-into-scratch).
func (b *Builder) AppendTo(dst []int32) []int32 {
	return AppendDecoded(dst, b.enc, int(b.n))
}

// Bytes returns the raw delta+varint encoding of the list — the bytes a
// disk segment stores verbatim. The slice aliases the builder; callers
// that outlive the builder must copy.
func (b *Builder) Bytes() []byte { return b.enc }

// RebaseVarint appends a raw delta+varint encoding (whose first element is
// delta-coded from zero, i.e. absolute) to dst, re-basing that first
// element onto prev — the O(1) splice that lets disjoint ascending lists
// from consecutive disk segments concatenate without a decode/re-encode
// round trip. prev must be strictly below the list's first element; an
// empty enc appends nothing.
func RebaseVarint(dst []byte, prev int32, enc []byte) []byte {
	if len(enc) == 0 {
		return dst
	}
	v, k := binary.Uvarint(enc)
	first := int32(uint32(v))
	dst = binary.AppendUvarint(dst, uint64(uint32(first-prev)))
	return append(dst, enc[k:]...)
}
