// Package store persists the pipeline's artifacts — block collections and
// resolver snapshots — in a compact self-describing binary format. Every
// artifact opens with a versioned gob envelope naming its kind. Block
// collections follow it with a gob value; a resolver snapshot with a
// hand-encoded body of uvarints and length-prefixed strings (body.go)
// that stores each profile's key list, not the token index derived from
// them. A resolver snapshot has no shard count: one file serves every
// serving shape, and is what the server writes at every shard count.
// Blocking a large collection once and re-running meta-blocking
// configurations against the saved blocks is the intended workflow.
//
// The file-level helpers (SaveResolverFile, SaveBlocksFile and their Load
// counterparts) are crash-safe: artifacts are written to a temp file in
// the destination directory, wrapped in a checksummed container (magic +
// CRC32-C footer), fsynced, renamed into place, and the directory is
// fsynced — so a crash at any instant leaves either the previous artifact
// or the new one at the final path, never a torn file. Loads verify the
// checksum before a single byte reaches a decoder and classify
// failures with the ErrCorruptArtifact / ErrVersionMismatch sentinels;
// a file without the container magic is corrupt, never decoded blind.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"metablocking/internal/block"
	"metablocking/internal/entity"
	"metablocking/internal/fault"
	"metablocking/internal/incremental"
)

// Typed load errors; classify with errors.Is. Every corruption mode — a
// bad checksum, a truncated container, a gob payload that fails to decode,
// an artifact of the wrong kind — wraps ErrCorruptArtifact, and artifacts
// written by an incompatible format version wrap ErrVersionMismatch, so a
// caller (the serving layer's verify-before-swap) never has to parse error
// strings to refuse a snapshot.
var (
	// ErrCorruptArtifact marks an artifact whose framing, checksum or
	// payload failed verification — a torn or bit-flipped file.
	ErrCorruptArtifact = errors.New("store: corrupt artifact")
	// ErrVersionMismatch marks an artifact written by an incompatible
	// format version (container or per-kind envelope).
	ErrVersionMismatch = errors.New("store: artifact version mismatch")
)

// Fault sites of the save/load paths, consulted when an injector is
// installed with SetInjector. The chaos suite arms these to prove the
// atomic write protocol: a failure (or kill) at any site must leave the
// last good artifact at the final path.
const (
	FaultSaveCreate = "store.save.create"
	FaultSaveWrite  = "store.save.write"
	FaultSaveSync   = "store.save.sync"
	FaultSaveRename = "store.save.rename"
	FaultLoadRead   = "store.load.read"
)

// injector is the package's fault-injection hook; nil (the default) makes
// every site a no-op.
var injector atomic.Pointer[fault.Injector]

// SetInjector installs a fault injector for the save/load sites; nil
// removes it. Intended for chaos tests and the -fault flag of cmd/serve.
func SetInjector(in *fault.Injector) { injector.Store(in) }

func inj() *fault.Injector { return injector.Load() }

// format versions, one per artifact kind. Bump on incompatible changes;
// no decoder is kept for an older version, whose files are refused as
// ErrVersionMismatch.
const (
	blocksVersion   = 1
	resolverVersion = 2

	resolverKind = "resolver"

	// retiredManifestKind names the manifest of the manifest+segments
	// layout that older servers wrote beside the plain resolver artifact:
	// a resolver snapshot in a format no longer read, so a resolver load
	// refuses it as ErrVersionMismatch without decoding it.
	retiredManifestKind = "resolver-shards"
)

// Checksummed container framing: header magic + container version, then
// the artifact, then a footer with the payload length, its CRC32-C
// and a closing magic. The footer-last layout means a torn write is
// detectable no matter where it tore.
const (
	containerVersion = 1
	headerSize       = 8  // magic(4) + version(4)
	footerSize       = 16 // length(8) + crc(4) + magic(4)
)

var (
	headMagic = [4]byte{'M', 'B', 'A', 'F'}
	footMagic = [4]byte{'M', 'B', 'A', 'E'}
	crcPoly   = crc32.MakeTable(crc32.Castagnoli)
)

// envelope is the self-describing header of every stored artifact.
type envelope struct {
	Kind    string
	Version int
}

func writeArtifact(w io.Writer, kind string, version int, payload any) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(envelope{Kind: kind, Version: version}); err != nil {
		return fmt.Errorf("store: encoding %s header: %w", kind, err)
	}
	if err := enc.Encode(payload); err != nil {
		return fmt.Errorf("store: encoding %s: %w", kind, err)
	}
	return bw.Flush()
}

func readArtifact(r io.Reader, kind string, version int, payload any) error {
	dec := gob.NewDecoder(bufio.NewReader(r))
	if err := readEnvelope(dec, kind, version); err != nil {
		return err
	}
	if err := dec.Decode(payload); err != nil {
		return fmt.Errorf("store: decoding %s: %v: %w", kind, err, ErrCorruptArtifact)
	}
	return nil
}

func readEnvelope(dec *gob.Decoder, kind string, version int) error {
	var env envelope
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("store: reading header: %v: %w", err, ErrCorruptArtifact)
	}
	if kind == resolverKind && env.Kind == retiredManifestKind {
		return fmt.Errorf("store: %q artifacts are no longer read (want %q): %w", env.Kind, kind, ErrVersionMismatch)
	}
	if env.Kind != kind {
		return fmt.Errorf("store: artifact is a %q, expected %q: %w", env.Kind, kind, ErrCorruptArtifact)
	}
	if env.Version != version {
		return fmt.Errorf("store: %s version %d unsupported (want %d): %w", kind, env.Version, version, ErrVersionMismatch)
	}
	return nil
}

// writeBody writes an artifact whose payload is the gob envelope followed
// by a hand-encoded body (body.go) rather than a gob value.
func writeBody(w io.Writer, kind string, version int, body []byte) error {
	if err := gob.NewEncoder(w).Encode(envelope{Kind: kind, Version: version}); err != nil {
		return fmt.Errorf("store: encoding %s header: %w", kind, err)
	}
	_, err := w.Write(body)
	return err
}

// openBody checks the gob envelope at the head of payload and returns the
// bytes after it, not copied. A bytes.Reader is an io.ByteReader, so the
// gob decoder reads exactly the envelope's messages and no further.
func openBody(payload []byte, kind string, version int) ([]byte, error) {
	rd := bytes.NewReader(payload)
	if err := readEnvelope(gob.NewDecoder(rd), kind, version); err != nil {
		return nil, err
	}
	return payload[len(payload)-rd.Len():], nil
}

// storedBlocks mirrors block.Collection for gob.
type storedBlocks struct {
	Task        int
	NumEntities int
	Split       int
	Blocks      []block.Block
}

// WriteBlocks persists a block collection.
func WriteBlocks(w io.Writer, c *block.Collection) error {
	return writeArtifact(w, "blocks", blocksVersion, storedBlocks{
		Task:        int(c.Task),
		NumEntities: c.NumEntities,
		Split:       c.Split,
		Blocks:      c.Blocks,
	})
}

// ReadBlocks loads a block collection.
func ReadBlocks(r io.Reader) (*block.Collection, error) {
	var s storedBlocks
	if err := readArtifact(r, "blocks", blocksVersion, &s); err != nil {
		return nil, err
	}
	return &block.Collection{
		Task:        entity.Task(s.Task),
		NumEntities: s.NumEntities,
		Split:       s.Split,
		Blocks:      s.Blocks,
	}, nil
}

// WriteResolver persists an incremental-resolver snapshot — the artifact
// cmd/serve loads at startup and hot-swaps via /v1/admin/reload. The body
// (body.go) holds the configuration and each profile's key list; the
// token index is not stored. A snapshot whose key lists do not match its
// profiles, or whose optional Blocks is not their inverse, is refused.
func WriteResolver(w io.Writer, s *incremental.Snapshot) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	body, err := appendResolverBody(nil, s)
	if err != nil {
		return err
	}
	return writeBody(w, resolverKind, resolverVersion, body)
}

// readResolver decodes a verified "resolver" artifact payload in place:
// the body is parsed straight from payload, which the snapshot does not
// alias.
func readResolver(payload []byte) (*incremental.Snapshot, error) {
	body, err := openBody(payload, resolverKind, resolverVersion)
	if err != nil {
		return nil, err
	}
	s, err := decodeResolverBody(body)
	if err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", resolverKind, err)
	}
	return s, nil
}

// SaveResolverFile persists a resolver snapshot to a file with the atomic
// checksummed write protocol.
func SaveResolverFile(path string, s *incremental.Snapshot) error {
	return saveFileAtomic(path, func(w io.Writer) error { return WriteResolver(w, s) })
}

// LoadAnyResolverFile loads a resolver snapshot from either place one
// lives: an out-of-core disk directory (LoadDiskDir) or a "resolver"
// artifact file. Either way the result is the canonical global snapshot,
// servable at any shard count.
func LoadAnyResolverFile(path string) (*incremental.Snapshot, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		return LoadDiskDir(path)
	}
	payload, err := readFileVerified(path)
	if err != nil {
		return nil, err
	}
	return readResolver(payload)
}

// SaveBlocksFile persists a block collection with the same atomic
// checksummed protocol.
func SaveBlocksFile(path string, c *block.Collection) error {
	return saveFileAtomic(path, func(w io.Writer) error { return WriteBlocks(w, c) })
}

// LoadBlocksFile loads a block collection from a file, verifying its
// checksum first.
func LoadBlocksFile(path string) (*block.Collection, error) {
	payload, err := readFileVerified(path)
	if err != nil {
		return nil, err
	}
	return ReadBlocks(bytes.NewReader(payload))
}

// saveFileAtomic writes one artifact crash-safely: the checksummed
// container goes to a temp file in the destination directory, is fsynced,
// renamed over the final path, and the directory entry is fsynced. The
// final path therefore always holds a complete artifact — the previous
// one until the rename commits, the new one after.
func saveFileAtomic(path string, write func(io.Writer) error) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		var header [headerSize]byte
		copy(header[:4], headMagic[:])
		binary.LittleEndian.PutUint32(header[4:], containerVersion)
		if _, err := w.Write(header[:]); err != nil {
			return err
		}
		cw := &crcWriter{w: w}
		if err := write(cw); err != nil {
			return err
		}
		var footer [footerSize]byte
		binary.LittleEndian.PutUint64(footer[:8], uint64(cw.n))
		binary.LittleEndian.PutUint32(footer[8:12], cw.crc)
		copy(footer[12:], footMagic[:])
		_, err := w.Write(footer[:])
		return err
	})
}

// AtomicWriteFile runs the crash-safe write protocol shared by every
// artifact this package persists — container-framed gobs and the paged
// disk-index segments alike: write to a temp file in the destination
// directory (through the armed fault sites, so chaos tests can tear the
// write), flush, fsync, rename over the final path, fsync the directory.
// A crash at any instant leaves either the previous file or the new one
// at path, never a torn mix. The callback owns the file's framing; it
// receives a buffered writer.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	in := inj()
	if ferr := in.Check(FaultSaveCreate); ferr != nil {
		return ferr
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	bw := bufio.NewWriter(in.Writer(FaultSaveWrite, f))
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = in.Check(FaultSaveSync); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = in.Check(FaultSaveRename); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so the rename that committed an artifact is
// durable. Filesystems that refuse directory fsync are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// crcWriter tracks the length and CRC32-C of everything written through it.
type crcWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc = crc32.Update(c.crc, crcPoly, p[:n])
	return n, err
}

// readFileVerified reads an artifact file and returns its gob payload
// after end-to-end checksum verification.
func readFileVerified(path string) ([]byte, error) {
	if err := inj().Check(FaultLoadRead); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 || !bytes.Equal(data[:4], headMagic[:]) {
		return nil, fmt.Errorf("store: %s: container magic missing: %w", path, ErrCorruptArtifact)
	}
	if len(data) < headerSize+footerSize {
		return nil, fmt.Errorf("store: %s: container truncated to %d bytes: %w", path, len(data), ErrCorruptArtifact)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != containerVersion {
		return nil, fmt.Errorf("store: %s: container version %d (want %d): %w", path, v, containerVersion, ErrVersionMismatch)
	}
	payload := data[headerSize : len(data)-footerSize]
	footer := data[len(data)-footerSize:]
	if !bytes.Equal(footer[12:], footMagic[:]) {
		return nil, fmt.Errorf("store: %s: footer magic missing (torn write): %w", path, ErrCorruptArtifact)
	}
	if n := binary.LittleEndian.Uint64(footer[:8]); n != uint64(len(payload)) {
		return nil, fmt.Errorf("store: %s: payload length %d, footer says %d: %w", path, len(payload), n, ErrCorruptArtifact)
	}
	if crc := crc32.Checksum(payload, crcPoly); crc != binary.LittleEndian.Uint32(footer[8:12]) {
		return nil, fmt.Errorf("store: %s: checksum mismatch: %w", path, ErrCorruptArtifact)
	}
	return payload, nil
}
