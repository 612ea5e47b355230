// The resumption cursor: a signed, self-contained token that lets a
// client continue a budget-exhausted stream exactly where it stopped.
//
// The cursor carries the resume position in the ranked candidate stream —
// the weight frontier and the last emitted (weight, ID) pair, which pin a
// point in the strict total order (weight descending, ID ascending) the
// stream emits in — plus the snapshot generation it was cut against and a
// hash of the resolved profile. It is stateless: the server keeps nothing
// per stream. A resume request re-runs the read-only gather (excluding
// the profile's own committed entry), skips strictly past the cursor
// position, and streams the remainder.
//
// Integrity and invalidation:
//
//   - The token is HMAC-SHA256 signed with a per-process random key, so
//     clients cannot forge or tamper with positions, and a restarted
//     server deterministically refuses every old cursor (the key is
//     gone) — the crash-recovery contract chaos phase 7 pins.
//   - The generation number is compared against the server's current
//     snapshot generation, which advances on every reload and
//     checkpoint; a cursor cut against a superseded index is refused
//     rather than resumed against shifted weights.
//   - The profile hash binds the cursor to the profile it was issued
//     for: the resume gather's self-exclusion arithmetic assumes the
//     re-sent profile derives the same block keys as the committed one.
//
// Every refusal is ErrCursorInvalid, which the serving layer maps to the
// 410 cursor_invalid envelope.
package budget

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"metablocking/internal/entity"
)

// ErrCursorInvalid reports a resumption cursor the server refuses: bad
// signature, malformed payload, superseded generation, or a profile that
// does not match the one the cursor was issued for.
var ErrCursorInvalid = fmt.Errorf("budget: invalid resumption cursor")

// Cursor is the resume position of a budget-exhausted stream.
type Cursor struct {
	// Generation is the snapshot generation the stream ran against;
	// reload and checkpoint advance it, invalidating the cursor.
	Generation uint64 `json:"gen"`
	// ID is the entity ID the stream's resolve assigned — excluded from
	// the resume gather, which runs after the profile was committed.
	ID entity.ID `json:"id"`
	// Profile is the ProfileHash of the resolved profile.
	Profile uint64 `json:"profile"`
	// Emitted is the cumulative number of comparisons emitted across the
	// original stream and every resume so far.
	Emitted int `json:"emitted"`
	// LastWeight and LastID are the last emitted candidate — the resume
	// point: emission continues strictly after (LastWeight, LastID) in
	// the weight-descending, ID-ascending order.
	LastWeight float64   `json:"last_weight"`
	LastID     entity.ID `json:"last_id"`
	// Frontier is the weight of the first unemitted candidate at
	// exhaustion time, echoed for observability.
	Frontier float64 `json:"frontier"`
}

// Signer signs and verifies cursors with HMAC-SHA256.
type Signer struct {
	key []byte
}

// NewSigner returns a signer with a fresh random key: cursors it signs
// die with the process, which is exactly the invalidation restart
// semantics call for.
func NewSigner() (*Signer, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("budget: cursor key: %w", err)
	}
	return &Signer{key: key}, nil
}

// Sign encodes the cursor as base64url(payload).base64url(mac).
func (s *Signer) Sign(c Cursor) string {
	payload, err := json.Marshal(c)
	if err != nil {
		// Cursor is a struct of scalars; Marshal cannot fail.
		panic(err)
	}
	enc := base64.RawURLEncoding.EncodeToString(payload)
	mac := hmac.New(sha256.New, s.key)
	mac.Write([]byte(enc))
	return enc + "." + base64.RawURLEncoding.EncodeToString(mac.Sum(nil))
}

// Verify checks the token's signature and decodes the cursor. Any
// failure is ErrCursorInvalid — the caller never learns which part was
// wrong, and neither does a token-guessing client.
func (s *Signer) Verify(token string) (Cursor, error) {
	var c Cursor
	enc, sig, ok := strings.Cut(token, ".")
	if !ok {
		return c, ErrCursorInvalid
	}
	gotMAC, err := base64.RawURLEncoding.DecodeString(sig)
	if err != nil {
		return c, ErrCursorInvalid
	}
	mac := hmac.New(sha256.New, s.key)
	mac.Write([]byte(enc))
	if !hmac.Equal(gotMAC, mac.Sum(nil)) {
		return c, ErrCursorInvalid
	}
	payload, err := base64.RawURLEncoding.DecodeString(enc)
	if err != nil {
		return c, ErrCursorInvalid
	}
	if err := json.Unmarshal(payload, &c); err != nil {
		return c, ErrCursorInvalid
	}
	return c, nil
}

// ProfileHash fingerprints a profile's content (attribute names and
// values, length-delimited, in order) for cursor binding. It ignores the
// ID field: the original resolve hashes the profile before an ID is
// assigned, the resume after.
func ProfileHash(p entity.Profile) uint64 {
	h := fnv.New64a()
	var lenBuf [8]byte
	writeField := func(sv string) {
		n := len(sv)
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:])
		h.Write([]byte(sv))
	}
	for _, a := range p.Attributes {
		writeField(a.Name)
		writeField(a.Value)
	}
	return h.Sum64()
}
