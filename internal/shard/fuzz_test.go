package shard

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"metablocking/internal/core"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
)

// fuzzShardCounts are the in-memory group shapes FuzzShardedMatchesSerial
// holds against the serial resolver: the inline one-shard group and two
// actor layouts.
var fuzzShardCounts = []int{1, 2, 4}

// fuzzShardProfile derives the profile that would arrive as id from one
// input byte. Zero gives a profile with no key at all; otherwise bits 0–3
// add four keys many profiles share, bit 4 a key no other profile has,
// bit 5 a key only profiles with id ≡ r (mod 4) carry — so at four
// shards its block has members on one shard only — and bit 6 repeats a
// shared key, which the keyer must fold into one.
func fuzzShardProfile(id int, b byte) entity.Profile {
	if b == 0 {
		return entity.Profile{}
	}
	var toks []string
	for i := 0; i < 4; i++ {
		if b&(1<<i) != 0 {
			toks = append(toks, fmt.Sprintf("k%d", i))
		}
	}
	if b&(1<<4) != 0 {
		toks = append(toks, fmt.Sprintf("new%d", id))
	}
	if b&(1<<5) != 0 {
		toks = append(toks, fmt.Sprintf("only%d", id%4))
	}
	if b&(1<<6) != 0 {
		toks = append(toks, fmt.Sprintf("k%d", b%4))
	}
	return entity.Profile{Attributes: []entity.Attribute{{Name: "v", Value: strings.Join(toks, " ")}}}
}

// FuzzShardedMatchesSerial drives arbitrary resolve, peek, resume-peek
// and snapshot-reload sequences against in-memory groups at every count
// of fuzzShardCounts and diffs each answer against the serial
// incremental.Resolver bit for bit. A reload rebuilds each group from its
// own canonical snapshot, which must equal the serial one; later
// arrivals then append to member lists loaded at their exact final size,
// so a list that outgrows its load allocation into a neighbor, or key
// lists that alias, show up as a diverging answer or snapshot.
func FuzzShardedMatchesSerial(f *testing.F) {
	f.Add(uint8(3), uint8(0), []byte{0, 0x0f, 0, 0x31, 0, 0x23, 6, 0, 0x13, 4, 0x0f, 5, 1, 6, 0, 0x7f})
	f.Add(uint8(0), uint8(3), []byte{0, 0x01, 0, 0x01, 0, 0x01, 0, 0x01, 0, 0x01, 6, 0, 0x01, 0, 0x21})
	f.Add(uint8(2), uint8(1), []byte{0, 0x30, 0, 0, 0, 0x30, 5, 0, 6, 4, 0x30, 0, 0x3f})
	f.Add(uint8(1), uint8(2), []byte{6, 0, 0x0f, 6, 0, 0x0f, 0, 0x4f, 5, 2, 4, 0})
	f.Fuzz(func(t *testing.T, scheme, k uint8, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		rcfg := incremental.Config{
			Scheme:       []core.Scheme{core.ARCS, core.CBS, core.ECBS, core.JS}[scheme%4],
			K:            int(k % 4),
			MaxBlockSize: 6,
		}
		ref, err := incremental.NewResolver(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		groups := make([]*Group, len(fuzzShardCounts))
		for i, shards := range fuzzShardCounts {
			if groups[i], err = New(Config{Resolver: rcfg, Shards: shards}); err != nil {
				t.Fatal(err)
			}
		}
		defer func() {
			for _, g := range groups {
				g.Close()
			}
		}()
		// arg returns the byte after the op, or 0 past the end.
		arg := func(i int) byte {
			if i+1 < len(ops) {
				return ops[i+1]
			}
			return 0
		}
		for step := 0; step < len(ops); step++ {
			switch op := ops[step] % 8; op {
			case 0, 1, 2, 3: // resolve
				p := fuzzShardProfile(ref.Size(), arg(step))
				step++
				want, _ := ref.Resolve(p)
				for i, g := range groups {
					got, err := g.Resolve(p)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d shards=%d: resolve %+v (err %v), serial %+v",
							step, fuzzShardCounts[i], got, err, want)
					}
				}
			case 4: // peek
				p := fuzzShardProfile(ref.Size(), arg(step))
				step++
				want, _ := ref.Peek(p)
				for i, g := range groups {
					got, err := g.Peek(p)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d shards=%d: peek %+v (err %v), serial %+v",
							step, fuzzShardCounts[i], got, err, want)
					}
				}
			case 5: // resume peek of a committed profile
				b := arg(step)
				step++
				if ref.Size() == 0 {
					continue
				}
				exclude := entity.ID(int(b) % ref.Size())
				p := *ref.Profile(exclude)
				want, err := ref.PeekExcluding(p, exclude)
				if err != nil {
					t.Fatal(err)
				}
				for i, g := range groups {
					got, err := g.PeekExcluding(p, exclude)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d shards=%d: PeekExcluding(%d) %+v (err %v), serial %+v",
							step, fuzzShardCounts[i], exclude, got, err, want)
					}
				}
			case 6, 7: // snapshot; 6 also reloads every group from its own
				want := ref.Snapshot()
				for i, g := range groups {
					snap := g.Snapshot()
					if !reflect.DeepEqual(snap, want) {
						t.Fatalf("step %d shards=%d: snapshot diverged from serial", step, fuzzShardCounts[i])
					}
					if op == 7 {
						continue
					}
					loaded, err := FromSnapshot(snap, Config{Shards: fuzzShardCounts[i]})
					if err != nil {
						t.Fatal(err)
					}
					g.Close()
					groups[i] = loaded
				}
			}
		}
		want := ref.Snapshot()
		for i, g := range groups {
			if !reflect.DeepEqual(g.Snapshot(), want) {
				t.Fatalf("shards=%d: final snapshot diverged from serial", fuzzShardCounts[i])
			}
		}
	})
}
