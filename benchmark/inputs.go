package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"

	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/dataio"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/store"
)

// inputSeed derives a workload's generator seed from the benchmark seed,
// so no two workloads share a stream and the same --seed always gives
// the same inputs.
func inputSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed*1_000_003 + int64(h.Sum64()%1_000_000)
}

// resolverConfig is the index configuration cmd/serve derives from
// `-scheme js -k K` with its other defaults; the preload artifact must
// carry the same one (a reload adopts the artifact's configuration, and
// a disk directory refuses to reopen under a different one).
func resolverConfig(k int) incremental.Config {
	return incremental.Config{Scheme: core.JS, K: k, MaxBlockSize: 1000}
}

// requestBody is the /v1/resolve record of one profile. encoding/json
// writes map keys sorted, so the bytes are a function of the profile.
func requestBody(p entity.Profile) []byte {
	attrs := make(map[string][]string, len(p.Attributes))
	for _, a := range p.Attributes {
		attrs[a.Name] = append(attrs[a.Name], a.Value)
	}
	b, err := json.Marshal(struct {
		Attributes map[string][]string `json:"attributes"`
	}{attrs})
	if err != nil {
		panic(err) // strings and slices of strings always marshal
	}
	return b
}

// serveInputs is everything a serve round needs: the preload artifact on
// disk and in memory (the oracle restores from the latter), and the
// request bodies in send order — warm-up, timed operations, then the
// resolves sent after a disk workload's crash.
type serveInputs struct {
	snapshotPath string
	snapshot     *incremental.Snapshot
	bodies       [][]byte
	digest       string
}

// buildServeInputs generates preload+warm+ops+afterKill D2-like profiles
// (the universe is sized to the round, so no input repeats), shuffles
// them so terse and verbose records interleave, and writes the first
// preload of them as a resolver artifact cmd/serve loads with -snapshot.
// The artifact's token index is built directly from the profiles' block
// keys: resolving 20 000 preload profiles only to discard the candidates
// would triple the set-up time.
func buildServeInputs(w workload, seed int64, dir string) (*serveInputs, error) {
	total := w.preload + w.warm + w.ops + w.afterKill
	gseed := inputSeed(seed, w.name)
	profiles := datagen.Generate(d2Like(total, gseed)).Collection.Profiles
	rng := rand.New(rand.NewSource(gseed))
	rng.Shuffle(len(profiles), func(i, j int) { profiles[i], profiles[j] = profiles[j], profiles[i] })

	in := &serveInputs{snapshotPath: filepath.Join(dir, "preload.snap")}
	digest := sha256.New()
	snap := &incremental.Snapshot{
		Config:   resolverConfig(w.k),
		Profiles: make([]entity.Profile, 0, w.preload),
		Blocks:   make(map[string][]entity.ID),
		BlocksOf: make([][]string, 0, w.preload),
	}
	var keyer incremental.Keyer
	for i, p := range profiles {
		body := requestBody(p)
		digest.Write(body)
		digest.Write([]byte{'\n'})
		if i >= w.preload {
			in.bodies = append(in.bodies, body)
			continue
		}
		// Preloaded profiles take the same canonical form a posted one
		// gets from the server's decoder.
		cp, err := dataio.ParseProfileJSON(body)
		if err != nil {
			return nil, fmt.Errorf("preload profile %d: %w", i, err)
		}
		cp.ID = entity.ID(i)
		keys := append([]string(nil), keyer.Keys(cp)...)
		snap.Profiles = append(snap.Profiles, cp)
		snap.BlocksOf = append(snap.BlocksOf, keys)
		for _, k := range keys {
			snap.Blocks[k] = append(snap.Blocks[k], cp.ID)
		}
	}
	if err := store.SaveResolverFile(in.snapshotPath, snap); err != nil {
		return nil, fmt.Errorf("writing preload artifact: %w", err)
	}
	in.snapshot = snap
	in.digest = hex.EncodeToString(digest.Sum(nil))
	return in, nil
}

// batchInputs is a Dirty collection and its ground truth as the CSV
// files cmd/metablock reads.
type batchInputs struct {
	profilesPath string
	truthPath    string
	digest       string
}

func buildBatchInputs(w workload, seed int64, dir string) (*batchInputs, error) {
	ds := datagen.Generate(w.shape(w.profiles, inputSeed(seed, w.name))).ToDirty(w.name)
	in := &batchInputs{
		profilesPath: filepath.Join(dir, "profiles.csv"),
		truthPath:    filepath.Join(dir, "truth.csv"),
	}
	var pbuf, tbuf bytes.Buffer
	if err := dataio.WriteProfilesCSV(&pbuf, ds.Collection); err != nil {
		return nil, err
	}
	for _, p := range ds.GroundTruth.Pairs() {
		fmt.Fprintf(&tbuf, "%d,%d\n", p.A, p.B)
	}
	digest := sha256.New()
	digest.Write(pbuf.Bytes())
	digest.Write(tbuf.Bytes())
	in.digest = hex.EncodeToString(digest.Sum(nil))
	if err := os.WriteFile(in.profilesPath, pbuf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.truthPath, tbuf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return in, nil
}
