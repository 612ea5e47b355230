package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math/bits"
	"os"
	"path/filepath"
	"regexp"
	"time"
)

// pairsDigest identifies a pipeline's output whatever order it was
// written in: the pair count and an order-independent hash of the lines
// (two wrapping sums over a 64-bit hash of each line — sorting tens of MB
// of pairs after every execution cost as much as the execution).
type pairsDigest struct {
	count int
	hash  string
}

func digestPairsFile(path string) (pairsDigest, error) {
	f, err := os.Open(path)
	if err != nil {
		return pairsDigest{}, err
	}
	defer f.Close()
	var count int
	var sum1, sum2 uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		h := fnv.New64a()
		h.Write(sc.Bytes())
		v := h.Sum64()
		sum1 += v
		sum2 += bits.RotateLeft64(v, 31) * 0x9E3779B97F4A7C15
		count++
	}
	if err := sc.Err(); err != nil {
		return pairsDigest{}, err
	}
	return pairsDigest{count: count, hash: fmt.Sprintf("%016x%016x", sum1, sum2)}, nil
}

var evalRE = regexp.MustCompile(`evaluation: PC=([0-9.]+) PQ=([0-9.]+) RR=([0-9.]+)`)

// batchArgs is the command line of one batch workload: default flags,
// plus -graphfree where the workload bypasses the blocking graph.
func batchArgs(w workload, in *batchInputs, out string) []string {
	args := []string{"-input", in.profilesPath, "-truth", in.truthPath, "-output", out}
	if w.graphFree {
		args = append([]string{"-graphfree"}, args...)
	}
	return args
}

// setupRepeats is how many times a batch round repeats its set-up.
const setupRepeats = 3

// batchRound generates the collection from the seed, writes its CSV
// files, and runs cmd/metablock on them w.execs times, each a fresh
// process. Every execution must exit 0 and produce the same pairs; the
// digest is returned so the caller can hold all rounds (and the traced
// layer-by-layer run) to one answer.
func batchRound(ctx context.Context, e *env, w workload, n int) (round, pairsDigest, error) {
	r := round{metrics: map[string]float64{}}
	var want pairsDigest
	dir, err := e.roundDir(w, n)
	if err != nil {
		return r, want, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(e.binDir, "metablock")

	// Generating the collection and writing its files is all the set-up a
	// batch workload has, and it is short: it is done setupRepeats times
	// and the median kept, so that a fifth of a second is not read once.
	var in *batchInputs
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		setupStart := time.Now()
		if in, err = buildBatchInputs(w, e.seed, dir); err != nil {
			return r, want, err
		}
		setups = append(setups, time.Since(setupStart).Seconds())
	}
	r.digest = in.digest
	if err := e.checkPin(w.name, in.digest); err != nil {
		return r, want, err
	}
	r.metrics["setup_s"] = median(setups)

	var walls, rss []float64
	for x := 0; x < w.execs; x++ {
		if err := ctx.Err(); err != nil {
			return r, want, err
		}
		r.attempted++
		out := filepath.Join(dir, fmt.Sprintf("pairs.%d.csv", x))
		logPath := filepath.Join(dir, fmt.Sprintf("metablock.%d.log", x))
		wall, peak, err := runToExit(ctx, logPath, bin, batchArgs(w, in, out)...)
		r.timed += wall
		if err != nil {
			r.failed++
			r.notes = append(r.notes, err.Error())
			continue
		}
		got, err := digestPairsFile(out)
		os.Remove(out)
		if err != nil {
			r.failed++
			r.notes = append(r.notes, err.Error())
			continue
		}
		if want.hash == "" {
			want = got
		}
		if got != want {
			r.failed++
			r.notes = append(r.notes, fmt.Sprintf("execution %d wrote %d pairs (%.12s), execution 0 wrote %d (%.12s)",
				x, got.count, got.hash, want.count, want.hash))
			continue
		}
		if x == 0 {
			if q, err := reportedQuality(logPath); err != nil {
				r.notes = append(r.notes, err.Error())
			} else {
				r.counts.quality = q
			}
		}
		walls = append(walls, ms(wall))
		rss = append(rss, peak)
	}
	// The answer a user gets must be the one pinned for this seed: the
	// checks above hold a commit to itself, this one holds it to the
	// commit that recorded the pin.
	if pinned := e.pins[w.name].Answer; pinned != nil && r.failed == 0 {
		if got := answerOf(want, r.counts.quality); got != *pinned {
			r.failed = r.attempted
			r.notes = append(r.notes, fmt.Sprintf("cmd/metablock answers %+v, pinned %+v: a behaviour change, not a speed-up", got, *pinned))
		}
	}
	r.metrics["op_p50_ms"] = percentile(walls, 0.50)
	// With a handful of executions the 99th percentile is the slowest one.
	r.metrics["op_p99_ms"] = percentile(walls, 0.99)
	// A pipeline's first result is its output file: complete at exit.
	r.metrics["first_result_p50_ms"] = r.metrics["op_p50_ms"]
	r.metrics["throughput_ops"] = ratio(float64(len(walls)), sum(walls)/1000)
	// The median, not the largest: a collected heap's peak moves with GC
	// timing, and the maximum of a few is the most volatile way to read it.
	r.metrics["peak_rss_mb"] = median(rss)
	return r, want, nil
}

// quality is PC, PQ and RR as cmd/metablock prints them: the
// user-visible effectiveness of the run, to three, four and three
// decimals. Kept as printed so a comparison never hinges on rounding.
type quality struct{ pc, pq, rr string }

// qualityOf formats measured values the way cmd/metablock prints them.
func qualityOf(pc, pq, rr float64) quality {
	return quality{fmt.Sprintf("%.3f", pc), fmt.Sprintf("%.4f", pq), fmt.Sprintf("%.3f", rr)}
}

func answerOf(d pairsDigest, q quality) batchAnswer {
	return batchAnswer{Pairs: d.count, PairsHash: d.hash, PC: q.pc, PQ: q.pq, RR: q.rr}
}

func reportedQuality(logPath string) (quality, error) {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return quality{}, err
	}
	m := evalRE.FindSubmatch(b)
	if m == nil {
		return quality{}, fmt.Errorf("cmd/metablock printed no evaluation line")
	}
	return quality{string(m[1]), string(m[2]), string(m[3])}, nil
}
