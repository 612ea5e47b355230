package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestPairsDigestIgnoresOrderOnly(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	digest := func(path string) pairsDigest {
		d, err := digestPairsFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a := digest(write("a.csv", "1,2\n3,4\n5,6\n"))
	b := digest(write("b.csv", "5,6\n1,2\n3,4\n"))
	if a != b || a.count != 3 {
		t.Errorf("the same pairs in another order digest to %+v and %+v", a, b)
	}
	for name, content := range map[string]string{
		"one pair changed":  "1,2\n3,4\n5,7\n",
		"one pair missing":  "1,2\n3,4\n",
		"one pair repeated": "1,2\n3,4\n5,6\n5,6\n",
		"swapped endpoints": "2,1\n3,4\n5,6\n",
	} {
		if c := digest(write("c.csv", content)); c == a {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

func TestReportedQuality(t *testing.T) {
	log := filepath.Join(t.TempDir(), "metablock.log")
	os.WriteFile(log, []byte("profiles: 10  input comparisons: 5\nevaluation: PC=0.631 PQ=0.0024 RR=0.822\n"), 0o644)
	q, err := reportedQuality(log)
	if err != nil || q != qualityOf(0.63149, 0.00236, 0.8224) {
		t.Errorf("parsed %+v, %v", q, err)
	}
	os.WriteFile(log, []byte("metablock: something else\n"), 0o644)
	if _, err := reportedQuality(log); err == nil {
		t.Error("a log without an evaluation line parsed")
	}
}

// TestPinnedAnswerHoldsLaterCommits runs a round against the answer it
// gives itself, which passes, and against one with a pair fewer, as a
// later change to what the pipeline retains would look: every execution
// of the round must then count as failed.
func TestPinnedAnswerHoldsLaterCommits(t *testing.T) {
	w := smokeWorkload(t, "batch_graphfree")
	e := &env{binDir: testBin, tmp: t.TempDir(), seed: 1}
	r, d, err := batchRound(context.Background(), e, w, 0)
	if err != nil || r.failed != 0 {
		t.Fatalf("unpinned round: failed %d, %v %v", r.failed, err, r.notes)
	}
	answer := answerOf(d, r.counts.quality)
	e.pins = map[string]pin{w.name: {Inputs: r.digest, Answer: &answer}}
	if r, _, err = batchRound(context.Background(), e, w, 1); err != nil || r.failed != 0 {
		t.Errorf("round against its own answer: failed %d, %v %v", r.failed, err, r.notes)
	}
	other := answer
	other.Pairs--
	e.pins[w.name] = pin{Inputs: r.digest, Answer: &other}
	if r, _, err = batchRound(context.Background(), e, w, 2); err != nil || r.failed != r.attempted || r.attempted == 0 {
		t.Errorf("round against another answer: failed %d of %d, %v", r.failed, r.attempted, err)
	}
}
