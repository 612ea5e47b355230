package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	mb "metablocking"
	"metablocking/internal/dataio"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadProfilesDirty(t *testing.T) {
	path := writeFile(t, "p.csv", `id,source,attribute,value
0,1,name,Jack Miller
0,1,job,seller
1,1,name,Erick Green
`)
	c, err := readProfiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Fatalf("Size = %d", c.Size())
	}
	if c.Task.String() != "Dirty ER" {
		t.Fatalf("Task = %v", c.Task)
	}
	if len(c.Profile(0).Attributes) != 2 {
		t.Fatalf("profile 0 attrs = %d", len(c.Profile(0).Attributes))
	}
}

func TestReadProfilesCleanClean(t *testing.T) {
	path := writeFile(t, "p.csv", `id,source,attribute,value
0,1,name,a
1,2,name,b
2,2,name,c
`)
	c, err := readProfiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Task.String() != "Clean-Clean ER" || c.Split != 1 || c.Size() != 3 {
		t.Fatalf("Task=%v Split=%d Size=%d", c.Task, c.Split, c.Size())
	}
}

func TestReadProfilesErrors(t *testing.T) {
	for name, content := range map[string]string{
		"bad id":        "x,1,a,v\n",
		"bad source":    "0,3,a,v\n",
		"mixed sources": "0,1,a,v\n0,2,b,w\n",
		"empty":         "id,source,attribute,value\n",
	} {
		path := writeFile(t, "p.csv", content)
		if _, err := readProfiles(path); err == nil {
			t.Errorf("%s: error expected", name)
		}
	}
	if _, err := readProfiles("/nonexistent/file.csv"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadTruth(t *testing.T) {
	path := writeFile(t, "t.csv", "0,5\n1,6\n")
	gt, err := readTruth(path)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Size() != 2 || !gt.Contains(5, 0) {
		t.Fatalf("ground truth wrong: %v", gt.Pairs())
	}
	bad := writeFile(t, "bad.csv", "x,y\n")
	if _, err := readTruth(bad); err == nil {
		t.Error("bad truth accepted")
	}

	// A truth file that parses but does not fit -input is rejected with
	// GroundTruth.Validate's message, and the run exits non-zero.
	dirty := writeFile(t, "dirty.csv", "id,source,attribute,value\n0,1,name,a\n1,1,name,a b\n2,1,name,b\n")
	clean := writeFile(t, "clean.csv", "id,source,attribute,value\n0,1,name,a\n1,2,name,a b\n2,2,name,b\n")
	for name, tc := range map[string]struct{ input, truth, want string }{
		"reflexive":    {dirty, "1,1\n", "ground truth pair (1,1) is reflexive"},
		"out of range": {dirty, "0,1\n2,5\n", "ground truth pair (2,5) out of range [0,3)"},
		"same side":    {clean, "0,1\n1,2\n", "clean-clean ground truth pair does not cross the collection split"},
	} {
		truth := writeFile(t, "truth.csv", tc.truth)
		if _, _, err := loadInput(tc.input, truth, "", 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: loadInput error %v, want %q", name, err, tc.want)
		}
		out := filepath.Join(t.TempDir(), "pairs.csv")
		if err := runMain(t, "-input", tc.input, "-truth", truth, "-output", out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run error %v, want %q", name, err, tc.want)
		}
	}
	good := writeFile(t, "truth.csv", "0,1\n")
	if _, gt, err := loadInput(clean, good, "", 1); err != nil || gt.Size() != 1 {
		t.Errorf("valid truth rejected: %v", err)
	}
}

// TestThresholdValidation: a -match or -filter that is NaN or outside
// [0, 1], a -scale that is not a finite number above 0, and a -truth
// beside -dataset fail the run, instead of silently writing raw
// comparisons, skipping Block Filtering, generating at another scale or
// ignoring the truth file.
func TestThresholdValidation(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-match", "NaN", "-match NaN"},
		{"-match", "-0.1", "-match -0.1"},
		{"-match", "1.5", "-match 1.5"},
		{"-filter", "NaN", mb.ErrInvalidFilterRatio.Error()},
		{"-scale", "NaN", "-scale NaN"},
		{"-scale", "0", "-scale 0"},
		{"-scale", "-1", "-scale -1"},
		{"-scale", "+Inf", "-scale +Inf"},
		{"-truth", "/nonexistent", "-truth and -dataset"},
	} {
		out := filepath.Join(t.TempDir(), "pairs.csv")
		err := runMain(t, "-dataset", "d1d", "-scale", "0.02", "-graphfree", "-output", out, tc.flag, tc.value)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: run error %v, want %q", tc.flag, tc.value, err, tc.want)
		}
	}
}

// runMain drives run with the given command line, as main would: run
// registers its flags on flag.CommandLine and parses os.Args.
func runMain(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = append([]string{"metablock"}, args...)
	flag.CommandLine = flag.NewFlagSet("metablock", flag.ContinueOnError)
	return run()
}

// TestSerialRunsByteIdentical: the fully serial pipeline writes the same
// file on every run — Redefined/Reciprocal CNP do not emit in the iteration
// order of a hash map — and the same file as two workers do: the file the
// slice API gives, RunContext's pairs (through the matcher, with -match)
// written by WritePairsCSV. WNP's redundant copies and the matcher's
// dropping of them must survive the run's chunked output.
func TestSerialRunsByteIdentical(t *testing.T) {
	ds := mb.GenerateDataset(mb.D2D, 0.05)
	for _, tc := range []struct {
		args  []string
		p     mb.Pipeline
		match float64
	}{
		{[]string{"-algorithm", "reciprocal-cnp"}, mb.Pipeline{Algorithm: mb.ReciprocalCNP}, 0},
		{[]string{"-algorithm", "redefined-cnp"}, mb.Pipeline{Algorithm: mb.RedefinedCNP}, 0},
		{[]string{"-algorithm", "cep"}, mb.Pipeline{Algorithm: mb.CEP}, 0},
		{[]string{"-algorithm", "wep"}, mb.Pipeline{Algorithm: mb.WEP}, 0},
		{[]string{"-algorithm", "wnp"}, mb.Pipeline{Algorithm: mb.WNP}, 0},
		{[]string{"-graphfree"}, mb.Pipeline{GraphFree: true}, 0},
		{[]string{"-algorithm", "wnp", "-match", "0.4"}, mb.Pipeline{Algorithm: mb.WNP}, 0.4},
		{[]string{"-graphfree", "-match", "0.4"}, mb.Pipeline{GraphFree: true}, 0.4},
	} {
		p := tc.p
		p.FilterRatio, p.Scheme = 0.8, mb.JS
		res, err := p.RunContext(context.Background(), ds.Collection)
		if err != nil {
			t.Fatal(err)
		}
		pairs := res.Pairs
		if tc.match > 0 {
			pairs = mb.Matches(mb.NewJaccardMatcher(ds.Collection, tc.match), pairs)
		}
		var want bytes.Buffer
		if err := dataio.WritePairsCSV(&want, pairs); err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatalf("%v: empty reference file", tc.args)
		}
		for r, workers := range []string{"0", "0", "0", "2"} {
			out := filepath.Join(t.TempDir(), "pairs.csv")
			args := append([]string{"-dataset", "d2d", "-scale", "0.05", "-workers", workers, "-output", out}, tc.args...)
			if err := runMain(t, args...); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%v: run %d (-workers %s) wrote %d bytes, RunContext + WritePairsCSV %d",
					tc.args, r+1, workers, len(got), want.Len())
			}
		}
	}
}

// writePairs writes pairs to path the way a run does: through writeOutput
// and one chunk of the run's pair sink.
func writePairs(path string, pairs []mb.Pair) error {
	return writeOutput(path, func(w io.Writer) error {
		return (&pairOutput{w: w}).sink(pairs)()
	})
}

func TestWritePairs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := writePairs(path, []mb.Pair{{A: 1, B: 2}, {A: 3, B: 4}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "1,2\n3,4\n" {
		t.Fatalf("output = %q", data)
	}
}

// TestWritePairsErrors: a pairs file that cannot be created, or that
// refuses the bytes, fails the run — it must not exit 0 over missing
// output.
func TestWritePairsErrors(t *testing.T) {
	pairs := []mb.Pair{{A: 1, B: 2}}
	if err := writePairs(filepath.Join(t.TempDir(), "no-such-dir", "out.csv"), pairs); err == nil {
		t.Error("writePairs into a missing directory returned nil")
	}
	if err := writePairs(t.TempDir(), pairs); err == nil {
		t.Error("writePairs onto a directory returned nil")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := writePairs("/dev/full", pairs); err == nil {
			t.Error("writePairs to a full device returned nil")
		}
	}
}

func TestParsers(t *testing.T) {
	if _, err := parseDataset("D2C"); err != nil {
		t.Error(err)
	}
	if _, err := parseDataset("nope"); err == nil {
		t.Error("bad dataset accepted")
	}
	for _, s := range []string{"token", "qgrams", "suffix", "attrcluster"} {
		if _, err := parseBlocking(s); err != nil {
			t.Errorf("blocking %q: %v", s, err)
		}
	}
	if _, err := parseBlocking("standard?"); err == nil {
		t.Error("bad blocking accepted")
	}
	for _, s := range []string{"arcs", "cbs", "ecbs", "js", "ejs"} {
		if _, err := parseScheme(s); err != nil {
			t.Errorf("scheme %q: %v", s, err)
		}
	}
	if _, err := parseScheme("xx"); err == nil {
		t.Error("bad scheme accepted")
	}
	for _, s := range []string{"cep", "cnp", "wep", "wnp", "redefined-cnp", "reciprocal-cnp", "redefined-wnp", "reciprocal-wnp"} {
		if _, err := parseAlgorithm(s); err != nil {
			t.Errorf("algorithm %q: %v", s, err)
		}
	}
	if _, err := parseAlgorithm("xx"); err == nil {
		t.Error("bad algorithm accepted")
	}
}

// tableValue extracts one named counter/gauge value from the -metrics
// table rendering.
func tableValue(t *testing.T, table, name string) int64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(table))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("row %q: %v", sc.Text(), err)
			}
			return v
		}
	}
	t.Fatalf("table has no row %q:\n%s", name, table)
	return 0
}

// TestMetricsReport verifies the -metrics table agrees exactly with the
// run's Result: the filter-stage comparison count is InputComparisons and
// the retained-pair counter is len(Pairs).
func TestMetricsReport(t *testing.T) {
	ds := mb.GenerateDataset(mb.D1D, 0.1)
	res, err := mb.Pipeline{FilterRatio: 0.8, Scheme: mb.JS, Algorithm: mb.ReciprocalWNP, Workers: -1}.
		RunContext(context.Background(), ds.Collection, mb.WithMetrics(mb.NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	table := metricsReport(res)
	if got := tableValue(t, table, "filter.comparisons"); got != res.InputComparisons {
		t.Errorf("filter.comparisons = %d, want InputComparisons %d", got, res.InputComparisons)
	}
	if got := tableValue(t, table, "prune.pairs"); got != int64(len(res.Pairs)) {
		t.Errorf("prune.pairs = %d, want len(Pairs) %d", got, len(res.Pairs))
	}
	for _, name := range []string{"blocking.blocks", "blocking.comparisons", "purge.blocks",
		"purge.comparisons", "filter.blocks", "graph.nodes", "prune.edges_weighted", "prune.exact_mean_fallbacks"} {
		tableValue(t, table, name) // must be present
	}
}

// TestProgressPrinter exercises the -progress line format and throttling.
func TestProgressPrinter(t *testing.T) {
	var b strings.Builder
	fn := progressPrinter(&b)
	fn("blocking", 512, 1024)
	fn("blocking", 256, 1024) // out-of-order tick: dropped
	fn("blocking", 600, 1024) // within throttle window: dropped
	fn("blocking", 1024, 1024)
	want := "blocking: 512/1024\nblocking: 1024/1024\n"
	if b.String() != want {
		t.Errorf("progress output %q, want %q", b.String(), want)
	}
}

func TestLoadInputValidation(t *testing.T) {
	if _, _, err := loadInput("", "", "", 1); err == nil {
		t.Error("no input accepted")
	}
	if _, _, err := loadInput("a.csv", "", "D1C", 1); err == nil {
		t.Error("both inputs accepted")
	}
	c, gt, err := loadInput("", "", "D1C", 0.02)
	if err != nil || c == nil || gt == nil {
		t.Fatalf("dataset load failed: %v", err)
	}
}
