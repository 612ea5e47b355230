// Command metablock runs the full Enhanced Meta-blocking pipeline on a CSV
// entity collection (or a built-in synthetic dataset) and writes the
// retained comparisons — or, with a matcher threshold, the matched pairs.
//
// Input CSV format (header required): id,source,attribute,value
//   - id: a non-negative integer per profile (rows with the same id build
//     one profile)
//   - source: 1 or 2; if any row has source 2 the task is Clean-Clean ER,
//     otherwise Dirty ER
//
// Ground truth CSV (optional, -truth): id1,id2 per line (no header).
//
// Examples:
//
//	metablock -dataset D2C -scale 0.2 -algorithm reciprocal-wnp
//	metablock -input profiles.csv -truth matches.csv -filter 0.8 -scheme ecbs
//	metablock -input profiles.csv -match 0.4 -output matches.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"time"

	mb "metablocking"
	"metablocking/internal/arena"
	"metablocking/internal/datagen"
	"metablocking/internal/dataio"
	"metablocking/internal/eval"
	"metablocking/internal/matching"
	"metablocking/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metablock:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		input     = flag.String("input", "", "input profiles CSV (id,source,attribute,value)")
		truth     = flag.String("truth", "", "ground truth CSV (id1,id2) for evaluation")
		dataset   = flag.String("dataset", "", "built-in synthetic dataset instead of -input (D1C..D3D)")
		scale     = flag.Float64("scale", 0.2, "scale for -dataset")
		blockFlag = flag.String("blocking", "token", "blocking method: token, qgrams, suffix, attrcluster, minhash, eqgrams, esn")
		workers   = flag.Int("workers", -1, "worker goroutines for every pipeline stage (-1 = all CPUs, 0 or 1 = one); the output is the same for every value")
		scheme    = flag.String("scheme", "js", "weighting scheme: arcs, cbs, ecbs, js, ejs")
		algorithm = flag.String("algorithm", "reciprocal-wnp", "pruning: cep, cnp, wep, wnp, redefined-cnp, reciprocal-cnp, redefined-wnp, reciprocal-wnp")
		filter    = flag.Float64("filter", 0.8, "Block Filtering ratio r (0 disables)")
		graphFree = flag.Bool("graphfree", false, "skip the blocking graph (Block Filtering + Comparison Propagation)")
		match     = flag.Float64("match", 0, "Jaccard matching threshold; 0 outputs raw comparisons")
		output    = flag.String("output", "", "output CSV path (default stdout)")
		saveBlk   = flag.String("save-blocks", "", "persist the cleaned block collection to this file")
		metrics   = flag.Bool("metrics", false, "print the per-stage counter/gauge table to stderr")
		pprofAddr = flag.String("pprof", "", "serve expvar and net/http/pprof on this address (e.g. localhost:6060)")
		progress  = flag.Bool("progress", false, "stream per-stage progress to stderr")
	)
	flag.Parse()
	if !(*match >= 0 && *match <= 1) { // NaN fails both comparisons
		return fmt.Errorf("-match %v: the threshold must be in [0, 1]", *match)
	}
	if !datagen.ValidScale(*scale) {
		return fmt.Errorf("-scale %v: the scale must be a finite number above 0", *scale)
	}

	// Interrupt (Ctrl-C) cancels the pipeline cooperatively: every stage
	// drains its workers and RunContext returns context.Canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	collection, gt, err := loadInput(*input, *truth, *dataset, *scale)
	if err != nil {
		return err
	}

	blocking, err := parseBlocking(*blockFlag)
	if err != nil {
		return err
	}
	sch, err := parseScheme(*scheme)
	if err != nil {
		return err
	}
	alg, err := parseAlgorithm(*algorithm)
	if err != nil {
		return err
	}

	var opts []mb.RunOption
	if *metrics || *pprofAddr != "" {
		reg := mb.NewMetrics()
		opts = append(opts, mb.WithMetrics(reg))
		if *pprofAddr != "" {
			srv, err := obs.ServeDebug(*pprofAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /debug/vars, /debug/pprof)\n", *pprofAddr)
		}
	}
	if *progress {
		opts = append(opts, mb.WithProgress(progressPrinter(os.Stderr)))
	}

	p := mb.Pipeline{
		Blocking:    blocking,
		FilterRatio: *filter,
		GraphFree:   *graphFree,
		Scheme:      sch,
		Algorithm:   alg,
		Workers:     *workers,
	}
	out := &pairOutput{}
	if gt != nil {
		out.acc = eval.NewAccumulator(gt)
	}
	if *match > 0 {
		out.matcher = mb.NewJaccardMatcher(collection, *match)
	}
	var res *mb.Result
	if err := writeOutput(*output, func(w io.Writer) error {
		out.w = w
		var err error
		res, err = p.Stream(ctx, collection, out.sink, opts...)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "profiles: %d  input comparisons: %d  retained: %d  overhead: %v\n",
		collection.Size(), res.InputComparisons, out.retained, res.OTime)
	fmt.Fprintf(os.Stderr, "stages: blocking=%v filtering=%v graph=%v pruning=%v\n",
		res.Stages.Blocking, res.Stages.Filtering, res.Stages.Graph, res.Stages.Prune)
	if *metrics {
		fmt.Fprint(os.Stderr, metricsReport(res))
	}

	if *saveBlk != "" {
		cleaned := mb.BuildBlocks(collection, blocking, *filter)
		if err := mb.SaveBlocks(*saveBlk, cleaned); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved %d blocks to %s\n", cleaned.Len(), *saveBlk)
	}
	if out.matcher != nil {
		fmt.Fprintf(os.Stderr, "matches at threshold %.2f: %d\n", *match, out.written)
	}
	if out.acc != nil {
		rep := out.acc.Report(res.InputComparisons)
		fmt.Fprintf(os.Stderr, "evaluation: PC=%.3f PQ=%.4f RR=%.3f\n", rep.PC(), rep.PQ(), rep.RR())
	}
	return nil
}

// pairOutput is the run's PairSink. On the pipeline's worker it counts each
// chunk against the ground truth (acc), keeps the matcher's matches when
// there is one — a chunk never splits one A's pairs, so dropping the
// redundant copies within it drops them all — and encodes what it writes
// as CSV into a pooled buffer. The commit, in chunk order, writes the
// bytes to w and merges the counts.
type pairOutput struct {
	w       io.Writer
	acc     *eval.Accumulator        // nil without a ground truth
	matcher *matching.JaccardMatcher // nil without -match
	bufs    arena.Pool[byte]

	retained, written int64
}

func (o *pairOutput) sink(chunk []mb.Pair) func() error {
	var comparisons int64
	var found []mb.Pair
	if o.acc != nil {
		comparisons, found = o.acc.Count(chunk)
	}
	pairs := chunk
	if o.matcher != nil {
		pairs = mb.Matches(o.matcher, chunk)
	}
	buf := o.bufs.Get()
	buf.S = dataio.AppendPairsCSV(buf.S, pairs)
	retained, written := int64(len(chunk)), int64(len(pairs))
	return func() error {
		defer o.bufs.Put(buf)
		if _, err := o.w.Write(buf.S); err != nil {
			return err
		}
		if o.acc != nil {
			o.acc.Merge(comparisons, found)
		}
		o.retained += retained
		o.written += written
		return nil
	}
}

// metricsReport renders the run's counter/gauge snapshot for -metrics.
func metricsReport(res *mb.Result) string {
	return res.Metrics.Table()
}

// progressPrinter returns a ProgressFunc that streams per-stage progress
// lines to w, throttled to one line per stage per 200ms (the final
// done==total line is always printed). The callback is invoked
// concurrently from worker goroutines, hence the lock.
func progressPrinter(w io.Writer) mb.ProgressFunc {
	var mu sync.Mutex
	latest := make(map[string]int64)
	last := make(map[string]time.Time)
	return func(stage string, done, total int64) {
		mu.Lock()
		defer mu.Unlock()
		if done < latest[stage] {
			return // a lagging worker's tick arrived out of order
		}
		latest[stage] = done
		now := time.Now()
		if done < total && now.Sub(last[stage]) < 200*time.Millisecond {
			return
		}
		last[stage] = now
		fmt.Fprintf(w, "%s: %d/%d\n", stage, done, total)
	}
}

func loadInput(input, truth, dataset string, scale float64) (*mb.Collection, *mb.GroundTruth, error) {
	switch {
	case input != "" && dataset != "":
		return nil, nil, fmt.Errorf("-input and -dataset are mutually exclusive")
	case truth != "" && dataset != "":
		return nil, nil, fmt.Errorf("-truth and -dataset are mutually exclusive: a dataset carries its own ground truth")
	case dataset != "":
		id, err := parseDataset(dataset)
		if err != nil {
			return nil, nil, err
		}
		ds := mb.GenerateDataset(id, scale)
		return ds.Collection, ds.GroundTruth, nil
	case input != "":
		c, err := readProfiles(input)
		if err != nil {
			return nil, nil, err
		}
		var gt *mb.GroundTruth
		if truth != "" {
			gt, err = readTruth(truth)
			if err != nil {
				return nil, nil, err
			}
			// A pair no comparison can ever match would inflate |D(E)|
			// and deflate the reported PC.
			if err := gt.Validate(c); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", truth, err)
			}
		}
		return c, gt, nil
	default:
		return nil, nil, fmt.Errorf("either -input or -dataset is required")
	}
}

// readProfiles parses the input file: JSONL when the extension is .jsonl
// or .ndjson, the id,source,attribute,value CSV otherwise.
func readProfiles(path string) (*mb.Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ext := strings.ToLower(filepath.Ext(path))
	if ext == ".jsonl" || ext == ".ndjson" {
		return dataio.ReadProfilesJSONL(f)
	}
	return dataio.ReadProfilesCSV(f)
}

func readTruth(path string) (*mb.GroundTruth, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataio.ReadGroundTruthCSV(f)
}

// writeOutput hands write the file at path, created or truncated, or stdout
// when path is empty. A file's Close error is returned too: a short write
// can surface only there, and the run must not exit 0 over a truncated
// pairs file.
func writeOutput(path string, write func(w io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseDataset(s string) (mb.DatasetID, error) {
	switch strings.ToUpper(s) {
	case "D1C":
		return mb.D1C, nil
	case "D2C":
		return mb.D2C, nil
	case "D3C":
		return mb.D3C, nil
	case "D1D":
		return mb.D1D, nil
	case "D2D":
		return mb.D2D, nil
	case "D3D":
		return mb.D3D, nil
	default:
		return 0, fmt.Errorf("unknown dataset %q (want D1C..D3D)", s)
	}
}

func parseBlocking(s string) (mb.BlockingMethod, error) {
	switch strings.ToLower(s) {
	case "token":
		return mb.TokenBlocking{}, nil
	case "qgrams":
		return mb.QGramsBlocking{}, nil
	case "suffix":
		return mb.SuffixArrayBlocking{}, nil
	case "attrcluster":
		return mb.AttributeClusteringBlocking{}, nil
	case "minhash":
		return mb.MinHashBlocking{}, nil
	case "eqgrams":
		return mb.ExtendedQGramsBlocking{}, nil
	case "esn":
		return mb.ExtendedSortedNeighborhood{}, nil
	default:
		return nil, fmt.Errorf("unknown blocking method %q", s)
	}
}

func parseScheme(s string) (mb.Scheme, error) {
	switch strings.ToLower(s) {
	case "arcs":
		return mb.ARCS, nil
	case "cbs":
		return mb.CBS, nil
	case "ecbs":
		return mb.ECBS, nil
	case "js":
		return mb.JS, nil
	case "ejs":
		return mb.EJS, nil
	default:
		return 0, fmt.Errorf("unknown weighting scheme %q", s)
	}
}

func parseAlgorithm(s string) (mb.Algorithm, error) {
	switch strings.ToLower(s) {
	case "cep":
		return mb.CEP, nil
	case "cnp":
		return mb.CNP, nil
	case "wep":
		return mb.WEP, nil
	case "wnp":
		return mb.WNP, nil
	case "redefined-cnp":
		return mb.RedefinedCNP, nil
	case "reciprocal-cnp":
		return mb.ReciprocalCNP, nil
	case "redefined-wnp":
		return mb.RedefinedWNP, nil
	case "reciprocal-wnp":
		return mb.ReciprocalWNP, nil
	default:
		return 0, fmt.Errorf("unknown pruning algorithm %q", s)
	}
}
