// Command benchmark is the repository's benchmark: end-to-end runs of the
// real binaries (cmd/serve over loopback HTTP, cmd/metablock on CSV
// files) with tracing off, and a separate traced run in which this
// harness calls each layer's public functions with timers around them.
// See README.md in this directory and BENCHMARK.json at the root.
//
//	bash benchmark/run.sh --workload serve_mem_direct --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload batch_meta --seed 1 --seconds 10 --trace 1
//	go run ./benchmark -workload all -out result.json
//	go run ./benchmark -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minRounds is how many times every workload is set up and run however
// short --seconds is: every reported value is a median over rounds, and
// setup_s in particular needs several set-ups to be steady.
const minRounds = 3

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 10, "timed seconds per workload: rounds of fixed work are added until their timed sections sum to about this")
		trace        = flag.Int("trace", 0, "0 = end-to-end metrics from the real binaries; 1 = per-layer metrics from the traced run")
		smoke        = flag.Bool("smoke", false, "shrink every workload to hundreds of operations and one round")
		out          = flag.String("out", "", "also write the full result (environment, rounds, wall times) to this JSON file")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		pin          = flag.Bool("pin", false, "record this seed's input digests and batch answers in pins.json and exit")
		spans        = flag.String("spans", "", "with -trace 1, append every recorded span to this file as JSON lines")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, options{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1,
		smoke: *smoke, out: *out, pin: *pin, spans: *spans,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	pin      bool
	spans    string
	// binDir and tmpParent are for the package's tests, which build the
	// binaries once for all of them and keep scratch out of the checkout.
	// There is no flag for either: an invocation always runs what it has
	// just built from the checkout's source, into .bench_build.
	binDir    string
	tmpParent string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object the driver reads from the last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadReport is a workload's entry in the -out file.
type workloadReport struct {
	result
	Workload string   `json:"workload"`
	Rounds   int      `json:"rounds"`
	WallS    float64  `json:"wall_s"`
	Notes    []string `json:"notes,omitempty"`
	Inputs   string   `json:"inputs_sha256"`
	// PerRound holds each end-to-end metric's value in every round, in
	// order: what the reported medians were taken over.
	PerRound map[string][]float64 `json:"per_round,omitempty"`
}

// fullReport is the -out file: what was measured, on what, for how long.
type fullReport struct {
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Smoke     bool             `json:"smoke,omitempty"`
	WallS     float64          `json:"wall_s"`
	Workloads []workloadReport `json:"workloads"`
}

func run(ctx context.Context, o options) (int, error) {
	spec, err := loadSpec()
	if err != nil {
		return 2, err
	}
	all := workloads(o.smoke)
	selected := all
	if o.workload != "all" {
		w, err := findWorkload(all, o.workload)
		if err != nil {
			return 2, err
		}
		selected = []workload{w}
	}

	if o.tmpParent == "" {
		o.tmpParent = buildDir
	}
	if err := os.MkdirAll(o.tmpParent, 0o755); err != nil {
		return 2, err
	}
	tmp, err := os.MkdirTemp(o.tmpParent, "run-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(tmp)
	e := &env{binDir: o.binDir, tmp: tmp, seed: o.seed}
	pins, err := loadPins()
	if err != nil {
		return 2, err
	}
	if e.binDir == "" {
		e.binDir = filepath.Join(buildDir, "bin")
		if err := buildBinaries(ctx, e.binDir); err != nil {
			return 2, err
		}
	}
	if o.pin {
		return recordPins(ctx, e, selected, pins)
	}
	if !o.smoke {
		e.pins = pins[fmt.Sprint(o.seed)]
	}

	report := fullReport{Env: describeEnv(), Seed: o.seed, Trace: o.trace, Smoke: o.smoke}
	started := time.Now()
	runs := make([]*workloadRun, len(selected))
	for i, w := range selected {
		runs[i] = &workloadRun{w: w, report: workloadReport{Workload: w.name}, perMetric: map[string][]float64{}}
	}
	// Round n of every selected workload runs before round n+1 of any: a
	// slow phase of the host, which lasts tens of seconds, then falls on a
	// minority of each workload's rounds and the median over rounds drops
	// it, instead of falling on every round of whichever workload was
	// running. With one workload selected this is its rounds back to back.
	for n, ran := 0, true; ran; n++ {
		ran = false
		for _, wr := range runs {
			if !wr.wants(n, o) {
				continue
			}
			ran = true
			start := time.Now()
			var err error
			if o.trace {
				err = wr.trace(ctx, e, o, spec)
			} else {
				err = wr.round(ctx, e, n)
			}
			wr.report.WallS += time.Since(start).Seconds()
			if err != nil {
				return 1, fmt.Errorf("%s: %w", wr.w.name, err)
			}
		}
	}
	for _, wr := range runs {
		if !o.trace {
			wr.reduce(spec)
		}
		report.Workloads = append(report.Workloads, wr.report)
		printWorkload(wr.report, spec)
	}
	report.WallS = time.Since(started).Seconds()
	if o.out != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	// The driver's contract: the last line of standard output is one JSON
	// object. With -workload all it is the last workload's; the per-
	// workload lines above and the -out file carry the rest.
	line, err := json.Marshal(report.Workloads[len(report.Workloads)-1].result)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	return 0, nil
}

// recordPins generates the selected workloads' inputs for the seed and
// records their digests in pins.json; for a batch workload it also runs
// cmd/metablock on them and records the answer.
func recordPins(ctx context.Context, e *env, selected []workload, all pins) (int, error) {
	key := fmt.Sprint(e.seed)
	if all[key] == nil {
		all[key] = map[string]pin{}
	}
	for _, w := range selected {
		var p pin
		if w.serve {
			in, err := prepareServe(e, w)
			if err != nil {
				return 2, err
			}
			p.Inputs = in.digest
		} else {
			r, answer, err := batchRound(ctx, e, w, 0)
			if err != nil {
				return 2, err
			}
			if r.failed > 0 {
				return 1, fmt.Errorf("%s: not pinning a failed run: %v", w.name, r.notes)
			}
			a := answerOf(answer, r.counts.quality)
			p = pin{Inputs: r.digest, Answer: &a}
		}
		all[key][w.name] = p
		fmt.Printf("%-20s seed %s %s\n", w.name, key, p.Inputs)
	}
	if err := savePins(all); err != nil {
		return 2, err
	}
	return 0, nil
}

// workloadRun is one workload's rounds in progress. Rounds do fixed
// work, so their number is what adapts to --seconds: at least minRounds
// (one under -smoke), then another while that brings the summed timed
// sections closer to --seconds. Every metric is reduced to its median
// over rounds.
type workloadRun struct {
	w         workload
	in        *serveInputs // serve: generated once, before the first round
	report    workloadReport
	perMetric map[string][]float64
	timed     time.Duration
	answer    pairsDigest // batch: what round 0 wrote
}

func (wr *workloadRun) wants(n int, o options) bool {
	switch {
	case o.trace || o.smoke:
		return n == 0
	case n < minRounds:
		return true
	}
	return wr.timed.Seconds()+wr.timed.Seconds()/float64(2*n) < o.seconds
}

// trace runs the workload's traced invocation.
func (wr *workloadRun) trace(ctx context.Context, e *env, o options, spec *benchSpec) error {
	layers, tr, err := traceWorkload(ctx, e, wr.w, o.smoke, o.spans)
	if err != nil {
		return err
	}
	wr.report.result = spec.result(layers, spec.PerLayer, tr.attempted, tr.failed)
	wr.report.Rounds, wr.report.Notes, wr.report.Inputs = 1, tr.notes, tr.digest
	return nil
}

// round runs round n with the real binaries, tracing off.
func (wr *workloadRun) round(ctx context.Context, e *env, n int) error {
	w := wr.w
	var r round
	var err error
	if w.serve {
		if wr.in == nil {
			if wr.in, err = prepareServe(e, w); err != nil {
				return err
			}
		}
		r, err = serveRound(ctx, e, w, wr.in, n)
	} else {
		var got pairsDigest
		r, got, err = batchRound(ctx, e, w, n)
		if err == nil && n > 0 && got != wr.answer {
			r.failed = r.attempted
			r.notes = append(r.notes, fmt.Sprintf("round %d wrote %d pairs (%.12s), round 0 wrote %d (%.12s)",
				n, got.count, got.hash, wr.answer.count, wr.answer.hash))
		}
		if n == 0 {
			wr.answer = got
		}
	}
	if err != nil {
		return err
	}
	rep := &wr.report
	if rep.Inputs != "" && rep.Inputs != r.digest {
		return fmt.Errorf("round %d generated different inputs from the same seed", n)
	}
	rep.Inputs = r.digest
	rep.Rounds++
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	rep.Notes = append(rep.Notes, r.notes...)
	wr.timed += r.timed
	for k, v := range r.metrics {
		wr.perMetric[k] = append(wr.perMetric[k], v)
	}
	return nil
}

// reduce turns the rounds into the workload's reported result.
func (wr *workloadRun) reduce(spec *benchSpec) {
	values := map[string]float64{}
	for k, vs := range wr.perMetric {
		values[k] = median(vs)
	}
	wr.report.result = spec.result(values, spec.EndToEnd, wr.report.Attempted, wr.report.Failed)
	wr.report.PerRound = wr.perMetric
}

// traceWorkload runs the traced invocation of one workload and returns
// its per-layer metric values.
func traceWorkload(ctx context.Context, e *env, w workload, smoke bool, spansOut string) (map[string]float64, traceSummary, error) {
	if w.serve {
		return traceServe(ctx, e, w, spansOut)
	}
	reps := traceReps
	if smoke {
		reps = 1
	}
	return traceBatch(ctx, e, w, reps, spansOut)
}

// printWorkload lists every metric by name with its unit, one per line,
// in the order BENCHMARK.json declares them.
func printWorkload(wr workloadReport, spec *benchSpec) {
	fmt.Printf("== %s: %d rounds, %.1fs, attempted %d, failed %d, correct %v\n",
		wr.Workload, wr.Rounds, wr.WallS, wr.Attempted, wr.Failed, wr.Correct)
	names := make([]string, 0, len(wr.Metrics))
	for name := range wr.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return spec.order[names[i]] < spec.order[names[j]] })
	for _, name := range names {
		m := wr.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range wr.Notes {
		fmt.Println("note:", n)
	}
}

// environment is written into every result: what the numbers can and
// cannot be compared across.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func describeEnv() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout the driver made is not a git repository.
	if exists(filepath.Join(root, ".git")) {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}
