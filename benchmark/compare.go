package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// worsening is how far b is worse than a as a share of a: positive means
// worse, whichever way the metric's "better" points.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, per workload and end-to-end metric, both values,
// the relative change and the bound, and returns how many exceed their
// bound. Failed operations have no bound: any increase counts. A row
// that only restates another on its workload is printed but not judged.
func compareReports(spec *benchSpec, a, b fullReport) int {
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Workload] = w
	}
	exceeded := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			fmt.Printf("%-20s missing from the second file\n", wa.Workload)
			exceeded++
			continue
		}
		wl, _ := findWorkload(workloads(false), wa.Workload)
		for _, def := range spec.EndToEnd {
			va, vb := wa.Metrics[def.Name].Value, wb.Metrics[def.Name].Value
			w := worsening(def, va, vb)
			verdict := "ok"
			if why := wl.notJudged(def.Name); why != "" {
				verdict = "not judged: " + why
			} else if w > def.Bound {
				verdict = "EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-20s %-22s %12.4f -> %12.4f %-5s worse by %+7.2f%% (bound %.0f%%) %s\n",
				wa.Workload, def.Name, va, vb, def.Unit, 100*w, 100*def.Bound, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Printf("%-20s failed operations %d -> %d EXCEEDS BOUND\n", wa.Workload, wa.Failed, wb.Failed)
			exceeded++
		}
	}
	return exceeded
}

func readReport(path string) (fullReport, error) {
	var r fullReport
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json (files written with -out)")
		return 2
	}
	spec, err := loadSpec()
	var a, b fullReport
	if err == nil {
		a, err = readReport(args[0])
	}
	if err == nil {
		b, err = readReport(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if n := compareReports(spec, a, b); n > 0 {
		fmt.Printf("%d comparisons exceed their bound\n", n)
		return 1
	}
	return 0
}
