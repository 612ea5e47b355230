// Command experiments reproduces the paper's evaluation (§6): every table
// and figure, on the synthetic benchmark datasets, at a configurable scale.
//
// Usage:
//
//	experiments [-scale 0.5] [-only table3] [-list]
//
// The -only flag accepts: table1, table2, table3, table4, table5, table6,
// figure10. Without it, everything runs in the paper's order.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"metablocking/internal/datagen"
	"metablocking/internal/experiments"
	"metablocking/internal/obs"
)

func main() {
	scale := flag.Float64("scale", 0.5, "dataset scale multiplier (1.0 = full laptop scale)")
	only := flag.String("only", "", "run a single experiment (table1..table6, figure10)")
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "also write per-table CSV files into this directory")
	workers := flag.Int("workers", -1, "worker goroutines for dataset preparation (-1 = all CPUs, 0 or 1 = one); the prepared blocks are the same for every value")
	metrics := flag.Bool("metrics", false, "print the aggregated pipeline counter table to stderr on exit")
	pprofAddr := flag.String("pprof", "", "serve expvar and net/http/pprof on this address while the suite runs")
	flag.Parse()
	if !datagen.ValidScale(*scale) {
		fmt.Fprintf(os.Stderr, "experiments: -scale %v: the scale must be a finite number above 0\n", *scale)
		os.Exit(1)
	}

	var reg *obs.Metrics
	if *metrics || *pprofAddr != "" {
		reg = obs.NewMetrics()
	}
	if *pprofAddr != "" {
		srv, err := obs.ServeDebug(*pprofAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /debug/vars, /debug/pprof)\n", *pprofAddr)
	}

	if *list {
		fmt.Println("table1   block collections before/after Block Filtering")
		fmt.Println("table2   dataset characteristics")
		fmt.Println("figure10 Block Filtering ratio sweep (D2C, D2D)")
		fmt.Println("table3   CEP/CNP/WEP/WNP before/after Block Filtering (Alg. 2 weighting)")
		fmt.Println("table5   OTime with Optimized Edge Weighting (Alg. 3)")
		fmt.Println("table4   Redefined and Reciprocal CNP/WNP")
		fmt.Println("table6   baselines: Graph-free Meta-blocking, Iterative Blocking")
		fmt.Println("extensions  supervised meta-blocking, progressive recall, parallel speedup")
		fmt.Println("schemes     per-weighting-scheme breakdown of the recommended configurations")
		fmt.Println("blocking    comparison of all ten blocking methods")
		return
	}

	s := experiments.NewSuite(*scale, os.Stdout)
	s.Workers = *workers
	s.Metrics = reg
	printMetrics := func() {
		if *metrics {
			fmt.Fprint(os.Stderr, reg.Snapshot().Table())
		}
	}
	fmt.Printf("Enhanced Meta-blocking experiment suite (scale %.2f)\n", *scale)
	start := time.Now()
	if *csvDir != "" {
		if err := s.WriteCSVReports(*csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("\nCSV reports written to %s\n", *csvDir)
		fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
		printMetrics()
		return
	}
	switch *only {
	case "":
		s.RunAll()
	case "table1":
		s.Table1()
	case "table2":
		s.Table2()
	case "table3":
		s.Table3()
	case "table4":
		s.Table4()
	case "table5":
		s.Table5()
	case "table6":
		s.Table6()
	case "figure10":
		s.Figure10()
	case "extensions":
		s.Extensions()
	case "blocking":
		s.BlockingMethods()
	case "schemes":
		s.SchemeBreakdown()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", *only)
		os.Exit(2)
	}
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
	printMetrics()
}
