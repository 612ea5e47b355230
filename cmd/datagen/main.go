// Command datagen generates the synthetic benchmark datasets and prints
// their technical characteristics (the rows of the paper's Table 2), plus
// the Token Blocking statistics used to calibrate them against the paper.
//
// Usage:
//
//	datagen [-scale 1.0] [-dataset D2C] [-dump out.csv]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"metablocking/internal/blocking"
	"metablocking/internal/blockproc"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
)

func main() {
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	only := flag.String("dataset", "", "generate a single dataset (D1C..D3D)")
	dump := flag.String("dump", "", "write the selected dataset's profiles to a CSV file")
	flag.Parse()
	if !datagen.ValidScale(*scale) {
		fmt.Fprintf(os.Stderr, "datagen: -scale %v: the scale must be a finite number above 0\n", *scale)
		os.Exit(1)
	}

	datasets := datagen.AllDatasets(*scale)
	fmt.Printf("%-5s %10s %10s %8s %10s %6s %14s\n",
		"name", "|E1|", "|E2|", "|D(E)|", "|P|", "|p̄|", "‖E‖")
	for _, d := range datasets {
		if *only != "" && d.Name != *only {
			continue
		}
		printDataset(d)
		if *dump != "" {
			if err := dumpCSV(*dump, d); err != nil {
				fmt.Fprintln(os.Stderr, "datagen:", err)
				os.Exit(1)
			}
		}
	}
}

func printDataset(d datagen.Dataset) {
	c := d.Collection
	pairs, _ := c.NamePairs(0, c.Size())
	n1, n2 := c.Split, c.Size()-c.Split
	if c.Task == entity.Dirty {
		n1, n2 = c.Size(), 0
	}
	fmt.Printf("%-5s %10d %10d %8d %10d %6.1f %14d\n",
		d.Name, n1, n2, d.GroundTruth.Size(), pairs,
		float64(pairs)/float64(c.Size()), c.BruteForceComparisons())

	blocks := blocking.TokenBlocking{}.Build(c)
	purged := blockproc.BlockPurging{}.Apply(blocks)
	det := purged.DetectedDuplicates(d.GroundTruth)
	pc := float64(det) / float64(d.GroundTruth.Size())
	fmt.Printf("      token blocking (purged): |B|=%d ‖B‖=%.3g BPE=%.2f PC=%.3f PQ=%.2e\n",
		purged.Len(), float64(purged.Comparisons()), purged.BPE(), pc,
		float64(det)/float64(purged.Comparisons()))
}

func dumpCSV(path string, d datagen.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"id", "source", "attribute", "value"}); err != nil {
		return err
	}
	for i := range d.Collection.Profiles {
		p := &d.Collection.Profiles[i]
		source := "1"
		if !d.Collection.InFirst(p.ID) {
			source = "2"
		}
		for _, a := range p.Attributes {
			if err := w.Write([]string{strconv.Itoa(int(p.ID)), source, a.Name, a.Value}); err != nil {
				return err
			}
		}
	}
	return nil
}
