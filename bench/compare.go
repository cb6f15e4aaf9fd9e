package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and regression bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// side is one results file reduced to the untraced runs of each workload.
type side struct {
	values            map[string]map[string][]float64 // workload → metric → one value per run
	attempted, failed map[string]int
}

func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec struct {
			Workload string
			Trace    int
			result
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if s.values[rec.Workload] == nil {
			s.values[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			s.values[rec.Workload][name] = append(s.values[rec.Workload][name], m.Value)
		}
		s.attempted[rec.Workload] += rec.Attempted
		s.failed[rec.Workload] += rec.Failed
	}
	return s, sc.Err()
}

// verdict applies one metric's bound to the two sides' runs. worse is the
// share of a's median by which b's median is worse (negative: better).
func verdict(a, b []float64, higherBetter bool, bound float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if higherBetter {
		worse = -worse
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		return 0, "missing"
	case spread(a) > bound || spread(b) > bound:
		// The runs of one side disagree by more than the bound: the
		// comparison cannot tell a change from noise.
		return worse, "unresolved"
	case worse > bound:
		return worse, "WORSE"
	case worse < -bound:
		return worse, "better"
	}
	return worse, "same"
}

// compareFiles prints one row per workload with every end-to-end metric's
// verdict, and returns 1 on a regression or a larger failed share.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare runs from the repository root:", err)
		return 2
	}
	a, err := readSide(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readSide(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareSides(sp, a, b, stdout)
}

func compareSides(sp *spec, a, b *side, stdout io.Writer) int {
	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload\truns a/b")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(tw, "\t%s", m.Name)
	}
	fmt.Fprintln(tw, "\tfailed a/b")
	for _, w := range workloads {
		va, vb := a.values[w.name], b.values[w.name]
		if va == nil && vb == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d/%d", w.name, len(va["setup_s"]), len(vb["setup_s"]))
		for _, m := range sp.EndToEnd {
			worse, word := verdict(va[m.Name], vb[m.Name], m.Better == "higher", m.Bound)
			if word == "WORSE" || word == "missing" {
				code = 1
			}
			fmt.Fprintf(tw, "\t%+.1f%% %s", 100*worse, word)
		}
		fa, fb := ratio(float64(a.failed[w.name]), float64(a.attempted[w.name])), ratio(float64(b.failed[w.name]), float64(b.attempted[w.name]))
		if fb > fa {
			code = 1
		}
		fmt.Fprintf(tw, "\t%.4f/%.4f\n", fa, fb)
	}
	tw.Flush()
	fmt.Fprintln(stdout, "cells: share of a's median by which b's median is worse (+) or better (-), against the metric's bound;")
	fmt.Fprintln(stdout, "unresolved: one side's own runs spread (IQR/median) wider than the bound.")
	return code
}
