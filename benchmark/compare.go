package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one result set's values of one metric on one workload.
type side struct{ q1, med, q3, lo, hi float64 }

func summarize(xs []float64) side {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return side{percentile(s, 0.25), percentile(s, 0.5), percentile(s, 0.75), s[0], s[len(s)-1]}
}

func (s side) spread() float64 { return ratio(s.q3-s.q1, s.med) }

// verdict classifies b against a for a metric where `worse` is the signed
// relative change of the median in the bad direction. A spread wider than
// the bound makes the medians untrustworthy: the pair is unresolved unless
// every run of one side beats every run of the other.
func verdict(a, b side, lowerBetter bool, bound float64) string {
	worse := ratio(b.med-a.med, a.med)
	if !lowerBetter {
		worse = -worse
	}
	if max(a.spread(), b.spread()) > bound {
		allBetter, allWorse := b.hi < a.lo, b.lo > a.hi
		if !lowerBetter {
			allBetter, allWorse = allWorse, allBetter
		}
		switch {
		case allBetter:
			return "better"
		case allWorse && worse > bound:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// compareSets prints one row per workload x end-to-end metric with each
// side's median and quartiles and the verdict. It is the tool every
// before/after claim and the "two sets of the same commit agree" check use.
func compareSets(specPath, aPath, bPath string) ([]byte, error) {
	w := &bytes.Buffer{}
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return nil, err
	}
	var sets [2][]*result
	for i, path := range []string{aPath, bPath} {
		if err := readJSON(path, &sets[i]); err != nil {
			return nil, err
		}
	}
	values := func(set []*result, workload, name string) []float64 {
		var xs []float64
		for _, r := range set {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-20s %-17s %-5s %36s %36s %8s  %s\n", "workload", "metric", "unit", "a: q1 / median / q3", "b: q1 / median / q3", "change", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := values(sets[0], wl.Name, m.Name), values(sets[1], wl.Name, m.Name)
			if len(av) < 3 || len(bv) < 3 {
				return nil, fmt.Errorf("%s %s: %d and %d runs, need at least 3 on each side", wl.Name, m.Name, len(av), len(bv))
			}
			a, b := summarize(av), summarize(bv)
			fmt.Fprintf(w, "%-20s %-17s %-5s %11.5g /%11.5g /%11.5g %11.5g /%11.5g /%11.5g %+7.2f%%  %s\n",
				wl.Name, m.Name, m.Unit, a.q1, a.med, a.q3, b.q1, b.med, b.q3,
				100*ratio(b.med-a.med, a.med), verdict(a, b, m.Better == "lower", m.Bound))
		}
	}
	return w.Bytes(), nil
}
