package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the repository-root benchmark definition.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != names[i] || w.Why == "" {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, names[i])
		}
	}

	seen := map[string]string{}
	check := func(name, unit, better, scope string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("%s: malformed name or unit %q", name, unit)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("%s listed twice (%s, %s)", name, prev, scope)
		}
		seen[name] = scope
		info, ok := catalog[name]
		if !ok {
			t.Errorf("%s: not in the catalogue", name)
			return
		}
		if info.Unit != unit || info.Better != better || info.Scope != scope {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%s, the catalogue %s/%s/%s",
				name, unit, better, scope, info.Unit, info.Better, info.Scope)
		}
	}
	for _, m := range bj.EndToEnd {
		check(m.Name, m.Unit, m.Better, scopeEndToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		check(m.Name, m.Unit, m.Better, scopeLayer)
	}
	for name, info := range catalog {
		if info.Scope != scopeReport && seen[name] == "" {
			t.Errorf("%s: %s metric missing from BENCHMARK.json", name, info.Scope)
		}
	}
}
