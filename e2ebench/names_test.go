package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the printed names must
// match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
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

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	pairs := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, fmt.Sprintf("%s %s %s %v", d.Name, d.Unit, d.Better, d.Bound))
		}
		return out
	}
	var e2e, layer, names []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, fmt.Sprintf("%s %s %s %v", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, fmt.Sprintf("%s %s %s 0", m.Name, m.Unit, m.Better))
	}
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	check := func(what string, got, want []string) {
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s printed: %v\nBENCHMARK.json: %v", what, got, want)
		}
	}
	check("end-to-end metrics", pairs(endToEnd), e2e)
	check("per-layer metrics", pairs(perLayer), layer)
	check("workloads", workloadNames(), names)
}

// TestDrivesOnlyKeptEntryPoints pins the benchmark to entry points that
// survive deleting the inference plane or replacing the nn/tensor
// inference path: it imports none of those packages and passes no
// -plane flag to dqnserve.
func TestDrivesOnlyKeptEntryPoints(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			for _, banned := range []string{"internal/plane", "internal/nn", "internal/tensor"} {
				if strings.HasSuffix(p, banned) {
					t.Errorf("%s imports %s", f, p)
				}
			}
		}
		ast.Inspect(af, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, _ := strconv.Unquote(lit.Value); strings.HasPrefix(s, "-plane") {
					t.Errorf("%s: passes %s to dqnserve", fset.Position(lit.Pos()), s)
				}
			}
			return true
		})
	}
}
