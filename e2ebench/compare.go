package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// resultSet is the untraced end-to-end results of one side of a
// comparison: per workload, per metric, the values of every run.
type resultSet struct {
	nproc, gomaxprocs int
	goVersion         string
	values            map[string]map[string][]float64
	seeds             map[string][]uint64
	// spreads are the spreads a recorded.json states; a results
	// directory has none and its spreads are computed from values.
	spreads map[string]map[string]float64
}

// recordedSet is the measured part of recorded.json: the host a
// reference set was measured on and, per workload, each end-to-end
// metric's median and spread over the seeds listed. "e2ebench summarize"
// prints it for a results directory.
type recordedSet struct {
	NumCPU     int                           `json:"nproc"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	GoVersion  string                        `json:"go_version"`
	Medians    map[string]map[string]float64 `json:"medians"`
	Spreads    map[string]map[string]float64 `json:"spreads"`
	Seeds      map[string][]uint64           `json:"seeds"`
}

// median is a metric's median on this side.
func (s *resultSet) median(workload, metric string) float64 {
	return medianOf(s.values[workload][metric])
}

// spreadOf is a metric's run-to-run spread on this side: as recorded, or
// computed from at least two runs; NaN otherwise.
func (s *resultSet) spreadOf(workload, metric string) float64 {
	if v, ok := s.spreads[workload][metric]; ok {
		return v
	}
	if vs := s.values[workload][metric]; len(vs) >= 2 {
		return spread(vs)
	}
	return math.NaN()
}

// loadSet reads a directory of result records or a recorded.json file.
func loadSet(path string) (*resultSet, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{values: map[string]map[string][]float64{}, seeds: map[string][]uint64{}}
	add := func(workload, metric string, v float64) {
		if set.values[workload] == nil {
			set.values[workload] = map[string][]float64{}
		}
		set.values[workload][metric] = append(set.values[workload][metric], v)
	}
	if !fi.IsDir() {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rs recordedSet
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set.nproc, set.gomaxprocs, set.goVersion = rs.NumCPU, rs.GOMAXPROCS, rs.GoVersion
		set.spreads, set.seeds = rs.Spreads, rs.Seeds
		for w, ms := range rs.Medians {
			for m, v := range ms {
				add(w, m, v)
			}
		}
		return set, nil
	}
	files, err := filepath.Glob(filepath.Join(path, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rc record
		if err := json.Unmarshal(data, &rc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if set.nproc == 0 {
			set.nproc, set.gomaxprocs, set.goVersion = rc.NumCPU, rc.GOMAXPROCS, rc.GoVersion
		}
		if rc.NumCPU != set.nproc || rc.GOMAXPROCS != set.gomaxprocs {
			return nil, fmt.Errorf("%s: recorded at nproc %d / GOMAXPROCS %d, the rest of %s at %d / %d",
				f, rc.NumCPU, rc.GOMAXPROCS, path, set.nproc, set.gomaxprocs)
		}
		set.seeds[rc.Workload] = append(set.seeds[rc.Workload], rc.Seed)
		for m, v := range rc.Result.Metrics {
			add(rc.Workload, m, v.Value)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	for _, s := range set.seeds {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return set, nil
}

// compareSets prints, for every end-to-end metric, the median and the
// run-to-run spread on both sides and the change of the median, marking
// a change or a spread beyond the metric's bound. Sets recorded at
// different core counts are refused: their numbers do not measure the
// same thing.
func compareSets(a, b *resultSet) error {
	if a.nproc != b.nproc || a.gomaxprocs != b.gomaxprocs {
		return fmt.Errorf("refusing to compare: first set recorded at nproc %d / GOMAXPROCS %d, second at %d / %d",
			a.nproc, a.gomaxprocs, b.nproc, b.gomaxprocs)
	}
	fmt.Printf("nproc %d, GOMAXPROCS %d (%s vs %s)\n", a.nproc, a.gomaxprocs, a.goVersion, b.goVersion)
	var names []string
	for w := range a.values {
		if _, ok := b.values[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("no workload appears in both sets")
	}
	fmt.Printf("  %-18s %14s %7s %14s %7s %-6s %8s %6s\n", "metric", "median", "spread", "median", "spread", "unit", "change", "bound")
	for _, w := range names {
		fmt.Printf("%s (runs %d vs %d)\n", w, len(a.seeds[w]), len(b.seeds[w]))
		for _, d := range endToEnd {
			if len(a.values[w][d.Name]) == 0 || len(b.values[w][d.Name]) == 0 {
				continue
			}
			ma, mb := a.median(w, d.Name), b.median(w, d.Name)
			sa, sb := a.spreadOf(w, d.Name), b.spreadOf(w, d.Name)
			change := (mb - ma) / ma
			mark := ""
			// A spread beyond the bound voids either side; a change
			// beyond it in the worse direction is a regression.
			if sa > d.Bound || sb > d.Bound {
				mark = "  SPREAD"
			}
			if (d.Better == "lower" && change > d.Bound) || (d.Better == "higher" && -change > d.Bound) {
				mark += "  WORSE"
			}
			fmt.Printf("  %-18s %14.6g %7.3f %14.6g %7.3f %-6s %+7.2f%% %6.2f%s\n", d.Name, ma, sa, mb, sb, d.Unit,
				100*change, d.Bound, mark)
		}
	}
	return nil
}

// summarize prints a results directory as recorded.json's measured
// fields: per workload, each end-to-end metric's median and spread, and
// the seeds they cover.
func summarize(set *resultSet) error {
	rs := recordedSet{NumCPU: set.nproc, GOMAXPROCS: set.gomaxprocs, GoVersion: set.goVersion,
		Medians: map[string]map[string]float64{}, Spreads: map[string]map[string]float64{}, Seeds: set.seeds}
	for w := range set.values {
		rs.Medians[w], rs.Spreads[w] = map[string]float64{}, map[string]float64{}
		for _, d := range endToEnd {
			if len(set.values[w][d.Name]) == 0 {
				continue
			}
			rs.Medians[w][d.Name] = set.median(w, d.Name)
			rs.Spreads[w][d.Name] = math.Round(set.spreadOf(w, d.Name)*1000) / 1000
		}
	}
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// compareCmd implements "e2ebench compare <set> <set>", where a set is a
// results directory or a recorded.json file, and "e2ebench summarize
// <results-dir>".
func compareCmd(cmd string, args []string) error {
	if cmd == "summarize" {
		if len(args) != 1 {
			return errors.New("usage: e2ebench summarize <results-dir>")
		}
		set, err := loadSet(args[0])
		if err != nil {
			return err
		}
		return summarize(set)
	}
	if len(args) != 2 {
		return errors.New("usage: e2ebench compare <results-dir|recorded.json> <results-dir|recorded.json>")
	}
	a, err := loadSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return err
	}
	return compareSets(a, b)
}
