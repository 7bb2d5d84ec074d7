package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition, keyed by the
// series as written ("name" or `name{label="v",...}`).
type promSample map[string]float64

// parseProm reads the text exposition format. Comment lines and lines
// that do not end in a number are skipped: the benchmark reads only the
// series it knows, and a series the server no longer exports is simply
// absent from the map.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// get returns a series' value and whether the server exported it.
func (p promSample) get(series string) (float64, bool) {
	v, ok := p[series]
	return v, ok
}

// delta is after−before for a series exported in both scrapes.
func delta(before, after promSample, series string) (float64, bool) {
	a, ok1 := after.get(series)
	b, ok2 := before.get(series)
	if !ok1 || !ok2 {
		return 0, false
	}
	return a - b, true
}

// ratioDelta is Δnum ÷ Δden over two scrapes; absent when either series
// is missing or the denominator did not move.
func ratioDelta(before, after promSample, num, den string) (float64, bool) {
	n, ok1 := delta(before, after, num)
	d, ok2 := delta(before, after, den)
	if !ok1 || !ok2 || d == 0 {
		return 0, false
	}
	return n / d, true
}
