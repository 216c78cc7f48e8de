package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// exposition is one scrape of a Prometheus text exposition: sample
// value by full series name, labels included exactly as printed
// (`http_request_ns_sum{route="/v1/apply"}`).
type exposition map[string]float64

// parseExposition reads the sample lines of a text exposition, skipping
// comments and blank lines.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after − before for every series of after; a series
// absent from before counts from 0. Gauges and quantile lines come out
// as differences too, so callers read deltas only of counters and of
// histogram _sum/_count series.
func delta(before, after exposition) exposition {
	out := exposition{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// meanOf returns the mean observation of histogram family name over the
// delta: Δ_sum / Δ_count, or 0 when nothing was observed. labels is the
// series' label set without braces ("" for none).
func (e exposition) meanOf(name, labels string) float64 {
	return ratio(e[series(name+"_sum", labels)], e[series(name+"_count", labels)])
}

// countOf returns the delta observation count of a histogram family.
func (e exposition) countOf(name, labels string) float64 {
	return e[series(name+"_count", labels)]
}

func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}
