package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// counters are the daemon's own /stats and /metrics numbers the
// per-layer metrics difference across a run.
type counters struct {
	entryHits, entryMisses float64
	queryHits, queryMisses float64
	queryEvictions         float64
	notModified            float64
	entries                float64
	cveSum, cveCount       float64 // request-duration histogram, /cve/{id}, all codes
	querySum, queryCount   float64 // same for /query
	swapSum, swapCount     float64 // nvdserve_ingest_swap_seconds
	fetches, fetchBytes    float64 // follower /stats replication block
	bootstraps             float64
}

func (a counters) minus(b counters) counters {
	return counters{
		entryHits: a.entryHits - b.entryHits, entryMisses: a.entryMisses - b.entryMisses,
		queryHits: a.queryHits - b.queryHits, queryMisses: a.queryMisses - b.queryMisses,
		queryEvictions: a.queryEvictions - b.queryEvictions,
		notModified:    a.notModified - b.notModified,
		entries:        a.entries,
		cveSum:         a.cveSum - b.cveSum, cveCount: a.cveCount - b.cveCount,
		querySum: a.querySum - b.querySum, queryCount: a.queryCount - b.queryCount,
		swapSum: a.swapSum - b.swapSum, swapCount: a.swapCount - b.swapCount,
		fetches: a.fetches - b.fetches, fetchBytes: a.fetchBytes - b.fetchBytes,
		bootstraps: a.bootstraps - b.bootstraps,
	}
}

// dig walks a decoded JSON object along keys and returns the number
// there (0 when absent).
func dig(v any, keys ...string) float64 {
	for _, k := range keys {
		m, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = m[k]
	}
	f, _ := v.(float64)
	return f
}

// scrape reads base's /stats and /metrics.
func scrape(client *http.Client, base string) (counters, error) {
	var c counters
	code, _, body, err := get(client, base+"/stats")
	if err != nil || code != http.StatusOK {
		return c, fmt.Errorf("GET /stats: %d %v", code, err)
	}
	var st any
	if err := json.Unmarshal(body, &st); err != nil {
		return c, fmt.Errorf("decoding /stats: %w", err)
	}
	c.entryHits = dig(st, "readCache", "entry", "hits")
	c.entryMisses = dig(st, "readCache", "entry", "misses")
	c.queryHits = dig(st, "readCache", "query", "hits")
	c.queryMisses = dig(st, "readCache", "query", "misses")
	c.queryEvictions = dig(st, "readCache", "query", "evictions")
	c.notModified = dig(st, "readCache", "conditional", "notModified")
	c.entries = dig(st, "entries")
	c.fetches = dig(st, "replication", "fetches")
	c.fetchBytes = dig(st, "replication", "fetchBytes")
	c.bootstraps = dig(st, "replication", "bootstraps")

	code, _, body, err = get(client, base+"/metrics")
	if err != nil || code != http.StatusOK {
		return c, fmt.Errorf("GET /metrics: %d %v", code, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, `nvdserve_http_request_duration_seconds_sum{route="/cve/{id}"`):
			c.cveSum += v
		case strings.HasPrefix(name, `nvdserve_http_request_duration_seconds_count{route="/cve/{id}"`):
			c.cveCount += v
		case strings.HasPrefix(name, `nvdserve_http_request_duration_seconds_sum{route="/query"`):
			c.querySum += v
		case strings.HasPrefix(name, `nvdserve_http_request_duration_seconds_count{route="/query"`):
			c.queryCount += v
		case name == "nvdserve_ingest_swap_seconds_sum":
			c.swapSum = v
		case name == "nvdserve_ingest_swap_seconds_count":
			c.swapCount = v
		}
	}
	return c, sc.Err()
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
