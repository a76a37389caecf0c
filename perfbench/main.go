// Command perfbench is nvdserve's benchmark. It generates a seeded
// 10,000-CVE NVD snapshot and its traffic, starts the nvdserve binary
// built from the tree with deployment flags only (-addr, -feed,
// -data-dir, -follow), drives it over TCP with an open-loop generator,
// checks every answer, and prints the workload's metrics. With -trace 1
// it also replays the same seeded operations in-process, timing each
// call into the modules' public functions, and prints per-layer
// metrics instead of end-to-end ones.
//
// Run it from the repository root through perfbench/run.sh, which
// builds both binaries:
//
//	bash perfbench/run.sh --workload query-cold --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (name -> value and unit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured is a metric with the number of samples behind it (0 when
// it is a single reading).
type measured struct {
	metric
	n int
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Metric names of the final line: every end-to-end metric with
// -trace 0, every per-layer metric with -trace 1. Others print on the
// lines before it.
var (
	endToEnd = []string{"setup_s", "cve_p50_ms", "query_p50_ms", "cpu_cores", "setup_rss_mb"}
	perLayer = []string{
		"setup.load_feed_ms", "setup.clean_ms", "setup.build_index_ms", "setup.store_open_ms", "setup.restore_ms",
		"store.commits", "store.commit_ms", "store.commit_bytes",
		"store.index_match_us", "store.index_ords_per_result", "store.index_shards_loaded",
		"respcache.entry_hit_ratio", "respcache.query_hit_ratio", "respcache.query_evictions", "respcache.not_modified_ratio",
		"http.cve_server_mean_us", "http.query_server_mean_us",
		"trace.coverage",
	}
)

func main() {
	workload := flag.String("workload", "", "read-hot, query-cold or ingest-replicated")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 35, "measured seconds")
	trace := flag.Int("trace", 0, "1: replay in-process and report per-layer metrics")
	bin := flag.String("daemon", "", "nvdserve binary")
	work := flag.String("work", "", "scratch directory for inputs, stores and logs")
	flag.Parse()

	// One process, at most two connections, and no more threads than
	// CPUs: the generator shares the host with the daemons it measures.
	conns := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(conns)

	if *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -daemon, -work and a positive -seconds are required")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin: *bin, conns: conns, check: newChecker(), metrics: map[string]measured{},
	}
	r.work = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	err := r.execute()
	r.stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	names := endToEnd
	if r.trace {
		names = perLayer
	}
	out := result{Attempted: r.attempted, Failed: r.check.failed(), Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			os.Exit(1)
		}
		out.Metrics[n] = m.metric
	}
	for _, v := range r.check.violations {
		fmt.Println("violation:", v)
	}
	out.Correct = out.Failed == 0 && r.valid
	r.setN("error_frac", ratio(float64(out.Failed), float64(out.Attempted)), "ratio", out.Attempted)
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Correct = false
	}
	all := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		all = append(all, n)
	}
	sort.Strings(all)
	for _, n := range all {
		m := r.metrics[n]
		if m.n > 0 {
			fmt.Printf("metric %-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.n)
		} else {
			fmt.Printf("metric %-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Println(strings.Join(r.lines, "\n"))
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	if !out.Correct {
		// The work directory keeps the daemons' logs and stores for a
		// look at what failed.
		os.Exit(1)
	}
	_ = os.RemoveAll(r.work)
}
