package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one replayed operation
// share op; parent is the index of the enclosing span, -1 for the op's
// root span.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	op         int32
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	cur   int32
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// do records fn as a span named name under the current span.
func (t *tracer) do(name string, fn func()) {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: t.cur, op: t.op})
	t.cur = i
	fn()
	t.spans[i].end = t.now()
	t.cur = t.spans[i].parent
}

// opDo records fn as the root span of a new operation.
func (t *tracer) opDo(name string, fn func()) {
	t.op++
	t.do(name, fn)
}

// standIn reports whether a span times the benchmark's copy of work
// private to cmd/nvdserve (the ID map, the upsert delta, the stale-ID
// set, JSON encoding), named nvdserve.*, rather than a call into a
// module's public function.
func standIn(name string) bool { return strings.HasPrefix(name, "nvdserve.") }

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls       int
	total, self time.Duration
}

func (l layerStat) meanMs() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.total) / 1e6 / float64(l.calls)
}

// analysis is the trace reduced per op kind (the root span's name).
type analysis struct {
	// layers[kind][name] totals the spans of that name inside ops of
	// that kind; self time is duration minus the part child spans
	// cover. kind "" totals every op.
	layers map[string]map[string]layerStat
	// coverage[kind] is the time module spans account for (their self
	// time) over the summed op spans; kind "" is over every op.
	// Stand-in spans are left out of the numerator.
	coverage map[string]float64
	// opMs[kind] lists each op's duration.
	opMs map[string][]float64
}

func (t *tracer) analyze() analysis {
	child := make([]int64, len(t.spans))
	kind := make(map[int32]string)
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		} else {
			kind[s.op] = s.name
		}
	}
	a := analysis{layers: map[string]map[string]layerStat{}, coverage: map[string]float64{}, opMs: map[string][]float64{}}
	num, den := map[string]int64{}, map[string]int64{}
	for i, s := range t.spans {
		d := s.end - s.start
		for _, k := range []string{"", kind[s.op]} {
			if a.layers[k] == nil {
				a.layers[k] = map[string]layerStat{}
			}
			l := a.layers[k][s.name]
			l.calls++
			l.total += time.Duration(d)
			l.self += time.Duration(d - child[i])
			a.layers[k][s.name] = l
			switch {
			case s.parent < 0:
				den[k] += d
			case !standIn(s.name):
				num[k] += d - child[i]
			}
		}
		if s.parent < 0 {
			a.opMs[s.name] = append(a.opMs[s.name], float64(d)/1e6)
		}
	}
	for k := range den {
		a.coverage[k] = ratio(float64(num[k]), float64(den[k]))
	}
	return a
}

// write saves every span as a tab-separated line: op, span index,
// parent index, name, start and end in ns since the run's epoch.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "op\tspan\tparent\tname\tstart_ns\tend_ns\n")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders the per-layer totals, largest self time first.
func selfTable(layers map[string]layerStat) []string {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].self > layers[names[j]].self })
	out := []string{fmt.Sprintf("  %-30s %8s %12s %12s", "span", "calls", "total_ms", "self_ms")}
	for _, n := range names {
		l := layers[n]
		out = append(out, fmt.Sprintf("  %-30s %8d %12.3f %12.3f", n, l.calls, float64(l.total)/1e6, float64(l.self)/1e6))
	}
	return out
}
