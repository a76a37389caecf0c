package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/gen"
	"nvdclean/internal/predict"
)

// The read-path benchmarks measure what a client waits on GET under
// concurrent load — the cost the pre-encoded caches exist to remove.
// Each variant drives the same in-process handler with readClients
// goroutines sharing an atomic work counter, so the numbers include
// the lock/CAS traffic a real fan-in pays, not just a single encode:
//
//	CVEBaseline       /cve/{id} through renderHandler: every request
//	                  renders the view and marshals it — the old cost.
//	CVECached         /cve/{id} from the per-generation byte cache: one
//	                  encode at first hit, then copies.
//	CVEConditional    /cve/{id} with If-None-Match matching the current
//	                  generation — a 304, no body at all.
//	QueryBaseline     a broad /query through renderHandler: index scan
//	                  plus marshal per request.
//	QueryCached       the same /query from the canonical-key LRU.
//
// Besides ns/op, each reports p50/p99 of per-request wall time. The
// acceptance criterion (PERFORMANCE.md, BENCH_5.json) is cached p50 at
// least 2x faster than baseline for both endpoints, conditional faster
// still.
const readClients = 8

// benchReadServer builds a loaded in-memory server once per benchmark.
// LR-only: read latency does not depend on which models trained.
func benchReadServer(b *testing.B) (*server, http.Handler) {
	snap, truth, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		b.Fatal(err)
	}
	opts := nvdclean.Options{
		Transport:   nvdclean.NewWebCorpus(snap, truth.Disclosure).Transport(),
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	}
	srv := newServer(opts)
	if err := srv.load(context.Background(), snap); err != nil {
		b.Fatal(err)
	}
	return srv, srv.handler()
}

// benchServe drives b.N requests through handler from readClients
// goroutines. mkReq builds the i-th request; every response must carry
// wantCode. Per-request wall times are merged and reported as p50/p99.
func benchServe(b *testing.B, handler http.Handler, mkReq func(i int) *http.Request, wantCode int) {
	var next atomic.Int64
	durs := make([][]time.Duration, readClients)
	var wg sync.WaitGroup
	var bad atomic.Int64
	b.ResetTimer()
	for g := 0; g < readClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, b.N/readClients+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					break
				}
				req := mkReq(i)
				w := httptest.NewRecorder()
				start := time.Now()
				handler.ServeHTTP(w, req)
				mine = append(mine, time.Since(start))
				if w.Code != wantCode {
					bad.Store(int64(w.Code))
					break
				}
			}
			durs[g] = mine
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	if code := bad.Load(); code != 0 {
		b.Fatalf("got status %d, want %d", code, wantCode)
	}
	all := slices.Concat(durs...)
	slices.Sort(all)
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(all)-1))
		return float64(all[idx].Nanoseconds())
	}
	b.ReportMetric(quantile(0.50), "p50-ns")
	b.ReportMetric(quantile(0.99), "p99-ns")
}

// cveTargets picks a rotating set of IDs so the benchmark exercises
// more than one hot map slot.
func cveTargets(srv *server) []string {
	st := srv.cur.Load()
	ids := make([]string, 0, 16)
	for _, e := range st.res.Cleaned.Entries[:min(16, len(st.res.Cleaned.Entries))] {
		ids = append(ids, e.ID)
	}
	return ids
}

// renderHandler serves /cve/{id} and /query the way the daemon did
// before per-generation response caches: through the same middleware,
// lookup and validator, but rendering and marshaling the body on every
// request. It is the baseline the cached read path is judged against
// and exists only here.
func renderHandler(srv *server) http.Handler {
	mux := http.NewServeMux()
	i := srv.obs.instrument
	mux.HandleFunc("GET /cve/{id}", i("/cve/{id}", "GET", func(w http.ResponseWriter, r *http.Request) {
		st := srv.cur.Load()
		e, ok := st.byID[r.PathValue("id")]
		if !ok {
			writeError(w, http.StatusNotFound, "no entry %s", r.PathValue("id"))
			return
		}
		serveRead(w, st.etagFor(false), encodeJSON(st.view(e), false))
	}))
	mux.HandleFunc("GET /query", i("/query", "GET", func(w http.ResponseWriter, r *http.Request) {
		st := srv.cur.Load()
		p, err := parseQueryParams(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		serveRead(w, st.etagFor(p.pretty), encodeJSON(st.queryIndexed(p), p.pretty))
	}))
	return mux
}

// BenchmarkReadCVEBaseline renders and marshals the view on every
// request (renderHandler) — the per-request-marshal floor the cache is
// judged against.
func BenchmarkReadCVEBaseline(b *testing.B) {
	srv, _ := benchReadServer(b)
	ids := cveTargets(srv)
	benchServe(b, renderHandler(srv), func(i int) *http.Request {
		return httptest.NewRequest("GET", "/cve/"+ids[i%len(ids)], nil)
	}, http.StatusOK)
}

// BenchmarkReadCVECached serves the same requests from the
// per-generation pre-encoded byte cache.
func BenchmarkReadCVECached(b *testing.B) {
	srv, handler := benchReadServer(b)
	ids := cveTargets(srv)
	benchServe(b, handler, func(i int) *http.Request {
		return httptest.NewRequest("GET", "/cve/"+ids[i%len(ids)], nil)
	}, http.StatusOK)
}

// BenchmarkReadCVEConditional sends If-None-Match with the current
// generation's validator: the whole response is a 304.
func BenchmarkReadCVEConditional(b *testing.B) {
	srv, handler := benchReadServer(b)
	ids := cveTargets(srv)
	etag := srv.cur.Load().etagFor(false)
	benchServe(b, handler, func(i int) *http.Request {
		req := httptest.NewRequest("GET", "/cve/"+ids[i%len(ids)], nil)
		req.Header.Set("If-None-Match", etag)
		return req
	}, http.StatusNotModified)
}

// readQueryPath is a broad scan — most of the snapshot matches, so the
// per-request marshal the cache removes is substantial.
const readQueryPath = "/query?severity=High&limit=200"

// BenchmarkReadQueryBaseline scans the index and marshals the response
// on every request (renderHandler).
func BenchmarkReadQueryBaseline(b *testing.B) {
	srv, _ := benchReadServer(b)
	benchServe(b, renderHandler(srv), func(i int) *http.Request {
		return httptest.NewRequest("GET", readQueryPath, nil)
	}, http.StatusOK)
}

// BenchmarkReadQueryCached serves the same query from the
// canonical-key LRU.
func BenchmarkReadQueryCached(b *testing.B) {
	_, handler := benchReadServer(b)
	benchServe(b, handler, func(i int) *http.Request {
		return httptest.NewRequest("GET", readQueryPath, nil)
	}, http.StatusOK)
}

// BenchmarkMetricsScrape measures one full /metrics render under the
// same concurrent-client harness: every registered family snapshotted,
// sampled, sorted, and written. This is the per-scrape cost a
// Prometheus server imposes at its scrape interval — it should sit in
// the tens of microseconds, invisible next to a 10s+ interval.
func BenchmarkMetricsScrape(b *testing.B) {
	srv, handler := benchReadServer(b)
	// Populate labeled children the way a live server would have them:
	// a few hits per route so the scrape renders realistic series.
	for _, id := range cveTargets(srv) {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest("GET", "/cve/"+id, nil))
	}
	for _, path := range []string{readQueryPath, "/stats", "/readyz", "/metrics"} {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	}
	benchServe(b, handler, func(i int) *http.Request {
		return httptest.NewRequest("GET", "/metrics", nil)
	}, http.StatusOK)
}

// benchBareHandler builds the same mux as server.handler but without
// the metrics middleware — the control for measuring instrumentation
// overhead inside one benchmark invocation, where host-speed drift
// between runs cannot pollute the comparison.
func benchBareHandler(srv *server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cve/{id}", srv.handleCVE)
	mux.HandleFunc("GET /query", srv.handleQuery)
	return mux
}

// BenchmarkReadCVECachedBare is BenchmarkReadCVECached minus the
// middleware. The p50 gap between the two, taken from the same run, is
// the per-request cost of instrumentation.
func BenchmarkReadCVECachedBare(b *testing.B) {
	srv, _ := benchReadServer(b)
	ids := cveTargets(srv)
	benchServe(b, benchBareHandler(srv), func(i int) *http.Request {
		return httptest.NewRequest("GET", "/cve/"+ids[i%len(ids)], nil)
	}, http.StatusOK)
}

// BenchmarkReadQueryCachedBare is BenchmarkReadQueryCached minus the
// middleware.
func BenchmarkReadQueryCachedBare(b *testing.B) {
	srv, _ := benchReadServer(b)
	benchServe(b, benchBareHandler(srv), func(i int) *http.Request {
		return httptest.NewRequest("GET", readQueryPath, nil)
	}, http.StatusOK)
}
