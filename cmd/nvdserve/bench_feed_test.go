package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/gen"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// The feed-latency benchmarks measure what a client waits on POST
// /feed — the paper-facing cost the commit queue exists to bound. Each
// iteration posts a one-entry modification; the three variants differ
// only in what compaction does:
//
//	NoCompact          the log grows, no checkpoint is ever written —
//	                   the floor an ingest can cost.
//	CompactSync        every ingest trips compaction and pays the full
//	                   checkpoint write inline: a server with no
//	                   committer attached, the pre-commit-queue cost.
//	CompactBackground  every ingest trips compaction but only seals
//	                   and enqueues; the committer pays the write.
//
// Besides ns/op (which averages away the stalls), each benchmark
// reports the p50 and p99 of the per-request wall time — the
// acceptance criterion is CompactBackground's p99 staying within ~2x
// of NoCompact's, where CompactSync sits at the full checkpoint cost.
//
// The benchmarks measure the latency of an *isolated* ingest — the
// stall a feed client observes, which is what the commit queue exists
// to remove — so the background variant drains the commit queue
// between iterations, outside the timed window. Feed updates arrive
// minutes apart in production; without the drain, a single-CPU host
// measures the committer contending for the core inside the next
// iteration (a throughput ceiling no queue can lift), not the request
// stall. On multicore hosts the commit overlaps ingests as well.
func benchFeedIngest(b *testing.B, compactEvery int, background bool) {
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
	dir := b.TempDir()
	str, _, _, _, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer str.Close()
	srv := newServer(opts)
	srv.persist = str
	srv.compactEvery = compactEvery
	if background {
		srv.committer = store.NewCommitter(str)
		defer srv.committer.Close()
	}
	if err := srv.load(context.Background(), snap); err != nil {
		b.Fatal(err)
	}
	handler := srv.handler()

	// Each post toggles one entry's description, so every iteration
	// carries exactly one modified entry relative to the served
	// snapshot.
	target := snap.Entries[0]
	bodyFor := func(i int) *bytes.Reader {
		mod := target.Clone()
		mod.Descriptions[0].Value += fmt.Sprintf(" update %d", i)
		update := &nvdclean.Snapshot{
			CapturedAt: snap.CapturedAt.Add(time.Duration(i+1) * time.Minute),
			Entries:    []*nvdclean.Entry{mod},
		}
		var buf bytes.Buffer
		if err := nvdclean.WriteFeed(&buf, update); err != nil {
			b.Fatal(err)
		}
		return bytes.NewReader(buf.Bytes())
	}

	drain := func() {
		if srv.committer == nil {
			return
		}
		for srv.committer.Stats().Pending || str.SealedSegments() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}

	durs := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodyFor(i)
		req := httptest.NewRequest("POST", "/feed", body)
		w := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(w, req)
		durs = append(durs, time.Since(start))
		if w.Code != 200 {
			b.Fatalf("POST /feed = %d: %s", w.Code, w.Body.String())
		}
		b.StopTimer()
		drain()
		b.StartTimer()
	}
	b.StopTimer()
	slices.Sort(durs)
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(durs)-1))
		return float64(durs[idx].Nanoseconds())
	}
	b.ReportMetric(quantile(0.50), "p50-ns")
	b.ReportMetric(quantile(0.99), "p99-ns")
}

// BenchmarkFeedIngestNoCompact is the floor: ingest with the log
// growing and no checkpoint ever written.
func BenchmarkFeedIngestNoCompact(b *testing.B) {
	benchFeedIngest(b, 0, false)
}

// BenchmarkFeedIngestCompactSync pays the full checkpoint write inside
// every POST /feed (no committer, compactEvery=1) — the stall the
// commit queue removes.
func BenchmarkFeedIngestCompactSync(b *testing.B) {
	benchFeedIngest(b, 1, false)
}

// BenchmarkFeedIngestCompactBackground seals and enqueues on every
// POST /feed; the background committer pays the write.
func BenchmarkFeedIngestCompactBackground(b *testing.B) {
	benchFeedIngest(b, 1, true)
}
