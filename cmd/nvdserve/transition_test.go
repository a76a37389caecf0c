package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/gen"
)

// transitionFacts is what one generation transition leaves visible to
// clients and scrapers: the /stats generation fields and how many
// ingest swaps the nvdserve_ingest_swap_seconds histogram counted.
type transitionFacts struct {
	generation      int
	incremental     bool
	engineWarmStart bool
	warmRestart     bool
	swaps           float64
}

// observeTransition reads a daemon's transition facts and the strong
// validator its reads carry.
func observeTransition(t *testing.T, d *daemon) (transitionFacts, string) {
	t.Helper()
	var stats map[string]any
	if code := d.get(t, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	gen, _ := stats["generation"].(float64)
	facts := transitionFacts{
		generation:      int(gen),
		incremental:     stats["incremental"] == true,
		engineWarmStart: stats["engineWarmStart"] == true,
		warmRestart:     stats["warmRestart"] == true,
	}
	code, _, metrics := d.getRaw(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	fams := parsePromText(t, metrics)
	facts.swaps = histCount("nvdserve_ingest_swap_seconds", fams["nvdserve_ingest_swap_seconds"])
	code, hdr, _ := d.getRaw(t, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	return facts, hdr.Get("ETag")
}

// postFeedTo POSTs update to a daemon's /feed (query is appended to the
// path, e.g. "?mode=replace") and returns the summary.
func postFeedTo(t *testing.T, d *daemon, query string, body []byte) map[string]any {
	t.Helper()
	resp, err := http.Post(d.base+"/feed"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var summary map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /feed%s = %d %v", query, resp.StatusCode, summary)
	}
	return summary
}

// awaitDaemon polls until cond holds on d, or fails the test.
func awaitDaemon(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestGenerationTransitions pins the visible facts of every way a
// daemon moves to a new serving generation — cold load, POST /feed,
// warm boot with and without a net log delta, follower bootstrap and
// follower fold — over real processes and sockets. Each path must
// leave the /stats generation fields, the store-position ETag form
// ("w<seq>-<off>") and the ingest-swap histogram count exactly as
// listed: the count moves on POST /feed and fold, never on a boot
// replay.
func TestGenerationTransitions(t *testing.T) {
	if testing.Short() {
		t.Skip("exec test skipped in -short")
	}
	bin := buildNvdserve(t)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	snap, _, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var update bytes.Buffer
	if err := nvdclean.WriteFeed(&update, feedUpdate(t, snap)); err != nil {
		t.Fatal(err)
	}
	// The net-empty path boots from a feed file, so a mode=replace POST
	// of the same bytes undoes exactly what the upsert changed.
	var full bytes.Buffer
	if err := nvdclean.WriteFeed(&full, snap); err != nil {
		t.Fatal(err)
	}
	feedPath := filepath.Join(t.TempDir(), "feed.json")
	if err := os.WriteFile(feedPath, full.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	pDir := filepath.Join(t.TempDir(), "primary")
	fDir := filepath.Join(t.TempDir(), "replica")
	eDir := filepath.Join(t.TempDir(), "net-empty")

	var p, f *daemon
	var emptyETag string
	steps := []struct {
		name string
		// run performs the transition and returns the daemon to observe.
		run  func() *daemon
		want transitionFacts
		// sameETagAs names an earlier step whose validator this one
		// must carry unchanged ("" for none).
		sameETagAs string
	}{
		{
			name: "cold load",
			run: func() *daemon {
				p = startDaemon(t, ctx, bin, "-demo", "tiny", "-data-dir", pDir)
				return p
			},
			want: transitionFacts{generation: 1},
		},
		{
			name: "follower bootstrap",
			run: func() *daemon {
				f = startDaemon(t, ctx, bin, "-demo", "tiny", "-data-dir", fDir,
					"-follow", p.base, "-follow-poll", "50ms")
				awaitDaemon(t, "replica readiness", func() bool {
					var probe map[string]any
					return f.get(t, "/readyz", &probe) == http.StatusOK
				})
				return f
			},
			want:       transitionFacts{generation: 1, engineWarmStart: true, warmRestart: true},
			sameETagAs: "cold load",
		},
		{
			name: "POST /feed",
			run: func() *daemon {
				postFeedTo(t, p, "", update.Bytes())
				return p
			},
			want: transitionFacts{generation: 2, incremental: true, engineWarmStart: true, swaps: 1},
		},
		{
			name: "follower fold",
			run: func() *daemon {
				awaitDaemon(t, "replica fold", func() bool {
					var stats map[string]any
					f.get(t, "/stats", &stats)
					return stats["generation"] == 2.0
				})
				return f
			},
			want:       transitionFacts{generation: 2, incremental: true, engineWarmStart: true, swaps: 1},
			sameETagAs: "POST /feed",
		},
		{
			name: "warm boot with logged deltas",
			run: func() *daemon {
				f.shutdown(t)
				p.shutdown(t)
				p = startDaemon(t, ctx, bin, "-demo", "tiny", "-data-dir", pDir)
				return p
			},
			want:       transitionFacts{generation: 1, incremental: true, engineWarmStart: true, warmRestart: true},
			sameETagAs: "POST /feed",
		},
		{
			name: "warm boot whose logged deltas net to empty",
			run: func() *daemon {
				p.shutdown(t)
				d := startDaemon(t, ctx, bin, "-feed", feedPath, "-data-dir", eDir)
				// The upsert adds one entry and edits another; replacing
				// with the boot feed removes the one and reverts the other.
				if s := postFeedTo(t, d, "", update.Bytes()); s["added"] != 1.0 || s["modified"] != 1.0 {
					t.Fatalf("upsert summary %v, want one added and one modified entry", s)
				}
				s := postFeedTo(t, d, "?mode=replace", full.Bytes())
				if s["removed"] != 1.0 || s["added"] != 0.0 || s["modified"] != 1.0 {
					t.Fatalf("replace summary %v, want the upsert undone", s)
				}
				_, emptyETag = observeTransition(t, d)
				d.shutdown(t)
				return startDaemon(t, ctx, bin, "-feed", feedPath, "-data-dir", eDir)
			},
			want: transitionFacts{generation: 1, incremental: true, engineWarmStart: true, warmRestart: true},
		},
	}

	etagForm := regexp.MustCompile(`^"w[0-9]+-[0-9]+"$`)
	etags := map[string]string{}
	for _, s := range steps {
		d := s.run()
		got, etag := observeTransition(t, d)
		if got != s.want {
			t.Errorf("%s: facts %+v, want %+v", s.name, got, s.want)
		}
		if !etagForm.MatchString(etag) {
			t.Errorf("%s: ETag %q is not a store-position validator", s.name, etag)
		}
		if s.sameETagAs != "" && etag != etags[s.sameETagAs] {
			t.Errorf("%s: ETag %q, want %s's %q", s.name, etag, s.sameETagAs, etags[s.sameETagAs])
		}
		etags[s.name] = etag
	}
	if last := steps[len(steps)-1].name; etags[last] != emptyETag {
		t.Errorf("net-empty warm boot: ETag %q, want the pre-restart %q", etags[last], emptyETag)
	}
}
