package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"nvdclean/internal/store"
)

const (
	// setupBoots is how many times a run sets its daemons up; setup_s
	// is the median.
	setupBoots = 5
	// Offered loads, in requests per second.
	readHotRate   = 2000
	queryColdRate = 400
	replicaRate   = 200
	postInterval  = time.Second
	// lateBound marks a run invalid when the generator's p99 send
	// lateness (time a due request waited with its connection idle)
	// exceeds it: past that the schedule, not the daemon, sets latency.
	lateBound = 20 * time.Millisecond
	// replayReads caps the reads the traced replay repeats per stream.
	replayReads = 10000
	// finalSample is how many IDs beyond the posted ones the end-of-run
	// replica check compares.
	finalSample = 100
)

// run is one benchmark invocation.
type run struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	bin, work string
	conns     int

	in        *inputs
	check     *checker
	metrics   map[string]measured
	lines     []string
	attempted int
	valid     bool
	daemons   []*daemon

	// acks are the POST /feed answers the traced replay must agree
	// with; servedDelta is the serving daemon's counter change over the
	// measured window on a traced run.
	acks        []feedAck
	servedDelta counters
}

func (r *run) set(name string, v float64, unit string) { r.setN(name, v, unit, 0) }

// setN records a metric measured over n samples.
func (r *run) setN(name string, v float64, unit string, n int) {
	r.metrics[name] = measured{metric: metric{Value: v, Unit: unit}, n: n}
}

// boots sets the workload's daemons up setupBoots times with boot,
// which returns the daemons it started, each already ready. A set's
// setup time is the sum of its daemons' exec-to-ready times, and its
// set-up memory the sum of their peak RSS once ready. Every set but the
// last stops once ready. It sets setup_s and setup_rss_mb to the
// medians and returns the last set.
func (r *run) boots(boot func(i int) ([]*daemon, error)) ([]*daemon, error) {
	var setups, rss []float64
	for i := 0; ; i++ {
		ds, err := boot(i)
		if err != nil {
			return nil, err
		}
		total := 0.0
		each := make([]string, len(ds))
		for j, d := range ds {
			total += d.setup()
			each[j] = fmt.Sprintf("%.3f", d.setup())
		}
		setups = append(setups, total)
		rss = append(rss, peakMiB(ds))
		r.line("set-up %d: %.3f s (%s s per daemon), peak RSS %.1f MiB", i, total, strings.Join(each, " + "), rss[i])
		if i == setupBoots-1 {
			r.setN("setup_s", median(setups), "s", len(setups))
			r.setN("setup_rss_mb", median(rss), "MiB", len(rss))
			return ds, nil
		}
		for j := len(ds) - 1; j >= 0; j-- {
			ds[j].stop()
		}
	}
}

// peakMiB sums the daemons' peak RSS.
func peakMiB(ds []*daemon) float64 {
	s := 0.0
	for _, d := range ds {
		s += d.procField("status", "VmHWM") / 1024
	}
	return s
}

func (r *run) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *run) start(name string, args ...string) (*daemon, error) {
	d, err := startDaemon(r.bin, append([]string{"-addr", "127.0.0.1:0"}, args...), filepath.Join(r.work, name+".log"))
	if d != nil {
		r.daemons = append(r.daemons, d)
	}
	return d, err
}

func (r *run) stopAll() {
	for _, d := range r.daemons {
		d.stop()
	}
}

func (r *run) execute() error {
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	in, err := newInputs(r.seed, r.seconds+postsSlack)
	if err != nil {
		return err
	}
	r.in = in
	feed := filepath.Join(r.work, "feed.json")
	if err := os.WriteFile(feed, in.feed, 0o644); err != nil {
		return err
	}
	r.valid = true
	switch r.workload {
	case "read-hot":
		return r.readHot(feed)
	case "query-cold":
		return r.queryCold(feed)
	case "ingest-replicated":
		return r.ingestReplicated(feed)
	}
	return fmt.Errorf("unknown workload %q (want read-hot, query-cold or ingest-replicated)", r.workload)
}

// readHot cold-boots the daemon from the feed, fills its caches, and
// serves the zipf /cve + 128-key /query mix with half revalidations.
func (r *run) readHot(feed string) error {
	ds, err := r.boots(func(i int) ([]*daemon, error) {
		d, err := r.start(fmt.Sprintf("daemon-%d", i), "-feed", feed, "-data-dir", filepath.Join(r.work, fmt.Sprintf("data-%d", i)))
		return []*daemon{d}, err
	})
	if err != nil {
		return err
	}
	d := ds[0]
	cves := make([]string, len(r.in.ids))
	for i, id := range r.in.ids {
		cves[i] = "/cve/" + id
	}
	etag, _, err := r.fill(d.base, cves)
	if err != nil {
		return err
	}
	hotEtag, hotBytes, err := r.fill(d.base, r.in.hot)
	if err != nil {
		return err
	}
	if hotEtag != etag {
		return fmt.Errorf("cache fill saw ETags %s and %s, want one", etag, hotEtag)
	}
	r.line("hot /query grid: %d keys, %d response bytes", len(r.in.hot), hotBytes)
	readers := r.readers(d.base, "read-hot", r.in.hotMix(), etag, false)
	if err := r.serve(ds, d, readers, readHotRate, nil); err != nil || !r.trace {
		return err
	}
	rp := newReplayer()
	g, s, _, err := r.replaySetup(rp, "")
	if err != nil {
		return err
	}
	defer s.Close()
	if err := r.replayReads(rp, g, "read-hot", r.in.hotMix()); err != nil {
		return err
	}
	return r.reportTrace(rp, g)
}

// queryCold warm-restarts the daemon from a store the daemon itself
// prepared (checkpoint plus logged deltas, index shards lazy), fills
// its /query LRU with keys the window never asks for, and serves
// uniform /query keys far beyond the LRU plus uniform /cve.
func (r *run) queryCold(feed string) error {
	prep := filepath.Join(r.work, "prep")
	d, err := r.start("prep", "-feed", feed, "-data-dir", prep)
	if err != nil {
		return err
	}
	client := newClient()
	for _, p := range r.in.prep {
		if _, _, err := r.post(client, d.base, p); err != nil {
			return err
		}
	}
	d.stop()
	ds, err := r.boots(func(i int) ([]*daemon, error) {
		dir := filepath.Join(r.work, fmt.Sprintf("data-%d", i))
		if err := copyDir(prep, dir); err != nil {
			return nil, err
		}
		d, err := r.start(fmt.Sprintf("daemon-%d", i), "-feed", feed, "-data-dir", dir)
		return []*daemon{d}, err
	})
	if err != nil {
		return err
	}
	d = ds[0]
	etag, fillBytes, err := r.fill(d.base, r.in.fill)
	if err != nil {
		return err
	}
	if fillBytes <= queryCacheBytes {
		return fmt.Errorf("query LRU fill read %d bytes, not more than the %d-byte cache", fillBytes, queryCacheBytes)
	}
	r.line("query LRU fill: %d keys, %d response bytes", len(r.in.fill), fillBytes)
	readers := r.readers(d.base, "query-cold", r.in.coldMix(), etag, false)
	if err := r.serve(ds, d, readers, queryColdRate, nil); err != nil || !r.trace {
		return err
	}
	rp := newReplayer()
	_, s, g, err := r.replaySetup(rp, prep)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := r.replayReads(rp, g, "query-cold", r.in.coldMix()); err != nil {
		return err
	}
	return r.reportTrace(rp, g)
}

// serve runs readers against d (and extra alongside) for the run's
// seconds and sets the read, CPU and RSS metrics, plus d's counter
// deltas on a traced run.
func (r *run) serve(ds []*daemon, d *daemon, readers []*reader, rate float64, extra func(start, end time.Time)) error {
	c0, err := r.scrapeIf(d)
	if err != nil {
		return err
	}
	r.measure(ds, readers, rate, extra)
	if err := r.layerCounters(d, c0); err != nil {
		return err
	}
	r.reportReads(readers)
	return nil
}

// replaySetup replays a cold boot from the feed and a warm restart from
// a copy of warmFrom's store (of the replayed cold boot's when empty).
// It returns both generations and the cold boot's open store.
func (r *run) replaySetup(rp *replayer, warmFrom string) (cold *generation, s *store.Store, warm *generation, err error) {
	ctx := context.Background()
	coldDir := filepath.Join(r.work, "replay-cold")
	if cold, s, err = rp.coldBoot(ctx, r.in.feed, coldDir); err != nil {
		return nil, nil, nil, err
	}
	if warmFrom == "" {
		warmFrom = coldDir
	}
	warmDir := filepath.Join(r.work, "replay-warm")
	if err := copyDir(warmFrom, warmDir); err != nil {
		s.Close()
		return nil, nil, nil, err
	}
	warm, ws, err := rp.warmBoot(ctx, warmDir)
	if err != nil {
		s.Close()
		return nil, nil, nil, err
	}
	return cold, s, warm, ws.Close()
}

// fill reads every path once, untimed, so the window starts with the
// daemon's response caches holding them, and returns the generation's
// ETag and the response bytes read.
func (r *run) fill(base string, paths []string) (string, int, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	etags := map[string]bool{}
	total := 0
	var firstErr error
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			for i := c; i < len(paths); i += r.conns {
				code, etag, body, err := get(client, base+paths[i])
				mu.Lock()
				total += len(body)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("GET %s: status %d", paths[i], code)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				etags[etag] = true
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return "", 0, firstErr
	}
	if len(etags) != 1 {
		return "", 0, fmt.Errorf("cache fill saw %d ETags, want 1", len(etags))
	}
	for e := range etags {
		return e, total, nil
	}
	return "", 0, nil
}

// readers builds the open-loop read connections, each with its own
// seeded stream: one per generator connection, or one when track is set
// because the run's other connection posts.
func (r *run) readers(base, stream string, spec mixSpec, etag string, track bool) []*reader {
	n := r.conns
	if track {
		n = 1
	}
	out := make([]*reader, n)
	for c := range out {
		out[c] = &reader{
			client: newClient(), base: base, check: r.check,
			mix:      newReadMix(r.in, fmt.Sprintf("%s-%d", stream, c), spec),
			fixedTag: etag, etag: etag, track: track,
		}
	}
	return out
}

// measure runs the readers at rate requests per second in total (and
// extra, if any, on its own schedule) for the run's seconds. It sets
// cpu_cores from the daemons' CPU time over the window and rss_mb from
// their summed peak RSS at its end.
func (r *run) measure(daemons []*daemon, readers []*reader, rate float64, extra func(start, end time.Time)) {
	cpu := func() float64 {
		s := 0.0
		for _, d := range daemons {
			s += d.cpuSeconds()
		}
		return s
	}
	cpu0 := cpu()
	host0, steal0 := hostTicks()
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(time.Duration(r.seconds) * time.Second)
	interval := time.Duration(float64(time.Second) * float64(len(readers)) / rate)
	var wg sync.WaitGroup
	for c, rd := range readers {
		wg.Add(1)
		go func(c int, rd *reader) {
			defer wg.Done()
			rd.run(start, end, interval*time.Duration(c)/time.Duration(len(readers)), interval)
		}(c, rd)
	}
	if extra != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			extra(start, end)
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	r.set("cpu_cores", (cpu()-cpu0)/wall, "cores")
	r.set("rss_mb", peakMiB(daemons), "MiB")
	host1, steal1 := hostTicks()
	r.line("host CPU stolen by the hypervisor over the window: %.2f%%", 100*ratio(steal1-steal0, host1-host0))
}

// reportReads sets the read latency metrics and checks the generator
// kept its schedule.
func (r *run) reportReads(readers []*reader) {
	var cveT, queryT timing
	var late []float64
	bytesRead := 0
	for _, rd := range readers {
		cveT.ms = append(cveT.ms, rd.cve.ms...)
		queryT.ms = append(queryT.ms, rd.query.ms...)
		late = append(late, rd.lateness...)
		r.attempted += rd.attempted
		bytesRead += rd.bodyBytes
	}
	for _, t := range []struct {
		name string
		t    *timing
	}{{"cve", &cveT}, {"query", &queryT}} {
		s := t.t.sorted()
		r.setN(t.name+"_p50_ms", percentile(s, 50), "ms", len(s))
		r.setN(t.name+"_p99_ms", percentile(s, 99), "ms", len(s))
		r.line("%s", t.t.summary(t.name+" latency"))
		if tailPercentile(len(s)) < 99 {
			r.line("  note: %s_p99_ms rests on %d samples, fewer than %d beyond p99", t.name, len(s), minBeyond)
		}
	}
	lt := timing{ms: late}
	ls := lt.sorted()
	r.line("%s", lt.summary("generator send lateness"))
	r.line("read body bytes: %d", bytesRead)
	if p := percentile(ls, 99); p > float64(lateBound)/1e6 {
		r.valid = false
		r.line("INVALID: generator p99 send lateness %.3f ms exceeds %v", p, lateBound)
	}
}

// scrapeIf reads the daemon's counters before a traced run's window.
func (r *run) scrapeIf(d *daemon) (counters, error) {
	if !r.trace {
		return counters{}, nil
	}
	return scrape(newClient(), d.base)
}

// layerCounters turns the serving daemon's counter deltas over the
// window into the respcache and HTTP per-layer metrics.
func (r *run) layerCounters(d *daemon, c0 counters) error {
	if !r.trace {
		return nil
	}
	c1, err := scrape(newClient(), d.base)
	if err != nil {
		return err
	}
	c := c1.minus(c0)
	r.servedDelta = c
	r.set("respcache.entry_hit_ratio", ratio(c.entryHits, c.entryHits+c.entryMisses), "ratio")
	r.set("respcache.query_hit_ratio", ratio(c.queryHits, c.queryHits+c.queryMisses), "ratio")
	r.set("respcache.query_evictions", c.queryEvictions, "count")
	r.set("respcache.not_modified_ratio", ratio(c.notModified, c.cveCount+c.queryCount), "ratio")
	r.set("http.cve_server_mean_us", ratio(c.cveSum, c.cveCount)*1e6, "us")
	r.set("http.query_server_mean_us", ratio(c.querySum, c.queryCount)*1e6, "us")
	return nil
}

// replayReads repeats the first replayReads fresh (unconditional) reads
// of each of the run's read streams in-process against g.
func (r *run) replayReads(rp *replayer, g *generation, stream string, spec mixSpec) error {
	for c := 0; c < r.conns; c++ {
		mix := newReadMix(r.in, fmt.Sprintf("%s-%d", stream, c), spec)
		for i := 0; i < replayReads; i++ {
			if op := mix.next(); !op.cond {
				if err := rp.read(g, op); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// reportTrace sets the per-layer metrics every workload reports and
// writes the spans out.
func (r *run) reportTrace(rp *replayer, g *generation) error {
	a := rp.t.analyze()
	all := a.layers[""]
	r.set("setup.load_feed_ms", all["setup.load_feed"].meanMs(), "ms")
	r.set("setup.clean_ms", all["setup.clean"].meanMs(), "ms")
	r.set("setup.build_index_ms", all["setup.build_index"].meanMs(), "ms")
	r.set("setup.store_open_ms", all["setup.store_open"].meanMs(), "ms")
	r.set("setup.restore_ms", all["setup.restore"].meanMs(), "ms")
	r.set("store.commits", float64(rp.commits), "count")
	r.set("store.commit_ms", ratio(float64(rp.commitD)/1e6, float64(rp.commits)), "ms")
	r.set("store.commit_bytes", float64(rp.commitBytes), "bytes")
	r.set("store.index_match_us", all["store.index_match"].meanMs()*1000, "us")
	r.set("store.index_ords_per_result", ratio(float64(rp.matchOrds), float64(rp.matchRows)), "ratio")
	r.set("store.index_shards_loaded", float64(g.idx.Stats().LoadedShards), "count")
	r.set("trace.coverage", a.coverage[""], "ratio")
	kinds := make([]string, 0, len(a.coverage))
	for k := range a.coverage {
		if k != "" {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		r.line("trace coverage %-18s %.4f over %d ops", k, a.coverage[k], len(a.opMs[k]))
	}
	r.line("trace self time by span (all replayed ops):")
	r.lines = append(r.lines, selfTable(all)...)
	dir := filepath.Join(filepath.Dir(filepath.Dir(r.work)), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.tsv", r.workload, r.seed))
	r.line("spans written to %s", path)
	return rp.t.write(path)
}

// feedAck is what POST /feed reports back.
type feedAck struct {
	Changed int  `json:"changed"`
	Warm    bool `json:"engineWarmStart"`
}

// post sends one POST /feed and checks it: 200, the expected changed
// count, and the write visible on the same daemon once acknowledged.
// It returns the ack and the post-ack ETag position.
func (r *run) post(client *http.Client, base string, p post) (ack feedAck, pos [2]int64, err error) {
	resp, err := client.Post(base+"/feed", "application/json", bytes.NewReader(p.body))
	if err != nil {
		return ack, pos, fmt.Errorf("POST /feed: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return ack, pos, fmt.Errorf("POST /feed: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		r.check.fail("POST /feed (%s): status %d: %s", p.kind, resp.StatusCode, body)
		return ack, pos, nil
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		r.check.fail("POST /feed (%s): decoding ack: %v", p.kind, err)
		return ack, pos, nil
	}
	if ack.Changed != p.changed {
		r.check.fail("POST /feed (%s): changed %d, want %d", p.kind, ack.Changed, p.changed)
	}
	code, etag, got, err := get(client, base+"/cve/"+p.probeID)
	if err != nil {
		return ack, pos, err
	}
	if code != http.StatusOK || !bytes.Contains(got, []byte(p.marker)) {
		r.check.fail("GET /cve/%s after POST ack: status %d, write not visible", p.probeID, code)
	}
	pos, ok := position(etag)
	if !ok {
		r.check.fail("GET /cve/%s: ETag %s carries no stream position", p.probeID, etag)
	}
	return ack, pos, nil
}

// ingestReplicated cold-boots a primary and bootstraps a -follow
// replica from it, then posts feed updates to the primary once a
// second while a second connection reads from the replica.
func (r *run) ingestReplicated(feed string) error {
	daemons, err := r.boots(func(i int) ([]*daemon, error) {
		p, err := r.start(fmt.Sprintf("primary-%d", i), "-feed", feed, "-data-dir", filepath.Join(r.work, fmt.Sprintf("primary-%d", i)))
		if err != nil {
			return nil, err
		}
		// The replica gets the primary's -feed as in the daemon's
		// documented usage: without it the daemon falls back to -demo,
		// whose simulated-web transport makes the replica's delta folds
		// estimate disclosure dates the primary never computed.
		rep, err := r.start(fmt.Sprintf("replica-%d", i), "-feed", feed, "-data-dir", filepath.Join(r.work, fmt.Sprintf("replica-%d", i)), "-follow", p.base)
		return []*daemon{p, rep}, err
	})
	if err != nil {
		return err
	}
	p, rep := daemons[0], daemons[1]
	readers := r.readers(rep.base, "ingest-replica", r.in.hotMix(), "", true)
	var p0 counters
	if r.trace {
		if p0, err = scrape(newClient(), p.base); err != nil {
			return err
		}
	}
	written0 := p.writeBytes() + rep.writeBytes()

	type sent struct {
		due time.Time
		ack time.Duration
		pos [2]int64
	}
	var posts []sent
	var postErr error
	postBytes := 0
	client := newClient()
	err = r.serve(daemons, rep, readers, replicaRate, func(start, end time.Time) {
		for k, body := range r.in.posts {
			due := start.Add(time.Duration(k) * postInterval)
			if !due.Before(end) {
				return
			}
			sleepUntil(due)
			ack, pos, err := r.post(client, p.base, body)
			if err != nil {
				postErr = err
				return
			}
			posts = append(posts, sent{due: due, ack: time.Since(due), pos: pos})
			r.acks = append(r.acks, ack)
			postBytes += len(body.body)
		}
	})
	if err != nil {
		return err
	}
	if postErr != nil {
		return postErr
	}
	r.attempted += len(posts)
	if len(posts) == 0 {
		return fmt.Errorf("no POST /feed was sent")
	}

	// Catch-up: poll the replica until it serves the last acked position.
	last := posts[len(posts)-1]
	seenAll := append([]seen(nil), readers[0].seen...)
	caught := false
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		_, etag, _, err := get(client, rep.base+"/cve/"+r.in.posts[len(posts)-1].probeID)
		if err != nil {
			return err
		}
		if pos, ok := position(etag); ok {
			seenAll = append(seenAll, seen{at: time.Now(), pos: pos})
			if !posLess(pos, last.pos) {
				caught = true
				break
			}
		}
	}
	if !caught {
		r.check.fail("replica did not reach the primary's position %v within 60s", last.pos)
	}

	var ingest, visible timing
	for k, s := range posts {
		ingest.add(s.ack)
		found := false
		for _, v := range seenAll {
			if v.at.After(s.due) && !posLess(v.pos, s.pos) {
				visible.add(v.at.Sub(s.due))
				found = true
				break
			}
		}
		if !found {
			r.check.fail("replica never served post %d's position %v", k, s.pos)
		}
	}
	r.compareReplica(client, p.base, rep.base, len(posts))

	written := p.writeBytes() + rep.writeBytes() - written0
	r.line("%s", ingest.summary("ingest (POST ack)"))
	r.line("%s", visible.summary("replica visible"))
	is, vs := ingest.sorted(), visible.sorted()
	r.setN("ingest_p50_ms", percentile(is, 50), "ms", len(is))
	r.setN("ingest_p90_ms", percentile(is, 90), "ms", len(is))
	r.setN("replica_visible_p50_ms", percentile(vs, 50), "ms", len(vs))
	r.setN("replica_visible_p90_ms", percentile(vs, 90), "ms", len(vs))
	r.setN("write_amp", ratio(written, float64(postBytes)), "ratio", len(posts))
	r.line("write_amp: %d bytes written by both daemons for %d posted feed bytes", int64(written), postBytes)
	if !r.trace {
		return nil
	}
	p1, err := scrape(client, p.base)
	if err != nil {
		return err
	}
	pc, repc := p1.minus(p0), r.servedDelta
	r.setN("ingest.swap_mean_ms", ratio(pc.swapSum, pc.swapCount)*1000, "ms", int(pc.swapCount))
	r.set("replica.fetches", repc.fetches, "count")
	r.set("replica.fetch_bytes", repc.fetchBytes, "bytes")
	r.set("replica.bootstraps", repc.bootstraps, "count")
	return r.replayIngest(len(posts), p.base, p1.entries)
}

// compareReplica checks, once caught up, that the replica serves the
// primary's exact /cve bytes and ETags for every posted entry and a
// seeded sample of the rest.
func (r *run) compareReplica(client *http.Client, primary, rep string, nPosts int) {
	ids := map[string]bool{}
	for _, p := range r.in.posts[:nPosts] {
		ids[p.probeID] = true
	}
	rng := rand.New(rand.NewSource(streamSeed(r.seed, "final-sample")))
	for i := 0; i < finalSample; i++ {
		ids[r.in.ids[rng.Intn(len(r.in.ids))]] = true
	}
	for _, id := range sortedKeys(ids) {
		r.attempted++
		c1, e1, b1, err1 := get(client, primary+"/cve/"+id)
		c2, e2, b2, err2 := get(client, rep+"/cve/"+id)
		if err1 != nil || err2 != nil || c1 != http.StatusOK || c1 != c2 || e1 != e2 || !bytes.Equal(b1, b2) {
			r.check.fail("GET /cve/%s: replica (%d %s) differs from primary (%d %s)%s", id, c2, e2, c1, e1, firstDiff(b1, b2))
		}
	}
}

// replayIngest replays the cold boot, the posts the socket run sent and
// the replica's read stream in-process, then a follower's bootstrap and
// tail against the live primary, and checks the replay agrees with the
// daemon on changed counts, engine warm starts and the entry count.
func (r *run) replayIngest(nPosts int, primary string, entries float64) error {
	ctx := context.Background()
	rp := newReplayer()
	g, s, _, err := r.replaySetup(rp, "")
	if err != nil {
		return err
	}
	defer s.Close()
	mix := newReadMix(r.in, "ingest-replica-0", r.in.hotMix())
	interval := time.Second / replicaRate
	i := 0
	for k := 0; k < nPosts; k++ {
		// Reads due before post k go first, as on the socket.
		for ; time.Duration(i)*interval < time.Duration(k)*postInterval; i++ {
			if op := mix.next(); !op.cond {
				if err := rp.read(g, op); err != nil {
					return err
				}
			}
		}
		if g, err = rp.ingest(ctx, g, s, r.in.posts[k].body); err != nil {
			return err
		}
	}
	for k := 0; k < nPosts; k++ {
		if rp.changed[k] != r.acks[k].Changed || rp.warm[k] != r.acks[k].Warm {
			r.check.fail("replay of post %d: changed %d warm %v, daemon said changed %d warm %v",
				k, rp.changed[k], rp.warm[k], r.acks[k].Changed, r.acks[k].Warm)
		}
	}
	if float64(g.res.Cleaned.Len()) != entries {
		r.check.fail("replay ends with %d entries, daemon with %d", g.res.Cleaned.Len(), int(entries))
	}
	rs, err := rp.replicate(ctx, primary, filepath.Join(r.work, "replay-replica"))
	if err != nil {
		return err
	}

	a := rp.t.analyze()
	in := a.layers["ingest"]
	n := float64(nPosts)
	warm := 0
	for _, w := range rp.warm {
		if w {
			warm++
		}
	}
	for _, l := range []struct{ name, span string }{
		{"cve.load_feed_ms", "cve.load_feed"}, {"cve.delta_ms", "nvdserve.upsert_delta"},
		{"nvdclean.clean_delta_ms", "nvdclean.clean_delta"}, {"nvdclean.cleaned_diff_ms", "nvdclean.cleaned_diff"},
		{"nvdclean.apply_backport_ms", "nvdclean.apply_backport"}, {"store.append_ms", "store.append"},
		{"store.seal_ms", "store.seal"}, {"store.index_update_ms", "store.index_update"},
		{"respcache.seed_ms", "respcache.seed"},
	} {
		r.setN(l.name, in[l.span].meanMs(), "ms", in[l.span].calls)
	}
	r.setN("cve.delta_entries", float64(rp.deltaEntries)/n, "count", nPosts)
	r.setN("nvdclean.engine_warm_ratio", float64(warm)/n, "ratio", nPosts)
	r.setN("store.append_bytes", float64(rp.appendBytes)/n, "bytes", nPosts)
	r.set("respcache.seed_carried_ratio", ratio(float64(rp.seedCarried), float64(rp.seedOf)), "ratio")
	rl := a.layers["replica.tail"]["replica.log_fetch"]
	ri := a.layers["replica.bootstrap"]["replica.install"]
	r.setN("replica.log_fetch_ms", rl.meanMs(), "ms", rl.calls)
	r.setN("replica.install_ms", ri.meanMs(), "ms", ri.calls)
	r.line("replayed follower tail fetched %d bytes in %d polls", rs.fetchBytes, rs.fetches)
	r.setN("trace.replay_ingest_p50_ms", median(a.opMs["ingest"]), "ms", len(a.opMs["ingest"]))
	r.set("trace.ingest_coverage", a.coverage["ingest"], "ratio")
	if a.coverage["ingest"] < 0.9 {
		r.check.fail("trace covers %.3f of replayed ingest time, want >= 0.9", a.coverage["ingest"])
	}
	return r.reportTrace(rp, g)
}

// copyDir copies the regular files of a store directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, info.Mode().Perm())
	})
}

// firstDiff describes where two bodies first differ.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	if i == len(a) && i == len(b) {
		return ""
	}
	lo := max(0, i-40)
	return fmt.Sprintf(" at byte %d: primary %q, replica %q", i, a[lo:min(len(a), i+40)], b[lo:min(len(b), i+40)])
}
