package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"nvdclean"
	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/fsio"
	"nvdclean/internal/predict"
	"nvdclean/internal/replica"
	"nvdclean/internal/respcache"
	"nvdclean/internal/store"
)

// The daemon's defaults: -compact-every 8, -query-cache-bytes 4 MiB,
// -models LR with compact models, seed 1.
const (
	compactEvery    = 8
	queryCacheBytes = 4 << 20
)

func daemonOptions() nvdclean.Options {
	return nvdclean.Options{
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Compact: true, Seed: 1},
		Seed:        1,
	}
}

// countingFS is the real filesystem with a count of bytes written
// through it, handed to store.OpenFS.
type countingFS struct {
	fsio.OS
	written *atomic.Int64
}

type countingFile struct {
	fsio.File
	written *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written.Add(int64(n))
	return n, err
}

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	f, err := c.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.written}, nil
}

func (c countingFS) Create(name string) (fsio.File, error) {
	f, err := c.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.written}, nil
}

func (c countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	err := c.OS.WriteFile(name, data, perm)
	if err == nil {
		c.written.Add(int64(len(data)))
	}
	return err
}

// generation is one replayed serving generation, built the way the daemon
// builds one.
type generation struct {
	res     *nvdclean.Result
	byID    map[string]*cve.Entry
	idx     *store.Index
	entries *respcache.EntryCache
	queries *respcache.QueryCache
}

// replayer calls the modules' public functions in the daemon's order
// and records a span around each call.
type replayer struct {
	t       *tracer
	opts    nvdclean.Options
	metrics *respcache.Metrics
	written atomic.Int64
	commits int
	commitD time.Duration
	// commitBytes counts what checkpoint commits write.
	commitBytes int64

	matchOrds, matchRows int
	changed              []int
	warm                 []bool
	deltaEntries         int
	appendBytes          int64
	seedCarried, seedOf  int
}

func newReplayer() *replayer {
	return &replayer{t: newTracer(), opts: daemonOptions(), metrics: &respcache.Metrics{}}
}

func (r *replayer) fs() countingFS { return countingFS{written: &r.written} }

// openStore opens dir through the counting filesystem with the commit
// observer the daemon installs.
func (r *replayer) openStore(dir string) (s *store.Store, cp *store.Checkpoint, logged []*cve.Delta, err error) {
	s, cp, logged, _, err = store.OpenFS(dir, r.fs())
	if err == nil {
		s.SetCommitObserver(func(d time.Duration, err error) {
			if err == nil {
				r.commits++
				r.commitD += d
			}
		})
	}
	return s, cp, logged, err
}

// newGen mirrors the daemon's generation build: materialize backported
// scores, map IDs, then build, restore or incrementally update the
// index and carry the previous generation's unchanged /cve bytes.
func (r *replayer) newGen(res *nvdclean.Result, prev *generation, feedDelta *cve.Delta, restored *store.Index) (*generation, error) {
	g := &generation{
		res:     res,
		entries: respcache.NewEntryCache(r.metrics),
		queries: respcache.NewQueryCache(queryCacheBytes, r.metrics),
	}
	r.t.do("nvdclean.apply_backport", func() { nvdclean.ApplyBackport(res.Cleaned, res.Backport) })
	r.t.do("nvdserve.id_map", func() {
		g.byID = make(map[string]*cve.Entry, res.Cleaned.Len())
		for _, e := range res.Cleaned.Entries {
			g.byID[e.ID] = e
		}
	})
	var err error
	switch {
	case restored != nil:
		g.idx = restored
	case prev != nil:
		var cd *cve.Delta
		r.t.do("nvdclean.cleaned_diff", func() { cd = nvdclean.Diff(prev.res.Cleaned, res.Cleaned) })
		r.t.do("store.index_update", func() {
			g.idx, err = prev.idx.Update(cd, func(id string) *cve.Entry { return prev.byID[id] }, res.Cleaned, 0)
		})
		stale := make(map[string]bool)
		r.t.do("nvdserve.stale_ids", func() {
			for _, d := range []*cve.Delta{cd, feedDelta} {
				for _, id := range d.ChangedIDs() {
					stale[id] = true
				}
				for _, id := range d.Removed {
					stale[id] = true
				}
			}
		})
		r.t.do("respcache.seed", func() {
			g.entries.Seed(prev.entries, func(id string) bool {
				_, alive := g.byID[id]
				return alive && !stale[id]
			})
		})
		r.seedOf += prev.entries.Len()
		r.seedCarried += g.entries.Len()
	default:
		r.t.do("setup.build_index", func() { g.idx = store.BuildIndex(res.Cleaned, 0) })
	}
	return g, err
}

// coldBoot replays a cold daemon boot from the feed with a store at
// dir: load, clean, build the generation, commit the first checkpoint.
func (r *replayer) coldBoot(ctx context.Context, feed []byte, dir string) (g *generation, s *store.Store, err error) {
	r.t.opDo("setup.cold", func() {
		r.t.do("setup.store_create", func() { s, _, _, err = r.openStore(dir) })
		if err != nil {
			return
		}
		var snap *cve.Snapshot
		r.t.do("setup.load_feed", func() { snap, err = nvdclean.LoadFeed(bytes.NewReader(feed)) })
		if err != nil {
			return
		}
		var res *nvdclean.Result
		r.t.do("setup.clean", func() { res, err = nvdclean.Clean(ctx, snap, r.opts) })
		if err != nil {
			return
		}
		if g, err = r.newGen(res, nil, nil, nil); err != nil {
			return
		}
		cp := res.StoreCheckpoint()
		cp.Index = g.idx
		err = r.commit(func() error { return s.Commit(cp) })
	})
	return g, s, err
}

// warmBoot replays a warm restart from the store at dir: open, restore
// the checkpoint, and fold the logged deltas in with one CleanDelta.
func (r *replayer) warmBoot(ctx context.Context, dir string) (g *generation, s *store.Store, err error) {
	r.t.opDo("setup.warm", func() {
		var cp *store.Checkpoint
		var logged []*cve.Delta
		r.t.do("setup.store_open", func() { s, cp, logged, err = r.openStore(dir) })
		if err != nil {
			return
		}
		if cp == nil {
			err = fmt.Errorf("no checkpoint in %s", dir)
			return
		}
		r.t.do("setup.restore", func() {
			var res *nvdclean.Result
			if res, err = nvdclean.RestoreResult(cp, r.opts); err != nil {
				return
			}
			merged := res.Original
			for _, d := range logged {
				merged = merged.ApplyDelta(d)
			}
			total := nvdclean.Diff(res.Original, merged)
			if total.Empty() {
				g, err = r.newGen(res, nil, nil, cp.Index)
				return
			}
			var base *generation
			if base, err = r.newGen(res, nil, nil, cp.Index); err != nil {
				return
			}
			if res, err = nvdclean.CleanDelta(ctx, res, total, r.opts); err != nil {
				return
			}
			g, err = r.newGen(res, base, total, nil)
		})
	})
	return g, s, err
}

// commit runs one checkpoint commit under a store.commit span and
// counts the bytes it writes.
func (r *replayer) commit(fn func() error) (err error) {
	before := r.written.Load()
	r.t.do("store.commit", func() { err = fn() })
	r.commitBytes += r.written.Load() - before
	return err
}

// upsertDelta is the daemon's POST /feed delta: posted entries are
// added or modified, nothing is removed.
func upsertDelta(cur, posted *cve.Snapshot) *cve.Delta {
	d := &cve.Delta{CapturedAt: posted.CapturedAt}
	if d.CapturedAt.IsZero() {
		d.CapturedAt = cur.CapturedAt
	}
	byID := make(map[string]*cve.Entry, cur.Len())
	for _, e := range cur.Entries {
		byID[e.ID] = e
	}
	for _, e := range posted.Entries {
		switch prev := byID[e.ID]; {
		case prev == nil:
			d.Added = append(d.Added, e)
		case !prev.Equal(e):
			d.Modified = append(d.Modified, e)
		}
	}
	d.Sort()
	return d
}

// ingest replays one POST /feed in the handler's order. A compaction
// it trips seals in the op and commits as a separate op, as the
// daemon's background committer does.
func (r *replayer) ingest(ctx context.Context, prev *generation, s *store.Store, body []byte) (g *generation, err error) {
	var cp *store.Checkpoint
	var seq uint64
	sealed := false
	r.t.opDo("ingest", func() {
		var snap *cve.Snapshot
		r.t.do("cve.load_feed", func() { snap, err = nvdclean.LoadFeed(bytes.NewReader(body)) })
		if err != nil {
			return
		}
		var delta *cve.Delta
		r.t.do("nvdserve.upsert_delta", func() { delta = upsertDelta(prev.res.Original, snap) })
		r.changed = append(r.changed, delta.Size())
		r.deltaEntries += delta.Size()
		var res *nvdclean.Result
		r.t.do("nvdclean.clean_delta", func() { res, err = nvdclean.CleanDelta(ctx, prev.res, delta, r.opts) })
		if err != nil {
			return
		}
		r.warm = append(r.warm, res.Engine != nil && res.Engine == prev.res.Engine)
		before := r.written.Load()
		r.t.do("store.append", func() { err = s.AppendDelta(delta) })
		r.appendBytes += r.written.Load() - before
		if err != nil {
			return
		}
		if g, err = r.newGen(res, prev, delta, nil); err != nil {
			return
		}
		if s.ActiveRecords() >= compactEvery {
			r.t.do("store.checkpoint_build", func() {
				cp = res.StoreCheckpoint()
				cp.Index = g.idx
			})
			r.t.do("store.seal", func() { seq, err = s.Seal() })
			sealed = err == nil
		}
	})
	if sealed {
		r.t.opDo("commit", func() {
			err = r.commit(func() error { return s.CommitSealed(cp, seq) })
		})
	}
	return g, err
}

// readCVE replays a fresh /cve read: one entry-cache lookup that
// encodes the entry on a miss.
func (r *replayer) readCVE(g *generation, id string) {
	r.t.opDo("read.cve", func() {
		r.t.do("respcache.entry_get", func() {
			g.entries.Get(id, func() []byte {
				var b []byte
				r.t.do("nvdserve.encode", func() { b, _ = json.Marshal(g.byID[id]) })
				return b
			})
		})
	})
}

// readQuery replays a fresh /query read: the query cache, and on a miss
// index intersection, the page window's encoding and the cache fill.
func (r *replayer) readQuery(g *generation, path string) error {
	u, err := url.Parse(path)
	if err != nil {
		return err
	}
	v := u.Query()
	q := store.Query{Vendor: v.Get("vendor"), Product: v.Get("product")}
	if s := v.Get("severity"); s != "" {
		q.Severity, q.HasSeverity = cvss.ParseSeverity(s)
	}
	q.Year, _ = strconv.Atoi(v.Get("year"))
	offset, _ := strconv.Atoi(v.Get("offset"))
	r.t.opDo("read.query", func() {
		var hit bool
		r.t.do("respcache.query_get", func() { _, hit = g.queries.Get(path) })
		if hit {
			return
		}
		var ords []uint32
		r.t.do("store.index_match", func() { ords, _, err = g.idx.Match(q) })
		if err != nil {
			return
		}
		lo, hi := min(offset, len(ords)), min(offset+pageSize, len(ords))
		if hi > lo {
			r.matchOrds += len(ords)
			r.matchRows += hi - lo
		}
		var b []byte
		r.t.do("nvdserve.encode", func() {
			ids := make([]string, 0, hi-lo)
			for _, o := range ords[lo:hi] {
				ids = append(ids, g.res.Cleaned.Entries[o].ID)
			}
			b, _ = json.Marshal(ids)
		})
		r.t.do("respcache.query_put", func() { g.queries.Put(path, b) })
	})
	return err
}

func (r *replayer) read(g *generation, op readOp) error {
	if op.cve {
		r.readCVE(g, op.path[len("/cve/"):])
		return nil
	}
	return r.readQuery(g, op.path)
}

// replicaStats are the replica-protocol calls replayed against a live
// primary.
type replicaStats struct {
	fetches    int
	fetchBytes int
}

// replicate replays a follower's bootstrap and tail against the primary
// at base into a fresh store at dir: Manifest, InstallCheckpoint over
// CheckpointFile, then Log until the primary reports the watermark.
func (r *replayer) replicate(ctx context.Context, base, dir string) (rs replicaStats, err error) {
	c := replica.NewClient(base)
	s, _, _, err := r.openStore(dir)
	if err != nil {
		return rs, err
	}
	defer s.Close()
	var rm *store.ReplicationManifest
	r.t.opDo("replica.bootstrap", func() {
		r.t.do("replica.manifest", func() { rm, err = c.Manifest(ctx) })
		if err != nil {
			return
		}
		r.t.do("replica.install", func() {
			_, err = s.InstallCheckpoint(rm, func(mf store.ManifestFile) (io.ReadCloser, error) {
				return c.CheckpointFile(ctx, mf)
			})
		})
	})
	if err != nil {
		return rs, err
	}
	seq, off := rm.CheckpointSeq+1, int64(0)
	for i := 0; i < 64; i++ {
		var chunk *replica.LogChunk
		r.t.opDo("replica.tail", func() {
			r.t.do("replica.log_fetch", func() { chunk, err = c.Log(ctx, seq, off) })
			if err != nil || len(chunk.Data) == 0 {
				return
			}
			r.t.do("store.append_frames", func() { _, err = s.AppendFrames(chunk.Data) })
		})
		if err != nil {
			return rs, err
		}
		rs.fetches++
		rs.fetchBytes += len(chunk.Data)
		switch {
		case chunk.AtWatermark, chunk.Retired:
			return rs, nil
		case chunk.Sealed:
			seq, off = seq+1, 0
		default:
			off += int64(len(chunk.Data))
		}
	}
	return rs, nil
}
