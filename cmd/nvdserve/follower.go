package main

// Follower mode (-follow): this daemon is a read replica of one
// primary nvdserve. It bootstraps by installing the primary's shipped
// checkpoint into its own store, restores a serving generation from
// it, and then tails the primary's segment bytes — appending them
// verbatim to its local log (so stream positions, and therefore ETag
// validators, align across the fleet) and folding the decoded deltas
// into its serving view through the same advance+publish path POST
// /feed uses on the primary.
//
// Convergence: followers never coordinate with the primary beyond
// polling its stream. When a follower falls behind a compaction (its
// cursor's segment is retired — HTTP 410), it re-bootstraps from the
// primary's latest checkpoint: periodic state broadcast rather than
// lock-step replication, so an arbitrarily late or freshly provisioned
// replica converges in one checkpoint fetch plus a bounded tail.

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"nvdclean"
	"nvdclean/internal/backoff"
	"nvdclean/internal/cve"
	"nvdclean/internal/replica"
	"nvdclean/internal/store"
)

type follower struct {
	srv    *server
	client *replica.Client
	// poll is the steady-state poll interval when caught up; maxLag is
	// the /readyz gate (0 disables gating).
	poll   time.Duration
	maxLag time.Duration

	// unapplied holds deltas durably appended to the local log but not
	// yet folded into the serving view (a fold interrupted by shutdown
	// leaves them pending); the next successful fold drains them.
	// Guarded by srv.feedMu.
	unapplied []*nvdclean.Delta

	// cursor is the next stream position to fetch: the segment seq and
	// the byte offset of its first unconsumed byte.
	cursorSeq atomic.Uint64
	cursorOff atomic.Int64
	// caughtUpAt is the unix-nano time of the last poll that confirmed
	// the follower holds every committed byte the primary had; 0 until
	// the first confirmation. Lag is measured from it.
	caughtUpAt    atomic.Int64
	fetches       atomic.Uint64
	fetchErrors   atomic.Uint64
	fetchBytes    atomic.Uint64
	deltasApplied atomic.Uint64
	bootstraps    atomic.Uint64
	lastErr       atomic.Value // string; "" when the last poll succeeded

	// done closes when run returns, so shutdown can join the tail loop
	// before the committer and store close underneath it.
	done chan struct{}
}

func newFollower(srv *server, primary string, poll, maxLag time.Duration) *follower {
	f := &follower{
		srv:    srv,
		client: replica.NewClient(primary),
		poll:   poll,
		maxLag: maxLag,
		done:   make(chan struct{}),
	}
	// A warm-booted follower resumes tailing from its recovered local
	// log position; a cold one gets its cursor from bootstrap.
	if seq, off := srv.persist.ActivePosition(); seq > 0 {
		f.cursorSeq.Store(seq)
		f.cursorOff.Store(off)
	}
	return f
}

// lag returns the time since the follower last confirmed it was caught
// up with the primary's committed stream end; ok is false before the
// first confirmation (lag is unknown, not zero).
func (f *follower) lag() (time.Duration, bool) {
	at := f.caughtUpAt.Load()
	if at == 0 {
		return 0, false
	}
	return time.Since(time.Unix(0, at)), true
}

// statsBlock is the follower's /stats replication block.
func (f *follower) statsBlock() map[string]any {
	b := map[string]any{
		"role":          "follower",
		"primary":       f.client.Base(),
		"cursorSegment": f.cursorSeq.Load(),
		"cursorOffset":  f.cursorOff.Load(),
		"watermark":     f.srv.persist.Watermark(),
		"fetches":       f.fetches.Load(),
		"fetchErrors":   f.fetchErrors.Load(),
		"fetchBytes":    f.fetchBytes.Load(),
		"deltasApplied": f.deltasApplied.Load(),
		"bootstraps":    f.bootstraps.Load(),
		"synced":        false,
		"lagSeconds":    -1.0,
	}
	if lag, ok := f.lag(); ok {
		b["synced"] = true
		b["lagSeconds"] = lag.Seconds()
	}
	if e, _ := f.lastErr.Load().(string); e != "" {
		b["lastFetchError"] = e
	}
	return b
}

// run is the replica lifecycle: bootstrap until a generation serves,
// then tail forever. It only returns when ctx is cancelled.
func (f *follower) run(ctx context.Context) {
	defer close(f.done)
	for ctx.Err() == nil && f.srv.cur.Load() == nil {
		if err := f.bootstrap(ctx); err != nil {
			f.fetchErrors.Add(1)
			f.lastErr.Store(err.Error())
			fmt.Printf("nvdserve: replica bootstrap: %v\n", err)
			// Jittered: a fleet of replicas booting against a down
			// primary must not hammer it in lockstep when it returns.
			if !sleepCtx(ctx, backoff.Jitter(f.poll)) {
				return
			}
			continue
		}
	}
	for ctx.Err() == nil {
		wait, err := f.syncOnce(ctx)
		if err != nil && ctx.Err() == nil {
			fmt.Printf("nvdserve: replica sync: %v\n", err)
			// Failed polls back off with jitter so a primary outage
			// does not synchronize the fleet's retry schedule.
			wait = backoff.Jitter(wait)
		}
		if wait <= 0 {
			continue
		}
		if !sleepCtx(ctx, wait) {
			return
		}
	}
}

// bootstrapAttempts bounds how many times one bootstrap restarts its
// install because the primary committed a newer checkpoint mid-fetch.
const bootstrapAttempts = 4

// bootstrap installs the primary's current checkpoint into the local
// store (re-verified file by file), restores a serving generation from
// it, and parks the cursor at the watermark's successor segment. It is
// both the cold-start path and the catch-up path after a 410.
func (f *follower) bootstrap(ctx context.Context) error {
	rm, err := f.client.Manifest(ctx)
	if err != nil {
		return err
	}
	var cp *store.Checkpoint
	for attempt := 1; ; attempt++ {
		cp, err = f.srv.persist.InstallCheckpoint(rm, func(mf store.ManifestFile) (io.ReadCloser, error) {
			return f.client.CheckpointFile(ctx, mf)
		})
		if err == nil || attempt == bootstrapAttempts {
			break
		}
		// The primary serves files of its current checkpoint, so a
		// commit that lands mid-fetch fails the manifest sums. Restart
		// against the newer checkpoint; any other failure is returned.
		next, merr := f.client.Manifest(ctx)
		if merr != nil || next.Generation == rm.Generation {
			break
		}
		rm = next
	}
	if err != nil {
		return err
	}
	st, err := f.srv.restore(cp)
	if err != nil {
		return fmt.Errorf("restoring shipped checkpoint: %w", err)
	}
	f.srv.feedMu.Lock()
	f.srv.publish(st)
	// Anything pending was folded into the shipped checkpoint (the
	// install refuses a local log ahead of its watermark).
	f.unapplied = nil
	f.srv.feedMu.Unlock()
	f.cursorSeq.Store(rm.CheckpointSeq + 1)
	f.cursorOff.Store(0)
	f.bootstraps.Add(1)
	fmt.Printf("nvdserve: replica bootstrapped from %s: generation %d (%d entries), tailing from segment %d\n",
		f.client.Base(), f.srv.persist.Generation(), st.res.Cleaned.Len(), rm.CheckpointSeq+1)
	return nil
}

// syncOnce runs one poll of the stream: fetch bytes at the cursor,
// append them durably, fold the decoded deltas into the serving view,
// and mirror the primary's seal boundaries. It returns how long the
// caller should wait before the next poll — zero when the stream
// yielded progress and more may be pending immediately.
func (f *follower) syncOnce(ctx context.Context) (time.Duration, error) {
	seq, off := f.cursorSeq.Load(), f.cursorOff.Load()
	chunk, err := f.client.Log(ctx, seq, off)
	if err != nil {
		f.fetchErrors.Add(1)
		f.lastErr.Store(err.Error())
		return f.poll, err
	}
	f.fetches.Add(1)
	switch {
	case chunk.Retired:
		// The primary compacted past the cursor: re-bootstrap from its
		// latest checkpoint — the periodic-state-broadcast path.
		if err := f.bootstrap(ctx); err != nil {
			f.fetchErrors.Add(1)
			f.lastErr.Store(err.Error())
			return f.poll, err
		}
		f.lastErr.Store("")
		return 0, nil
	case chunk.AtWatermark:
		f.caughtUpAt.Store(time.Now().UnixNano())
		f.lastErr.Store("")
		wait := f.poll
		if chunk.RetryAfter > wait {
			wait = chunk.RetryAfter
		}
		return wait, nil
	}
	f.fetchBytes.Add(uint64(len(chunk.Data)))
	if err := f.apply(ctx, chunk); err != nil {
		f.lastErr.Store(err.Error())
		return f.poll, err
	}
	f.lastErr.Store("")
	if !chunk.Sealed {
		// An active-segment read returns every committed byte the
		// primary had at fetch time, so a successful apply means the
		// follower is caught up as of that moment.
		f.caughtUpAt.Store(time.Now().UnixNano())
		return f.poll, nil
	}
	return 0, nil
}

// apply lands one fetched chunk: frames append verbatim to the local
// log (advancing the shared stream position), the decoded deltas fold
// into the serving view, and a sealed segment boundary triggers a
// local seal — keeping segment seqs in lockstep with the primary —
// plus a local checkpoint so this replica's restarts (and its own
// followers, if chained) stay cheap.
func (f *follower) apply(ctx context.Context, chunk *replica.LogChunk) error {
	f.srv.feedMu.Lock()
	defer f.srv.feedMu.Unlock()
	if len(chunk.Data) > 0 {
		deltas, err := f.srv.persist.AppendFrames(chunk.Data)
		if err != nil {
			return err
		}
		f.cursorOff.Add(int64(len(chunk.Data)))
		f.unapplied = append(f.unapplied, deltas...)
	}
	if err := f.fold(ctx); err != nil {
		// The frames are durable and the cursor advanced; the fold
		// retries on the next poll (or a restart replays the log).
		return err
	}
	if chunk.Sealed {
		sealedSeq, err := f.srv.persist.Seal()
		if err != nil {
			return err
		}
		f.cursorSeq.Store(sealedSeq + 1)
		f.cursorOff.Store(0)
		if st := f.srv.cur.Load(); st != nil {
			if err := f.srv.checkpointSealed(st, sealedSeq); err != nil {
				return err
			}
		}
	}
	return nil
}

// fold drains the unapplied deltas into one incremental re-clean and
// swaps the resulting generation in. Batching is safe because
// CleanDelta is bit-deterministic and composition-invariant: folding N
// deltas in one step yields the same bytes as N single-step folds —
// the follower's view converges to the primary's however the stream
// was chunked.
func (f *follower) fold(ctx context.Context) error {
	if len(f.unapplied) == 0 {
		return nil
	}
	st := f.srv.cur.Load()
	if st == nil {
		return fmt.Errorf("no serving generation to fold deltas into")
	}
	start := time.Now()
	total := cve.NetDelta(st.res.Original, f.unapplied...)
	n := uint64(len(f.unapplied))
	if total.Empty() {
		f.unapplied = nil
		f.deltasApplied.Add(n)
		return nil
	}
	next, err := f.srv.advance(ctx, st, total)
	if err != nil {
		return err
	}
	f.srv.publish(next)
	f.srv.obs.ingestDeltaEntries.Observe(float64(total.Size()))
	f.srv.obs.ingestSwapSeconds.Observe(time.Since(start).Seconds())
	f.unapplied = nil
	f.deltasApplied.Add(n)
	return nil
}

// sleepCtx sleeps d unless ctx ends first; it reports whether the
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
