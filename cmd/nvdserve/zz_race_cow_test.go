package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nvdclean"
	"nvdclean/internal/cve"
	"nvdclean/internal/fsio"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// TestRaceSharedEntriesDuringRetrain stresses copy-on-write generations:
// cleaned entries are shared between generations, queued checkpoints
// and readers, and only the run that builds an entry may write it. A
// primary takes ingests that each shift the training set — a retrain
// that re-scores every v2-only entry — while every ingest seals and
// hands the background committer a checkpoint of the generation it
// just replaced. A follower folds the same stream and mirrors each
// seal, checkpointing its published generation into its own committer.
// Readers on both hammer the uncached /cve/{id}?pretty=1 path on
// v2-only entries and /query?severity=…, and two more encode each
// published cleaned snapshot whole, as a queued checkpoint's commit
// does. The race detector flags any write to a published or shared
// entry; afterwards the follower must converge to the primary's view.
func TestRaceSharedEntriesDuringRetrain(t *testing.T) {
	cfg := nvdclean.SmallScale()
	cfg.NumCVEs = 160
	cfg.NumVendors = 40
	snap, _, err := nvdclean.GenerateSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := nvdclean.Options{
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	}
	var v2only, dual []*nvdclean.Entry
	for _, e := range snap.Entries {
		switch {
		case e.V2 != nil && e.V3 == nil:
			v2only = append(v2only, e)
		case e.V2 != nil && e.V3 != nil && len(e.Descriptions) > 0:
			dual = append(dual, e)
		}
	}
	if len(v2only) == 0 || len(dual) < 2 {
		t.Fatalf("fixture has %d v2-only and %d dual-labeled entries", len(v2only), len(dual))
	}

	// The primary's commit point (the CURRENT swap) is slowed down so
	// the follower reads each sealed segment to its end and mirrors the
	// seal, instead of finding the segment retired and re-bootstrapping.
	inj := fsio.NewInjector(fsio.OS{})
	inj.SetDecide(func(op fsio.Op) fsio.Decision {
		if op.Kind == fsio.OpRename && filepath.Base(op.Path) == "CURRENT" {
			time.Sleep(50 * time.Millisecond)
		}
		return fsio.Decision{}
	})
	pStr, _, _, _, err := store.OpenFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer pStr.Close()
	primary := newServer(opts)
	primary.persist = pStr
	primary.compactEvery = 1
	primary.committer = store.NewCommitter(pStr)
	if err := primary.load(t.Context(), snap); err != nil {
		t.Fatal(err)
	}
	firstScores := primary.cur.Load().res.Backport.Scores
	ts := httptest.NewServer(primary.handler())
	defer ts.Close()

	fStr, _, _, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fStr.Close()
	fsrv := newServer(opts)
	fsrv.persist = fStr
	fsrv.committer = store.NewCommitter(fStr)
	fol := newFollower(fsrv, ts.URL, time.Millisecond, 0)
	fsrv.follower = fol
	fts := httptest.NewServer(fsrv.handler())
	defer fts.Close()
	ctx := context.Background()
	if err := fol.bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// The follower polls the stream without the primary's one-second
	// Retry-After, so it keeps pace with every post. A poll that moves
	// the cursor to the start of the next segment mirrored a seal.
	seals := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			seq := fol.cursorSeq.Load()
			if _, err := fol.syncOnce(ctx); err == nil && fol.cursorSeq.Load() == seq+1 && fol.cursorOff.Load() == 0 {
				seals++
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for i, srv := range []*httptest.Server{ts, fts, ts, fts} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := i; !stopped(); n++ {
				id := v2only[n%len(v2only)].ID
				for _, path := range []string{"/cve/" + id + "?pretty=1", "/query?severity=HIGH", "/query?severity=CRITICAL&limit=5"} {
					if resp, err := srv.Client().Get(srv.URL + path); err == nil {
						resp.Body.Close()
					}
				}
			}
		}()
	}
	for _, srv := range []*server{primary, fsrv} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				if err := cve.WriteSnapshot(io.Discard, srv.cur.Load().res.Cleaned); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Each post swaps a dual-labeled entry's v3 vector for one with a
	// different base score: the dataset fingerprint moves, the engine
	// retrains and every v2-only score is re-materialized.
	const posts = 6
	for i := 0; i < posts; i++ {
		mod := dual[i%len(dual)].Clone()
		for _, o := range dual {
			if o.V3.BaseScore() != mod.V3.BaseScore() {
				v := *o.V3
				mod.V3 = &v
				break
			}
		}
		mod.Descriptions[0].Value += fmt.Sprintf(" retrain race %d", i)
		body := &nvdclean.Snapshot{CapturedAt: snap.CapturedAt.Add(time.Duration(i+1) * time.Hour), Entries: []*nvdclean.Entry{mod}}
		var buf bytes.Buffer
		if err := nvdclean.WriteFeed(&buf, body); err != nil {
			t.Fatal(err)
		}
		served := fsrv.cur.Load()
		resp, err := ts.Client().Post(ts.URL+"/feed", "application/json", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("POST /feed %d = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		// Wait for the follower's swap, so its seal and checkpoint
		// overlap the primary's next ingest.
		for deadline := time.Now().Add(5 * time.Second); fsrv.cur.Load() == served && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}

	close(stop)
	wg.Wait()
	t.Logf("follower: %d deltas folded, %d seals, %d bootstraps", fol.deltasApplied.Load(), seals, fol.bootstraps.Load())
	if fol.deltasApplied.Load() == 0 || seals == 0 {
		t.Fatal("the follower never folded and sealed a post; the race this test exists for did not run")
	}
	catchUp(t, ctx, fol)
	assertConverged(t, "post-retrain-race", primary, fsrv)

	moved := 0
	last := primary.cur.Load().res.Backport.Scores
	for _, e := range v2only {
		if last[e.ID] != firstScores[e.ID] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the retrain posts moved no backported score; the test exercised no re-materialization")
	}
	fsrv.committer.Close()
	primary.committer.Close()
}
