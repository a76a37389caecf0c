// Command nvdserve is a long-lived daemon serving a cleaned NVD
// snapshot over HTTP. It loads a feed (or generates a synthetic demo
// snapshot), runs the full cleaning pipeline once, and then serves:
//
//	GET  /healthz       liveness + current generation
//	GET  /cve/{id}      one cleaned entry with every pipeline artifact
//	GET  /query         filter by vendor/product/severity/year
//	GET  /stats         snapshot-wide cleaning statistics
//	POST /feed          ingest a feed update (NVD JSON 1.1 body)
//
// POST /feed is the incremental path: the posted entries diff against
// the current snapshot and only the delta re-cleans (CleanDelta), with
// the previous generation serving until the new one swaps in
// atomically — reloads cause zero downtime and, when the update leaves
// the training split untouched, reuse the trained model zoo.
//
// With -data-dir the daemon keeps a persistent generation store: every
// ingested delta is logged durably before it serves, and checkpoints
// fold the log back down (-compact-every). A restart with the same
// -data-dir restores the last committed generation from checkpoint
// plus log in ~O(delta) — no crawling, no training, no re-clean — and
// the store becomes authoritative over the -feed/-demo input.
//
// A store-backed daemon is also a replication primary: it serves its
// checkpoint and delta log over /replicate/manifest,
// /replicate/checkpoint/{file} and /replicate/log?from={seq}. A
// second daemon started with -follow <primary-url> runs as a read
// replica: it bootstraps from the shipped checkpoint, tails segment
// bytes into its own store, folds the deltas into its serving view
// through the same CleanDelta path, answers POST /feed with 403
// pointing at the primary, and gates /readyz on -max-replica-lag.
//
// Usage:
//
//	nvdserve -demo small                 # synthetic snapshot + simulated web
//	nvdserve -feed nvdcve-1.1-2017.json  # real data feed, no crawling
//	nvdserve -feed feed.json -crawl     # also crawl reference URLs
//	nvdserve -demo tiny -data-dir ./nvd  # durable generations, warm restarts
//	nvdserve -demo tiny -data-dir ./r1 -addr :8418 \
//	         -follow http://127.0.0.1:8417  # read replica of the first daemon
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nvdclean"
	"nvdclean/internal/cve"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// serveConfig collects every flag the daemon runs with.
type serveConfig struct {
	addr, feedPath, demoScale string
	crawl                     bool
	concurrency               int
	models                    string
	epochs                    int
	compact                   bool
	seed                      int64
	dataDir                   string
	compactEvery              int
	compactSync               bool
	maxFeedBytes              int64
	queryCacheBytes           int
	readCache                 bool
	indexLoad                 string
	pprofAddr                 string
	drainWait                 time.Duration
	follow                    string
	followPoll                time.Duration
	maxReplicaLag             time.Duration
}

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8417", "listen address (use :0 for an ephemeral port)")
	flag.StringVar(&cfg.feedPath, "feed", "", "NVD JSON 1.1 feed file to serve (empty: synthetic demo snapshot)")
	flag.StringVar(&cfg.demoScale, "demo", "tiny", "demo snapshot scale: tiny, small or paper")
	flag.BoolVar(&cfg.crawl, "crawl", false, "crawl reference URLs of real feeds over the live web")
	flag.IntVar(&cfg.concurrency, "concurrency", 0, "worker bound for every pipeline stage (0: GOMAXPROCS)")
	flag.StringVar(&cfg.models, "models", "LR", "severity models to train: comma-separated LR,SVR,CNN,DNN or all")
	flag.IntVar(&cfg.epochs, "epochs", 0, "training epochs for the deep models (0: paper's 100)")
	flag.BoolVar(&cfg.compact, "compact", true, "use compact deep models (paper-width models are expensive)")
	flag.Int64Var(&cfg.seed, "seed", 1, "dataset split and weight-init seed")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "persistent generation store directory (empty: in-memory only)")
	flag.IntVar(&cfg.compactEvery, "compact-every", 8, "fold the delta log into a fresh checkpoint after this many records (0: never)")
	flag.BoolVar(&cfg.compactSync, "compact-sync", false, "write compaction checkpoints inside POST /feed instead of a background committer")
	flag.Int64Var(&cfg.maxFeedBytes, "max-feed-bytes", defaultMaxFeedBytes, "largest POST /feed body accepted, in bytes (0: unbounded)")
	flag.IntVar(&cfg.queryCacheBytes, "query-cache-bytes", defaultQueryCacheBytes, "per-generation /query response cache cap, in bytes (0: disabled)")
	flag.BoolVar(&cfg.readCache, "read-cache", true, "serve reads from per-generation pre-encoded response caches")
	flag.StringVar(&cfg.indexLoad, "index-load", "lazy", "checkpoint index loading: lazy (shards parse on first query) or eager (parse all at boot)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate listener (empty: disabled; profiling never shares the serving port)")
	flag.DurationVar(&cfg.drainWait, "drain-wait", 500*time.Millisecond, "how long /readyz reports 503 before the listener closes on shutdown, so load balancers drain first (0: immediate)")
	flag.StringVar(&cfg.follow, "follow", "", "run as a read replica of the primary nvdserve at this base URL (requires -data-dir; POST /feed turns 403)")
	flag.DurationVar(&cfg.followPoll, "follow-poll", 500*time.Millisecond, "replication poll interval when caught up with the primary")
	flag.DurationVar(&cfg.maxReplicaLag, "max-replica-lag", 15*time.Second, "replica /readyz reports 503 when replication lag exceeds this (0: never gate readiness on lag)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "nvdserve: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg serveConfig) error {
	addr, feedPath, demoScale := cfg.addr, cfg.feedPath, cfg.demoScale
	crawl, dataDir := cfg.crawl, cfg.dataDir
	compactEvery, compactSync := cfg.compactEvery, cfg.compactSync
	kinds, err := parseModels(cfg.models)
	if err != nil {
		return err
	}
	if cfg.indexLoad != "lazy" && cfg.indexLoad != "eager" {
		return fmt.Errorf("bad -index-load %q (want lazy or eager)", cfg.indexLoad)
	}
	if cfg.follow != "" && dataDir == "" {
		return fmt.Errorf("-follow requires -data-dir (the replica tails the primary's log into its own store)")
	}
	opts := nvdclean.Options{
		Concurrency: cfg.concurrency,
		Models:      kinds,
		ModelConfig: predict.ModelConfig{Epochs: cfg.epochs, Compact: cfg.compact, Seed: cfg.seed},
		Seed:        cfg.seed,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With a data directory, recover the generation store first: a
	// committed checkpoint plus its delta log restores the serving
	// generation in ~O(delta) — no crawling, no training, no re-clean
	// — and makes the store authoritative over the -feed/-demo input.
	var persist *store.Store
	var cp *store.Checkpoint
	var logged []*cve.Delta
	if dataDir != "" {
		var notes []string
		var err error
		persist, cp, logged, notes, err = store.Open(dataDir)
		if err != nil {
			return fmt.Errorf("opening store %s: %w", dataDir, err)
		}
		defer persist.Close()
		for _, n := range notes {
			fmt.Printf("nvdserve: store recovery: %s\n", n)
		}
	}

	var snap *nvdclean.Snapshot
	if feedPath != "" {
		if crawl {
			opts.Transport = http.DefaultTransport
		}
		// On a warm restart the feed file is never cleaned (the store
		// is authoritative), so don't pay to load it. A follower never
		// cleans a local feed either — its view comes from the primary.
		if cp == nil && cfg.follow == "" {
			f, err := os.Open(feedPath)
			if err != nil {
				return err
			}
			snap, err = nvdclean.LoadFeed(f)
			f.Close()
			if err != nil {
				return err
			}
		}
	} else {
		// Demo mode always regenerates: the simulated-web transport
		// derives from the (deterministic) snapshot and is needed for
		// future POST /feed deltas even when the store restores.
		var cfg nvdclean.GenConfig
		switch demoScale {
		case "tiny":
			cfg = nvdclean.SmallScale()
			cfg.NumCVEs = 400
			cfg.NumVendors = 120
		case "small":
			cfg = nvdclean.SmallScale()
		case "paper":
			cfg = nvdclean.PaperScale()
		default:
			return fmt.Errorf("unknown demo scale %q (want tiny, small or paper)", demoScale)
		}
		var truth *nvdclean.Truth
		snap, truth, err = nvdclean.GenerateSnapshot(cfg)
		if err != nil {
			return err
		}
		opts.Transport = nvdclean.NewWebCorpus(snap, truth.Disclosure).Transport()
		fmt.Printf("nvdserve: generated %s demo snapshot (%d CVEs)\n", demoScale, snap.Len())
	}

	srv := newServer(opts)
	srv.persist = persist
	srv.compactEvery = compactEvery
	srv.maxFeedBytes = cfg.maxFeedBytes
	srv.queryCacheBytes = cfg.queryCacheBytes
	srv.readCache = cfg.readCache
	if persist != nil {
		// Every checkpoint commit — boot, -compact-sync inline, or
		// background — reports its wall time into the scrape surface
		// and its outcome into the degraded-mode health tracker.
		persist.SetCommitObserver(srv.observeCommit)
	}
	// Stop the degraded-mode recovery probe (if one is running) before
	// the store it probes closes.
	defer srv.health.close()
	if persist != nil && !compactSync {
		// Background compaction: POST /feed seals the delta log and
		// enqueues the checkpoint; the committer pays the write. Closed
		// (draining any in-flight commit) before the store closes.
		srv.committer = store.NewCommitter(persist)
		defer srv.committer.Close()
	}

	if cp != nil && cfg.follow != "" {
		fmt.Printf("nvdserve: replica warm start: serving local generation %d while resuming the tail from %s\n",
			cp.Generation, cfg.follow)
	}
	if cp != nil {
		start := time.Now()
		res, err := nvdclean.RestoreResult(cp, opts)
		if err != nil {
			return fmt.Errorf("restoring checkpoint: %w", err)
		}
		// Fold the logged deltas into one and re-clean just that.
		var st *serveState
		if total := cve.NetDelta(res.Original, logged...); !total.Empty() {
			// The checkpoint's own view — carrying its restored lazy
			// index — becomes the base generation; the logged deltas
			// then advance it incrementally, exactly as POST /feed
			// would, re-ordinating only the shards they touch.
			base := srv.newState(res, nil, nil, cp.Index, 0, 0, false, true)
			if res, err = nvdclean.CleanDelta(ctx, res, total, opts); err != nil {
				return fmt.Errorf("replaying delta log: %w", err)
			}
			st = srv.newState(res, base, total, nil, time.Since(start), 1, len(logged) > 0, true)
		} else {
			st = srv.newState(res, nil, nil, cp.Index, time.Since(start), 1, len(logged) > 0, true)
		}
		st.restored = true
		if cfg.indexLoad == "eager" {
			if err := st.idx.LoadAll(opts.Concurrency); err != nil {
				fmt.Printf("nvdserve: eager index load failed (%v); rebuilding\n", err)
				st.idx = store.BuildIndex(res.Cleaned, opts.Concurrency)
			}
		}
		srv.cur.Store(st)
		ixs := st.idx.Stats()
		indexMode := fmt.Sprintf("restored (%d/%d shards lazy)", ixs.Shards-ixs.LoadedShards, ixs.Shards)
		if cp.Index == nil {
			indexMode = "rebuilt (checkpoint carried no index segments)"
		}
		fmt.Printf("nvdserve: warm start: restored store generation %d (%d entries, %d logged deltas) in %dms — no re-clean; index %s\n",
			srv.persist.Generation(), res.Cleaned.Len(), len(logged), st.cleanDur.Milliseconds(), indexMode)
		if feedPath != "" || snap != nil {
			fmt.Println("nvdserve: store is authoritative; POST /feed to ingest feed updates")
		}
	} else if cfg.follow == "" {
		fmt.Printf("nvdserve: cleaning %d entries...\n", snap.Len())
		if err := srv.load(ctx, snap); err != nil {
			return err
		}
		st := srv.cur.Load()
		fmt.Printf("nvdserve: pipeline done in %dms\n", st.cleanDur.Milliseconds())
		if srv.persist != nil {
			fmt.Printf("nvdserve: committed checkpoint generation %d to %s\n", srv.persist.Generation(), dataDir)
		}
	} else {
		// A cold follower never runs a local clean: its first
		// generation ships from the primary. The bootstrap runs in the
		// background so the listener (and /livez) come up immediately;
		// /readyz stays 503 until the first generation installs.
		fmt.Printf("nvdserve: replica: bootstrapping from %s in the background\n", cfg.follow)
	}

	// The tail loop starts before the listener and is joined on the way
	// out — after the HTTP server stops, before the committer and store
	// close underneath it.
	if cfg.follow != "" {
		fol := newFollower(srv, cfg.follow, cfg.followPoll, cfg.maxReplicaLag)
		srv.follower = fol
		fctx, fcancel := context.WithCancel(ctx)
		go fol.run(fctx)
		defer func() {
			fcancel()
			<-fol.done
		}()
	}

	// Profiling rides a separate listener so a heap dump or 30-second
	// trace can never contend with — or be exposed on — the serving
	// port; empty -pprof-addr compiles the handlers in but binds
	// nothing.
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		ps := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = ps.Serve(pln) }()
		defer ps.Close()
		fmt.Printf("nvdserve: pprof listening on http://%s/debug/pprof/\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The exact address is printed after binding so -addr :0 callers
	// (the smoke test, scripts) can discover the ephemeral port.
	fmt.Printf("nvdserve: listening on http://%s\n", ln.Addr())

	// Slowloris hardening: headers must arrive promptly, the whole
	// request — POST /feed body included, which sets the generous
	// bound — within ReadTimeout, and idle keep-alive connections are
	// reaped instead of pinned open. Responses are in-memory bytes, so
	// no WriteTimeout is needed beyond the kernel's send buffers.
	hs := &http.Server{
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		fmt.Println("nvdserve: shutting down")
		// Flip readiness before touching the listener: /readyz answers
		// 503 (with Retry-After) while every other route still serves,
		// so a fronting load balancer sees the drain signal and stops
		// routing here. Only after the drain window does Shutdown close
		// the listener and wait out in-flight requests.
		srv.draining.Store(true)
		if cfg.drainWait > 0 {
			select {
			case <-time.After(cfg.drainWait):
			case err := <-errCh:
				return err
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(shutdownCtx)
	}
}
