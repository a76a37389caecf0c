package main

import (
	"errors"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"nvdclean/internal/backoff"
)

// storeHealth tracks whether the persistent store can accept writes.
// The serving view never depends on it — reads come from the immutable
// in-memory generation — so a full disk or a failing volume degrades
// the daemon to read-only instead of taking it down: POST /feed is
// rejected with Retry-After while /cve and /query keep answering the
// current generation byte-for-byte.
//
// Degradation is entered on any persist failure (append, seal, or
// checkpoint commit) and left only when a background probe proves a
// durable write round-trips again. Probing is how the daemon recovers
// without an operator bounce: ENOSPC clears when something frees the
// volume, and the next successful probe flips the daemon back to
// read-write on its own.
type storeHealth struct {
	srv *server

	mu       sync.Mutex
	degraded bool
	reason   string
	// enospc remembers whether the triggering failure was disk-full,
	// which maps to 507 Insufficient Storage instead of a generic 503.
	enospc  bool
	since   time.Time
	probing bool
	// delay is the current probe backoff (doubling, jittered); it also
	// feeds Retry-After so clients back off no faster than the probe
	// that would readmit them.
	delay        time.Duration
	probeInitial time.Duration
	probeMax     time.Duration

	failures   uint64
	recoveries uint64
	probes     uint64

	stop     chan struct{}
	stopOnce sync.Once
}

func newStoreHealth(s *server) *storeHealth {
	return &storeHealth{
		srv:          s,
		probeInitial: 250 * time.Millisecond,
		probeMax:     5 * time.Second,
		stop:         make(chan struct{}),
	}
}

// close stops the probe goroutine (if running) at shutdown.
func (h *storeHealth) close() {
	h.stopOnce.Do(func() { close(h.stop) })
}

// recordFailure marks the store degraded and starts the recovery probe
// if one is not already running. Safe to call from any handler or the
// commit observer; repeated failures only bump the counter.
func (h *storeHealth) recordFailure(err error) {
	if h == nil || err == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failures++
	h.enospc = errors.Is(err, syscall.ENOSPC)
	h.reason = err.Error()
	if !h.degraded {
		h.degraded = true
		h.since = time.Now()
	}
	if !h.probing && h.srv != nil && h.srv.persist != nil {
		h.probing = true
		h.delay = h.probeInitial
		go h.probeLoop()
	}
}

// noteCommit feeds checkpoint-commit outcomes into the tracker: a
// failure degrades, a success while degraded proves the disk writes
// again and recovers immediately (no need to wait for the next probe).
func (h *storeHealth) noteCommit(err error) {
	if h == nil {
		return
	}
	if err != nil {
		h.recordFailure(err)
		return
	}
	h.mu.Lock()
	if h.degraded {
		h.clearLocked()
	}
	h.mu.Unlock()
}

// clearLocked leaves degraded mode. Caller holds h.mu.
func (h *storeHealth) clearLocked() {
	h.degraded = false
	h.reason = ""
	h.enospc = false
	h.since = time.Time{}
	h.recoveries++
}

// probeLoop retries a durable-write probe with jittered exponential
// backoff until one succeeds (or the daemon shuts down). The probe is
// a real create-write-fsync-remove round-trip through the store's
// filesystem, not a guess — recovery means the next POST /feed's
// append will actually land.
func (h *storeHealth) probeLoop() {
	for {
		h.mu.Lock()
		if !h.degraded {
			h.probing = false
			h.mu.Unlock()
			return
		}
		delay := backoff.Jitter(h.delay)
		if h.delay *= 2; h.delay > h.probeMax {
			h.delay = h.probeMax
		}
		h.mu.Unlock()

		select {
		case <-h.stop:
			h.mu.Lock()
			h.probing = false
			h.mu.Unlock()
			return
		case <-time.After(delay):
		}

		h.mu.Lock()
		h.probes++
		h.mu.Unlock()
		err := h.srv.persist.Probe()
		h.mu.Lock()
		if err == nil {
			if h.degraded {
				h.clearLocked()
			}
			h.probing = false
			h.mu.Unlock()
			return
		}
		h.reason = err.Error()
		h.enospc = errors.Is(err, syscall.ENOSPC)
		h.mu.Unlock()
	}
}

// status is a point-in-time view for /readyz, /stats and /metrics.
type healthStatus struct {
	Degraded     bool   `json:"degraded"`
	Reason       string `json:"reason,omitempty"`
	SinceUnix    int64  `json:"sinceUnix,omitempty"`
	Failures     uint64 `json:"persistFailures"`
	Recoveries   uint64 `json:"recoveries"`
	Probes       uint64 `json:"probes"`
	DiskFull     bool   `json:"diskFull,omitempty"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
}

func (h *storeHealth) status() healthStatus {
	if h == nil {
		return healthStatus{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := healthStatus{
		Degraded:   h.degraded,
		Reason:     h.reason,
		Failures:   h.failures,
		Recoveries: h.recoveries,
		Probes:     h.probes,
		DiskFull:   h.enospc,
	}
	if h.degraded {
		st.SinceUnix = h.since.Unix()
		st.RetryAfterMs = h.retryDelayLocked().Milliseconds()
	}
	return st
}

// isDegraded reports degraded mode and its cause without copying the
// whole status block.
func (h *storeHealth) isDegraded() (degraded bool, reason string, diskFull bool) {
	if h == nil {
		return false, "", false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.degraded, h.reason, h.enospc
}

// retryDelayLocked is the delay a rejected writer should wait before
// retrying: the current probe backoff, floored at the initial probe
// interval. Caller holds h.mu.
func (h *storeHealth) retryDelayLocked() time.Duration {
	d := h.delay
	if d < h.probeInitial {
		d = h.probeInitial
	}
	if d > h.probeMax {
		d = h.probeMax
	}
	return d
}

// retryAfterSeconds shapes the retry delay for a Retry-After header:
// whole seconds, at least 1 (the header does not carry fractions), at
// most 30 so a recovered daemon is not ignored for long.
func (h *storeHealth) retryAfterSeconds() int {
	h.mu.Lock()
	d := h.retryDelayLocked()
	h.mu.Unlock()
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// persistUnavailable rejects a write because the store cannot make it
// durable: 507 Insufficient Storage when the cause is a full disk, 503
// otherwise, both with Retry-After tied to the recovery probe cadence.
// The body names the cause so a client log is actionable.
func (s *server) persistUnavailable(w http.ResponseWriter, reason string, diskFull bool) {
	status := http.StatusServiceUnavailable
	if diskFull {
		status = http.StatusInsufficientStorage
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.health.retryAfterSeconds()))
	writeJSON(w, status, map[string]any{
		"error":    "store cannot accept writes: " + reason,
		"degraded": true,
	})
}

// observeCommit is the store commit observer the daemon actually
// installs: it fans each outcome to the metrics histograms and the
// health tracker, so one CommitSealed failure both counts on /metrics
// and flips the daemon read-only.
func (s *server) observeCommit(d time.Duration, err error) {
	s.obs.observeCheckpoint(d, err)
	s.health.noteCommit(err)
}
