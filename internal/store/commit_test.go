package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nvdclean/internal/cve"
	"nvdclean/internal/fsio"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSegmentedReplayOrder proves deltas recover in append order across
// several sealed segments plus the active one, with the per-segment
// record counts intact.
func TestSegmentedReplayOrder(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	seals := map[int]bool{2: true, 4: true} // seal after the 2nd and 4th append
	for i := 1; i <= 5; i++ {
		if err := s.AppendDelta(testDelta(i)); err != nil {
			t.Fatal(err)
		}
		if seals[i] {
			if _, err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.LogRecords() != 5 || s.ActiveRecords() != 1 || s.SealedSegments() != 2 {
		t.Fatalf("live log: total=%d active=%d sealed=%d", s.LogRecords(), s.ActiveRecords(), s.SealedSegments())
	}
	s.Close()

	s2, cp, deltas, notes := mustOpen(t, dir)
	if cp == nil || len(deltas) != 5 {
		t.Fatalf("reopen: %d deltas (notes %v)", len(deltas), notes)
	}
	if len(notes) != 0 {
		t.Errorf("clean multi-segment reopen produced notes: %v", notes)
	}
	for i, d := range deltas {
		want := fmt.Sprintf("CVE-2018-%04d", 101+i)
		if len(d.Added) != 1 || d.Added[0].ID != want {
			t.Fatalf("delta %d out of order: %+v", i, d.Added)
		}
	}
	if s2.SealedSegments() != 2 || s2.ActiveRecords() != 1 {
		t.Errorf("reopened segments: sealed=%d active=%d", s2.SealedSegments(), s2.ActiveRecords())
	}
}

// TestCommitSealedRetires proves a sealed-generation commit folds in
// exactly the segments at or below the sealed seq: later records stay
// live, retired files disappear, and a straggler copy of a retired
// segment (a crash between the CURRENT swap and retirement) is skipped
// and swept on the next open instead of being replayed twice.
func TestCommitSealedRetires(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.AppendDelta(testDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(4)); err != nil {
		t.Fatal(err)
	}
	// Keep a copy of the sealed segment to resurrect as a straggler.
	segPath := filepath.Join(dir, segmentName(seq))
	sealedBytes, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.CommitSealed(testCheckpoint(), seq); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 || s.SealedSegments() != 0 || s.LogRecords() != 1 {
		t.Fatalf("after sealed commit: gen=%d sealed=%d records=%d", s.Generation(), s.SealedSegments(), s.LogRecords())
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Error("sealed segment not retired")
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000001")); !os.IsNotExist(err) {
		t.Error("generation 1 not retired")
	}
	// Committing through the active segment must be refused.
	if err := s.CommitSealed(testCheckpoint(), seq+1); err == nil {
		t.Error("CommitSealed through the active segment succeeded")
	}
	s.Close()

	// Straggler: the retired segment reappears (crash before the
	// remove). Its records are already folded into the checkpoint —
	// recovery must skip it by the manifest's walSeq watermark.
	if err := os.WriteFile(segPath, sealedBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, cp, deltas, notes := mustOpen(t, dir)
	if cp == nil || cp.Generation != 2 || cp.Seq != seq {
		t.Fatalf("reopen: gen=%v walSeq=%v", cp.Generation, cp.Seq)
	}
	if len(deltas) != 1 || len(deltas[0].Added) != 1 || deltas[0].Added[0].ID != "CVE-2018-0104" {
		t.Fatalf("straggler segment replayed: %d deltas", len(deltas))
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Error("straggler segment not swept")
	}
	found := false
	for _, n := range notes {
		if n == "swept stale "+segmentName(seq) {
			found = true
		}
	}
	if !found {
		t.Errorf("no sweep note for the straggler: %v", notes)
	}
	s2.Close()
}

// TestRecoveryHeaderAtSegmentEOF covers the frame-at-the-boundary
// windows: a frame header lying exactly at EOF (its payload never
// written) in the active segment truncates cleanly with every earlier
// segment's records intact, while the same tear inside a sealed
// segment cuts the replay chain — the good prefix survives, later
// segments are dropped, and the store remains appendable past the
// highest seq.
func TestRecoveryHeaderAtSegmentEOF(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s, _, _, _ := mustOpen(t, dir)
		if err := s.Commit(testCheckpoint()); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 2; i++ {
			if err := s.AppendDelta(testDelta(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendDelta(testDelta(3)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return dir
	}
	// An 8-byte header promising a payload that was never written.
	tornHeader := []byte{16, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}
	appendTo := func(t *testing.T, path string, b []byte) {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	t.Run("active", func(t *testing.T) {
		dir := build(t)
		active := filepath.Join(dir, segmentName(2))
		appendTo(t, active, tornHeader)
		s, _, deltas, notes := mustOpen(t, dir)
		if len(deltas) != 3 {
			t.Fatalf("recovered %d deltas, want 3 (notes %v)", len(deltas), notes)
		}
		if len(notes) == 0 {
			t.Error("torn header at EOF produced no note")
		}
		// The tail is gone and the segment appends cleanly again.
		if err := s.AppendDelta(testDelta(4)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		_, _, deltas, _ = mustOpen(t, dir)
		if len(deltas) != 4 {
			t.Fatalf("post-recovery append lost: %d deltas", len(deltas))
		}
	})

	t.Run("sealed", func(t *testing.T) {
		dir := build(t)
		sealedSegPath := filepath.Join(dir, segmentName(1))
		appendTo(t, sealedSegPath, tornHeader)
		s, _, deltas, notes := mustOpen(t, dir)
		// The sealed segment's two good records survive; the active
		// segment beyond the cut is unreachable and dropped.
		if len(deltas) != 2 {
			t.Fatalf("recovered %d deltas, want 2 (notes %v)", len(deltas), notes)
		}
		dropped := false
		for _, n := range notes {
			if n == "dropped unreachable segment "+segmentName(2) {
				dropped = true
			}
		}
		if !dropped {
			t.Errorf("no note for the dropped successor segment: %v", notes)
		}
		// Appends resume in a fresh segment past the highest seq seen.
		if err := s.AppendDelta(testDelta(9)); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, segmentName(3))); err != nil {
			t.Errorf("appends did not resume past the dropped segment: %v", err)
		}
		s.Close()
		_, _, deltas, _ = mustOpen(t, dir)
		if len(deltas) != 3 {
			t.Fatalf("after recovery append: %d deltas, want 3", len(deltas))
		}
	})
}

// TestCommitterBackground drives the commit queue end to end: seal,
// enqueue, background commit, segment retirement — with appends to the
// successor segment racing the commit.
func TestCommitterBackground(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s)
	defer c.Close()

	for i := 1; i <= 2; i++ {
		if err := s.AppendDelta(testDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	c.Enqueue(testCheckpoint(), seq)
	// The acknowledge path stays open while the committer writes.
	if err := s.AppendDelta(testDelta(3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "background commit", func() bool { return s.Generation() == 2 })
	waitFor(t, "commit recorded", func() bool { return c.Stats().Committed == 1 })
	st := c.Stats()
	if st.Pending || st.Retries != 0 || st.LastError != "" {
		t.Errorf("stats after one commit: %+v", st)
	}
	if s.SealedSegments() != 0 || s.LogRecords() != 1 {
		t.Errorf("after background commit: sealed=%d records=%d", s.SealedSegments(), s.LogRecords())
	}
	c.Close()
	s.Close()

	s2, cp, deltas, _ := mustOpen(t, dir)
	if cp == nil || cp.Generation != 2 || len(deltas) != 1 {
		t.Fatalf("reopen: gen=%v deltas=%d", cp.Generation, len(deltas))
	}
	s2.Close()
}

// TestCommitterRetryAndSupersede proves a failing commit is surfaced,
// re-enqueued with backoff, and superseded by a newer checkpoint.
func TestCommitterRetryAndSupersede(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(s)
	c.SetBackoff(time.Millisecond, 10*time.Millisecond)
	defer c.Close()

	// An incomplete checkpoint can never commit: it must keep failing
	// (with backoff) without touching the committed generation.
	c.Enqueue(&Checkpoint{}, seq)
	waitFor(t, "retries", func() bool { st := c.Stats(); return st.Retries >= 2 && st.LastError != "" })
	if s.Generation() != 1 {
		t.Fatalf("failed commit advanced the generation to %d", s.Generation())
	}
	// A live error carries its timestamp, so /stats readers can age it.
	if st := c.Stats(); st.LastErrorUnix == 0 {
		t.Errorf("failing commit recorded no lastErrorUnix: %+v", st)
	} else if age := time.Now().Unix() - st.LastErrorUnix; age < 0 || age > 60 {
		t.Errorf("lastErrorUnix implausibly old: age %ds", age)
	}
	// The sealed segment is still intact — durability never depended
	// on the queue.
	if s.SealedSegments() != 1 {
		t.Fatalf("failed commit lost the sealed segment")
	}

	// A good checkpoint supersedes the poisoned one and commits.
	c.Enqueue(testCheckpoint(), seq)
	waitFor(t, "superseding commit", func() bool { return s.Generation() == 2 })
	waitFor(t, "error cleared", func() bool { return c.Stats().LastError == "" })
	if st := c.Stats(); st.Committed != 1 {
		t.Errorf("stats after recovery: %+v", st)
	}
	if st := c.Stats(); st.LastErrorUnix != 0 {
		t.Errorf("successful commit did not clear lastErrorUnix: %+v", st)
	}
}

// TestCommitObserver proves the commit observer fires on both the
// synchronous and failure paths with a plausible duration — the hook
// the daemon's checkpoint-duration histogram hangs off.
func TestCommitObserver(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	var mu sync.Mutex
	type obsCall struct {
		d   time.Duration
		err error
	}
	var calls []obsCall
	s.SetCommitObserver(func(d time.Duration, err error) {
		mu.Lock()
		calls = append(calls, obsCall{d, err})
		mu.Unlock()
	})
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitSealed(&Checkpoint{}, 0); err == nil {
		t.Fatal("incomplete checkpoint committed")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 {
		t.Fatalf("observer fired %d times, want 2", len(calls))
	}
	if calls[0].err != nil || calls[0].d < 0 {
		t.Errorf("successful commit observed as %v after %v", calls[0].err, calls[0].d)
	}
	if calls[1].err == nil {
		t.Error("failed commit observed without its error")
	}
	s.Close()
}

// TestCommitSealedRejectsBeforeWriting proves a checkpoint whose index
// does not cover its cleaned snapshot is refused with no writer left
// running: once CommitSealed returns the error, the filesystem sees no
// further operation, and a retry of the same generation (same tmp
// directory) commits and reopens cleanly.
func TestCommitSealedRejectsBeforeWriting(t *testing.T) {
	dir := t.TempDir()
	inj := fsio.NewInjector(fsio.OS{})
	s, _, _, _, err := OpenFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	bad := testCheckpoint()
	bad.Index = BuildIndex(&cve.Snapshot{Entries: bad.Cleaned.Entries[:1]}, 4)
	err = s.CommitSealed(bad, seq)
	if err == nil || !strings.Contains(err.Error(), "index covers") {
		t.Fatalf("CommitSealed with a short index = %v, want the coverage error", err)
	}
	ops := inj.Ops()
	for i := 0; i < 10; i++ {
		time.Sleep(10 * time.Millisecond)
		if now := inj.Ops(); now != ops {
			t.Fatalf("filesystem ops moved from %d to %d after CommitSealed returned", ops, now)
		}
	}

	good := testCheckpoint()
	good.Index = BuildIndex(good.Cleaned, 4)
	if err := s.CommitSealed(good, seq); err != nil {
		t.Fatalf("retry after the refused commit: %v", err)
	}
	s.Close()
	s2, cp, deltas, notes := mustOpen(t, dir)
	if cp == nil || s2.Generation() != 2 || len(deltas) != 0 {
		t.Fatalf("reopen after retry: generation %d, %d deltas, notes %v", s2.Generation(), len(deltas), notes)
	}
	if cp.Index == nil || cp.IndexNote != "" {
		t.Fatalf("reopen after retry: index not restored (%q)", cp.IndexNote)
	}
}
