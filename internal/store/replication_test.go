package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// sourceFetch adapts a local source store's CheckpointFile to the fetch
// callback InstallCheckpoint wants — the in-process stand-in for the
// HTTP client in cmd/nvdserve.
func sourceFetch(src *Store) func(ManifestFile) (io.ReadCloser, error) {
	return func(mf ManifestFile) (io.ReadCloser, error) {
		rc, _, err := src.CheckpointFile(mf.Name)
		return rc, err
	}
}

func TestReplicationManifest(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if _, err := s.ReplicationManifest(); err == nil {
		t.Fatal("empty store offered a replication manifest")
	}
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

	rm, err := s.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Generation != 1 || rm.CheckpointSeq != 0 || rm.WALSeq != 2 {
		t.Fatalf("manifest gen=%d checkpointSeq=%d walSeq=%d, want 1/0/2", rm.Generation, rm.CheckpointSeq, rm.WALSeq)
	}
	if len(rm.Segments) != 2 {
		t.Fatalf("manifest lists %d segments, want 2", len(rm.Segments))
	}
	if sg := rm.Segments[0]; sg.Seq != 1 || !sg.Sealed || sg.Records != 2 || sg.Size <= 0 {
		t.Errorf("sealed segment entry: %+v", sg)
	}
	if sg := rm.Segments[1]; sg.Seq != 2 || sg.Sealed || sg.Records != 1 || sg.Size <= 0 {
		t.Errorf("active segment entry: %+v", sg)
	}

	// Every listed file must exist in the committed generation with the
	// listed size, and the list must cover the directory minus the
	// manifest itself (which the follower rewrites locally).
	genDir := filepath.Join(dir, genName(1))
	ents, err := os.ReadDir(genDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Files) != len(ents)-1 {
		t.Errorf("manifest lists %d files, directory has %d (incl. manifest)", len(rm.Files), len(ents))
	}
	for _, mf := range rm.Files {
		if mf.Name == manifestFile {
			t.Errorf("manifest lists itself")
		}
		fi, err := os.Stat(filepath.Join(genDir, mf.Name))
		if err != nil {
			t.Errorf("listed file %s: %v", mf.Name, err)
			continue
		}
		if fi.Size() != mf.Size {
			t.Errorf("%s: manifest size %d, on disk %d", mf.Name, mf.Size, fi.Size())
		}
	}
}

func TestReadSegment(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	_, end := s.ActivePosition()

	if _, _, err := s.ReadSegment(1, -1); err == nil {
		t.Error("negative offset accepted")
	}
	data, sealed, err := s.ReadSegment(1, 0)
	if err != nil || sealed || int64(len(data)) != end {
		t.Fatalf("active read: %d bytes sealed=%v err=%v, want %d/false/nil", len(data), sealed, err, end)
	}
	// A cursor at the committed end of the active segment gets nothing —
	// the caught-up case.
	data, sealed, err = s.ReadSegment(1, end)
	if err != nil || sealed || len(data) != 0 {
		t.Fatalf("caught-up read: %d bytes sealed=%v err=%v", len(data), sealed, err)
	}
	// Mid-segment resume returns the tail only.
	tail, _, err := s.ReadSegment(1, 8)
	if err != nil || int64(len(tail)) != end-8 {
		t.Fatalf("resumed read: %d bytes err=%v, want %d", len(tail), err, end-8)
	}

	if _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	data, sealed, err = s.ReadSegment(1, 0)
	if err != nil || !sealed || int64(len(data)) != end {
		t.Fatalf("sealed read: %d bytes sealed=%v err=%v", len(data), sealed, err)
	}
	if _, _, err := s.ReadSegment(1, end+10); err == nil {
		t.Error("offset beyond sealed end accepted")
	}
	// The fresh active successor exists and is empty.
	data, sealed, err = s.ReadSegment(2, 0)
	if err != nil || sealed || len(data) != 0 {
		t.Fatalf("empty active read: %d bytes sealed=%v err=%v", len(data), sealed, err)
	}
	if _, _, err := s.ReadSegment(3, 0); !errors.Is(err, ErrNoSegment) {
		t.Errorf("future segment: %v, want ErrNoSegment", err)
	}

	// Folding segment 1 into a checkpoint retires it from the stream.
	if err := s.CommitSealed(testCheckpoint(), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadSegment(1, 0); !errors.Is(err, ErrSegmentRetired) {
		t.Errorf("retired segment: %v, want ErrSegmentRetired", err)
	}
}

// TestInstallCheckpointRoundTrip ships a primary's checkpoint and
// tailed frames into a cold sink store and proves the sink converges to
// the same content and the same stream position.
func TestInstallCheckpointRoundTrip(t *testing.T) {
	primary, _, _, _ := mustOpen(t, t.TempDir())
	want := testCheckpoint()
	if err := primary.Commit(want); err != nil {
		t.Fatal(err)
	}
	if err := primary.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	rm, err := primary.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}

	sinkDir := t.TempDir()
	sink, _, _, _ := mustOpen(t, sinkDir)
	cp, err := sink.InstallCheckpoint(rm, sourceFetch(primary))
	if err != nil {
		t.Fatalf("InstallCheckpoint: %v", err)
	}
	if sink.Generation() != 1 || sink.Watermark() != rm.CheckpointSeq {
		t.Fatalf("sink gen=%d watermark=%d, want 1/%d", sink.Generation(), sink.Watermark(), rm.CheckpointSeq)
	}
	for i, e := range want.Cleaned.Entries {
		if !e.Equal(cp.Cleaned.Entries[i]) {
			t.Errorf("shipped cleaned entry %d mismatch", i)
		}
	}
	if cp.Vendors.Canonical("redhat_inc") != "redhat" {
		t.Error("shipped vendor map mismatch")
	}

	// Tail the primary's frames verbatim; positions must align.
	raw, _, err := primary.ReadSegment(rm.CheckpointSeq+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := sink.AppendFrames(raw)
	if err != nil {
		t.Fatalf("AppendFrames: %v", err)
	}
	if len(deltas) != 1 || len(deltas[0].Added) != 1 || deltas[0].Added[0].ID != "CVE-2018-0101" {
		t.Fatalf("shipped deltas decoded wrong: %+v", deltas)
	}
	pSeq, pOff := primary.LastPosition()
	sSeq, sOff := sink.LastPosition()
	if pSeq != sSeq || pOff != sOff {
		t.Fatalf("positions diverge: primary (%d,%d) sink (%d,%d)", pSeq, pOff, sSeq, sOff)
	}

	// The sink's log must replay on reopen like a native one.
	sink.Close()
	reopened, cp2, replayed, notes := mustOpen(t, sinkDir)
	if cp2 == nil || len(replayed) != 1 || len(notes) != 0 {
		t.Fatalf("sink reopen: cp=%v deltas=%d notes=%v", cp2 != nil, len(replayed), notes)
	}
	if reopened.Generation() != 1 {
		t.Fatalf("sink reopened at generation %d", reopened.Generation())
	}
}

// TestInstallCheckpointRejectsCorrupt proves a fetch that delivers
// corrupted bytes fails the install and leaves the sink untouched.
func TestInstallCheckpointRejectsCorrupt(t *testing.T) {
	primary, _, _, _ := mustOpen(t, t.TempDir())
	if err := primary.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	rm, err := primary.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	sink, _, _, _ := mustOpen(t, t.TempDir())
	fetch := func(mf ManifestFile) (io.ReadCloser, error) {
		rc, _, err := primary.CheckpointFile(mf.Name)
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			return nil, err
		}
		if mf.Name == cleanedFile {
			b[len(b)/2] ^= 0x01
		}
		return io.NopCloser(bytes.NewReader(b)), nil
	}
	if _, err := sink.InstallCheckpoint(rm, fetch); err == nil {
		t.Fatal("corrupt shipped checkpoint was installed")
	}
	if sink.Generation() != 0 {
		t.Fatalf("failed install advanced the sink to generation %d", sink.Generation())
	}
	// The sink still takes a clean install afterwards.
	if _, err := sink.InstallCheckpoint(rm, sourceFetch(primary)); err != nil {
		t.Fatalf("clean install after corrupt attempt: %v", err)
	}
}

// TestInstallCheckpointRefusesAheadLog proves a sink whose local log
// holds records past the shipped watermark refuses the install instead
// of silently discarding them.
func TestInstallCheckpointRefusesAheadLog(t *testing.T) {
	primary, _, _, _ := mustOpen(t, t.TempDir())
	if err := primary.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	rm, err := primary.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	sink, _, _, _ := mustOpen(t, t.TempDir())
	if err := sink.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := sink.AppendDelta(testDelta(9)); err != nil {
		t.Fatal(err)
	}
	// Sink active is segment 1 with a record; shipped watermark is 0.
	if _, err := sink.InstallCheckpoint(rm, sourceFetch(primary)); err == nil {
		t.Fatal("install discarded local records past the shipped watermark")
	}
}

func TestAppendFramesRejectsCorrupt(t *testing.T) {
	primary, _, _, _ := mustOpen(t, t.TempDir())
	if err := primary.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := primary.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	raw, _, err := primary.ReadSegment(1, 0)
	if err != nil {
		t.Fatal(err)
	}

	sink, _, _, _ := mustOpen(t, t.TempDir())
	if err := sink.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	before := sink.LogRecords()

	flipped := append([]byte(nil), raw...)
	flipped[walHeaderSize+3] ^= 0x10
	if _, err := sink.AppendFrames(flipped); err == nil {
		t.Error("corrupt frame batch accepted")
	}
	if _, err := sink.AppendFrames(raw[:len(raw)-2]); err == nil {
		t.Error("torn frame batch accepted")
	}
	if sink.LogRecords() != before {
		t.Errorf("rejected batches changed the log: %d records", sink.LogRecords())
	}
	if _, err := sink.AppendFrames(raw); err != nil {
		t.Errorf("intact batch rejected after failures: %v", err)
	}
}
