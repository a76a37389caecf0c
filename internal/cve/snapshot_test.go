package cve_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/gen"
)

// genSnapshot generates a snapshot and gives every third v2-only entry
// a backported v3 score, the shape of a cleaned snapshot.
func genSnapshot(tb testing.TB, cfg gen.Config) *cve.Snapshot {
	tb.Helper()
	snap, _, _, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i, e := range snap.Entries {
		if e.V2 != nil && e.V3 == nil && i%3 == 0 {
			score := float64(i%100) / 10
			e.PV3 = &score
		}
	}
	return snap
}

func encodeSnapshot(tb testing.TB, s *cve.Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := cve.WriteSnapshot(&buf, s); err != nil {
		tb.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// feedRoundTrip is the reference the binary codec must reproduce:
// ReadFeed(WriteFeedCompact(s)).
func feedRoundTrip(tb testing.TB, s *cve.Snapshot) *cve.Snapshot {
	tb.Helper()
	var buf bytes.Buffer
	if err := cve.WriteFeedCompact(&buf, s); err != nil {
		tb.Fatalf("WriteFeedCompact: %v", err)
	}
	out, err := cve.ReadFeed(&buf)
	if err != nil {
		tb.Fatalf("ReadFeed: %v", err)
	}
	return out
}

func checkMatchesFeed(t *testing.T, s *cve.Snapshot) {
	t.Helper()
	got, err := cve.ReadSnapshot(encodeSnapshot(t, s))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	want := feedRoundTrip(t, s)
	if reflect.DeepEqual(got, want) {
		return
	}
	if !reflect.DeepEqual(got.CapturedAt, want.CapturedAt) || len(got.Entries) != len(want.Entries) {
		t.Fatalf("header: got %v/%d entries, want %v/%d", got.CapturedAt, len(got.Entries), want.CapturedAt, len(want.Entries))
	}
	for i := range want.Entries {
		if !reflect.DeepEqual(got.Entries[i], want.Entries[i]) {
			t.Fatalf("entry %d:\n got %+v\nwant %+v", i, *got.Entries[i], *want.Entries[i])
		}
	}
}

func mustVec[V any](t *testing.T, parse func(string) (V, error), s string) *V {
	t.Helper()
	v, err := parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return &v
}

// edgeSnapshot holds the entries where the feed codec normalizes what
// it writes: zero and non-UTC times, meta CWEs, escaped and 2.2-form
// CPEs, empty tags, invalid UTF-8, and entries with nothing optional.
func edgeSnapshot(t *testing.T) *cve.Snapshot {
	pv3, negZero := 7.3, math.Copysign(0, -1)
	escaped := cpe.NewName(cpe.PartApplication, "ven:dor", `pro*d\uct?`, "1.0")
	escaped.Other = "trailing space "
	uri, err := cpe.Parse("cpe:/o:microsoft:windows_xp::sp2")
	if err != nil {
		t.Fatal(err)
	}
	est := time.FixedZone("EST", -5*3600)
	return &cve.Snapshot{
		CapturedAt: time.Date(2018, 5, 21, 13, 47, 59, 999, est),
		Entries: []*cve.Entry{
			{
				ID:        "CVE-1999-0001",
				Published: time.Date(1999, 12, 30, 23, 59, 30, 0, est),
				// Zero LastModified, PV3 on a v2-only entry.
				CWEs: []cwe.ID{cwe.Unassigned, cwe.Other, cwe.NoInfo, cwe.ID(79), cwe.ID(-7)},
				V2:   mustVec(t, cvss.ParseV2, "AV:N/AC:L/Au:N/C:P/I:P/A:P"),
				PV3:  &pv3,
			},
			{
				ID:           "CVE-2017-0144",
				Published:    time.Date(2017, 3, 16, 22, 59, 0, 0, time.UTC),
				LastModified: time.Date(2018, 1, 5, 2, 29, 0, 0, time.Local),
				Descriptions: []cve.Description{
					{Source: "cve@mitre.org", Value: "SMBv1 <server> & \u2028 \x00 remote code execution"},
					{Source: "evaluator", Value: "bad \xff\xfe utf-8 CWE-94"},
					{Value: ""},
				},
				V2: mustVec(t, cvss.ParseV2, "AV:N/AC:M/Au:N/C:C/I:C/A:C"),
				V3: mustVec(t, cvss.ParseV3, "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"),
				CPEs: []cpe.Name{
					escaped,
					uri,
					{Part: 'x', Vendor: "bad", Product: "part"},
					{Part: cpe.PartHardware, Vendor: "ve\xc3ndor", Product: ""},
				},
				References: []cve.Reference{
					{URL: "https://technet.example/ms17-010", Tags: []string{}},
					{URL: "https://exploit.example/41891", Tags: []string{"Exploit", "Third Party Advisory"}},
					{URL: ""},
				},
				PV3: &negZero,
			},
			{ID: "CVE-2018-1000001", Descriptions: []cve.Description{}, References: []cve.Reference{}},
		},
	}
}

// TestSnapshotCodecMatchesFeedRoundTrip proves the binary checkpoint
// codec decodes to exactly what the feed codec's round trip yields,
// on generated snapshots and on hand-built edge entries.
func TestSnapshotCodecMatchesFeedRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := gen.TinyConfig()
		cfg.Seed = seed
		checkMatchesFeed(t, genSnapshot(t, cfg))
	}
	if !testing.Short() {
		checkMatchesFeed(t, genSnapshot(t, gen.SmallConfig()))
	}
	checkMatchesFeed(t, edgeSnapshot(t))
	checkMatchesFeed(t, &cve.Snapshot{})
}

// TestSnapshotCodecFailsLikeFeed checks the two encoders refuse the
// same unencodable value, and that the decoder applies ReadFeed's
// fatal checks to what the encoder wrote.
func TestSnapshotCodecFailsLikeFeed(t *testing.T) {
	nan := math.NaN()
	bad := &cve.Snapshot{Entries: []*cve.Entry{{ID: "CVE-2018-0001", PV3: &nan}}}
	if err := cve.WriteSnapshot(&bytes.Buffer{}, bad); err == nil {
		t.Error("WriteSnapshot accepted a NaN score")
	}
	if err := cve.WriteFeedCompact(&bytes.Buffer{}, bad); err == nil {
		t.Error("WriteFeedCompact accepted a NaN score")
	}
	for _, e := range []*cve.Entry{
		{ID: "CVE-18-0001"},
		{ID: "CVE-2018-0001", Published: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		b := encodeSnapshot(t, &cve.Snapshot{Entries: []*cve.Entry{e}})
		if _, err := cve.ReadSnapshot(b); err == nil {
			t.Errorf("ReadSnapshot accepted %s published %v", e.ID, e.Published)
		}
	}
}

// TestSnapshotCodecRejectsDamage checks every truncation and a flipped
// magic byte fail cleanly.
func TestSnapshotCodecRejectsDamage(t *testing.T) {
	b := encodeSnapshot(t, edgeSnapshot(t))
	for n := 0; n < len(b); n++ {
		if _, err := cve.ReadSnapshot(b[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(b))
		}
	}
	if _, err := cve.ReadSnapshot(append(b[:len(b):len(b)], 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	b[0] ^= 1
	if _, err := cve.ReadSnapshot(b); err == nil {
		t.Error("damaged magic accepted")
	}
}

// FuzzSnapshotCodec feeds arbitrary bytes to the decoder a follower
// runs on shipped checkpoint files. Properties: no panic; allocation
// linear in the input length; and decode → encode → decode reaches a
// fixed point — the first cycle may normalize (cpe.Parse reads an empty
// attribute that FormatString then writes as "*"), after which a cycle
// reproduces the same bytes.
func FuzzSnapshotCodec(f *testing.F) {
	// Short slices of a tiny snapshot: whole-snapshot seeds make every
	// mutation and minimization step slow.
	tiny := genSnapshot(f, gen.TinyConfig())
	for _, span := range [][2]int{{0, 1}, {0, 3}, {100, 108}, {390, 400}} {
		f.Add(encodeSnapshot(f, &cve.Snapshot{CapturedAt: tiny.CapturedAt, Entries: tiny.Entries[span[0]:span[1]]}))
	}
	f.Add(encodeSnapshot(f, &cve.Snapshot{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s1, err := cve.ReadSnapshot(data)
		runtime.ReadMemStats(&ms)
		if alloc, limit := ms.TotalAlloc-before, uint64(64<<10+128*len(data)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		var b2, b3 bytes.Buffer
		if err := cve.WriteSnapshot(&b2, s1); err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		s2, err := cve.ReadSnapshot(b2.Bytes())
		if err != nil {
			t.Fatalf("decoding a re-encoded snapshot: %v", err)
		}
		if err := cve.WriteSnapshot(&b3, s2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b2.Bytes(), b3.Bytes()) {
			t.Fatal("encode(decode(encode(s))) != encode(s)")
		}
	})
}

// BenchmarkSnapshotCodec times the checkpoint codec against the feed
// codec it replaced at 10K entries: encode and decode, with bytes/op
// from SetBytes and MB/file reported.
func BenchmarkSnapshotCodec(b *testing.B) {
	cfg := gen.DefaultConfig()
	cfg.NumCVEs, cfg.NumVendors = 10000, 2000
	snap := genSnapshot(b, cfg)
	var feed bytes.Buffer
	if err := cve.WriteFeedCompact(&feed, snap); err != nil {
		b.Fatal(err)
	}
	bin := encodeSnapshot(b, snap)
	codecs := []struct {
		name   string
		data   []byte
		encode func(*bytes.Buffer) error
		decode func([]byte) error
	}{
		{"binary", bin,
			func(w *bytes.Buffer) error { return cve.WriteSnapshot(w, snap) },
			func(d []byte) error { _, err := cve.ReadSnapshot(d); return err }},
		{"feed", feed.Bytes(),
			func(w *bytes.Buffer) error { return cve.WriteFeedCompact(w, snap) },
			func(d []byte) error { _, err := cve.ReadFeed(bytes.NewReader(d)); return err }},
	}
	for _, c := range codecs {
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			var w bytes.Buffer
			for i := 0; i < b.N; i++ {
				w.Reset()
				if err := c.encode(&w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(c.data))/1e6, "MB/file")
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.decode(c.data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(c.data))/1e6, "MB/file")
		})
	}
}
