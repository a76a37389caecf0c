package nvdclean_test

import (
	"context"
	"fmt"
	"testing"

	"nvdclean"
	"nvdclean/internal/gen"
	"nvdclean/internal/predict"
)

// oneEntryEdit returns the delta of a description edit on the first
// v2-only entry at or after index from.
func oneEntryEdit(t testing.TB, snap *nvdclean.Snapshot, from int) *nvdclean.Delta {
	t.Helper()
	for _, e := range snap.Entries[from:] {
		if e.V2 != nil && e.V3 == nil && len(e.Descriptions) > 0 {
			mod := e.Clone()
			mod.Descriptions[0].Value += " Edited in a later feed."
			return &nvdclean.Delta{CapturedAt: snap.CapturedAt, Modified: []*nvdclean.Entry{mod}}
		}
	}
	t.Fatal("no v2-only entry to edit")
	return nil
}

// namesFlip reports whether entry o's names map differently under the
// two results' consolidation maps.
func namesFlip(o *nvdclean.Entry, a, b *nvdclean.Result) bool {
	for _, n := range o.CPEs {
		va, vb := a.VendorMap.Canonical(n.Vendor), b.VendorMap.Canonical(n.Vendor)
		if va != vb || a.ProductMap.Canonical(va, n.Product) != b.ProductMap.Canonical(vb, n.Product) {
			return true
		}
	}
	return false
}

// TestCleanDeltaSharesUnchangedEntries pins copy-on-write generations
// down: after a one-entry edit, every cleaned entry outside the delta
// and outside any consolidation flip is the previous generation's own
// entry, and the previous generation is left exactly as it was.
func TestCleanDeltaSharesUnchangedEntries(t *testing.T) {
	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	opts := nvdclean.Options{
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Compact: true, Seed: 1},
		Seed:        1,
	}
	prev, err := nvdclean.Clean(context.Background(), snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := prev.Cleaned.Clone()
	delta := oneEntryEdit(t, snap, snap.Len()/2)
	res, err := nvdclean.CleanDelta(context.Background(), prev, delta, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != prev.Engine {
		t.Fatal("a v2-only description edit should warm-start the engine")
	}
	edited := delta.Modified[0].ID
	shared, flipped := 0, 0
	for i, e := range res.Cleaned.Entries {
		o := res.Original.Entries[i]
		if o.ID == edited {
			if e == prev.Cleaned.Entries[i] {
				t.Errorf("%s: the edited entry was not rebuilt", o.ID)
			}
			continue
		}
		if namesFlip(o, prev, res) {
			flipped++
			continue
		}
		if e != prev.Cleaned.Entries[i] {
			t.Fatalf("%s: unchanged cleaned entry was rebuilt instead of shared", o.ID)
		}
		shared++
	}
	t.Logf("%d entries shared, %d consolidation flips", shared, flipped)
	for i, e := range before.Entries {
		if !prev.Cleaned.Entries[i].Equal(e) {
			t.Fatalf("%s: CleanDelta modified the previous generation", e.ID)
		}
	}
	// Consumers that still diff the two generations pay pointer
	// compares, and get the delta CleanDelta already returned.
	assertCleanedDelta(t, "one-entry edit", prev, res)
}

// assertCleanedDelta requires res.CleanedDelta to equal the Diff of
// the two cleaned snapshots, entry pointer for entry pointer.
func assertCleanedDelta(t *testing.T, label string, prev, res *nvdclean.Result) {
	t.Helper()
	want := nvdclean.Diff(prev.Cleaned, res.Cleaned)
	got := res.CleanedDelta
	if got == nil {
		t.Fatalf("%s: CleanDelta returned no cleaned delta", label)
	}
	same := func(a, b []*nvdclean.Entry) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(got.Added, want.Added) || !same(got.Modified, want.Modified) ||
		fmt.Sprint(got.Removed) != fmt.Sprint(want.Removed) || !got.CapturedAt.Equal(want.CapturedAt) {
		t.Fatalf("%s: cleaned delta +%d ~%d -%v, Diff says +%d ~%d -%v", label,
			len(got.Added), len(got.Modified), got.Removed, len(want.Added), len(want.Modified), want.Removed)
	}
}

// TestCleanDeltaReturnsCleanedDelta checks the returned cleaned-view
// delta against Diff on the equivalence fixtures: a warm start, and a
// delta that adds, modifies and removes entries and forces a retrain,
// which re-scores every v2-only entry.
func TestCleanDeltaReturnsCleanedDelta(t *testing.T) {
	for _, v2Only := range []bool{true, false} {
		label := fmt.Sprintf("v2Only=%v", v2Only)
		f := newDeltaFixture(t, 2, v2Only)
		prev, err := nvdclean.Clean(context.Background(), f.old, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nvdclean.CleanDelta(context.Background(), prev, f.delta, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		assertCleanedDelta(t, label, prev, res)
		if !v2Only && res.Engine == prev.Engine {
			t.Errorf("%s: fixture was meant to force a retrain", label)
		}
		// A follow-up edit chains on the delta-cleaned generation.
		next, err := nvdclean.CleanDelta(context.Background(), res, oneEntryEdit(t, res.Original, 0), f.opts)
		if err != nil {
			t.Fatal(err)
		}
		assertCleanedDelta(t, label+" chained", res, next)
	}
}

// TestCleanSortsUnsortedInput: a Result's Original is sorted by ID —
// the order CleanDelta's merge and the daemon's ID lookups rely on —
// even when the input is not, and the input is left as given.
func TestCleanSortsUnsortedInput(t *testing.T) {
	snap, _, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	shuffled := &nvdclean.Snapshot{CapturedAt: snap.CapturedAt}
	for i := snap.Len() - 1; i >= 0; i-- {
		shuffled.Entries = append(shuffled.Entries, snap.Entries[i])
	}
	opts := nvdclean.Options{SkipSeverity: true}
	res, err := nvdclean.Clean(context.Background(), shuffled, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Original.Sorted() || shuffled.Entries[0] != snap.Entries[snap.Len()-1] {
		t.Fatal("Clean must sort a copy of an unsorted input")
	}
	want, err := nvdclean.Clean(context.Background(), snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range want.Cleaned.Entries {
		if !res.Cleaned.Entries[i].Equal(e) {
			t.Fatalf("%s: cleaning depends on input order", e.ID)
		}
	}
}

// BenchmarkCleanDeltaOneEntry times the daemon's common ingest: a
// one-entry description edit of a v2-only entry, cleaned on top of the
// previous generation (LR only, no transport). The fixture scales the
// small configuration's CVE-to-vendor ratio to each size.
func BenchmarkCleanDeltaOneEntry(b *testing.B) {
	for _, n := range []int{3000, 10000, 30000} {
		b.Run(fmt.Sprintf("%dK", n/1000), func(b *testing.B) {
			cfg := gen.SmallConfig()
			cfg.NumCVEs, cfg.NumVendors = n, n/5
			snap, _, _, err := gen.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			opts := nvdclean.Options{
				Models:      []predict.ModelKind{predict.ModelLR},
				ModelConfig: predict.ModelConfig{Compact: true, Seed: 1},
				Seed:        1,
			}
			prev, err := nvdclean.Clean(context.Background(), snap, opts)
			if err != nil {
				b.Fatal(err)
			}
			delta := oneEntryEdit(b, snap, snap.Len()/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nvdclean.CleanDelta(context.Background(), prev, delta, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
