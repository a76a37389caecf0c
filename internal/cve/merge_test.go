package cve

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// aliasIDs spell a few (year, sequence) pairs several ways; SplitID
// accepts them all, so only the ID-string tie-break orders them.
var aliasIDs = []string{
	"CVE-2020-1", "CVE-2020-0001", "CVE-2020-+1", "CVE-2020-01",
	"CVE-2020-7", "CVE-2020-0007", "CVE-2019-12", "CVE-2019-0012",
	"CVE-+2019-12", "CVE-02020-1",
}

// randomID draws from a small space of canonical IDs plus the aliases
// (and, rarely, a malformed one), so collisions and ties are common.
func randomID(rng *rand.Rand) string {
	switch n := rng.Intn(20); {
	case n < 4:
		return aliasIDs[rng.Intn(len(aliasIDs))]
	case n == 4:
		return fmt.Sprintf("CVE-2020-x%d", rng.Intn(3))
	default:
		return FormatID(2018+rng.Intn(4), rng.Intn(40))
	}
}

// referenceApply is ApplyDelta as a stable sort of the filtered base
// plus the additions — the merge must match it exactly.
func referenceApply(s *Snapshot, d *Delta) []*Entry {
	removed := make(map[string]bool)
	for _, id := range d.Removed {
		removed[id] = true
	}
	modified := make(map[string]*Entry)
	for _, e := range d.Modified {
		modified[e.ID] = e
	}
	var out []*Entry
	for _, e := range s.Entries {
		switch {
		case removed[e.ID]:
		case modified[e.ID] != nil:
			out = append(out, modified[e.ID])
		default:
			out = append(out, e)
		}
	}
	out = append(out, d.Added...)
	sort.SliceStable(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// randomSortedSnapshot builds a sorted snapshot of distinct IDs.
func randomSortedSnapshot(rng *rand.Rand, n int) *Snapshot {
	s := &Snapshot{}
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		id := randomID(rng)
		if seen[id] {
			continue
		}
		seen[id] = true
		s.Entries = append(s.Entries, testEntry(id, i))
	}
	s.Sort()
	return s
}

func TestIDLessIsATotalOrder(t *testing.T) {
	ids := append([]string{"CVE-2020-x", "CVE-2020-10", "CVE-2020-5x", "CVE-2020-9", "bogus"}, aliasIDs...)
	for _, a := range ids {
		if idLess(a, a) {
			t.Errorf("idLess(%q, %q): irreflexivity broken", a, a)
		}
		for _, b := range ids {
			if a != b && idLess(a, b) == idLess(b, a) {
				t.Errorf("%q and %q tie or cross", a, b)
			}
			for _, c := range ids {
				if idLess(a, b) && idLess(b, c) && !idLess(a, c) {
					t.Errorf("not transitive: %q < %q < %q", a, b, c)
				}
			}
		}
	}
	// The fast path agrees with SplitID's numeric reading.
	if !idLess("CVE-2020-999", "CVE-2020-1000") || !idLess("CVE-2019-9999", "CVE-2020-0001") {
		t.Error("canonical IDs must order numerically")
	}
}

// TestSortIsArrivalOrderIndependent pins the fix for aliasing IDs: two
// arrival orders of the same entries sort to the same sequence.
func TestSortIsArrivalOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var want []string
	for trial := 0; trial < 50; trial++ {
		s := &Snapshot{}
		for _, i := range rng.Perm(len(aliasIDs)) {
			s.Entries = append(s.Entries, testEntry(aliasIDs[i], i))
		}
		s.Sort()
		got := make([]string, len(s.Entries))
		for i, e := range s.Entries {
			got[i] = e.ID
		}
		if want == nil {
			want = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("arrival order changed the sort:\n got %v\nwant %v", got, want)
		}
	}
}

func TestApplyDeltaMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		base := randomSortedSnapshot(rng, rng.Intn(30))
		d := &Delta{}
		for i := rng.Intn(8); i > 0; i-- {
			e := testEntry(randomID(rng), 100+i)
			switch rng.Intn(3) {
			case 0:
				d.Added = append(d.Added, e)
			case 1:
				if base.Len() > 0 && rng.Intn(2) == 0 {
					e.ID = base.Entries[rng.Intn(base.Len())].ID
				}
				d.Modified = append(d.Modified, e)
			default:
				d.Removed = append(d.Removed, e.ID)
			}
		}
		if rng.Intn(2) == 0 {
			d.Sort()
		}
		want := referenceApply(base, d)
		got := base.ApplyDelta(d).Entries
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: entry %d is %s, want %s", trial, i, got[i].ID, want[i].ID)
			}
		}
	}
}

func TestApplyDeltaSortsUnsortedBase(t *testing.T) {
	base := &Snapshot{Entries: []*Entry{testEntry("CVE-2020-0003", 3), testEntry("CVE-2020-0001", 1)}}
	got := base.ApplyDelta(&Delta{Added: []*Entry{testEntry("CVE-2020-0002", 2)}})
	for i, id := range []string{"CVE-2020-0001", "CVE-2020-0002", "CVE-2020-0003"} {
		if got.Entries[i].ID != id {
			t.Fatalf("entry %d = %s, want %s", i, got.Entries[i].ID, id)
		}
	}
	if base.Entries[0].ID != "CVE-2020-0003" {
		t.Error("ApplyDelta reordered the receiver")
	}
}

func TestSnapshotSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSortedSnapshot(rng, 60)
	for _, e := range s.Entries {
		if got := s.Search(e.ID); got != e {
			t.Fatalf("Search(%s) = %v", e.ID, got)
		}
	}
	for i := 0; i < 200; i++ {
		id := randomID(rng)
		if got, want := s.Search(id), s.ByID(id); got != want {
			t.Fatalf("Search(%s) = %v, ByID = %v", id, got, want)
		}
	}
}

func TestEqualSamePointer(t *testing.T) {
	e := testEntry("CVE-2017-0001", 1)
	if !e.Equal(e) {
		t.Fatal("an entry must equal itself")
	}
	var nilEntry *Entry
	if !nilEntry.Equal(nil) || e.Equal(nil) || nilEntry.Equal(e) {
		t.Fatal("nil handling changed")
	}
}

// TestNetDeltaMatchesDiffOfChain checks the composed delta against the
// definition, Diff(base, ApplyDelta…), on random well-formed chains:
// every delta applies to the snapshot its predecessors produced, and
// the chains include edit-then-revert and add-then-remove.
func TestNetDeltaMatchesDiffOfChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		base := randomSortedSnapshot(rng, rng.Intn(40))
		cur := base
		var chain []*Delta
		for step := rng.Intn(5); step >= 0; step-- {
			d := &Delta{}
			if rng.Intn(3) > 0 {
				d.CapturedAt = base.CapturedAt.AddDate(0, 0, trial+step+1)
			}
			touched := make(map[string]bool)
			for i := rng.Intn(6); i > 0; i-- {
				id := randomID(rng)
				if touched[id] {
					continue
				}
				touched[id] = true
				prev := cur.Search(id)
				switch {
				case prev == nil:
					d.Added = append(d.Added, testEntry(id, rng.Intn(4)))
				case rng.Intn(3) == 0:
					d.Removed = append(d.Removed, id)
				case rng.Intn(2) == 0:
					// Revert to the base's version when there is one.
					if b := base.Search(id); b != nil {
						d.Modified = append(d.Modified, b)
					} else {
						d.Modified = append(d.Modified, testEntry(id, rng.Intn(4)))
					}
				default:
					e := prev.Clone()
					e.Descriptions[0].Value = fmt.Sprintf("edit %d", rng.Intn(3))
					d.Modified = append(d.Modified, e)
				}
			}
			d.Sort()
			chain = append(chain, d)
			cur = cur.ApplyDelta(d)
		}
		want := Diff(base, cur)
		got := NetDelta(base, chain...)
		if !got.CapturedAt.Equal(want.CapturedAt) {
			t.Fatalf("trial %d: CapturedAt %v, want %v", trial, got.CapturedAt, want.CapturedAt)
		}
		if fmt.Sprint(deltaIDs(got)) != fmt.Sprint(deltaIDs(want)) {
			t.Fatalf("trial %d: NetDelta %v, want %v", trial, deltaIDs(got), deltaIDs(want))
		}
		for i := range want.Added {
			if got.Added[i] != want.Added[i] {
				t.Fatalf("trial %d: added %s is not the chain's last write", trial, want.Added[i].ID)
			}
		}
		for i := range want.Modified {
			if got.Modified[i] != want.Modified[i] {
				t.Fatalf("trial %d: modified %s is not the chain's last write", trial, want.Modified[i].ID)
			}
		}
	}
}

func deltaIDs(d *Delta) [3][]string {
	var out [3][]string
	for _, e := range d.Added {
		out[0] = append(out[0], e.ID)
	}
	for _, e := range d.Modified {
		out[1] = append(out[1], e.ID)
	}
	out[2] = d.Removed
	return out
}

// referenceDiff is Diff without the shared prefix and suffix trim: every
// entry is matched by ID.
func referenceDiff(old, new *Snapshot) [3][]string {
	d := &Delta{}
	oldByID := make(map[string]*Entry)
	for _, e := range old.Entries {
		oldByID[e.ID] = e
	}
	seen := make(map[string]bool)
	for _, e := range new.Entries {
		seen[e.ID] = true
		if prev, ok := oldByID[e.ID]; !ok {
			d.Added = append(d.Added, e)
		} else if !prev.Equal(e) {
			d.Modified = append(d.Modified, e)
		}
	}
	for _, e := range old.Entries {
		if !seen[e.ID] {
			d.Removed = append(d.Removed, e.ID)
		}
	}
	d.Sort()
	return deltaIDs(d)
}

// TestDiffOfSharedGenerations: trimming the pointer-identical prefix
// and suffix changes nothing, whether the snapshots share entries (one
// applied on the other), share none, or are unsorted.
func TestDiffOfSharedGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		base := randomSortedSnapshot(rng, rng.Intn(40))
		d := &Delta{}
		for i := rng.Intn(4); i > 0; i-- {
			id := randomID(rng)
			switch prev := base.Search(id); {
			case prev == nil:
				d.Added = append(d.Added, testEntry(id, i))
			case rng.Intn(2) == 0:
				d.Removed = append(d.Removed, id)
			default:
				e := prev.Clone()
				if rng.Intn(2) == 0 {
					e.Descriptions[0].Value = "edited"
				}
				d.Modified = append(d.Modified, e)
			}
		}
		next := base.ApplyDelta(d)
		pairs := [][2]*Snapshot{{base, next}, {next, base}, {base, next.Clone()}}
		if next.Len() > 1 {
			shuffled := &Snapshot{Entries: append([]*Entry(nil), next.Entries...)}
			rng.Shuffle(shuffled.Len(), func(i, j int) {
				shuffled.Entries[i], shuffled.Entries[j] = shuffled.Entries[j], shuffled.Entries[i]
			})
			pairs = append(pairs, [2]*Snapshot{base, shuffled})
		}
		for k, p := range pairs {
			if got, want := deltaIDs(Diff(p[0], p[1])), referenceDiff(p[0], p[1]); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d pair %d: Diff %v, want %v", trial, k, got, want)
			}
		}
	}
}
