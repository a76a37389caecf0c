package cve

import (
	"sort"
	"time"
)

// Equal reports whether two entries carry identical data, field by
// field. Timestamps compare with time.Time.Equal so a parsed feed
// entry matches its in-memory source regardless of monotonic-clock
// noise. Diff uses this to decide whether a feed update actually
// changed an entry.
func (e *Entry) Equal(o *Entry) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.ID != o.ID ||
		!e.Published.Equal(o.Published) ||
		!e.LastModified.Equal(o.LastModified) ||
		len(e.Descriptions) != len(o.Descriptions) ||
		len(e.CWEs) != len(o.CWEs) ||
		len(e.CPEs) != len(o.CPEs) ||
		len(e.References) != len(o.References) {
		return false
	}
	for i := range e.Descriptions {
		if e.Descriptions[i] != o.Descriptions[i] {
			return false
		}
	}
	for i := range e.CWEs {
		if e.CWEs[i] != o.CWEs[i] {
			return false
		}
	}
	for i := range e.CPEs {
		if e.CPEs[i] != o.CPEs[i] {
			return false
		}
	}
	for i := range e.References {
		a, b := e.References[i], o.References[i]
		if a.URL != b.URL || len(a.Tags) != len(b.Tags) {
			return false
		}
		for j := range a.Tags {
			if a.Tags[j] != b.Tags[j] {
				return false
			}
		}
	}
	if (e.V2 == nil) != (o.V2 == nil) || (e.V2 != nil && *e.V2 != *o.V2) {
		return false
	}
	if (e.V3 == nil) != (o.V3 == nil) || (e.V3 != nil && *e.V3 != *o.V3) {
		return false
	}
	if (e.PV3 == nil) != (o.PV3 == nil) || (e.PV3 != nil && *e.PV3 != *o.PV3) {
		return false
	}
	return true
}

// Delta is the difference between two snapshots of the same feed — the
// unit of incremental cleaning. The real NVD is a feed that grows
// daily; a Delta captures one day's worth of movement without
// reprocessing the capture.
type Delta struct {
	// CapturedAt is the capture time of the newer snapshot.
	CapturedAt time.Time
	// Added holds entries present only in the newer snapshot, sorted
	// by ID.
	Added []*Entry
	// Modified holds the newer versions of entries present in both
	// snapshots but no longer equal, sorted by ID.
	Modified []*Entry
	// Removed lists IDs present only in the older snapshot, sorted.
	Removed []string
}

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool {
	return d == nil || (len(d.Added) == 0 && len(d.Modified) == 0 && len(d.Removed) == 0)
}

// Size returns the number of changed entries.
func (d *Delta) Size() int {
	if d == nil {
		return 0
	}
	return len(d.Added) + len(d.Modified) + len(d.Removed)
}

// Sort normalizes the delta into its documented order: Added and
// Modified by ID, Removed likewise. Diff returns sorted deltas
// already; hand-assembled deltas (feed upserts) should call this.
func (d *Delta) Sort() {
	if d == nil {
		return
	}
	sortEntries(d.Added)
	sortEntries(d.Modified)
	sortIDs(d.Removed)
}

// ChangedIDs returns the IDs of added and modified entries, sorted.
func (d *Delta) ChangedIDs() []string {
	if d == nil {
		return nil
	}
	out := make([]string, 0, len(d.Added)+len(d.Modified))
	for _, e := range d.Added {
		out = append(out, e.ID)
	}
	for _, e := range d.Modified {
		out = append(out, e.ID)
	}
	sortIDs(out)
	return out
}

// sortIDs orders CVE identifiers by IDLess.
func sortIDs(ids []string) {
	sort.Slice(ids, func(i, j int) bool { return idLess(ids[i], ids[j]) })
}

// IDLess reports whether CVE identifier a orders before b — the total
// order snapshots, deltas and posting lists share. Well-formed IDs
// order by (year, sequence), and by the ID string where distinct
// spellings alias one pair ("CVE-2020-1", "CVE-2020-0001",
// "CVE-2020-+1"); malformed IDs order after every well-formed one,
// lexically among themselves. Only identical strings tie, so every
// arrival order of a snapshot sorts the same way.
func IDLess(a, b string) bool { return idLess(a, b) }

func idLess(a, b string) bool {
	ya, sa, oka := splitID(a)
	yb, sb, okb := splitID(b)
	switch {
	case !oka || !okb:
		if oka != okb {
			return oka
		}
	case ya != yb:
		return ya < yb
	case sa != sb:
		return sa < sb
	}
	return a < b
}

// splitID is SplitID without the error value, with an allocation-free
// fast path for the canonical "CVE-" + four-digit year + "-" + digits
// spelling; every other spelling goes through SplitID.
func splitID(id string) (year, seq int, ok bool) {
	if len(id) > 9 && len(id) < 28 && id[:4] == "CVE-" && id[8] == '-' {
		y, oky := atoiDigits(id[4:8])
		s, oks := atoiDigits(id[9:])
		if oky && oks && y >= 1988 && y <= 2100 {
			return y, s, true
		}
	}
	year, seq, err := SplitID(id)
	return year, seq, err == nil
}

// atoiDigits parses a string of at most 18 ASCII digits.
func atoiDigits(s string) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int(c)
	}
	return n, len(s) > 0
}

// sortEntries orders entries by IDLess, keeping the input order of
// entries that share an ID.
func sortEntries(entries []*Entry) {
	if !entriesSorted(entries) {
		sort.SliceStable(entries, func(i, j int) bool { return idLess(entries[i].ID, entries[j].ID) })
	}
}

// Sorted reports whether the entries are in IDLess order.
func (s *Snapshot) Sorted() bool { return entriesSorted(s.Entries) }

func entriesSorted(entries []*Entry) bool {
	for i := 1; i < len(entries); i++ {
		if idLess(entries[i].ID, entries[i-1].ID) {
			return false
		}
	}
	return true
}

// searchID returns the index of the first of the sorted entries not
// ordering before id: where id sits, or would be inserted.
func searchID(entries []*Entry, id string) int {
	return sort.Search(len(entries), func(i int) bool { return !idLess(entries[i].ID, id) })
}

// Search returns the entry with the given CVE identifier by binary
// search, or nil. The snapshot must be sorted, as Sort and ApplyDelta
// leave it.
func (s *Snapshot) Search(id string) *Entry {
	if i := searchID(s.Entries, id); i < len(s.Entries) && s.Entries[i].ID == id {
		return s.Entries[i]
	}
	return nil
}

// Diff computes the delta that turns the old snapshot into the new
// one. Entries are matched by ID (unique within a snapshot) and
// compared deeply with Entry.Equal; the returned slices share entry
// pointers with the new snapshot. Generations that share unchanged
// entries cost pointer compares: the common prefix and suffix of
// identical entry pointers cannot differ, so only the span between them
// is matched by ID.
func Diff(old, new *Snapshot) *Delta {
	d := &Delta{}
	var olds, news []*Entry
	if old != nil {
		olds = old.Entries
	}
	if new != nil {
		d.CapturedAt = new.CapturedAt
		news = new.Entries
	}
	for len(olds) > 0 && len(news) > 0 && olds[0] == news[0] {
		olds, news = olds[1:], news[1:]
	}
	for len(olds) > 0 && len(news) > 0 && olds[len(olds)-1] == news[len(news)-1] {
		olds, news = olds[:len(olds)-1], news[:len(news)-1]
	}
	oldByID := make(map[string]*Entry, len(olds))
	for _, e := range olds {
		oldByID[e.ID] = e
	}
	seen := make(map[string]bool, len(news))
	for _, e := range news {
		seen[e.ID] = true
		prev, ok := oldByID[e.ID]
		switch {
		case !ok:
			d.Added = append(d.Added, e)
		case !prev.Equal(e):
			d.Modified = append(d.Modified, e)
		}
	}
	for _, e := range olds {
		if !seen[e.ID] {
			d.Removed = append(d.Removed, e.ID)
		}
	}
	d.Sort()
	return d
}

// ApplyDelta returns the snapshot that results from applying the delta
// to s: removed entries dropped, modified entries replaced in place,
// added entries inserted in ID order (after any base entry with the
// same ID), the result sorted by IDLess. It is a merge: one comparison
// pass confirms the receiver is sorted (an unsorted one is sorted into
// a copy first), each changed ID is located by binary search, and the
// untouched runs between them are copied. The receiver is not
// modified; the result shares entry pointers with s and the delta.
func (s *Snapshot) ApplyDelta(d *Delta) *Snapshot {
	out := &Snapshot{CapturedAt: s.CapturedAt}
	if d == nil {
		out.Entries = append([]*Entry(nil), s.Entries...)
		return out
	}
	if !d.CapturedAt.IsZero() {
		out.CapturedAt = d.CapturedAt
	}
	base := s.Entries
	if !entriesSorted(base) {
		base = append([]*Entry(nil), base...)
		sortEntries(base)
	}
	// A splice either replaces the base entry at pos (dropping it when
	// e is nil) or inserts e before it. A removal wins over a
	// modification of the same ID.
	type splice struct {
		pos     int
		replace bool
		e       *Entry
	}
	replaced := make(map[string]*Entry, len(d.Modified)+len(d.Removed))
	for _, e := range d.Modified {
		replaced[e.ID] = e
	}
	for _, id := range d.Removed {
		replaced[id] = nil
	}
	edits := make([]splice, 0, len(replaced)+len(d.Added))
	for id, e := range replaced {
		for i := searchID(base, id); i < len(base) && base[i].ID == id; i++ {
			edits = append(edits, splice{pos: i, replace: true, e: e})
		}
	}
	added := d.Added
	if !entriesSorted(added) {
		added = append([]*Entry(nil), added...)
		sortEntries(added)
	}
	for _, e := range added {
		pos := sort.Search(len(base), func(i int) bool { return idLess(e.ID, base[i].ID) })
		edits = append(edits, splice{pos: pos, e: e})
	}
	// Inserts before a position precede the replacement at it; the
	// stable sort keeps inserts at one position in ID order.
	sort.SliceStable(edits, func(i, j int) bool {
		if edits[i].pos != edits[j].pos {
			return edits[i].pos < edits[j].pos
		}
		return !edits[i].replace && edits[j].replace
	})
	out.Entries = make([]*Entry, 0, len(base)+len(added))
	next := 0
	for _, sp := range edits {
		out.Entries = append(out.Entries, base[next:sp.pos]...)
		next = sp.pos
		if sp.replace {
			next++
		}
		if sp.e != nil {
			out.Entries = append(out.Entries, sp.e)
		}
	}
	out.Entries = append(out.Entries, base[next:]...)
	return out
}

// NetDelta composes a chain of deltas — each applying to the snapshot
// the previous ones produced, starting from base — into the one delta
//
//	Diff(base, base.ApplyDelta(ds[0]).ApplyDelta(ds[1])…)
//
// without building the merged snapshot: the last write to an ID wins,
// an add followed by a remove cancels out, and an ID whose final entry
// equals base's drops out. Base entries are found by binary search, so
// the cost is O(changes · log n) however large base is. base must be
// sorted.
func NetDelta(base *Snapshot, ds ...*Delta) *Delta {
	out := &Delta{CapturedAt: base.CapturedAt}
	final := make(map[string]*Entry) // a nil entry marks a removal
	present := func(id string) bool {
		if e, ok := final[id]; ok {
			return e != nil
		}
		return base.Search(id) != nil
	}
	for _, d := range ds {
		if d == nil {
			continue
		}
		if !d.CapturedAt.IsZero() {
			out.CapturedAt = d.CapturedAt
		}
		// ApplyDelta's precedence: a modification applies only to a
		// present entry, a removal beats it, an addition lands last.
		for _, e := range d.Modified {
			if present(e.ID) {
				final[e.ID] = e
			}
		}
		for _, id := range d.Removed {
			final[id] = nil
		}
		for _, e := range d.Added {
			final[e.ID] = e
		}
	}
	for id, e := range final {
		b := base.Search(id)
		switch {
		case e == nil && b != nil:
			out.Removed = append(out.Removed, id)
		case e == nil:
		case b == nil:
			out.Added = append(out.Added, e)
		case !b.Equal(e):
			out.Modified = append(out.Modified, e)
		}
	}
	out.Sort()
	return out
}
