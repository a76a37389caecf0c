package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// digest hashes every input a seed makes: the feed, both /query grids,
// the POST bodies and expectations, and the head of every read stream.
func digest(t *testing.T, seed int64) [32]byte {
	t.Helper()
	in, err := newInputs(seed, 30)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(in.feed)
	for _, q := range append(append(append([]string(nil), in.hot...), in.cold...), in.fill...) {
		fmt.Fprintln(h, q)
	}
	for _, p := range append(append([]post(nil), in.posts...), in.prep...) {
		fmt.Fprintln(h, p.kind, p.changed, p.probeID, p.marker)
		h.Write(p.body)
	}
	for _, s := range []struct {
		stream string
		spec   mixSpec
	}{
		{"read-hot-0", in.hotMix()},
		{"query-cold-1", in.coldMix()},
		{"ingest-replica-0", in.hotMix()},
	} {
		m := newReadMix(in, s.stream, s.spec)
		for i := 0; i < 5000; i++ {
			op := m.next()
			fmt.Fprintln(h, op.path, op.cond)
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := digest(t, 7), digest(t, 7)
	if a != b {
		t.Fatalf("seed 7 made different inputs: %x vs %x", a, b)
	}
	if c := digest(t, 8); c == a {
		t.Fatalf("seeds 7 and 8 made identical inputs")
	}
}

func TestInputShapes(t *testing.T) {
	in, err := newInputs(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ids) != numCVEs || len(in.hot) != hotQueries || len(in.cold) < minCold {
		t.Fatalf("%d IDs, %d hot and %d cold queries", len(in.ids), len(in.hot), len(in.cold))
	}
	kinds := map[string]int{}
	for _, p := range in.posts {
		kinds[p.kind]++
		want := 1
		if p.kind == "daily" {
			want = dailyAdds + dailyEdits
		}
		if p.changed != want {
			t.Errorf("%s post changes %d entries, want %d", p.kind, p.changed, want)
		}
	}
	if kinds["retrain"] != 3 || kinds["daily"] != 6 || kinds["edit"] != 21 {
		t.Errorf("post shapes %v, want 3 retrain, 6 daily, 21 edit in 30", kinds)
	}
}
